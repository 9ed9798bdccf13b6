"""Max-min fair bandwidth allocation (progressive filling).

Equal-RTT TCP flows sharing a bottleneck converge to an approximately
max-min fair allocation (the paper leans on this: "most commonly used
TCP variants ... guarantee fairness among competing flows with the same
RTT").  Every shared resource in the simulator — bottleneck links,
storage arrays, NICs — arbitrates demand with the functions below.

The implementation is the classic water-filling algorithm, vectorised
with numpy: sort demands, find the breakpoint where the remaining
capacity split evenly no longer satisfies the next demand, and cap
everything beyond it at the fair level.
"""

from __future__ import annotations

import numpy as np


def max_min_fair_share(demands: np.ndarray, capacity: float) -> np.ndarray:
    """Allocate ``capacity`` among ``demands`` max-min fairly.

    Parameters
    ----------
    demands:
        1-D array of non-negative demanded rates.
    capacity:
        Total capacity to divide (same unit as demands).

    Returns
    -------
    numpy.ndarray
        Allocation with ``0 <= alloc <= demand`` elementwise,
        ``alloc.sum() <= capacity`` (with equality when
        ``demands.sum() >= capacity``), and the max-min property: every
        unsatisfied flow receives the common fair level, which no
        satisfied flow exceeds.
    """
    demands = np.asarray(demands, dtype=float)
    if demands.ndim != 1:
        raise ValueError("demands must be a 1-D array")
    if np.any(demands < 0):
        raise ValueError("demands must be non-negative")
    if capacity < 0:
        raise ValueError("capacity must be non-negative")
    return _fair_share_unchecked(demands, capacity)


def _fair_share_unchecked(demands: np.ndarray, capacity: float) -> np.ndarray:
    """:func:`max_min_fair_share` without input validation.

    Internal fast path for the simulator's resource allocators, which
    call this tens of thousands of times per simulated second with
    demands they constructed themselves (1-D float, non-negative).
    """
    n = demands.size
    if n == 0:
        return np.zeros(0)
    total = demands.sum()
    # repro: lint-ok[F003]: exact-zero guard — total is a sum of
    # non-negative demands, which is 0.0 iff every demand is 0.0.
    if total <= capacity or total == 0.0:
        return demands.copy()

    # Progressive filling via the sorted-prefix formulation: after
    # sorting demands ascending, flow k is fully satisfied iff
    # prefix_sum(k) + d[k] * (n - k - 1) <= capacity  (serving all
    # smaller demands exactly and giving everyone else at least d[k]).
    order = np.argsort(demands, kind="stable")
    d = demands[order]
    prefix = np.concatenate(([0.0], np.cumsum(d)[:-1]))
    remaining_flows = n - np.arange(n)
    satisfiable = prefix + d * remaining_flows <= capacity

    alloc_sorted = d.copy()
    if not satisfiable.all():
        k = int(np.argmin(satisfiable))  # first unsatisfiable index
        fair_level = (capacity - prefix[k]) / (n - k)
        alloc_sorted[k:] = fair_level

    alloc = np.empty(n)
    alloc[order] = alloc_sorted
    return alloc


def weighted_max_min_fair_share(
    demands: np.ndarray, weights: np.ndarray, capacity: float
) -> np.ndarray:
    """Weighted max-min fair allocation.

    Flow *i*'s fair level is proportional to ``weights[i]``; used to
    model flows with different aggressiveness (e.g. a BBR-flavoured
    stream competing with loss-based TCP).

    Implemented by the substitution ``d'_i = d_i / w_i`` — running plain
    max-min on normalised demands and scaling back.
    """
    demands = np.asarray(demands, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if demands.shape != weights.shape:
        raise ValueError("demands and weights must have the same shape")
    if np.any(weights <= 0):
        raise ValueError("weights must be positive")
    if np.any(demands < 0):
        raise ValueError("demands must be non-negative")
    if capacity < 0:
        raise ValueError("capacity must be non-negative")
    if demands.sum() <= capacity:
        return demands.copy()
    return _weighted_fill(demands, weights, capacity)


def _weighted_fill(
    demands: np.ndarray, weights: np.ndarray, capacity: float
) -> np.ndarray:
    """Exact weighted progressive filling (iterative)."""
    n = demands.size
    alloc = np.zeros(n)
    active = demands > 0
    remaining = float(capacity)
    # Each round either saturates at least one flow or exhausts
    # capacity, so this loop runs at most n times.
    while active.any() and remaining > 1e-12 * max(capacity, 1.0):
        w_active = weights[active]
        level = remaining / w_active.sum()
        head_room = demands[active] - alloc[active]
        grant = np.minimum(head_room, level * w_active)
        alloc[active] += grant
        remaining -= grant.sum()
        newly_done = np.zeros(n, dtype=bool)
        newly_done[active] = alloc[active] >= demands[active] - 1e-12 * np.maximum(
            demands[active], 1.0
        )
        if not newly_done.any():
            break  # everyone hit the fair level exactly; capacity gone
        active &= ~newly_done
    return alloc


def bottleneck_utilization(demands: np.ndarray, capacity: float) -> float:
    """Fraction of ``capacity`` actually used after fair allocation."""
    if capacity <= 0:
        return 0.0
    return float(max_min_fair_share(demands, capacity).sum() / capacity)
