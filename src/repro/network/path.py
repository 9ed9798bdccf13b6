"""Multi-hop paths.

A :class:`Path` is the ordered sequence of links a transfer's streams
traverse.  :func:`build_dumbbell` builds the classic
two-host/one-bottleneck topology of the paper's Emulab experiments
(Fig. 3).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.network.link import Link
from repro.network.queue import DropTailLossModel, NoLossModel


@dataclass(frozen=True)
class Path:
    """An ordered, loop-free sequence of links between two endpoints."""

    links: tuple[Link, ...]
    name: str = ""

    def __post_init__(self) -> None:
        if not self.links:
            raise ValueError("a path needs at least one link")
        names = [link.name for link in self.links]
        if len(set(names)) != len(names):
            raise ValueError(f"path visits a link twice: {names}")

    @property
    def rtt(self) -> float:
        """Round-trip time: twice the sum of one-way link delays."""
        return 2.0 * sum(link.delay for link in self.links)

    @property
    def capacity(self) -> float:
        """End-to-end capacity: the minimum link capacity."""
        return min(link.capacity for link in self.links)

    @property
    def bottleneck(self) -> Link:
        """The link with the smallest capacity."""
        return min(self.links, key=lambda link: link.capacity)

    def __iter__(self):
        return iter(self.links)

    def __len__(self) -> int:
        return len(self.links)


def build_dumbbell(
    bottleneck_capacity: float,
    rtt: float,
    edge_capacity: float | None = None,
    name: str = "dumbbell",
) -> Path:
    """The Fig. 3 topology: fast edge links around one bottleneck.

    Parameters
    ----------
    bottleneck_capacity:
        Capacity of the middle link, bps.
    rtt:
        End-to-end round-trip time, seconds (assigned entirely to the
        bottleneck link; edge links are delay-free).
    edge_capacity:
        Capacity of the two edge links; defaults to 10x the bottleneck.
    """
    if edge_capacity is None:
        edge_capacity = 10.0 * bottleneck_capacity
    lossless = NoLossModel()
    return Path(
        links=(
            Link(f"{name}-src-edge", edge_capacity, 0.0, lossless),
            Link(
                f"{name}-bottleneck",
                bottleneck_capacity,
                rtt / 2.0,
                DropTailLossModel(),
            ),
            Link(f"{name}-dst-edge", edge_capacity, 0.0, lossless),
        ),
        name=name,
    )
