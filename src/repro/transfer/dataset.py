"""Datasets and the file queue a transfer session consumes.

The paper's workloads:

* the main evaluation dataset — ``1000 x 1 GB`` files (§4);
* *small* — 1 KiB .. 10 MiB files totalling 120 GiB (§4.4);
* *large* — 100 MiB .. 10 GiB files totalling 1 TiB (§4.4);
* *mixed* — union of small and large, 1.2 TiB (§4.4).

File sizes are held in a single numpy array (no per-file objects — the
small dataset has >100k files and the guides' advice applies: vectorise,
avoid Python-object overhead).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.units import GB, GiB, KiB, MiB, format_size


@dataclass(frozen=True)
class Dataset:
    """An immutable collection of file sizes (bytes)."""

    sizes: np.ndarray
    name: str = "dataset"

    def __post_init__(self) -> None:
        sizes = np.asarray(self.sizes, dtype=float)
        if sizes.ndim != 1:
            raise ValueError("sizes must be a 1-D array")
        if sizes.size == 0:
            raise ValueError("dataset must contain at least one file")
        if np.any(sizes <= 0):
            raise ValueError("file sizes must be positive")
        object.__setattr__(self, "sizes", sizes)

    @property
    def file_count(self) -> int:
        """Number of files."""
        return int(self.sizes.size)

    @property
    def total_bytes(self) -> float:
        """Total dataset size in bytes."""
        return float(self.sizes.sum())

    @property
    def mean_file_bytes(self) -> float:
        """Average file size in bytes."""
        return float(self.sizes.mean())

    def queue(self, repeat: bool = False) -> "FileQueue":
        """A consumable queue over this dataset's files.

        With ``repeat=True`` the queue restarts when exhausted —
        used by steady-state experiments that must outlast the dataset
        (the paper's long traces keep transferring for the whole run).
        """
        return FileQueue(self.sizes, repeat=repeat)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Dataset({self.name}: {self.file_count} files, "
            f"{format_size(self.total_bytes)})"
        )


@dataclass
class FileQueue:
    """Mutable cursor over a dataset, with requeue support.

    ``pop`` hands out ``(size, bytes_already_done)`` pairs.  When a
    worker is torn down mid-file (Falcon lowered concurrency), the file
    goes back via ``push_back`` *keeping its progress* — modelling
    restartable transfers so parameter changes don't forfeit work.

    Fault tolerance rides on two extensions:

    * every returned file carries a *transfer-attempt count* (how many
      times a worker failed while moving it), surfaced through
      :attr:`last_attempts` right after a ``pop`` so the session can
      track per-file retry budgets;
    * :meth:`hold` / :meth:`release` account for files temporarily
      *out* of the queue while a retry backoff timer runs — a held file
      still counts as remaining work, so the session cannot complete
      (and silently drop it) before the requeue fires.
    """

    sizes: np.ndarray
    repeat: bool = False
    _cursor: int = 0
    _returned: list[tuple[float, float, int]] = field(default_factory=list)
    _held: int = 0
    #: Attempt count of the most recently popped file (0 = fresh file).
    last_attempts: int = 0

    def __post_init__(self) -> None:
        self.sizes = np.asarray(self.sizes, dtype=float)

    @property
    def remaining_files(self) -> int:
        """Files not yet handed out (infinite queues report the cycle's rest).

        Held files (awaiting a retry-backoff requeue) are included: they
        are pending work even though they are not poppable right now.
        """
        return len(self._returned) + self._held + (self.sizes.size - self._cursor)

    @property
    def exhausted(self) -> bool:
        """True when nothing is left to hand out."""
        return not self.repeat and self.remaining_files == 0

    @property
    def poppable(self) -> bool:
        """True when :meth:`pop` would hand out a file right now.

        Held files do not count: they are pending work, but nothing can
        be popped until :meth:`release` and a ``push_back`` return them.
        Lets callers skip an assignment pass that could only pop ``None``.
        """
        return bool(self._returned) or self.repeat or self._cursor < self.sizes.size

    def pop(self) -> tuple[float, float] | None:
        """Next ``(file_size, bytes_done)`` or ``None`` when exhausted.

        Returned files are handed out LIFO (most recently pushed back
        first), ahead of fresh files.  This is deliberate: a requeued
        file usually carries partial progress, and re-dispatching it
        immediately keeps that progress hot instead of parking it
        behind the rest of the dataset; the golden scenarios pin this
        order, so changing it to FIFO is a semantics change.
        """
        if self._returned:
            size, done, attempts = self._returned.pop()
            self.last_attempts = attempts
            return size, done
        self.last_attempts = 0
        if self._cursor >= self.sizes.size:
            if not self.repeat:
                return None
            self._cursor = 0
        size = float(self.sizes[self._cursor])
        self._cursor += 1
        return size, 0.0

    def push_back(self, size: float, done: float, attempts: int = 0) -> None:
        """Return a partially transferred file to the queue.

        ``attempts`` is the number of failed transfer attempts the file
        has accumulated; it travels with the file and is surfaced via
        :attr:`last_attempts` when the file is popped again.
        """
        if not 0 <= done <= size:
            raise ValueError("done must be within [0, size]")
        if attempts < 0:
            raise ValueError("attempts must be non-negative")
        self._returned.append((size, done, attempts))

    # -- backoff holds -------------------------------------------------------

    def hold(self) -> None:
        """Mark one file as held outside the queue (retry backoff)."""
        self._held += 1

    def release(self) -> None:
        """Mark one held file as returned (pair with :meth:`hold`)."""
        if self._held <= 0:
            raise ValueError("release() without a matching hold()")
        self._held -= 1


# ---------------------------------------------------------------------------
# Workload generators.
# ---------------------------------------------------------------------------


def uniform_dataset(count: int = 1000, size_bytes: float = 1 * GB, name: str | None = None) -> Dataset:
    """``count`` equally sized files — the paper's main 1000 x 1 GB workload."""
    if count <= 0:
        raise ValueError("count must be positive")
    if size_bytes <= 0:
        raise ValueError("size_bytes must be positive")
    label = name or f"{count}x{format_size(size_bytes)}"
    return Dataset(np.full(count, float(size_bytes)), name=label)


def _log_uniform_sizes(
    rng: np.random.Generator, total_bytes: float, lo: float, hi: float
) -> np.ndarray:
    """Draw log-uniform file sizes until their sum reaches ``total_bytes``.

    Log-uniform across decades matches the heavy skew of real science
    datasets (most files small, most bytes in large files).
    """
    sizes: list[float] = []
    acc = 0.0
    # Expected size of a log-uniform draw; pre-draw in blocks for speed.
    while acc < total_bytes:
        block = np.exp(rng.uniform(np.log(lo), np.log(hi), size=4096))
        for s in block:
            sizes.append(float(s))
            acc += s
            if acc >= total_bytes:
                break
    return np.array(sizes)


def small_dataset(
    total_bytes: float = 120 * GiB,
    min_bytes: float = 1 * KiB,
    max_bytes: float = 10 * MiB,
    seed: int = 0,
) -> Dataset:
    """§4.4 *small*: 1 KiB – 10 MiB files, 120 GiB total."""
    rng = np.random.default_rng(seed)
    return Dataset(_log_uniform_sizes(rng, total_bytes, min_bytes, max_bytes), name="small")


def large_dataset(
    total_bytes: float = 1024 * GiB,
    min_bytes: float = 100 * MiB,
    max_bytes: float = 10 * GiB,
    seed: int = 0,
) -> Dataset:
    """§4.4 *large*: 100 MiB – 10 GiB files, 1 TiB total."""
    rng = np.random.default_rng(seed)
    return Dataset(_log_uniform_sizes(rng, total_bytes, min_bytes, max_bytes), name="large")


def mixed_dataset(seed: int = 0) -> Dataset:
    """§4.4 *mixed*: the union of *small* and *large* (1.2 TiB), shuffled."""
    small = small_dataset(seed=seed)
    large = large_dataset(seed=seed + 1)
    rng = np.random.default_rng(seed + 2)
    sizes = np.concatenate([small.sizes, large.sizes])
    rng.shuffle(sizes)
    return Dataset(sizes, name="mixed")
