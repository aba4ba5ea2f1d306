"""Common interface for ordered key-value indexes.

Every index in :mod:`repro.indexes` implements :class:`OrderedIndex` so the
key-value systems under test (:mod:`repro.suts`) can swap structures freely.
Keys are numeric (``float`` or ``int``); values are arbitrary objects.

Indexes also expose :class:`IndexStats`, a per-operation cost accounting
record used by the virtual-time cost models: a lookup reports how many
node probes / comparisons it performed, and the cost model converts those
counts into simulated service time.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Iterator, List, Tuple


@dataclass
class IndexStats:
    """Cumulative operation counters for an index.

    Attributes:
        lookups: Number of point lookups served.
        inserts: Number of successful inserts.
        deletes: Number of successful deletes.
        range_scans: Number of range scans served.
        comparisons: Total key comparisons performed (search work).
        node_accesses: Total node/block touches (memory-hierarchy work).
        model_evaluations: Total learned-model evaluations (learned
            indexes only; zero for traditional structures).
        retrains: Number of times the structure rebuilt or retrained.
        last_search_window: Width of the bounded search window used by
            the most recent learned lookup (0 for exact model hits).
        bulk_cache_builds: Full rebuilds of a :meth:`OrderedIndex.bulk_lookup`
            cache (host-side work; cost models ignore it).
    """

    lookups: int = 0
    inserts: int = 0
    deletes: int = 0
    range_scans: int = 0
    comparisons: int = 0
    node_accesses: int = 0
    model_evaluations: int = 0
    retrains: int = 0
    last_search_window: int = 0
    bulk_cache_builds: int = 0

    def snapshot(self) -> "IndexStats":
        """Return a copy of the current counters."""
        return IndexStats(
            lookups=self.lookups,
            inserts=self.inserts,
            deletes=self.deletes,
            range_scans=self.range_scans,
            comparisons=self.comparisons,
            node_accesses=self.node_accesses,
            model_evaluations=self.model_evaluations,
            retrains=self.retrains,
            last_search_window=self.last_search_window,
            bulk_cache_builds=self.bulk_cache_builds,
        )

    def diff(self, earlier: "IndexStats") -> "IndexStats":
        """Return counters accumulated since an ``earlier`` snapshot."""
        return IndexStats(
            lookups=self.lookups - earlier.lookups,
            inserts=self.inserts - earlier.inserts,
            deletes=self.deletes - earlier.deletes,
            range_scans=self.range_scans - earlier.range_scans,
            comparisons=self.comparisons - earlier.comparisons,
            node_accesses=self.node_accesses - earlier.node_accesses,
            model_evaluations=self.model_evaluations - earlier.model_evaluations,
            retrains=self.retrains - earlier.retrains,
            last_search_window=self.last_search_window,
            bulk_cache_builds=self.bulk_cache_builds - earlier.bulk_cache_builds,
        )


class OrderedIndex(ABC):
    """Abstract ordered index over numeric keys.

    Implementations must keep :attr:`stats` up to date; the benchmark's
    cost models read those counters to charge virtual time per operation.
    """

    def __init__(self) -> None:
        self.stats = IndexStats()

    # -- required interface -------------------------------------------------

    @abstractmethod
    def get(self, key: float) -> Any:
        """Return the value stored under ``key``.

        Raises:
            KeyNotFoundError: If ``key`` is absent.
        """

    @abstractmethod
    def insert(self, key: float, value: Any) -> None:
        """Insert ``key`` → ``value``; overwrite if the key exists."""

    @abstractmethod
    def delete(self, key: float) -> None:
        """Remove ``key``.

        Raises:
            KeyNotFoundError: If ``key`` is absent.
        """

    @abstractmethod
    def range(self, low: float, high: float) -> List[Tuple[float, Any]]:
        """Return all ``(key, value)`` pairs with ``low <= key <= high``,
        in ascending key order."""

    @abstractmethod
    def items(self) -> Iterator[Tuple[float, Any]]:
        """Iterate all pairs in ascending key order."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of keys stored."""

    # -- optional interface --------------------------------------------------

    def bulk_lookup(self, keys) -> "Any":
        """Vectorized point lookups over a float64 key array, or ``None``.

        Contract: when supported and *every* key is found, perform the
        lookups, commit exactly the counter increments the equivalent
        sequence of :meth:`get` calls would have made to :attr:`stats`,
        and return a ``(comparisons, node_accesses, model_evaluations)``
        tuple of per-key int arrays. Return ``None`` — with the lookup
        counters untouched — when the bulk path is unsupported or any key
        would miss; the caller then falls back to scalar :meth:`get`
        calls. Only ``bulk_cache_builds`` may move on either outcome.
        Default: unsupported.
        """
        return None

    def contains(self, key: float) -> bool:
        """Return whether ``key`` is present (default: probe ``get``)."""
        from repro.errors import KeyNotFoundError

        try:
            self.get(key)
        except KeyNotFoundError:
            return False
        return True

    def bulk_load(self, pairs: List[Tuple[float, Any]]) -> None:
        """Load sorted-or-unsorted pairs; default inserts one by one.

        Structures with faster bottom-up builds override this.
        """
        for key, value in sorted(pairs, key=lambda kv: kv[0]):
            self.insert(key, value)

    def keys(self) -> List[float]:
        """Return all keys in ascending order."""
        return [key for key, _ in self.items()]

    def size_bytes(self) -> int:
        """Approximate in-memory footprint of the *index structure*.

        Counts keys, pointers, and model parameters at 8 bytes each
        (values are excluded — all structures store the same payload).
        Feeds the size-vs-latency Pareto comparison (SOSD's headline
        plot) and memory-aware TCO accounting. Default: 16 bytes per
        stored key (key + pointer).
        """
        return 16 * len(self)

    def index_overhead_bytes(self) -> int:
        """Structure size beyond the raw sorted (key, pointer) payload.

        SOSD's framing: the data itself (16 bytes/record) is the same for
        every structure; what differs is the *auxiliary* index — a B+
        tree's whole node graph vs an RMI's few model parameters. Never
        negative.
        """
        return max(0, self.size_bytes() - 16 * len(self))

    @property
    def name(self) -> str:
        """Short human-readable structure name."""
        return type(self).__name__


@dataclass
class _Entry:
    """Internal key/value pair used by array-backed structures."""

    key: float
    value: Any = field(default=None)
