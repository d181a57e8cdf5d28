"""Basic objects: the continuously-updated data sources at tree leaves.

In the paper's model (§2.1) the leaves of the operator tree are *basic
objects* ``o_k`` spread over data servers.  An object has

* a size ``δ_k`` in MB, and
* a download frequency ``f_k`` in 1/s, fixed by application QoS
  ("computations are performed using sufficiently up-to-date data"),

so every processor that uses it consumes ``rate_k = δ_k · f_k`` MB/s on
each NIC and link the download crosses — *regardless* of how many
operators on that processor consume the object (a processor downloads a
given object once).

Several tree leaves may refer to the same object (cf. Figure 1), which
is exactly what makes the mapping problem NP-hard; this module therefore
distinguishes the *object type* (this class) from *leaf occurrences*
(:class:`repro.apptree.nodes.LeafRef`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

import numpy as np

from ..errors import ModelError
from ..rng import make_rng

__all__ = ["BasicObject", "ObjectCatalog", "SMALL_SIZE_RANGE_MB",
           "LARGE_SIZE_RANGE_MB", "HIGH_FREQUENCY_HZ", "LOW_FREQUENCY_HZ"]

#: §5: "simulations with small object sizes, in the δk ∈ [5, 30] MB range".
SMALL_SIZE_RANGE_MB: tuple[float, float] = (5.0, 30.0)
#: §5: "large object sizes are in the δk ∈ [450, 530] MB range".
LARGE_SIZE_RANGE_MB: tuple[float, float] = (450.0, 530.0)
#: §5: high download frequency, one download every 2 s.
HIGH_FREQUENCY_HZ: float = 1.0 / 2.0
#: §5: low download frequency, one download every 50 s.
LOW_FREQUENCY_HZ: float = 1.0 / 50.0


@dataclass(frozen=True, slots=True)
class BasicObject:
    """One basic-object *type* ``o_k``.

    Parameters
    ----------
    index:
        Position ``k`` in the catalog; doubles as the identity used by
        mappings and download plans.
    size_mb:
        ``δ_k`` — bytes transferred per refresh, in MB.
    frequency_hz:
        ``f_k`` — required refresh frequency, in 1/s.
    name:
        Optional human-readable label (used by the examples).
    """

    index: int
    size_mb: float
    frequency_hz: float
    name: str = ""

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ModelError(f"object index must be >= 0, got {self.index}")
        if self.size_mb <= 0:
            raise ModelError(f"object size must be positive, got {self.size_mb}")
        if self.frequency_hz <= 0:
            raise ModelError(
                f"object frequency must be positive, got {self.frequency_hz}"
            )

    @property
    def rate_mbps(self) -> float:
        """Steady-state bandwidth of one download stream: ``δ_k · f_k``."""
        return self.size_mb * self.frequency_hz

    @property
    def label(self) -> str:
        return self.name or f"o{self.index}"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.label}(δ={self.size_mb:g} MB, f={self.frequency_hz:g}/s,"
            f" rate={self.rate_mbps:g} MB/s)"
        )


class ObjectCatalog:
    """The set ``O`` of basic-object types available to an application.

    The catalog is immutable after construction and indexable by object
    index.  §5's methodology uses 15 types with sizes drawn uniformly in
    a regime-dependent range and a single shared frequency; use
    :meth:`random` for that.
    """

    def __init__(self, objects: Sequence[BasicObject]) -> None:
        if not objects:
            raise ModelError("an object catalog cannot be empty")
        for pos, obj in enumerate(objects):
            if obj.index != pos:
                raise ModelError(
                    f"catalog objects must be indexed contiguously: position "
                    f"{pos} holds object with index {obj.index}"
                )
        self._objects: tuple[BasicObject, ...] = tuple(objects)
        self._rates: tuple[float, ...] = tuple(o.rate_mbps for o in objects)

    # -- construction -------------------------------------------------
    @classmethod
    def random(
        cls,
        n_types: int = 15,
        *,
        size_range_mb: tuple[float, float] = SMALL_SIZE_RANGE_MB,
        frequency_hz: float = HIGH_FREQUENCY_HZ,
        seed: int | np.random.Generator | None = None,
    ) -> "ObjectCatalog":
        """Draw a catalog following the paper's methodology (§5).

        "each basic object is chosen randomly among 15 different types.
        For each of these 15 basic object types, we randomly choose a
        fixed size."
        """
        if n_types <= 0:
            raise ModelError("n_types must be positive")
        lo, hi = size_range_mb
        if not (0 < lo <= hi):
            raise ModelError(f"invalid size range {size_range_mb}")
        rng = make_rng(seed)
        sizes = rng.uniform(lo, hi, size=n_types)
        return cls(
            [
                BasicObject(index=k, size_mb=float(sizes[k]),
                            frequency_hz=frequency_hz)
                for k in range(n_types)
            ]
        )

    @classmethod
    def uniform(
        cls, n_types: int, size_mb: float, frequency_hz: float
    ) -> "ObjectCatalog":
        """A catalog where every type has identical size and frequency
        (used by complexity-result tests and the exact solver)."""
        return cls(
            [
                BasicObject(index=k, size_mb=size_mb, frequency_hz=frequency_hz)
                for k in range(n_types)
            ]
        )

    def with_frequency(self, frequency_hz: float) -> "ObjectCatalog":
        """Return a copy with every object's frequency replaced.

        Used by the rate-sweep experiment, which varies ``f_k`` while
        keeping sizes fixed.
        """
        return ObjectCatalog(
            [
                BasicObject(
                    index=o.index,
                    size_mb=o.size_mb,
                    frequency_hz=frequency_hz,
                    name=o.name,
                )
                for o in self._objects
            ]
        )

    # -- container protocol -------------------------------------------
    def __len__(self) -> int:
        return len(self._objects)

    def __iter__(self) -> Iterator[BasicObject]:
        return iter(self._objects)

    def __getitem__(self, index: int) -> BasicObject:
        return self._objects[index]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ObjectCatalog) and self._objects == other._objects

    def __hash__(self) -> int:
        return hash(self._objects)

    # -- queries --------------------------------------------------------
    @property
    def indices(self) -> range:
        return range(len(self._objects))

    def rate_of(self, index: int) -> float:
        """``rate_k`` of object ``index`` in MB/s."""
        return self._rates[index]

    def rates(self) -> np.ndarray:
        """All rates as a vector (hot path for load accounting)."""
        return np.array([o.rate_mbps for o in self._objects], dtype=float)

    def sizes(self) -> np.ndarray:
        return np.array([o.size_mb for o in self._objects], dtype=float)

    def total_rate(self, multiplicity: Mapping[int, int] | None = None) -> float:
        """Aggregate rate; with ``multiplicity``, counts each object the
        given number of times (used by lower bounds)."""
        if multiplicity is None:
            return float(sum(o.rate_mbps for o in self._objects))
        return float(
            sum(self._objects[k].rate_mbps * m for k, m in multiplicity.items())
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ObjectCatalog(n={len(self._objects)})"
