"""Pluggable cardinality estimation — one protocol, a registry of sketches.

Every probabilistic distinct-count in the system (enforcement's
``sketch_cardinality`` pivot bounds, the violation monitor) goes through the
:class:`CardinalitySketch` protocol instead of hard-coding one estimator.  The built-in implementations are

* ``"hll"`` — the vectorized HyperLogLog of
  :class:`~repro.core.support.DistinctPivotSketch` (the default; registered
  by :mod:`repro.core.support` on import);
* ``"exact"`` — :class:`ExactCardinalitySketch`, a reference estimator that
  keeps the distinct set (no error, O(distinct) memory; the oracle the
  sketch tests compare against).

Alternative estimators — e.g. an UltraLogLog (Ertl 2023) with its ~28 %
smaller memory footprint at equal error — slot in by calling
:func:`register_sketch` with a factory taking the precision parameter; the
``sketch_backend`` knob on :class:`~repro.core.config.EnforcementConfig`
then selects them by name.

The protocol's contract (what its callers rely on):

* ``add_array`` absorbs int64 id arrays, duplicates free;
* ``merge`` unions two sketches of equal precision — the result must bound
  the union of the inputs (register-wise max for HLL) so per-shard sketches
  combine into a global one;
* ``estimate``/``upper_bound`` — ``upper_bound`` must hold with high
  probability, because callers report it in place of an exact distinct
  count (an overcount, never an undercount).
"""

from __future__ import annotations

import base64
from typing import Callable, Dict, Optional, Protocol, Tuple, runtime_checkable

import numpy as np

__all__ = [
    "CardinalitySketch",
    "ExactCardinalitySketch",
    "register_sketch",
    "make_sketch",
    "sketch_names",
    "dump_sketch_state",
    "load_sketch_state",
]


@runtime_checkable
class CardinalitySketch(Protocol):
    """The estimator interface behind the ``sketch_backend`` knobs."""

    precision: int

    def add_array(self, values: np.ndarray) -> "CardinalitySketch":
        """Absorb an array of int64 ids (duplicates are free); returns self."""
        ...

    def merge(self, other: "CardinalitySketch") -> "CardinalitySketch":
        """Union with another sketch of the same precision; returns self."""
        ...

    def estimate(self) -> float:
        """The cardinality estimate."""
        ...

    def upper_bound(self, z: float = 3.0) -> int:
        """A probable upper bound (``z`` standard errors above the estimate)."""
        ...


class ExactCardinalitySketch:
    """The trivial exact "sketch": keeps the distinct set.

    Zero error and O(distinct) memory — the reference point the
    probabilistic estimators are tested against, and a sensible choice for
    small populations where sketch memory buys nothing.  ``precision`` is
    accepted for interface parity and ignored.
    """

    __slots__ = ("precision", "_values")

    def __init__(self, precision: int = 12) -> None:
        self.precision = precision
        self._values: set = set()

    def add_array(self, values: np.ndarray) -> "ExactCardinalitySketch":
        if np.asarray(values).size:
            self._values.update(np.unique(np.asarray(values)).tolist())
        return self

    def merge(self, other: "ExactCardinalitySketch") -> "ExactCardinalitySketch":
        self._values.update(other._values)
        return self

    def estimate(self) -> float:
        return float(len(self._values))

    def upper_bound(self, z: float = 3.0) -> int:
        return len(self._values)


_REGISTRY: Dict[str, Callable[[int], CardinalitySketch]] = {
    "exact": ExactCardinalitySketch,
}


def register_sketch(
    name: str, factory: Callable[[int], CardinalitySketch]
) -> None:
    """Register a cardinality estimator under ``name``.

    ``factory`` takes the precision parameter (``2^p`` registers for
    HLL-family sketches; estimators free to interpret or ignore it) and
    returns a fresh sketch.  Re-registering a name replaces the factory —
    deliberate, so tests can shadow an estimator.
    """
    if not name:
        raise ValueError("sketch name must be non-empty")
    _REGISTRY[name] = factory


def sketch_names() -> Tuple[str, ...]:
    """The registered estimator names, sorted."""
    return tuple(sorted(_REGISTRY))


def make_sketch(name: str = "hll", precision: int = 12) -> CardinalitySketch:
    """Instantiate a registered estimator by name."""
    if name not in _REGISTRY and name == "hll":
        # the HLL default lives in repro.core.support (it predates the
        # registry); make sure its registration ran even when this module
        # was imported directly
        from . import support  # noqa: F401  (imported for its side effect)
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown sketch backend {name!r} "
            f"(registered: {', '.join(sketch_names())})"
        ) from None
    return factory(precision)


# ----------------------------------------------------------------------
# state (de)serialization — so sketches can persist beside Σ
# ----------------------------------------------------------------------
def dump_sketch_state(sketch: CardinalitySketch) -> Optional[dict]:
    """A JSON-safe state dict for a sketch, or ``None`` if not supported.

    Covers the two built-in shapes by duck typing: register-array sketches
    (``registers`` as a uint8 numpy array — the HLL family) serialize the
    registers base64-encoded; exact sketches (``_values`` set) serialize the
    sorted value list.  Third-party estimators that expose neither are
    skipped (``None``) — persistence is best-effort by design, a missing
    sketch merely cold-starts its rule's gauge.
    """
    registers = getattr(sketch, "registers", None)
    if isinstance(registers, np.ndarray):
        return {
            "kind": "registers",
            "precision": int(sketch.precision),
            "registers": base64.b64encode(
                np.ascontiguousarray(registers, dtype=np.uint8).tobytes()
            ).decode("ascii"),
        }
    values = getattr(sketch, "_values", None)
    if isinstance(values, set):
        return {
            "kind": "exact",
            "precision": int(sketch.precision),
            "values": sorted(int(v) for v in values),
        }
    return None


def load_sketch_state(state: dict, backend: str) -> Optional[CardinalitySketch]:
    """Rebuild a sketch from :func:`dump_sketch_state` output.

    ``backend`` names the registry factory to instantiate; the state must
    structurally match it (register blob for register sketches, value list
    for exact ones) or the load is refused (``None``) rather than producing
    an estimator with silently-wrong state.
    """
    kind = state.get("kind")
    precision = int(state.get("precision", 12))
    sketch = make_sketch(backend, precision)
    if kind == "registers":
        registers = getattr(sketch, "registers", None)
        if not isinstance(registers, np.ndarray):
            return None
        blob = np.frombuffer(
            base64.b64decode(state["registers"]), dtype=np.uint8
        )
        if blob.size != registers.size:
            return None
        sketch.registers = blob.copy()
        return sketch
    if kind == "exact":
        values = getattr(sketch, "_values", None)
        if not isinstance(values, set):
            return None
        values.update(int(v) for v in state.get("values", ()))
        return sketch
    return None
