"""Field checks shared by the frozen config and request dataclasses
(:class:`~repro.methodology.ExperimentConfig` and the
:mod:`repro.api.requests` types).  A malformed field raises
``TypeError`` or ``ValueError`` naming the field at construction,
which the wire decode turns into a 400 before any admission."""

from __future__ import annotations

import math
import numbers


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _real(obj, name: str):
    """A real field's value; ``TypeError`` otherwise."""
    value = getattr(obj, name)
    if not _is_real(value):
        raise TypeError(f"{name} must be a number, got {value!r}")
    return value


def _integer(obj, name: str):
    """An integer field's value; ``TypeError`` otherwise."""
    value = getattr(obj, name)
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return value


def _finite(obj, name: str):
    """A finite real field's value; ``TypeError`` or ``ValueError``
    otherwise."""
    value = _real(obj, name)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def _boolean(obj, name: str) -> bool:
    """A bool field's value; ``TypeError`` otherwise (``"yes"`` or
    ``1`` is not a flag)."""
    value = getattr(obj, name)
    if not isinstance(value, bool):
        raise TypeError(f"{name} must be a bool, got {value!r}")
    return value


def _at_least(obj, name: str, low, check=_real):
    """A field's value as ``check`` reads it; ``ValueError`` unless it
    is ``>= low`` (NaN fails)."""
    value = check(obj, name)
    if not value >= low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return value


def _positive(obj, name: str, check=_real):
    """A field's value as ``check`` reads it; ``ValueError`` unless it
    is ``> 0`` (NaN fails)."""
    value = check(obj, name)
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value}")
    return value
