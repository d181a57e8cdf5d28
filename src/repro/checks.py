"""Field checks shared by the frozen config and request dataclasses
(:class:`~repro.experiments.config.ExperimentConfig`,
:class:`~repro.api.requests.InstanceSpec`).  A malformed field raises
``TypeError`` or ``ValueError`` at construction, which the wire decode
turns into a 400 before any admission."""

from __future__ import annotations

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
