"""Steady-state discrete-event simulation of purchased platforms."""

from .engine import (
    FLOW_KERNELS,
    InjectedFlow,
    SimulationResult,
    SteadyStateSimulator,
    flow_kernel,
)
from .events import EventQueue
from .flows import CapacityConstraint, FlowNetwork, FlowSpec, max_min_rates
from .measure import (
    SUSTAIN_FRACTION,
    ThroughputProbe,
    measured_max_throughput,
    simulate_allocation,
    sustains_target,
)

__all__ = [
    "CapacityConstraint",
    "EventQueue",
    "FLOW_KERNELS",
    "FlowNetwork",
    "FlowSpec",
    "InjectedFlow",
    "SUSTAIN_FRACTION",
    "SimulationResult",
    "SteadyStateSimulator",
    "ThroughputProbe",
    "flow_kernel",
    "max_min_rates",
    "measured_max_throughput",
    "simulate_allocation",
    "sustains_target",
]
