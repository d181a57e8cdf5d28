"""High-level measurement helpers around the steady-state engine.

These wrap :class:`~repro.simulator.engine.SteadyStateSimulator` into
the two measurements the test-suite and benchmarks need:

* :func:`simulate_allocation` — run once at a given offered rate;
* :func:`measured_max_throughput` — bisect the offered rate to find the
  empirical maximum sustainable throughput, for comparison against the
  analytic :func:`~repro.core.throughput.max_throughput` (they agree to
  bisection tolerance on every feasible allocation; that agreement is
  the strongest end-to-end check in the suite).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.mapping import Allocation
from ..core.throughput import max_throughput
from .engine import SimulationResult, SteadyStateSimulator

__all__ = [
    "SUSTAIN_FRACTION",
    "simulate_allocation",
    "measured_max_throughput",
    "sustains_target",
    "ThroughputProbe",
]

#: Fraction of the offered rate a run must achieve to count as
#: sustaining it (absorbs warm-up transients over short runs).
SUSTAIN_FRACTION: float = 0.98


def sustains_target(result: SimulationResult, rho: float) -> bool:
    """The SLA-acceptance predicate shared by the throughput bisection
    and the dynamic replay validation: a run sustains target ``rho``
    when it neither saturated nor missed a download deadline and
    achieved at least :data:`SUSTAIN_FRACTION` of the target."""
    return (
        not result.saturated
        and result.download_misses == 0
        and result.achieved_rate >= rho * SUSTAIN_FRACTION
    )


def simulate_allocation(
    allocation: Allocation,
    *,
    offered_rate: float | None = None,
    n_results: int = 50,
    flow_policy: str = "reserved",
    kernel: str | None = None,
    warmup_results: int = 0,
) -> SimulationResult:
    """One steady-state run (defaults to the instance's target ρ).

    ``kernel`` picks the max-min implementation (``"warm"`` or the
    ``"naive"`` oracle); ``None`` uses the process default,
    controllable with
    :func:`~repro.simulator.engine.flow_kernel`.  ``warmup_results``
    floors how many leading completions the achieved-rate window skips
    (0 keeps the historical drop-first-third window).
    """
    sim = SteadyStateSimulator(
        allocation,
        offered_rate=offered_rate,
        n_results=n_results,
        flow_policy=flow_policy,  # type: ignore[arg-type]
        kernel=kernel,  # type: ignore[arg-type]
        warmup_results=warmup_results,
    )
    return sim.run()


@dataclass(frozen=True)
class ThroughputProbe:
    """Result of the empirical throughput search."""

    measured: float
    analytic: float
    lo: float
    hi: float
    n_runs: int

    @property
    def relative_gap(self) -> float:
        if self.analytic in (0.0, float("inf")):
            return 0.0
        return abs(self.measured - self.analytic) / self.analytic


def _sustains(allocation: Allocation, rho: float, n_results: int) -> bool:
    res = simulate_allocation(
        allocation, offered_rate=rho, n_results=n_results
    )
    return sustains_target(res, rho)


def measured_max_throughput(
    allocation: Allocation,
    *,
    n_results: int = 40,
    tolerance: float = 0.02,
    max_iters: int = 20,
) -> ThroughputProbe:
    """Bisect the offered rate for the empirical sustainable maximum.

    The analytic ρ★ brackets the search; unbounded analytic throughput
    (single machine, no ρ-dependent constraint) is probed at an
    arbitrary high rate and reported directly.
    """
    analytic = max_throughput(allocation).rho_max
    runs = 0
    if analytic == float("inf"):
        return ThroughputProbe(
            measured=float("inf"), analytic=analytic,
            lo=float("inf"), hi=float("inf"), n_runs=0,
        )
    lo, hi = 0.0, analytic * 2.0
    # establish that hi fails and analytic*(1-tol) works, then bisect
    for _ in range(max_iters):
        runs += 1
        mid = (lo + hi) / 2.0 if lo > 0 else analytic * 0.5
        if _sustains(allocation, mid, n_results):
            lo = mid
        else:
            hi = mid
        if hi - lo <= tolerance * max(analytic, 1e-12):
            break
    return ThroughputProbe(
        measured=lo, analytic=analytic, lo=lo, hi=hi, n_runs=runs
    )
