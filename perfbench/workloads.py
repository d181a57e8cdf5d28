"""The in-process workloads: input generation, one pass, output digest.

Each workload is a fixed batch of inputs.  A run repeats the batch
("pass") until ``--seconds`` have elapsed, at least three times, and
reports each input's median repetition at a quiet host's speed.

* ``solve-grid`` — paper §5 instances (``InstanceSpec``) over
  n ∈ {20, …, 120} × α ∈ {0.9, 1.2, 1.6}, each solved with the six-
  heuristic portfolio through ``solve_many`` on the serial executor;
  every third request refines.  The solver layers do nearly all work.
* ``replay-churn`` — the validated churn trace (``validate=True``,
  ``sim_warmup=True``, default kernel) under all four policies.  The
  simulator's steady-state event core does nearly all work.
* ``replay-transitions`` — the ramp trace under ``harvest`` with
  ``migration_model="state-size"`` and ``sim_transitions=True``: drain
  and state-transfer flows in the elastic network do nearly all work.

The instances and traces form a fixed population drawn from the
population seed (2009 unless ``--population-seed`` says otherwise); the
workload seed orders it.  Drawing the population from the workload seed
made the run-to-run spread a property of the draw: over workload seeds
1-5, solve-grid's pass time spread by 11 % and its p90 latency by 23 %
(interquartile range over median), and 4-policy churn replays took
1.1-5.0 s over trace seeds 1-12.  Claims must also hold on a second
population (``--population-seed 7``).
"""

from __future__ import annotations

import hashlib
import json
import random

#: The paper's six §4.1 placement heuristics (the portfolio).
PORTFOLIO = (
    "random", "comp-greedy", "comm-greedy", "subtree-bottom-up",
    "object-grouping", "object-availability",
)
POLICIES = ("static", "resolve", "harvest", "trade")

GRID = {
    "full": {"n": (20, 40, 60, 80, 100, 120), "alpha": (0.9, 1.2, 1.6),
             "per_cell": 8},
    "small": {"n": (20, 40), "alpha": (0.9, 1.6), "per_cell": 1},
}
#: Trace length per size; ``None`` keeps the generator's default.
REPLAY_EPOCHS = {"full": None, "small": 3}


def digest(items) -> str:
    text = json.dumps(items, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf8")).hexdigest()


# ----------------------------------------------------------------------
# solve-grid
# ----------------------------------------------------------------------

def solve_grid_inputs(seed: int, size: str, population: int) -> list:
    from repro.api import InstanceSpec, SolveRequest

    grid = GRID[size]
    rng = random.Random(f"solve-grid:{population}")
    requests = []
    for n in grid["n"]:
        for alpha in grid["alpha"]:
            for _ in range(grid["per_cell"]):
                instance_seed = rng.randrange(2**31 - 1)
                requests.append(SolveRequest(
                    spec=InstanceSpec(
                        n_operators=n, alpha=alpha, seed=instance_seed
                    ),
                    portfolio=PORTFOLIO,
                    refine=len(requests) % 3 == 2,
                    seed=instance_seed,
                    label=f"n{n}-a{alpha}-{len(requests)}",
                ))
    random.Random(f"solve-grid-order:{seed}").shuffle(requests)
    return requests


def solve_one(request):
    from repro.api import SerialExecutor, solve_many

    return solve_many([request], executor=SerialExecutor())[0]


def solve_fingerprint(result) -> dict:
    """What must not change: cost, winning heuristic, assignment,
    downloads and effective seed (or the failure records)."""
    if not result.ok:
        return {
            "ok": False, "seed": result.seed,
            "failures": sorted((f.strategy, f.stage) for f in result.failures),
        }
    allocation = result.allocation
    return {
        "ok": True, "cost": result.cost, "heuristic": result.heuristic,
        "seed": result.seed,
        "assignment": sorted(allocation.assignment.items()),
        "downloads": sorted(
            [list(key), value] for key, value in allocation.downloads.items()
        ),
    }


def solve_cost(result) -> float:
    return result.cost if result.ok else 0.0


def solve_valid(result) -> bool:
    return True


def solve_span_attributes(request, result) -> dict:
    members = len(request.strategies)
    return {"members": members, "ok_members": members - len(result.failures)}


# ----------------------------------------------------------------------
# replays
# ----------------------------------------------------------------------

def _trace(name: str, population: int, size: str):
    from repro.dynamic import make_trace

    epochs = REPLAY_EPOCHS[size]
    kwargs = {} if epochs is None else {"n_epochs": epochs}
    return make_trace(name, seed=population, **kwargs)


def replay_churn_inputs(seed: int, size: str, population: int) -> list:
    from repro.api import ReplayRequest

    trace = _trace("churn", population, size)
    policies = list(POLICIES)
    random.Random(f"replay-churn:{seed}").shuffle(policies)
    return [
        ReplayRequest(trace=trace, policy=policy, validate=True,
                      sim_warmup=True)
        for policy in policies
    ]


def replay_transitions_inputs(seed: int, size: str,
                              population: int) -> list:
    from repro.api import ReplayRequest

    return [ReplayRequest(
        trace=_trace("ramp", population, size), policy="harvest",
        migration_model="state-size", sim_transitions=True,
    )]


def replay_one(request):
    from repro.api import replay

    return replay(request)


def replay_fingerprint(result) -> dict:
    return {"policy": result.policy, "json": result.to_json(),
            "sim_violation_epochs": result.sim_violation_epochs}


def replay_cost(result) -> float:
    return result.cumulative_cost


def replay_valid(result) -> bool:
    """Every simulator-validated epoch sustains its target."""
    return result.sim_violation_epochs == 0


def replay_span_attributes(request, result) -> dict:
    return {"epochs": result.n_epochs}


class InProcess:
    """One in-process workload: how to make, run and fingerprint it."""

    def __init__(self, name, make_inputs, run_one, fingerprint, valid, cost,
                 span_attributes, tail_pct, reference):
        self.name = name
        self.make_inputs = make_inputs
        self.run_one = run_one
        self.fingerprint = fingerprint
        self.valid = valid
        self.cost = cost
        self.span_attributes = span_attributes
        #: Tail percentile over the inputs, with at least ten inputs
        #: beyond it, or ``100`` (the maximum) for workloads of fewer
        #: than eleven inputs.
        self.tail_pct = tail_pct
        #: The reference job that slows like this workload (see
        #: ``reference.py``).
        self.reference = reference

    def pass_digest(self, fingerprints: list) -> str:
        """Digest of one pass, independent of the seed's ordering."""
        return digest(sorted(fingerprints, key=json.dumps))


IN_PROCESS = {
    "solve-grid": InProcess(
        "solve-grid",
        solve_grid_inputs, solve_one, solve_fingerprint, solve_valid,
        solve_cost,
        solve_span_attributes,
        tail_pct=90, reference="python",
    ),
    "replay-churn": InProcess(
        "replay-churn", replay_churn_inputs, replay_one,
        replay_fingerprint, replay_valid, replay_cost,
        replay_span_attributes,
        tail_pct=100, reference="python",
    ),
    "replay-transitions": InProcess(
        "replay-transitions", replay_transitions_inputs, replay_one,
        replay_fingerprint, replay_valid, replay_cost,
        replay_span_attributes,
        tail_pct=100, reference="numpy",
    ),
}
