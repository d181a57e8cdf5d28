"""Golden local-search results: the exact outcome of a fixed grid.

For every case of n ∈ {20, 60, 120} × α ∈ {0.9, 1.6} × the six
placement heuristics × seeds {0, 1}, the heuristic places
``quick_instance(n, alpha=α, seed=seed)`` with ``rng=seed`` and
:func:`refine_placement` hill-climbs the result.  The fixture records
every :class:`RefinementReport` field, the sorted final assignment and
each remaining machine's purchased spec cost (or the placement error),
and the test compares them exactly: a faster refiner must take the
same moves, not merely reach a similar cost.

The fixture under ``golden/`` was generated by :func:`generate`
(``python -c "from tests.core.test_refine_golden import generate;
generate()"`` with ``PYTHONPATH=src``) and is only ever regenerated
when the search is *meant* to move differently.
"""

import dataclasses
import json
import pathlib

import pytest

import repro
from repro.core.heuristics import make_heuristic, refine_placement
from repro.errors import PlacementError

GOLDEN = pathlib.Path(__file__).parent / "golden" / "refine.json"

HEURISTICS = (
    "comm-greedy", "comp-greedy", "object-availability",
    "object-grouping", "random", "subtree-bottom-up",
)
CASES = [
    (n, alpha, heuristic, seed)
    for n in (20, 60, 120)
    for alpha in (0.9, 1.6)
    for heuristic in HEURISTICS
    for seed in (0, 1)
]


def case_id(n: int, alpha: float, heuristic: str, seed: int) -> str:
    return f"n{n}-a{alpha}-{heuristic}-s{seed}"


def run_case(n: int, alpha: float, heuristic: str, seed: int) -> dict:
    inst = repro.quick_instance(n, alpha=alpha, seed=seed)
    try:
        outcome = make_heuristic(heuristic).place(inst, rng=seed)
    except PlacementError as exc:
        return {"placement_error": str(exc)}
    report = refine_placement(inst, outcome)
    return {
        "report": dataclasses.asdict(report),
        "assignment": sorted(outcome.tracker.assignment.items()),
        "spec_costs": [
            [uid, outcome.builder.get(uid).spec.cost]
            for uid in outcome.builder.uids
        ],
    }


def generate() -> None:
    GOLDEN.parent.mkdir(exist_ok=True)
    cases = {case_id(*case): run_case(*case) for case in CASES}
    GOLDEN.write_text(json.dumps(cases, indent=1, sort_keys=True) + "\n")


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_fixture_covers_the_grid(golden):
    assert sorted(golden) == sorted(case_id(*case) for case in CASES)


@pytest.mark.parametrize("case", CASES, ids=lambda c: case_id(*c))
def test_refinement_matches_golden(golden, case):
    # a JSON round trip turns tuples into lists and keeps floats exact
    got = json.loads(json.dumps(run_case(*case)))
    assert got == golden[case_id(*case)]
