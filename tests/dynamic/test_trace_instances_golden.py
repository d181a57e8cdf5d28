"""Golden trace instances: every epoch of every trace family, pinned.

For each :data:`TRACE_FACTORIES` family at its default arguments and
trace seeds 2009 and 7, the fixture records the SHA-256 digest of
:func:`repro.io.instance_to_dict` for every epoch instance, the initial
one included.  This pins the single-tree instances the trace families
draw from the paper's methodology, and every mutation applied on top.

The fixture under ``golden/`` was generated by :func:`generate`
(``python -c "from tests.dynamic.test_trace_instances_golden import
generate; generate()"`` with ``PYTHONPATH=src``) and is only ever
regenerated when a trace is *meant* to produce different instances.
"""

import hashlib
import json
import pathlib

import pytest

from repro.dynamic.traces import TRACE_FACTORIES, make_trace
from repro.io import instance_to_dict

GOLDEN = pathlib.Path(__file__).parent / "golden" / "trace_instances.json"

SEEDS = (2009, 7)


def _digest(instance) -> str:
    blob = json.dumps(instance_to_dict(instance), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def run_family(name: str) -> dict:
    return {
        str(seed): [
            [time, label, _digest(instance)]
            for time, label, instance in make_trace(name, seed=seed).epochs()
        ]
        for seed in SEEDS
    }


def generate() -> None:
    GOLDEN.parent.mkdir(exist_ok=True)
    data = {name: run_family(name) for name in sorted(TRACE_FACTORIES)}
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_fixture_covers_every_family(golden):
    assert sorted(golden) == sorted(TRACE_FACTORIES)


@pytest.mark.parametrize("name", sorted(TRACE_FACTORIES))
def test_trace_instances_match_golden(golden, name):
    assert run_family(name) == golden[name]
