#!/usr/bin/env python3
"""Smoke test of the benchmark, at reduced size (about a minute).

    python3 perfbench/smoke.py

Checks that

* every workload, untraced and traced, exits 0 with ``correct: true``
  and prints exactly the metrics ``BENCHMARK.json`` declares, with the
  declared units;
* a perturbed reference digest makes the run fail (exit 1,
  ``correct: false``);
* without the program's sources the command fails without printing a
  result.

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = [sys.executable, str(HERE / "run.py")]
SMALL = ["--size", "small", "--seconds", "1", "--seed", "1"]
WORKLOADS = ("solve-grid", "replay-churn", "replay-transitions",
             "serve-router")


def last_json(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}")
        raise SystemExit(1)
    print(f"ok: {message}")


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        want = {m["name"]: m["unit"] for m in declared[section]}
        for workload in WORKLOADS:
            run = subprocess.run(
                RUN + ["--workload", workload, "--trace", trace] + SMALL,
                capture_output=True, text=True, cwd=ROOT, timeout=300,
            )
            result = last_json(run.stdout)
            check(run.returncode == 0 and result is not None
                  and result["correct"] and result["failed"] == 0,
                  f"{workload} --trace {trace} runs correctly"
                  f" (exit {run.returncode})")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(got == want,
                  f"{workload} --trace {trace} prints every {section}"
                  f" metric of BENCHMARK.json with its unit")
            check(all(name in run.stdout.split("{")[0] for name in want),
                  f"{workload} --trace {trace} lists the metrics by name")

    scratch = HERE / "out" / "smoke"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    refs = json.loads((HERE / "references.json").read_text())
    digest = refs["solve-grid"]["small"]["2009"]
    refs["solve-grid"]["small"]["2009"] = (
        ("0" if digest[0] != "0" else "1") + digest[1:]
    )
    perturbed = scratch / "references.json"
    perturbed.write_text(json.dumps(refs))
    run = subprocess.run(
        RUN + ["--workload", "solve-grid", "--references", str(perturbed)]
        + SMALL, capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    result = last_json(run.stdout)
    check(run.returncode == 1 and result is not None
          and not result["correct"] and result["failed"] > 0,
          "a perturbed reference digest fails the run")

    bare = scratch / "bare"
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    run = subprocess.run(
        [sys.executable, str(bare / HERE.name / "run.py"), "--workload",
         "solve-grid", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=bare, timeout=180,
    )
    check(run.returncode != 0 and last_json(run.stdout) is None,
          "without the program's sources the run fails without a result")
    shutil.rmtree(scratch, ignore_errors=True)
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
