#!/usr/bin/env python
"""CI smoke check for the sharded allocation service.

Starts **two** real ``repro serve`` shard subprocesses plus one
``repro serve --shard ... --shard ...`` router subprocess (all on free
ports), submits a small solve portfolio from four fake tenants through
the router with the unchanged :class:`HttpServiceClient`, and asserts:

* every routed response is bit-identical — at wire granularity — to
  calling :func:`repro.api.solve` directly (cost, winning heuristic,
  effective seed, processor count, failure records; timing/backend
  provenance excluded);
* that batch, well below the global queue bound, raised each shard's
  ``repro_service_requests_total`` by its share of the submits and sent
  no load probe (``repro_router_load_probes_total`` unchanged): a
  routed submit is one shard request;
* the merged ``/stats`` reports ``backend: router`` over 2 shards,
  every request completed, each tenant's row present exactly once, and
  the per-shard breakdown accounts for all the traffic;
* an async ticket submitted through the router resolves through the
  router;
* the merged ``/metrics`` scrape parses like a scraper would and every
  shard's samples appear under its ``shard="..."`` label;
* a priced tenant registered over ``/v1/tenants`` pays its admission
  fees, and the merged ``/stats`` ``totals.spent`` is their sum;
* the merged ``/stats`` totals equal the merged ``/metrics`` request,
  rejection and spend counters summed across shards — the JSON and the
  scrape of a fleet are one registry and can never disagree;
* a shard restarted on the same port while the router holds pooled
  connections to it serves the next submit of its tenant (200);
* once that shard is stopped, the next submit of its tenant is the
  router's 503 ``unreachable`` answer, well within the client timeout.

Exits non-zero on any mismatch.  Run from the repository root::

    python scripts/shard_smoke.py
"""

from __future__ import annotations

import os
import pathlib
import re
import subprocess
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.api import InstanceSpec, SolveRequest, solve  # noqa: E402
from repro.service import (  # noqa: E402
    HttpServiceClient,
    ServiceError,
    rendezvous_shard,
)

TENANTS = ("acme", "globex", "initech", "umbrella")
#: A priced tenant: its admission fee, and the seeds it submits.
PAYER, PRICE, PAYER_SEEDS = "payer", 0.25, (61, 62, 63)
#: Wire-level fields that must match a direct solve exactly.
COMPARED_FIELDS = (
    "ok", "cost", "n_processors", "heuristic", "server_strategy",
    "seed", "failures",
)


def _requests() -> list[tuple[str, SolveRequest]]:
    out = []
    for t_index, tenant in enumerate(TENANTS):
        for i in range(2):
            seed = 37 * (t_index + 1) + i
            out.append(
                (
                    tenant,
                    SolveRequest(
                        spec=InstanceSpec(
                            n_operators=8 + 2 * i, alpha=1.2, seed=seed
                        ),
                        portfolio=("subtree-bottom-up", "random"),
                        seed=seed,
                        label=f"{tenant}-{i}",
                    ),
                )
            )
    return out


def _wire_view(result_dict: dict) -> dict:
    return {k: result_dict[k] for k in COMPARED_FIELDS}


def _fleet_counts(metrics_text: str) -> tuple[dict, dict]:
    """Per shard, from a router's ``/metrics``: admitted submits
    (``repro_service_requests_total``) and load probes sent
    (``repro_router_load_probes_total``)."""
    admitted: dict[str, float] = {}
    for shard, value in re.findall(
        r'^repro_service_requests_total\{shard="([^"]+)",[^}]*'
        r'outcome="admitted"\} (\S+)$', metrics_text, re.M,
    ):
        admitted[shard] = admitted.get(shard, 0) + float(value)
    probes = {
        shard: float(value) for shard, value in re.findall(
            r'^repro_router_load_probes_total\{shard="([^"]+)"\} (\S+)$',
            metrics_text, re.M,
        )
    }
    return admitted, probes


def _spawn(argv: list[str], env: dict) -> tuple[subprocess.Popen, int]:
    """Start one serve subprocess and parse its bound port from the
    banner line."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        cwd=str(REPO_ROOT),
    )
    line = proc.stdout.readline()
    match = re.search(r"http://[\w.\-]+:(\d+)", line)
    if not match:
        proc.terminate()
        raise RuntimeError(f"could not parse address from {line!r}")
    return proc, int(match.group(1))


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(REPO_ROOT / "src")
        + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    )
    procs: list[subprocess.Popen] = []
    try:
        shard_ports = []
        for _ in range(2):
            proc, port = _spawn(["serve", "--port", "0"], env)
            procs.append(proc)
            shard_ports.append(port)
        router_proc, router_port = _spawn(
            ["serve", "--port", "0"]
            + [arg for port in shard_ports
               for arg in ("--shard", f"127.0.0.1:{port}")],
            env,
        )
        procs.append(router_proc)

        client = HttpServiceClient(
            f"http://127.0.0.1:{router_port}", timeout=120.0
        )
        for _ in range(100):  # wait until the whole fleet answers
            try:
                client.health()
                break
            except (ServiceError, OSError):
                time.sleep(0.1)
        else:
            print("FAIL: router never became healthy")
            return 1

        names = [f"127.0.0.1:{port}" for port in shard_ports]
        admitted_before, probes_before = _fleet_counts(client.metrics())
        batch = _requests()
        mismatches = []
        for tenant, request in batch:
            response = client.submit(request, tenant=tenant)
            got = _wire_view(response["result"])
            want = _wire_view(solve(request).to_dict())
            if got != want:
                mismatches.append((request.label, got, want))
        print(
            f"submitted {len(batch)} requests from {len(TENANTS)}"
            f" tenants through the router:"
            f" {len(mismatches)} mismatches"
        )
        for label, got, want in mismatches:
            print(f"  MISMATCH {label}: routed={got} direct={want}")
        if mismatches:
            print("FAIL: routed results diverged from direct solve()")
            return 1

        # below the global bound a routed submit is one shard request
        admitted, probes = _fleet_counts(client.metrics())
        for index, name in enumerate(names):
            share = sum(
                rendezvous_shard(tenant, names) == index
                for tenant, _ in batch
            )
            raised = admitted.get(name, 0) - admitted_before.get(name, 0)
            if raised != share:
                print(
                    f"FAIL: shard {name} admitted {raised} of the batch,"
                    f" its share is {share}"
                )
                return 1
        if sorted(probes) != sorted(names) or probes != probes_before:
            print(
                f"FAIL: load probes went {probes_before} -> {probes}"
                f" during a batch below the global bound"
            )
            return 1
        print(
            f"OK: the batch made one shard request per submit (no load"
            f" probe; probes stayed at {probes})"
        )

        # async ticket through the router
        request = SolveRequest(
            spec=InstanceSpec(n_operators=8, alpha=1.2, seed=5),
            seed=5, label="async-0",
        )
        ticket = client.submit_async(request, tenant="acme")["ticket"]
        record = client.wait(ticket, timeout=120.0)
        if record["status"] != "done":
            print(f"FAIL: async ticket ended as {record['status']}")
            return 1
        got = _wire_view(record["result"])
        want = _wire_view(solve(request).to_dict())
        if got != want:
            print(f"FAIL: async result diverged: {got} != {want}")
            return 1

        # a priced tenant: every admission fee is spend
        client.register_tenant(PAYER, budget=100.0, admission_price=PRICE)
        for seed in PAYER_SEEDS:
            client.submit(
                SolveRequest(
                    spec=InstanceSpec(n_operators=8, alpha=1.2, seed=seed),
                    seed=seed, label=f"{PAYER}-{seed}",
                ),
                tenant=PAYER,
            )

        # merged /stats: router identity, totals, tenants, per-shard
        stats = client.stats()
        service = stats["service"]
        if service.get("backend") != "router":
            print(f"FAIL: /stats backend is {service.get('backend')!r}")
            return 1
        if service.get("shards") != 2:
            print(f"FAIL: /stats shards is {service.get('shards')!r}")
            return 1
        expected = len(batch) + 1 + len(PAYER_SEEDS)
        if stats["totals"]["completed"] != expected:
            print(
                f"FAIL: {stats['totals']['completed']}/{expected}"
                f" completed in merged /stats"
            )
            return 1
        spent = stats["totals"].get("spent")
        if spent != PRICE * len(PAYER_SEEDS):
            print(f"FAIL: merged /stats spent is {spent!r}")
            return 1
        for tenant in TENANTS:
            if tenant not in stats["tenants"]:
                print(f"FAIL: tenant {tenant} missing from merged /stats")
                return 1
        shard_stats = stats.get("shards") or {}
        if len(shard_stats) != 2:
            print(f"FAIL: expected 2 shard entries, got {shard_stats}")
            return 1
        per_shard_total = sum(
            entry["totals"].get("completed", 0)
            for entry in shard_stats.values()
        )
        if per_shard_total != expected:
            print(
                f"FAIL: per-shard completed sum {per_shard_total}"
                f" != {expected}"
            )
            return 1

        # merged /metrics: parses like a scrape, shard labels present
        metrics_text = client.metrics()
        n_samples = 0
        shard_labels = set()
        for line in metrics_text.splitlines():
            if not line or line.startswith("#"):
                continue
            name_part, _, value_part = line.rpartition(" ")
            try:
                float(value_part)
            except ValueError:
                print(f"FAIL: unparseable /metrics line {line!r}")
                return 1
            if not name_part:
                print(f"FAIL: /metrics line without a name {line!r}")
                return 1
            n_samples += 1
            shard_labels.update(re.findall(r'shard="([^"]+)"', line))
        if n_samples == 0:
            print("FAIL: merged /metrics served no samples")
            return 1
        if len(shard_labels) != 2:
            print(
                f"FAIL: expected samples from 2 shards in merged"
                f" /metrics, saw labels {sorted(shard_labels)}"
            )
            return 1
        print(
            f"OK: merged /metrics parseable ({n_samples} samples from"
            f" shards {sorted(shard_labels)})"
        )

        # /stats totals == the scrape's counters summed over the fleet
        scraped: dict[str, float] = {}
        for family, labels, value in re.findall(
            r"^(repro_service_requests_total|repro_service_rejections_total"
            r"|repro_router_rejections_total|repro_service_spend_total)"
            r"\{([^}]*)\} (\S+)$",
            metrics_text, re.M,
        ):
            if family == "repro_service_spend_total":
                key = "spent"
            elif family == "repro_service_requests_total":
                key = re.search(r'outcome="([^"]*)"', labels).group(1)
            elif 'stage="preempted"' in labels:
                continue  # a preempted request was admitted
            else:
                key = "rejected"
            scraped[key] = scraped.get(key, 0) + float(value)
        stats = client.stats()
        for key in sorted(set(scraped) | set(stats["totals"])):
            if stats["totals"].get(key, 0) != scraped.get(key, 0):
                print(
                    f"FAIL: /stats totals[{key!r}] ="
                    f" {stats['totals'].get(key, 0)} but merged /metrics"
                    f" sums to {scraped.get(key, 0)}"
                )
                return 1
        print(f"OK: /stats totals match merged /metrics: {scraped}")

        # restart acme's shard on its port: the router's pooled link
        # to the old process is stale, and the next request over it
        # must still succeed (retried once on a fresh connection) —
        # first a fleet health check, which, unlike a global-admission
        # load probe, does not tolerate that link's failure
        index = rendezvous_shard("acme", names)
        procs[index].terminate()
        procs[index].wait(timeout=10)
        procs[index], _ = _spawn(
            ["serve", "--port", str(shard_ports[index])], env
        )
        request = SolveRequest(
            spec=InstanceSpec(n_operators=9, alpha=1.2, seed=11),
            seed=11, label="after-restart",
        )
        try:
            client.health()
            response = client.submit(request, tenant="acme")
        except (ServiceError, OSError) as err:
            print(f"FAIL: after a shard restart: {err}")
            return 1
        got = _wire_view(response["result"])
        want = _wire_view(solve(request).to_dict())
        if got != want:
            print(f"FAIL: result after restart diverged: {got} != {want}")
            return 1
        print(f"OK: shard {names[index]} restarted; its tenant is served")

        # stop it: a specified 503, not a hang
        procs[index].terminate()
        procs[index].wait(timeout=10)
        timeout_s = 30.0
        started = time.monotonic()
        try:
            HttpServiceClient(
                f"http://127.0.0.1:{router_port}", timeout=timeout_s
            ).submit(request, tenant="acme")
        except ServiceError as err:
            elapsed = time.monotonic() - started
            if err.status != 503 or "unreachable" not in str(err):
                print(f"FAIL: stopped shard answered {err.status}: {err}")
                return 1
        except OSError as err:
            print(f"FAIL: submit to a stopped shard raised {err!r}")
            return 1
        else:
            print("FAIL: submit to a stopped shard succeeded")
            return 1
        if elapsed >= timeout_s:
            print(f"FAIL: the 503 took {elapsed:.1f}s")
            return 1
        print(f"OK: stopped shard is a 503 unreachable in {elapsed:.2f}s")

        print("OK: shard smoke passed (router over 2 shard processes)")
        return 0
    finally:
        for proc in procs:
            proc.terminate()
        for proc in procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()


if __name__ == "__main__":
    raise SystemExit(main())
