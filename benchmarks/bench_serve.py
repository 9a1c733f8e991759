"""The serving-layer gate: MVCC reads, group-commit writes, zero leaks.

Drives the PR 10 :class:`repro.serve.EnforcementService` with the
mixed-traffic closed-loop load generator (80% validate / 5% discover /
5% cover / 10% mutate by default) and asserts the acceptance properties
of the serving subsystem:

1. **Replay identity** — every ``validate`` response served at pinned
   version ``V`` is *byte-identical* (canonical JSON) to a single-client
   :class:`repro.Session` given the base graph with the first ``V``
   committed batches of the writer's ``commit_log`` replayed onto it.
   MVCC concurrency must be observationally equivalent to serial
   execution, for every version the load run happened to read.

2. **Sustained throughput with bounded tail** — the mixed run must clear
   a conservative floor (validate is an O(1) read off the pinned
   snapshot's stored report, so the mix throughput is dominated by the
   commit/analytics lane) and the validate p99 must stay under the
   bound even while group commits publish new versions.

3. **Zero leaks** — after ``service.close()``: no leaked snapshot
   leases, no live shared-memory segments, no live index mmaps.

4. **Group commit batches** — under 8 concurrent clients the writer must
   commit fewer batches than mutations (the linger window actually
   groups), and every committed version must be covered by the log.

``--check`` asserts all four; numbers land in
``benchmarks/results/BENCH_serve.json`` (p50/p99 latency per request
kind, throughput, commit/batching counters, per-backend).  Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py
    PYTHONPATH=src python benchmarks/bench_serve.py --check
    PYTHONPATH=src python benchmarks/bench_serve.py --backend multiprocess
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from pathlib import Path
from typing import Any, Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from _harness import record, write_bench  # noqa: E402

from repro import DiscoveryConfig, Session  # noqa: E402
from repro.datasets import KB_ATTRIBUTES, imdb_like  # noqa: E402
from repro.parallel.janitor import live_mappings, live_segments  # noqa: E402
from repro.serve import (  # noqa: E402
    EnforcementService,
    ServeConfig,
    report_payload,
    run_load,
)
from repro.serve.writer import apply_ops  # noqa: E402

#: Closed-loop clients and per-client request count of the load run.
CLIENTS = 8
REQUESTS_PER_CLIENT = 30

#: Conservative mixed-traffic floor, requests/second (CI-safe: the same
#: run sustains hundreds of rps on an idle laptop).
THROUGHPUT_FLOOR_RPS = 20.0

#: Validate must stay an O(1) snapshot read even while commits publish.
VALIDATE_P99_BOUND_S = 1.0


def build_workload():
    """The bench graph + a discovered Σ (shared by every backend run)."""
    base = imdb_like(scale=1.0, seed=1)
    config = DiscoveryConfig(
        k=2, sigma=60, max_lhs_size=1,
        active_attributes=list(KB_ATTRIBUTES),
    )
    with Session(base.copy(), config) as session:
        sigma = session.discover().gfds
    return base, config, sigma


def replay_payload(base, sigma, commit_log, version: int) -> Dict[str, Any]:
    """The single-client ground truth for pinned version ``version``."""
    graph = base.copy()
    for batch in commit_log[:version]:
        apply_ops(graph, batch)
    with Session(graph) as session:
        session.set_sigma(sigma)
        report = session.enforce()
        return report_payload(report, include_nodes=True, include_samples=True)


def check_replay_identity(
    base, sigma, commit_log, validate_responses
) -> Dict[str, Any]:
    """Compare every served validate response to its replayed version."""
    ground_truth: Dict[int, str] = {}
    mismatches = 0
    for response in validate_responses:
        version = response["version"]
        if version not in ground_truth:
            ground_truth[version] = json.dumps(
                replay_payload(base, sigma, commit_log, version),
                sort_keys=True,
            )
        served = {
            k: v for k, v in response.items()
            if k not in ("kind", "version", "graph_version")
        }
        if json.dumps(served, sort_keys=True) != ground_truth[version]:
            mismatches += 1
    return {
        "responses_checked": len(validate_responses),
        "versions_replayed": len(ground_truth),
        "mismatches": mismatches,
    }


async def drive(base, config, sigma, backend: str) -> Dict[str, Any]:
    """One full load run against one backend; returns the run facts."""
    service = EnforcementService(
        base.copy(),
        sigma=sigma,
        config=config,
        serve=ServeConfig(commit_linger_s=0.01),
        backend=backend,
        num_workers=2 if backend == "multiprocess" else None,
    )
    await service.start()
    try:
        load = await run_load(
            service,
            clients=CLIENTS,
            requests_per_client=REQUESTS_PER_CLIENT,
            seed=11,
            mutation_attrs=["name", "country"],
            discover_budget=10,
        )
        commit_log = [list(batch) for batch in service.writer.commit_log]
        commits = service.writer.commits
        mutations = service.writer.mutations
        final_version = service.chain.current_version
        chain = service.chain.stats()
    finally:
        await service.close()
    replay = check_replay_identity(
        base, sigma, commit_log, load.validate_responses
    )
    return {
        "backend": backend,
        "load": load.as_dict(),
        "commits": commits,
        "mutations": mutations,
        "final_version": final_version,
        "chain": chain,
        "replay": replay,
        "leaked_leases": service.leaked_leases,
        "leaked_segments": len(live_segments()),
        "leaked_mappings": len(live_mappings()),
    }


def run_bench(backends: List[str]) -> Dict[str, Any]:
    base, config, sigma = build_workload()
    runs = {}
    for backend in backends:
        runs[backend] = asyncio.run(drive(base, config, sigma, backend))
    return {
        "sigma_size": len(sigma),
        "clients": CLIENTS,
        "requests_per_client": REQUESTS_PER_CLIENT,
        "throughput_floor_rps": THROUGHPUT_FLOOR_RPS,
        "validate_p99_bound_s": VALIDATE_P99_BOUND_S,
        "runs": runs,
    }


def check(metrics: Dict[str, Any]) -> List[str]:
    """The gate: returns a list of failures (empty = pass)."""
    failures = []
    for backend, run in metrics["runs"].items():
        tag = f"[{backend}]"
        load = run["load"]
        if load["errors"]:
            failures.append(f"{tag} {load['errors']} request errors")
        replay = run["replay"]
        if replay["mismatches"]:
            failures.append(
                f"{tag} {replay['mismatches']} of "
                f"{replay['responses_checked']} validate responses diverge "
                f"from single-client replay"
            )
        if not replay["responses_checked"]:
            failures.append(f"{tag} load run produced no validate responses")
        if load["throughput_rps"] < THROUGHPUT_FLOOR_RPS:
            failures.append(
                f"{tag} throughput {load['throughput_rps']:.1f} rps "
                f"< floor {THROUGHPUT_FLOOR_RPS}"
            )
        validate_p99 = load["latency"].get("validate", {}).get("p99", 0.0)
        if validate_p99 > VALIDATE_P99_BOUND_S:
            failures.append(
                f"{tag} validate p99 {validate_p99:.3f}s "
                f"> bound {VALIDATE_P99_BOUND_S}s"
            )
        if run["leaked_leases"]:
            failures.append(f"{tag} {run['leaked_leases']} leaked leases")
        if run["leaked_segments"]:
            failures.append(f"{tag} {run['leaked_segments']} leaked segments")
        if run["leaked_mappings"]:
            failures.append(f"{tag} {run['leaked_mappings']} leaked mappings")
        if run["mutations"] and run["commits"] >= run["mutations"]:
            failures.append(
                f"{tag} no batching: {run['commits']} commits for "
                f"{run['mutations']} mutations"
            )
        if run["final_version"] != run["commits"]:
            failures.append(
                f"{tag} commit log covers {run['commits']} versions but "
                f"chain is at {run['final_version']}"
            )
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="assert the gate properties")
    parser.add_argument("--backend",
                        choices=["serial", "multiprocess", "both"],
                        default="serial",
                        help="backend(s) to drive (default: serial)")
    args = parser.parse_args()

    backends = ["serial"]
    if args.backend == "multiprocess":
        backends = ["multiprocess"]
    elif args.backend == "both":
        backends.append("multiprocess")

    metrics = run_bench(backends)
    lines = []
    for backend, run in metrics["runs"].items():
        load = run["load"]
        summary = load["latency"]
        validate = summary.get("validate", {})
        mutate = summary.get("mutate", {})
        lines.append(
            f"{backend}: {load['requests']} requests "
            f"@ {load['throughput_rps']:.1f} rps | validate "
            f"p50 {validate.get('p50', 0) * 1e3:.2f}ms "
            f"p99 {validate.get('p99', 0) * 1e3:.2f}ms | mutate "
            f"p50 {mutate.get('p50', 0) * 1e3:.2f}ms "
            f"p99 {mutate.get('p99', 0) * 1e3:.2f}ms | "
            f"{run['commits']} commits / {run['mutations']} mutations | "
            f"{run['replay']['responses_checked']} replay-checked over "
            f"{run['replay']['versions_replayed']} versions"
        )
    record("serve_load", lines)
    path = write_bench("serve", metrics)
    print(f"# wrote {path}")

    if args.check:
        failures = check(metrics)
        if failures:
            for failure in failures:
                print(f"FAIL: {failure}", file=sys.stderr)
            return 1
        print("# serve gate: all checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
