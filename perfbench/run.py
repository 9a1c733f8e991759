"""Seeded benchmark of GFD discovery, enforcement, serving and the
multiprocess backend.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload kb-serial --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all    # every workload, one after another

Each run measures one workload in a fresh interpreter
(``perfbench/workloads.py``), checks its outputs against an oracle outside
the timed regions, prints the workload's metrics by name with their units,
and ends with one JSON line: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
runs the workload once untraced and once with per-layer wrappers installed,
prints the layer table and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import LAYER_METRICS, TIME_ROWS  # noqa: E402

#: ``op_tail_ms``'s percentile, as ``workloads.TAIL_PERCENTILE``.
TAIL_PERCENTILE = 75

WORKLOADS = ("kb-serial", "serve-mixed", "kb-pipeline-mp")
#: The workloads that load a Σ, derived once per checkout into :data:`CACHE`.
SIGMA_WORKLOADS = ("kb-serial", "serve-mixed")
CACHE = HERE / ".cache"
#: The files a cached Σ is derived from: the derivation's parameters live in
#: ``workloads.py``, the discovery code under ``src/repro``.
SIGMA_SOURCES = [HERE / "workloads.py", ROOT / "src" / "repro"]
#: A run must end within this many seconds, children included.
RUN_LIMIT_S = 175.0

END_TO_END = [
    ("setup_s", "s"),
    ("batch_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
]

#: The workload-specific names each run prints beside the JSON metrics.
NAMED_UNITS = {
    "discover_s": "s", "cover_s": "s", "validate_s": "s", "pipeline_s": "s",
    "read_p50_ms": "ms", "read_p99_ms": "ms", "write_p50_ms": "ms",
    "write_p99_ms": "ms", "served_rps": "1/s", "gen_lag_p99_ms": "ms",
    "violations": "count", "rules": "count", "cover_rules": "count",
    "enforced_rules": "count",
    "commits": "count", "mutations": "count",
    "sigma_digest": "sha256", "cover_digest": "sha256",
}
#: What ``batch_s`` and ``op_*`` time on each workload.
BATCH_NAME = {
    "kb-serial": "round batch (discover + cover of the 0.6 instance, full "
                 "enforce of the dirty 2.0 instance)",
    "serve-mixed": "service start",
    "kb-pipeline-mp": "round batch (discover + cover + enforce, pool start "
                      "included)",
}
OP_NAME = {
    "kb-serial": "update (4-op batch + refresh)",
    "serve-mixed": "write (mutate, from its due time to its published version)",
    "kb-pipeline-mp": "update (4-op batch + refresh)",
}


class ChildFailed(RuntimeError):
    pass


def child(args: List[str], deadline: float) -> Optional[Dict[str, Any]]:
    """Run ``workloads.py`` with ``args``; its last stdout line is JSON."""
    command = [sys.executable, str(HERE / "workloads.py"), *args]
    # its own process group, so a timeout also stops the worker processes
    # the child started.  One hash seed for every measurement: set and dict
    # iteration orders steer matching, and a full enforcement pass of
    # the dirty dbpedia 2.0 instance took either ~1.0 s or ~1.6 s by the
    # interpreter's random hash seed.
    process = subprocess.Popen(
        command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        start_new_session=True, env={**os.environ, "PYTHONHASHSEED": "0"},
    )
    try:
        stdout, _ = process.communicate(
            timeout=max(1.0, deadline - time.monotonic())
        )
    except subprocess.TimeoutExpired as error:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise ChildFailed(f"{args[0]} timed out") from error
    if process.returncode != 0:
        raise ChildFailed(f"{args[0]} exited with {process.returncode}")
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def sources_digest() -> str:
    """sha256 over the path and bytes of every file Σ is derived from."""
    digest = hashlib.sha256()
    for source in SIGMA_SOURCES:
        files = sorted(source.rglob("*.py")) if source.is_dir() else [source]
        for path in files:
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
            digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()[:16]


def ensure_sigma(workload: str, deadline: float) -> Optional[Path]:
    """The workload's Σ file, derived again when any source of it changed."""
    if workload not in SIGMA_WORKLOADS:
        return None
    path = CACHE / f"{workload}-{sources_digest()}.json"
    if not path.exists():
        for stale in CACHE.glob(f"{workload}-*.json"):
            stale.unlink()
        child(["derive", "--workload", workload, "--out", str(path)],
              deadline)
    return path


def measure(workload: str, args, sigma: Optional[Path], trace: bool,
            deadline: float):
    """One measurement, in a child interpreter of its own."""
    command = ["measure", "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds)]
    if trace:
        command.append("--trace")
    if sigma is not None:
        command += ["--sigma", str(sigma)]
    return child(command, deadline)


def print_run(workload: str, result: Dict[str, Any]) -> None:
    failed_frac = result["failed"] / max(1, result["attempted"])
    print(f"# {workload}: {result['batches']} batches of kind "
          f"{BATCH_NAME[workload]}; {result['ops']} ops of kind "
          f"{OP_NAME[workload]}")
    for name, unit in END_TO_END:
        print(f"{name} {result[name]:.6g} {unit}")
    raw = result["raw"]
    print(f"# times above are at the reference host speed; this run's host "
          f"ran at {raw['host_speed']:.4g} of it.  As measured: batch_s "
          f"{raw['batch_s']:.6g} s, op_p50_ms {raw['op_p50_ms']:.6g} ms, "
          f"op_tail_ms {raw['op_tail_ms']:.6g} ms")
    print(f"batch_s is the median of n={result['batches']}; op_tail_ms is "
          f"p{TAIL_PERCENTILE} of n={result['ops']}; setup_s is the median of "
          f"{result['setups']} set-ups")
    for name, value in result["named"].items():
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"{name} {shown} {NAMED_UNITS.get(name, '')}".rstrip())
    print(f"failed_frac {failed_frac:.6g} ratio "
          f"({result['failed']} of {result['attempted']})")
    for note in result["notes"][:20]:
        print(f"# {note}")


def layer_metrics(plain: Dict[str, Any], traced: Dict[str, Any]):
    """Per-layer values, the layer table, and rows + remainder = wall."""
    layers = traced["layers"]
    self_s = layers["self_s"]
    wall = sum(layers["phase_s"].values())
    values: Dict[str, float] = {}
    for row in TIME_ROWS:
        values[row] = sum(self_s.get(row, {}).values(), 0.0)
    values["parallel.master_self_s"] = wall - sum(values.values())
    counts = layers["counts"]
    for name, unit, *_ in LAYER_METRICS:
        if name not in values:
            values[name] = float(counts.get(name, 0))
    values["obs.trace_overhead_frac"] = traced["work_s"] / plain["work_s"] - 1
    return values, wall


def print_table(workload: str, traced: Dict[str, Any], values, wall) -> None:
    layers = traced["layers"]
    kinds = sorted({kind for column in layers["self_s"].values()
                    for kind in column})
    print(f"# layer table for {workload}: self seconds per phase kind; "
          f"rows plus parallel.master_self_s equal the traced phase "
          f"wall-clock {wall:.4f} s")
    if workload == "kb-pipeline-mp":
        print("# master-side only: calls inside worker processes are not "
              "visible to the wrappers and show up in superstep_wait_s")
    if workload == "serve-mixed":
        print("# the lane column runs on the service's own thread, beside "
              "the event loop; master_self_s includes the loop's idle time")
    header = f"{'row':34s}" + "".join(f"{kind:>10s}" for kind in kinds)
    print(header + f"{'total':>10s}{'share':>8s}")
    for row in TIME_ROWS + ["parallel.master_self_s"]:
        column = layers["self_s"].get(row, {})
        total = values[row]
        if row != "parallel.master_self_s" and not total:
            continue
        cells = "".join(f"{column.get(kind, 0.0):10.4f}" for kind in kinds)
        share = total / wall if wall else 0.0
        print(f"{row:34s}{cells}{total:10.4f}{share:8.1%}")
    covered = 1 - values["parallel.master_self_s"] / wall if wall else 0.0
    print(f"# named layer rows cover {covered:.1%} of the phase wall-clock")
    for name, unit, *_ in LAYER_METRICS:
        if unit != "s":
            print(f"{name} {values[name]:.6g} {unit}")


def run_workload(workload: str, args) -> Dict[str, Any]:
    """Measure one workload, print its lines; return its JSON summary."""
    deadline = time.monotonic() + RUN_LIMIT_S
    sigma = ensure_sigma(workload, deadline)
    plain = measure(workload, args, sigma, False, deadline)
    traced = measure(workload, args, sigma, True, deadline) if args.trace \
        else None
    if plain is None or (args.trace and traced is None):
        raise ChildFailed("a measurement printed no result")

    print_run(workload, plain)
    attempted, failed = plain["attempted"], plain["failed"]
    if traced is None:
        metrics = {
            name: {"value": plain[name], "unit": unit}
            for name, unit in END_TO_END
        }
    else:
        values, wall = layer_metrics(plain, traced)
        print_table(workload, traced, values, wall)
        attempted += traced["attempted"]
        failed += traced["failed"]
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit, *_ in LAYER_METRICS
        }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = {}
    try:
        for workload in workloads:
            summaries[workload] = run_workload(workload, args)
    except ChildFailed as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if len(summaries) == 1:
        summary = summaries[args.workload]
    else:  # all: one line for the lot, metrics keyed workload/metric
        summary = {
            "correct": all(s["correct"] for s in summaries.values()),
            "attempted": sum(s["attempted"] for s in summaries.values()),
            "failed": sum(s["failed"] for s in summaries.values()),
            "metrics": {
                f"{workload}/{name}": metric
                for workload, s in summaries.items()
                for name, metric in s["metrics"].items()
            },
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
