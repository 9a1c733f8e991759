"""The benchmark's three workloads, each run in a fresh interpreter.

``run.py`` starts this file as a child process, so every measurement
begins with cold process-global caches and its own peak RSS::

    python3 perfbench/workloads.py derive  --workload kb-serial --out S.json
    python3 perfbench/workloads.py measure --workload kb-serial --seed 1 \\
        --seconds 20 --sigma S.json [--trace]

``measure`` prints one JSON object as its last line of standard output.
Every input is made from ``--seed``; the program under test only ever sees
the inputs.  What decides the amount of work is fixed: each base graph is one
instance of its generator (generator seed :data:`GRAPH_SEED`), like the
paper's fixed datasets, with one fixed draw of noise, and each run makes one
pass over a fixed pool of mutation targets.  The seed picks what leaves the
work alone: the order of the pool, the values written and the request
schedule.  Σ for kb-serial's enforcement and for serve-mixed is discovered
once on the clean instance (``derive``) and loaded as an input.

A run is a fixed number of rounds (segments on serve-mixed), set by
``--seconds`` alone.  Each round gives one batch sample, its share of the
timed ops and two set-ups, and every metric is a median over the whole run.

Every compute timing is reported at a reference host speed (see
:class:`HostClock`).  The shared 2-vCPU host this was tuned on changed its
speed by up to 1.6x, in phases from a few seconds to longer than a whole
run, with wall-clock and CPU time moving together; five runs of the same
code spread by 0.30 (quartile distance over median) in their raw median
update time.  A calibration kernel timed right before and right after each
sample measures the speed the sample ran at; the raw figures are printed
beside the scaled ones.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import gc
import hashlib
import json
import os
import random
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from repro import DiscoveryConfig, Session  # noqa: E402
from repro.core.support import gfd_support  # noqa: E402
from repro.datasets import (  # noqa: E402
    KB_ATTRIBUTES,
    dbpedia_like,
    imdb_like,
    inject_noise,
    yago2_like,
)
from repro.gfd import implication  # noqa: E402
from repro.gfd.parser import dumps_sigma, format_gfd, loads_sigma  # noqa: E402
from repro.parallel.janitor import live_mappings, live_segments  # noqa: E402
from repro.serve import (  # noqa: E402
    EnforcementService,
    ServeConfig,
    report_payload,
)
from repro.serve.writer import MutationOp, apply_ops  # noqa: E402

import spans  # noqa: E402

#: Generator seed of every base graph.
GRAPH_SEED = 0
#: Set-ups made before the first round and after each round; ``setup_s`` is
#: their median.  Garbage is collected before each, so one set-up's garbage
#: is not charged to the next.
FIRST_SETUPS = 5
SETUPS_PER_ROUND = 2
#: Mutations per update batch on the kb workloads, and the seed that draws
#: every pool of mutation targets.
BATCH_OPS = 4
POOL_SEED = 0
#: Rounds per kb workload: (seconds one round took on a 2-vCPU x86-64 host,
#: update batches per round).  A run makes ``max(1, floor(--seconds /
#: round seconds))`` rounds and one pass over a pool of that many rounds'
#: batches, so the amount of work depends on ``--seconds`` only, never on
#: how fast the program is.
ROUNDS = {
    "kb-serial": (5.0, 5),
    "kb-pipeline-mp": (5.0, 10),
}
#: kb-serial mines this smaller dbpedia instance in every round (~2.3 s of
#: discover + cover; the 2.0 instance took 10-13 s, too long to repeat).
MINE_SCALE = 0.6
#: ``op_tail_ms`` is this percentile, interpolated between order statistics:
#: the highest fixed one with at least 5 samples beyond it on every workload
#: (kb-serial times 20 updates at ``--seconds 20``).  p90 of those 20
#: spread by 0.15 over five seeds, between two order statistics.
TAIL_PERCENTILE = 75
#: serve-mixed: offered load, read share, share of reads that ask for node
#: sets and samples (those are the ones replay-checked), write deadline.
SERVE_RATE = 200.0
SERVE_READ_SHARE = 0.9
SERVE_CHECKED_READ_SHARE = 0.05
SERVE_WRITE_DEADLINE_S = 2.0
SERVE_WRITE_POOL = 256
#: serve-mixed: the service's group-commit window.  With 10 ms, a commit
#: carried 1.3 writes, the lane ran about one commit per write, and write
#: latency moved by 30% between runs with the host's speed; with 50 ms a
#: commit carries about 2 writes and the latency moved by under 10%.
SERVE_LINGER_S = 0.05
#: serve-mixed: the load runs in segments of this many seconds, each on a
#: service of its own; before each segment the service is started this many
#: times (the last start serves), so ``batch_s`` is a median of starts
#: spread over the run.  A start takes ~0.1 s; starts made in one go, before
#: and after the load, followed the host's speed at those two moments.
SERVE_SEGMENT_S = 5.0
STARTS_PER_SEGMENT = 8
#: At most this many served versions of a segment are replayed for the
#: identity check.
SERVE_REPLAY_VERSIONS = 5
#: kb-serial: positive rules whose support is re-counted on the dict path.
SUPPORT_SAMPLE = 4
#: Host-speed calibration: the best of this many runs of
#: :func:`calibration_kernel` is one calibration, and a timing is scaled to
#: the speed at which the best run takes ``CALIBRATION_REF_S`` (its time in
#: the fast phases of a 2-vCPU x86-64 host).
CALIBRATION_REPEATS = 3
CALIBRATION_REF_S = 0.012


def kb_config() -> DiscoveryConfig:
    return DiscoveryConfig(k=3, sigma=250, active_attributes=list(KB_ATTRIBUTES))


def mine_config() -> DiscoveryConfig:
    """kb-serial's discovery: :func:`kb_config`'s k, σ scaled to the graph."""
    return DiscoveryConfig(k=3, sigma=100, active_attributes=list(KB_ATTRIBUTES))


def serve_config() -> DiscoveryConfig:
    return DiscoveryConfig(
        k=2, sigma=60, max_lhs_size=1, active_attributes=list(KB_ATTRIBUTES)
    )


def dirty(graph):
    """The base graph with the Exp-5 noise (5% of nodes, half their values)."""
    noisy, _ = inject_noise(
        graph, alpha=0.05, beta=0.5, attributes=list(KB_ATTRIBUTES),
        seed=GRAPH_SEED,
    )
    return noisy


def clear_caches() -> None:
    """Empty the program's process-global ``lru_cache``s.

    Each round's discovery then starts as cold as in a fresh process; a
    warm rerun skips work a cold one does (yago2 discovery took 7.2 s cold
    and 4.7 s warm).
    """
    for name, module in list(sys.modules.items()):
        if name != "repro" and not name.startswith("repro."):
            continue
        for value in list(vars(module).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def calibration_kernel() -> int:
    """About 12 ms of the program's kinds of work, on fixed inputs.

    Interpreter work (a dict of tuples, a set comprehension) and numpy work
    (a stable argsort and a segmented ``add.reduceat``), as in matching and
    the mask lattice.
    """
    table = {}
    for i in range(20000):
        table[(i * 7919) % 4099] = (i, i + 1)
    seen = {value[0] for value in table.values()}
    keys = (np.arange(200000, dtype=np.int64) * 7919) % 100003
    order = np.argsort(keys, kind="stable")
    np.add.reduceat(keys[order], np.arange(0, 200000, 64))
    return len(seen)


class HostClock:
    """Scales timings to a reference host speed.

    One process repeating a full enforcement pass for four minutes on a
    shared 2-vCPU host: over its twelve 20 s windows, the windows' median
    pass time spread by 0.27 (quartile distance over median) as measured,
    by 0.14 when scaled by each window's median calibration, and by 0.07
    when each pass is scaled by the calibrations made right before and
    right after it, which is what :meth:`scale` does.
    """

    def __init__(self) -> None:
        self.calibrations: List[float] = []
        self.last = self.calibrate()

    def calibrate(self) -> float:
        best = float("inf")
        for _ in range(CALIBRATION_REPEATS):
            started = time.perf_counter()
            calibration_kernel()
            best = min(best, time.perf_counter() - started)
        self.calibrations.append(best)
        self.last = best
        return best

    def scale(self, seconds: float) -> float:
        """``seconds`` at the reference speed.

        The sample ran between the last calibration and the one this makes.
        """
        before = self.last
        speed = CALIBRATION_REF_S / ((before + self.calibrate()) / 2)
        return seconds * speed

    def speed(self) -> float:
        """The run's median speed over the reference speed."""
        return CALIBRATION_REF_S / statistics.median(self.calibrations)


def tail(values: List[float]) -> float:
    """The :data:`TAIL_PERCENTILE` of ``values``, linearly interpolated.

    On a shared 2-vCPU host, p99 and the 11th-largest sample of a long run
    moved by 25-60% between runs of serve-mixed.
    """
    if len(values) < 2:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[TAIL_PERCENTILE - 1]


def quantile(values: List[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def peak_rss_mb() -> float:
    """Highest RSS of this process or any child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def sigma_digest(rules) -> str:
    text = "\n".join(sorted(format_gfd(rule) for rule in rules))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def write_atomic(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    temp.write_text(text)
    os.replace(temp, path)


def mutation_pool(graph, batches: int, size: int) -> List[List[tuple]]:
    """The fixed pool of mutation targets one run passes over.

    Drawn uniformly from the base graph with :data:`POOL_SEED`, so every
    run mutates the same multiset of nodes (hubs included, as drawn); the
    run's seed orders the pool and names the values written.  A slot is
    ``("attr", node, attr)`` or, for the last op of a batch half of the
    time, ``("edge", src, dst, label)`` on an existing out-edge that no
    earlier slot took.
    """
    rng = random.Random(POOL_SEED)
    pool = []
    taken = set()
    for _ in range(batches):
        batch = []
        for slot in range(size):
            # a fixed number of draws per slot keeps the pool identical
            # whatever the graph's noise did to edge counts
            node = rng.randrange(graph.num_nodes)
            attr = rng.choice(KB_ATTRIBUTES)
            edge_roll, edge_pick = rng.random(), rng.random()
            edges = [
                (dst, label)
                for dst, labels in sorted(graph.out_neighbors(node).items())
                for label in sorted(labels)
            ]
            edge = (node, *edges[int(edge_pick * len(edges))]) if edges \
                else None
            if slot == size - 1 and edge_roll < 0.5 and edge \
                    and edge not in taken:
                taken.add(edge)
                batch.append(("edge", *edge))
            else:
                batch.append(("attr", node, attr))
        pool.append(batch)
    return pool


def pool_ops(batch, seed: int, tag: int) -> List[MutationOp]:
    """One pool batch as mutations: fresh values, edge slots removed."""
    ops = []
    for slot, target in enumerate(batch):
        if target[0] == "edge":
            _, src, dst, label = target
            ops.append(MutationOp(
                "remove_edge", {"src": src, "dst": dst, "label": label}
            ))
        else:
            _, node, attr = target
            ops.append(MutationOp("set_attr", {
                "node": node, "attr": attr, "value": f"u{seed}.{tag}.{slot}",
            }))
    return ops


class Run:
    """One measurement: timings, op latencies, oracle verdicts, trace."""

    def __init__(self, seed: int, seconds: float, trace: bool) -> None:
        self.seed = seed
        self.seconds = seconds
        self.recorder = spans.Recorder() if trace else None
        if self.recorder is not None:
            spans.install(self.recorder)
        self.clock = HostClock()
        #: Scaled timings; ``raw_*`` are the same samples as measured.
        self.setups: List[float] = []
        self.batches: List[float] = []
        self.op_ms: List[float] = []
        self.raw_batches: List[float] = []
        self.raw_op_ms: List[float] = []
        self.named: Dict[str, Any] = {}
        self.notes: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.counts: Dict[str, float] = {}
        self.revalidated = self.matched = 0
        self.rss_mb: Optional[float] = None
        self.kept_setup = 0.0

    def phase(self, kind: str):
        if self.recorder is None:
            return contextlib.nullcontext()
        return self.recorder.phase(kind)

    @property
    def checking(self) -> bool:
        """Whether this child runs the oracles and the extra set-ups.

        A traced child reports layer metrics only; the untraced child of
        the same run reports ``setup_s`` and checks the same outputs.
        """
        return self.recorder is None

    def setup(self, build: Callable[[], Any], discard: Callable[[Any], None],
              repeats: int = FIRST_SETUPS):
        """Build the inputs and system ``repeats`` times; keep the last.

        ``kept_setup`` is the kept build's scaled time.  The same ``build``
        and ``discard`` make the set-ups between rounds, :meth:`setup_more`.
        """
        self.build, self.discard = build, discard
        built = None
        self.clock.calibrate()
        for _ in range(repeats):
            if built is not None:
                discard(built)
            gc.collect()
            started = time.perf_counter()
            built = build()
            self.kept_setup = self.clock.scale(time.perf_counter() - started)
            self.setups.append(self.kept_setup)
        gc.collect()
        return built

    def setup_more(self) -> None:
        """:data:`SETUPS_PER_ROUND` more set-ups, timed and discarded."""
        if not self.checking:
            return
        self.clock.calibrate()
        for _ in range(SETUPS_PER_ROUND):
            gc.collect()
            started = time.perf_counter()
            built = self.build()
            self.setups.append(self.clock.scale(time.perf_counter() - started))
            self.discard(built)
        gc.collect()

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        """Count one oracle check (outside every timed region)."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"CHECK FAILED {name} {detail}".rstrip())

    def op(self, seconds: float, scaled: Optional[float] = None) -> None:
        """One timed op, ``scaled`` to the reference speed if given."""
        self.attempted += 1
        self.raw_op_ms.append(seconds * 1e3)
        self.op_ms.append((seconds if scaled is None else scaled) * 1e3)

    def batch(self, seconds: float, scaled: float) -> None:
        self.raw_batches.append(seconds)
        self.batches.append(scaled)

    def result(self) -> Dict[str, Any]:
        out = {
            "setup_s": statistics.median(self.setups),
            "setups": len(self.setups),
            "batch_s": statistics.median(self.batches),
            "batches": len(self.batches),
            "op_p50_ms": statistics.median(self.op_ms),
            "op_tail_ms": tail(self.op_ms),
            "ops": len(self.op_ms),
            "peak_rss_mb": self.rss_mb,
            # fixed work: every batch sample and every timed op, whose
            # numbers are set by --seconds alone
            "work_s": sum(self.batches) + sum(self.op_ms) / 1e3,
            "raw": {
                "batch_s": statistics.median(self.raw_batches),
                "op_p50_ms": statistics.median(self.raw_op_ms),
                "op_tail_ms": tail(self.raw_op_ms),
                "host_speed": self.clock.speed(),
            },
            "named": self.named,
            "notes": self.notes,
            "attempted": self.attempted,
            "failed": self.failed,
        }
        if self.recorder is not None:
            out["layers"] = self.layer_rows()
        return out

    def layer_rows(self) -> Dict[str, Any]:
        counts = dict(self.recorder.counts)
        counts.update(self.counts)
        counts["enforce.groups_revalidated_frac"] = (
            self.revalidated / self.matched if self.matched else 0.0
        )
        # one factor for the whole run keeps rows + remainder = wall-clock
        speed = self.clock.speed()
        return {
            "self_s": {
                row: {kind: seconds * speed for kind, seconds in kinds.items()}
                for row, kinds in self.recorder.self_times().items()
            },
            "phase_s": {
                kind: seconds * speed
                for kind, seconds in self.recorder.phases.items()
            },
            "counts": counts,
        }


# ----------------------------------------------------------------------
# shared pieces of the kb workloads
# ----------------------------------------------------------------------
def update_rounds(run: Run, workload: str, graph) -> List[List[tuple]]:
    """The run's rounds, each a list of ``(tag, pool batch)``.

    One pass over the workload's :func:`mutation_pool` (see
    :data:`ROUNDS`) in a seeded order, cut into equal rounds.
    """
    round_s, per_round = ROUNDS[workload]
    count = max(1, int(run.seconds // round_s))
    pool = mutation_pool(graph, count * per_round, BATCH_OPS)
    order = list(range(len(pool)))
    random.Random(run.seed).shuffle(order)
    return [
        [(tag, pool[tag]) for tag in order[at:at + per_round]]
        for at in range(0, len(order), per_round)
    ]


def update_round(run: Run, session, graph, batches) -> Any:
    """Timed mutate + refresh batches; the last report."""
    report = None
    run.clock.calibrate()
    for tag, batch in batches:
        ops = pool_ops(batch, run.seed, tag)
        with run.phase("stream"):
            started = time.perf_counter()
            apply_ops(graph, ops)
            report = session.refresh()
            elapsed = time.perf_counter() - started
        run.op(elapsed, run.clock.scale(elapsed))
        if report.mode == "incremental":
            run.revalidated += report.groups_revalidated
            run.matched += report.patterns_matched
    return report


def batch_sample(run: Run, samples: Dict[str, List[float]], parts) -> list:
    """One batch sample: the ``(name, call)`` parts, one after another.

    Each part runs in the timed ``batch`` phase and is scaled by the
    calibrations right before and right after it; its scaled seconds go to
    ``samples[name]`` and the batch is the sum of the parts.  Returns the
    parts' results.
    """
    results = []
    raw = scaled = 0.0
    run.clock.calibrate()
    for name, call in parts:
        with run.phase("batch"):
            started = time.perf_counter()
            results.append(call())
            elapsed = time.perf_counter() - started
        part = run.clock.scale(elapsed)
        samples[name].append(part)
        raw += elapsed
        scaled += part
    run.batch(raw, scaled)
    return results


def same_report(run: Run, name: str, report, graph, sigma) -> None:
    """Oracle: ``report`` equals a fresh serial full pass on ``graph``."""
    with Session(graph.copy(), backend="serial") as session:
        session.set_sigma(sigma)
        fresh = session.enforce()
    mismatched = [
        format_gfd(mine.gfd)
        for mine, truth in zip(report.rules, fresh.rules)
        if mine.gfd != truth.gfd
        or mine.violation_count != truth.violation_count
        or mine.nodes != truth.nodes
    ]
    run.check(name, len(report.rules) == len(fresh.rules) and not mismatched,
              f"{len(mismatched)} rules differ")
    run.named["violations"] = fresh.total_violations


def add_parallel_counts(run: Run, session) -> None:
    metrics = session.metrics()
    for name, value in (
        ("parallel.supersteps", metrics.cluster.supersteps),
        ("parallel.rows_to_workers", metrics.transfers.rows_to_workers),
        ("parallel.rows_to_master", metrics.transfers.rows_to_master),
    ):
        run.counts[name] = run.counts.get(name, 0) + value


def medians(run: Run, samples: Dict[str, List[float]]) -> None:
    for name, values in samples.items():
        run.named[name] = statistics.median(values)


# ----------------------------------------------------------------------
# kb-serial
# ----------------------------------------------------------------------
def kb_serial(run: Run, sigma_path: Path) -> None:
    """Discovery, cover and enforcement on the serial backend.

    Each round mines the clean :data:`MINE_SCALE` dbpedia instance (a
    fresh ``Session``, caches cleared), takes its cover, runs one full
    enforcement pass over the dirty 2.0 instance under the 2.0 cover, and
    applies its share of update batches there, each followed by
    ``refresh()``.
    """
    def build():
        graph = dirty(dbpedia_like(scale=2.0, seed=GRAPH_SEED))
        session = Session(graph, backend="serial")
        session.load_sigma(sigma_path)
        return graph, session

    graph, session = run.setup(build, lambda built: built[1].close())
    sigma = list(session.sigma)
    samples: Dict[str, List[float]] = {
        "discover_s": [], "cover_s": [], "validate_s": [],
    }
    mined = []
    for batches in update_rounds(run, "kb-serial", graph):
        small = dbpedia_like(scale=MINE_SCALE, seed=GRAPH_SEED)
        miner = Session(small, mine_config(), backend="serial")
        clear_caches()
        gc.collect()
        found, cover, _ = batch_sample(run, samples, [
            ("discover_s", miner.discover),
            ("cover_s", miner.cover),
            ("validate_s", session.enforce),
        ])
        miner.close()
        mined.append((small, found, list(cover.cover)))
        report = update_round(run, session, graph, batches)
        run.setup_more()
    add_parallel_counts(run, session)
    session.close()
    run.rss_mb = peak_rss_mb()

    medians(run, samples)
    small, found, kept = mined[0]
    rules = list(found.gfds)
    run.named["rules"] = len(rules)
    run.named["cover_rules"] = len(kept)
    run.named["cover_digest"] = sigma_digest(kept)
    run.named["enforced_rules"] = len(sigma)
    run.named["sigma_digest"] = sigma_digest(sigma)
    if not run.checking:
        return
    for _, other, other_kept in mined[1:]:
        run.check("every round discovers the same rules and cover",
                  sigma_digest(other.gfds) == sigma_digest(rules)
                  and sigma_digest(other_kept) == run.named["cover_digest"])
    discovery_checks(run, small, rules, dict(found.supports), kept)
    same_report(run, "final refresh equals a fresh serial enforce",
                report, graph, sigma)


def discovery_checks(run: Run, graph, rules, supports, kept) -> None:
    """Oracles on one discovery: rules hold, supports recount, cover."""
    dropped = set(rules) - set(kept)
    with Session(graph, backend="serial") as oracle:
        oracle.set_sigma(rules)
        report = oracle.enforce()
    for rule in rules:
        if rule in dropped:
            run.check("a dropped rule follows from the cover",
                      implication.implies(kept, rule), format_gfd(rule))
        else:
            rest = [other for other in kept if other != rule]
            run.check("a kept rule does not follow from the rest of the cover",
                      not implication.implies(rest, rule),
                      format_gfd(rule))
    run.check("every discovered rule holds", report.is_clean,
              f"{report.total_violations} violations")
    positive = [rule for rule in rules if not rule.is_negative]
    sample = random.Random(run.seed + 1).sample(
        positive, min(SUPPORT_SAMPLE, len(positive))
    )
    for rule in sample:
        recount = gfd_support(graph, rule)
        run.check("support equals dict-path gfd_support",
                  recount == supports.get(rule),
                  f"{format_gfd(rule)}: {supports.get(rule)} != {recount}")


# ----------------------------------------------------------------------
# kb-pipeline-mp
# ----------------------------------------------------------------------
def kb_pipeline_mp(run: Run) -> None:
    """Whole pipelines on the multiprocess backend, one per round.

    Each round builds a ``Session`` with 2 workers on a fresh yago2 graph
    (master caches cleared; the pool starts lazily inside discovery), runs
    discover, cover and enforce, applies its share of update batches, and
    closes the session.
    """
    def build():
        graph = yago2_like(scale=1.6, seed=GRAPH_SEED)
        session = Session(
            graph, kb_config(), backend="multiprocess", num_workers=2
        )
        return graph, session

    plan = update_rounds(run, "kb-pipeline-mp",
                         yago2_like(scale=1.6, seed=GRAPH_SEED))
    samples: Dict[str, List[float]] = {
        "discover_s": [], "cover_s": [], "validate_s": [], "pipeline_s": [],
    }
    finals = []
    for index, batches in enumerate(plan):
        clear_caches()
        graph, session = run.setup(
            build, lambda built: built[1].close(),
            FIRST_SETUPS if index == 0 else 1,
        )
        batch_sample(run, samples, [
            ("discover_s", session.discover),
            ("cover_s", session.cover),
            ("validate_s", session.enforce),
        ])
        ops_before = len(run.op_ms)
        report = update_round(run, session, graph, batches)
        add_parallel_counts(run, session)
        sigma = list(session.sigma)
        with run.phase("close"):
            started = time.perf_counter()
            session.close()
            elapsed = time.perf_counter() - started
        closed = run.clock.scale(elapsed)
        # the session's lifetime, calibrations left out
        samples["pipeline_s"].append(
            run.kept_setup + run.batches[-1]
            + sum(run.op_ms[ops_before:]) / 1e3 + closed
        )
        finals.append((report, graph, sigma))
        run.setup_more()
    run.rss_mb = peak_rss_mb()

    medians(run, samples)
    sigma = finals[0][2]
    run.named["rules"] = len(sigma)
    run.named["sigma_digest"] = sigma_digest(sigma)
    if not run.checking:
        return
    for report, graph, round_sigma in finals:
        run.check("every round discovers the same cover",
                  sigma_digest(round_sigma) == run.named["sigma_digest"])
        same_report(run, "final refresh equals a fresh serial enforce",
                    report, graph, round_sigma)


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------
def serve_schedule(seed: int, seconds: float, graph):
    """The open-loop request list: (due offset, kind, mutation or None).

    The number of each kind is fixed by ``seconds``; the seed shuffles
    them.  Writes cycle through a fixed pool of (node, attribute) targets
    drawn with :data:`POOL_SEED`, in a seeded order per pass over the pool.
    """
    pool = [slot[1:] for batch in mutation_pool(graph, SERVE_WRITE_POOL, 1)
            for slot in batch if slot[0] == "attr"]
    rng = random.Random(seed)
    total = int(seconds * SERVE_RATE)
    reads = round(total * SERVE_READ_SHARE)
    checked = round(reads * SERVE_CHECKED_READ_SHARE)
    kinds = (["write"] * (total - reads) + ["checked-read"] * checked
             + ["read"] * (reads - checked))
    rng.shuffle(kinds)
    order: List[int] = []
    schedule = []
    for index, kind in enumerate(kinds):
        due = index / SERVE_RATE
        if kind != "write":
            schedule.append((due, kind, None))
            continue
        if not order:
            order = list(range(len(pool)))
            rng.shuffle(order)
        node, attr = pool[order.pop()]
        op = MutationOp("set_attr", {
            "node": node, "attr": attr, "value": f"w{seed}.{index}",
        })
        schedule.append((due, "write", op))
    return schedule


class Load:
    """What the open-loop generator saw, over every segment of a run."""

    def __init__(self) -> None:
        self.latencies: Dict[str, List[float]] = {"read": [], "write": []}
        self.lags: List[float] = []
        self.lane_waits: List[float] = []
        self.failures = 0
        self.elapsed = 0.0


async def serve_load(run: Run, load: Load, service, part):
    """Drive one segment open-loop; its checked read responses.

    Every request is timed from its due time.
    """
    checked: List[Dict[str, Any]] = []
    recorder = run.recorder
    if recorder is not None:
        recorder.commit_seconds.clear()  # versions restart per service

    async def one(due: float, kind: str, op) -> None:
        try:
            if kind == "write":
                response = await service.mutate(
                    [op], deadline_s=SERVE_WRITE_DEADLINE_S
                )
            else:
                response = await service.validate(
                    include_nodes=kind == "checked-read",
                    include_samples=kind == "checked-read",
                )
        except Exception as error:  # refusals and deadline misses count
            load.failures += 1
            run.notes.append(f"{kind} failed: {type(error).__name__}")
            return
        elapsed = time.perf_counter() - due
        load.latencies["write" if kind == "write" else "read"].append(elapsed)
        if kind == "checked-read":
            checked.append(response)
        if kind == "write" and recorder is not None:
            commit = recorder.commit_seconds.get(response["version"])
            if commit is not None:
                load.lane_waits.append(elapsed - commit)

    tasks = []
    first = part[0][0]
    start = time.perf_counter() + 0.01
    with run.phase("stream"):
        for due_offset, kind, op in part:
            due = start + due_offset - first
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            load.lags.append(time.perf_counter() - due)
            tasks.append(asyncio.ensure_future(one(due, kind, op)))
        await asyncio.gather(*tasks)
        load.elapsed += time.perf_counter() - start
    return checked


async def serve_mixed_async(run: Run, sigma_path: Path) -> None:
    sigma, _ = loads_sigma(sigma_path.read_text())

    def build():
        base = dirty(imdb_like(scale=1.0, seed=GRAPH_SEED))
        service = EnforcementService(
            base.copy(),
            sigma=sigma,
            config=serve_config(),
            serve=ServeConfig(commit_linger_s=SERVE_LINGER_S),
            backend="serial",
        )
        return base, service

    base, service = run.setup(build, lambda built: None)
    schedule = serve_schedule(run.seed, run.seconds, base)
    segments = max(1, int(run.seconds // SERVE_SEGMENT_S))
    size = -(-len(schedule) // segments)
    load = Load()
    served = []
    commits = mutations = leaked = 0

    async def timed_start(service) -> None:
        gc.collect()
        run.clock.calibrate()
        with run.phase("batch"):
            started = time.perf_counter()
            await service.start()
            elapsed = time.perf_counter() - started
        run.batch(elapsed, run.clock.scale(elapsed))

    for index in range(segments):
        for repeat in range(STARTS_PER_SEGMENT):
            if index or repeat:
                base, service = build()
            await timed_start(service)
            if repeat < STARTS_PER_SEGMENT - 1:
                await service.close()
        try:
            checked = await serve_load(
                run, load, service, schedule[index * size:(index + 1) * size]
            )
            commit_log = [list(batch) for batch in service.writer.commit_log]
            commits += service.writer.commits
            mutations += service.writer.mutations
            add_parallel_counts(run, service.session)
        finally:
            await service.close()
        leaked += service.leaked_leases
        served.append((base, commit_log, checked))
        run.setup_more()
    run.rss_mb = peak_rss_mb()

    # the timed ops are the writes (mutate until its version is published);
    # reads are counted and reported by name.  Read latency is set by how
    # long a read waits for the interpreter lock behind a commit, and its
    # tail moved by 45% between runs on a shared 2-vCPU host.  A write's
    # latency holds the 50 ms commit window and its wait on the open-loop
    # schedule, which do not follow the host's speed, so writes are not
    # scaled; their raw median spread by 0.05 over five seeds.
    for seconds in load.latencies["write"]:
        run.op(seconds)
    run.attempted += len(load.latencies["read"]) + load.failures
    run.failed += load.failures
    reads = [seconds * 1e3 for seconds in load.latencies["read"]]
    writes = [seconds * 1e3 for seconds in load.latencies["write"]]
    run.named["read_p50_ms"] = statistics.median(reads)
    run.named["read_p99_ms"] = quantile(reads, 0.99)
    run.named["write_p50_ms"] = statistics.median(writes)
    run.named["write_p99_ms"] = quantile(writes, 0.99)
    run.named["served_rps"] = (len(reads) + len(writes)) / load.elapsed
    run.named["commits"] = commits
    run.named["mutations"] = mutations
    run.named["rules"] = len(sigma)
    run.named["sigma_digest"] = sigma_digest(sigma)
    run.counts["serve.ops_per_commit"] = mutations / commits if commits else 0
    run.counts["serve.gen_lag_p99_ms"] = quantile(load.lags, 0.99) * 1e3
    run.named["gen_lag_p99_ms"] = run.counts["serve.gen_lag_p99_ms"]
    if load.lane_waits:
        run.counts["serve.lane_wait_ms"] = (
            statistics.median(load.lane_waits) * 1e3
        )

    if not run.checking:
        return
    run.check("zero leaked leases", leaked == 0, str(leaked))
    run.check("zero leaked segments", not live_segments())
    run.check("zero leaked mappings", not live_mappings())
    run.check("commit logs cover every mutation",
              sum(len(batch) for _, log, _ in served for batch in log)
              == mutations)
    for index, (base, commit_log, checked) in enumerate(served):
        replay_check(run, index, base, sigma, commit_log, checked)


def replay_check(run: Run, segment: int, base, sigma, commit_log,
                 responses) -> None:
    """Oracle: served reads equal a single-client replay of the commit log.

    A seeded sample of the versions the segment's checked reads saw is
    replayed in version order on one graph; each replayed version gets a
    full ``enforce()`` pass, so the incremental path is not its own judge.
    """
    by_version: Dict[int, List[Dict[str, Any]]] = {}
    for response in responses:
        by_version.setdefault(response["version"], []).append(response)
    versions = sorted(by_version)
    if len(versions) > SERVE_REPLAY_VERSIONS:
        versions = sorted(random.Random(run.seed + segment).sample(
            versions, SERVE_REPLAY_VERSIONS
        ))
    run.check("checked reads were served", bool(versions))
    graph = base.copy()
    applied = 0
    with Session(graph, backend="serial") as session:
        session.set_sigma(sigma)
        for version in versions:
            for batch in commit_log[applied:version]:
                apply_ops(graph, batch)
            applied = version
            truth = json.dumps(
                report_payload(session.enforce(), True, True), sort_keys=True
            )
            for response in by_version[version]:
                served = {
                    key: value for key, value in response.items()
                    if key not in ("kind", "version", "graph_version")
                }
                run.check(f"read at version {version} equals replay",
                          json.dumps(served, sort_keys=True) == truth)


def serve_mixed(run: Run, sigma_path: Path) -> None:
    asyncio.run(serve_mixed_async(run, sigma_path))


# ----------------------------------------------------------------------
# Σ derivation (its own process, outside every measurement)
# ----------------------------------------------------------------------
def derive(workload: str, out: Path) -> None:
    if workload == "kb-serial":  # the cover of the dbpedia 2.0 instance
        with Session(dbpedia_like(scale=2.0, seed=GRAPH_SEED), kb_config(),
                     backend="serial") as session:
            found = session.discover()
            cover = session.cover()
            text = dumps_sigma(cover.cover, found.supports)
    elif workload == "serve-mixed":
        with Session(imdb_like(scale=1.0, seed=GRAPH_SEED), serve_config(),
                     backend="serial") as session:
            found = session.discover()
            text = dumps_sigma(found.gfds, found.supports)
    else:
        raise ValueError(f"{workload} loads no Σ")
    write_atomic(out, text)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("mode", choices=["derive", "measure"])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--sigma", type=Path)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    if args.mode == "derive":
        derive(args.workload, args.out)
        return 0
    run = Run(args.seed, args.seconds, args.trace)
    if args.workload == "kb-serial":
        kb_serial(run, args.sigma)
    elif args.workload == "serve-mixed":
        serve_mixed(run, args.sigma)
    elif args.workload == "kb-pipeline-mp":
        kb_pipeline_mp(run)
    else:
        parser.error(f"unknown workload {args.workload!r}")
    print(json.dumps(run.result()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
