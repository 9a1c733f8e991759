"""Per-layer span recording for the traced benchmark run.

The traced run wraps public entry points of the program from the outside
(the program itself is not changed).  Each wrapped call records one span:
its name, start, end, the span that was open when it began (its parent),
and its *busy* time.  For a plain call busy time is end minus start; for a
generator it is the time spent inside the generator's own ``next()`` steps,
so a lazily consumed ``find_matches`` is charged for its matching work and
not for whatever its consumer does between rows.

Each thread keeps its own stack of open spans (the serving layer commits on
a separate lane thread).  A span's self time is its busy time minus the busy
time of its children, so the self times of all spans under a phase add up to
the busy time of the phase's top-level spans; what remains of the phase's
wall-clock is reported as ``parallel.master_self_s``.

Only the process that installed the wrappers records: forked worker
processes inherit the wrappers but call straight through, so on the
multiprocess backend the table shows master-side time only.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Every per-layer metric: (name, unit, better, wrapped entry point or
#: source, the end-to-end metric and workload a change here should move).
LAYER_METRICS: List[Tuple[str, str, str, str, str]] = [
    ("graph.index_build_s", "s", "lower", "GraphIndex.build",
     "update_p50_ms on kb-serial, write_p50_ms on serve-mixed"),
    ("graph.index_builds", "count", "lower", "GraphIndex.build",
     "update_p50_ms on kb-serial, write_p50_ms on serve-mixed"),
    ("graph.mutate_s", "s", "lower",
     "Graph.set_attr / remove_edge / add_edge",
     "update_p50_ms on kb-serial, write_p50_ms on serve-mixed"),
    ("graph.mutations", "count", "higher",
     "Graph.set_attr / remove_edge / add_edge",
     "update_p50_ms on kb-serial, write_p50_ms on serve-mixed"),
    ("pattern.extend_matches_s", "s", "lower",
     "repro.parallel.backend.extend_matches", "discover_s on kb-serial"),
    ("pattern.extend_rows", "count", "lower",
     "repro.parallel.backend.extend_matches", "discover_s on kb-serial"),
    ("pattern.find_matches_s", "s", "lower",
     "repro.enforce.engine.find_matches (timed over its iteration)",
     "validate_s and update_p50_ms on kb-serial"),
    ("pattern.find_matches_rows", "count", "lower",
     "repro.enforce.engine.find_matches (rows yielded)",
     "validate_s and update_p50_ms on kb-serial"),
    ("core.extension_statistics_s", "s", "lower",
     "repro.parallel.backend.extension_statistics",
     "discover_s on kb-serial"),
    ("core.extension_statistics_calls", "count", "lower",
     "repro.parallel.backend.extension_statistics",
     "discover_s on kb-serial"),
    ("core.mask_lattice_s", "s", "lower",
     "ShardWorker.op_eval incl. MatchTable.stack_supports",
     "discover_s and peak_rss_mb on kb-serial"),
    ("core.mask_stacks", "count", "lower", "MatchTable.stack_supports",
     "discover_s and peak_rss_mb on kb-serial"),
    ("core.reduction_s", "s", "lower",
     "repro.core.discovery.minimal_cover_by_reduction",
     "discover_s on kb-serial"),
    ("core.reduction_in", "count", "lower",
     "repro.core.discovery.minimal_cover_by_reduction (rules in)",
     "discover_s on kb-serial"),
    ("gfd.implication_s", "s", "lower",
     "ImplicationChecker.implies / repro.gfd.implication.implies",
     "cover_s on kb-serial"),
    ("gfd.implies_calls", "count", "lower",
     "ImplicationChecker.implies / repro.gfd.implication.implies",
     "cover_s on kb-serial"),
    ("enforce.mask_s", "s", "lower", "MatchTable.violation_mask",
     "validate_s and update_p50_ms on kb-serial"),
    ("enforce.install_s", "s", "lower",
     "ShardWorker.op_enforce_install / op_enforce_update",
     "validate_s and update_p50_ms on kb-serial"),
    ("enforce.ball_s", "s", "lower", "repro.enforce.engine.affected_nodes",
     "update_p50_ms on kb-serial"),
    ("enforce.ball_nodes", "count", "lower",
     "repro.enforce.engine.affected_nodes (result size)",
     "update_p50_ms on kb-serial"),
    ("enforce.groups_revalidated_frac", "ratio", "lower",
     "groups_revalidated / patterns_matched of incremental reports",
     "update_p50_ms on kb-serial"),
    ("parallel.supersteps", "count", "lower", "Session.metrics()",
     "pipeline_s on kb-pipeline-mp"),
    ("parallel.rows_to_workers", "count", "lower", "Session.metrics()",
     "pipeline_s on kb-pipeline-mp"),
    ("parallel.rows_to_master", "count", "lower", "Session.metrics()",
     "pipeline_s on kb-pipeline-mp"),
    ("parallel.superstep_wait_s", "s", "lower",
     "ExecutionBackend.run_superstep / run_unmetered (master side)",
     "pipeline_s and update_p50_ms on kb-pipeline-mp"),
    ("parallel.refresh_index_s", "s", "lower",
     "ExecutionBackend.refresh_index (master side)",
     "pipeline_s and update_p50_ms on kb-pipeline-mp"),
    ("parallel.backend_start_s", "s", "lower", "repro.session.make_backend",
     "pipeline_s on kb-pipeline-mp"),
    ("parallel.master_self_s", "s", "lower",
     "phase wall-clock minus every wrapped span's self time",
     "discover_s on kb-serial"),
    ("serve.commit_s", "s", "lower", "GroupCommitWriter.commit",
     "write_p50_ms and served_rps on serve-mixed"),
    ("serve.ops_per_commit", "count", "higher",
     "mutations / commits of the GroupCommitWriter",
     "write_p50_ms and served_rps on serve-mixed"),
    ("serve.lane_wait_ms", "ms", "lower",
     "median of write latency minus its commit's time",
     "write_p99_ms on serve-mixed"),
    ("serve.pin_s", "s", "lower", "SnapshotChain.pin",
     "read_p99_ms on serve-mixed"),
    ("serve.gen_lag_p99_ms", "ms", "lower",
     "how late the open-loop generator sent (p99)",
     "read_p99_ms and write_p99_ms on serve-mixed"),
    ("obs.trace_overhead_frac", "ratio", "lower",
     "traced work time over untraced, minus 1", "none: the wrappers' cost"),
]

#: The layer rows of the time table: each wrapped span's self time lands
#: in exactly one of these; the phase remainder is the last row.
TIME_ROWS = [name for name, unit, *_ in LAYER_METRICS
             if unit == "s" and name != "parallel.master_self_s"]


class _Span:
    __slots__ = ("row", "start", "end", "parent", "busy", "child_busy",
                 "kind")

    def __init__(self, row: str, parent: Optional["_Span"]) -> None:
        self.row = row
        self.parent = parent
        self.start = time.perf_counter()
        self.end = self.start
        self.busy = 0.0
        self.child_busy = 0.0
        self.kind: Optional[str] = None


class Recorder:
    """Span store plus the wrappers that feed it.

    Spans are recorded only while :attr:`active` (inside a timed phase) and
    only in the process that created the recorder.
    """

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.active = False
        self.spans: List[_Span] = []
        self.phases: Dict[str, float] = {}
        self.counts: Dict[str, float] = {}
        self._local = threading.local()
        self._count_lock = threading.Lock()
        #: Seconds of each group commit, keyed by the version it published.
        self.commit_seconds: Dict[int, float] = {}

    # -- span stack -----------------------------------------------------
    def _stack(self) -> List[_Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def recording(self) -> bool:
        return self.active and os.getpid() == self.pid

    def open(self, row: str) -> _Span:
        stack = self._stack()
        span = _Span(row, stack[-1] if stack else None)
        self.spans.append(span)
        return span

    def close(self, span: _Span, busy: float) -> None:
        span.end = time.perf_counter()
        span.busy = busy
        if span.parent is not None:
            span.parent.child_busy += busy

    def count(self, name: str, amount: float = 1) -> None:
        with self._count_lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    # -- phases ---------------------------------------------------------
    def phase(self, kind: str) -> "_Phase":
        """A timed region; wrapped calls inside it are recorded."""
        return _Phase(self, kind)

    # -- wrappers -------------------------------------------------------
    def wrap_call(
        self,
        fn: Callable,
        row: str,
        counter: Optional[str] = None,
        amount: Optional[Callable[[Any, tuple], float]] = None,
    ) -> Callable:
        recorder = self

        def wrapper(*args, **kwargs):
            if not recorder.recording():
                return fn(*args, **kwargs)
            span = recorder.open(row)
            stack = recorder._stack()
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                recorder.close(span, time.perf_counter() - span.start)
            if counter is not None:
                recorder.count(
                    counter, amount(result, args) if amount else 1
                )
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_generator(self, fn: Callable, row: str, counter: str) -> Callable:
        recorder = self

        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            if not recorder.recording():
                yield from inner
                return
            span = recorder.open(row)
            stack = recorder._stack()
            # locals, because this runs once per row: millions of times
            push, pop, step = stack.append, stack.pop, inner.__next__
            clock = time.perf_counter
            busy = 0.0
            rows = 0
            try:
                while True:
                    push(span)
                    busy -= clock()
                    try:
                        item = step()
                    except BaseException:
                        busy += clock()
                        pop()
                        raise
                    busy += clock()
                    pop()
                    rows += 1
                    yield item
            except StopIteration:
                return
            finally:
                inner.close()
                recorder.close(span, busy)
                recorder.count(counter, rows)

        wrapper.__wrapped__ = fn
        return wrapper

    def patch_function(self, module: Any, attr: str, wrapped_of) -> None:
        """Replace ``module.attr`` everywhere a ``repro`` module holds it."""
        original = getattr(module, attr)
        wrapped = wrapped_of(original)
        for name, mod in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)

    def patch_method(self, cls: type, attr: str, wrapped_of) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(wrapped_of(raw.__func__)))
        else:
            setattr(cls, attr, wrapped_of(raw))


    # -- results --------------------------------------------------------
    def self_times(self) -> Dict[str, Dict[str, float]]:
        """Self seconds per row, split by the phase kind each span ran in."""
        table: Dict[str, Dict[str, float]] = {}
        for span in self.spans:
            root = span
            while root.parent is not None:
                root = root.parent
            if span.kind is not None:
                continue  # phase spans are the wall-clock, not a row
            kind = root.kind or "lane"
            column = table.setdefault(span.row, {})
            column[kind] = (
                column.get(kind, 0.0) + span.busy - span.child_busy
            )
        return table


class _Phase:
    def __init__(self, recorder: Recorder, kind: str) -> None:
        self.recorder = recorder
        self.kind = kind

    def __enter__(self) -> "_Phase":
        recorder = self.recorder
        self.span = recorder.open("phase")
        self.span.kind = self.kind
        recorder._stack().append(self.span)
        recorder.active = True
        return self

    def __exit__(self, *exc_info) -> None:
        recorder = self.recorder
        recorder.active = False
        recorder._stack().pop()
        span = self.span
        recorder.close(span, time.perf_counter() - span.start)
        recorder.phases[self.kind] = (
            recorder.phases.get(self.kind, 0.0) + span.busy
        )


def install(recorder: Recorder) -> None:
    """Wrap every entry point named in :data:`LAYER_METRICS`."""
    import repro.session  # noqa: F401  (import every layer first)
    import repro.serve  # noqa: F401
    from repro.core import discovery, match_table
    from repro.enforce import delta
    from repro.gfd import implication
    from repro.graph import graph as graph_module
    from repro.graph import index as index_module
    from repro.parallel import backend
    from repro.pattern import incremental, matcher
    from repro.core import spawning
    from repro.serve import snapshots, writer

    call = recorder.wrap_call

    def size(result, args):
        return len(result)

    recorder.patch_method(
        index_module.GraphIndex, "build",
        lambda fn: call(fn, "graph.index_build_s", "graph.index_builds"),
    )
    for mutator in ("set_attr", "remove_edge", "add_edge"):
        recorder.patch_method(
            graph_module.Graph, mutator,
            lambda fn: call(fn, "graph.mutate_s", "graph.mutations"),
        )
    recorder.patch_function(
        incremental, "extend_matches",
        lambda fn: call(fn, "pattern.extend_matches_s",
                        "pattern.extend_rows", size),
    )
    recorder.patch_function(
        matcher, "find_matches",
        lambda fn: recorder.wrap_generator(
            fn, "pattern.find_matches_s", "pattern.find_matches_rows"
        ),
    )
    recorder.patch_function(
        spawning, "extension_statistics",
        lambda fn: call(fn, "core.extension_statistics_s",
                        "core.extension_statistics_calls"),
    )
    recorder.patch_method(
        backend.ShardWorker, "op_eval",
        lambda fn: call(fn, "core.mask_lattice_s"),
    )
    recorder.patch_method(
        match_table.MatchTable, "stack_supports",
        lambda fn: call(fn, "core.mask_lattice_s", "core.mask_stacks"),
    )
    recorder.patch_function(
        discovery, "minimal_cover_by_reduction",
        lambda fn: call(fn, "core.reduction_s", "core.reduction_in",
                        lambda result, args: len(args[0])),
    )
    recorder.patch_method(
        implication.ImplicationChecker, "implies",
        lambda fn: call(fn, "gfd.implication_s", "gfd.implies_calls"),
    )
    recorder.patch_function(
        implication, "implies",
        lambda fn: call(fn, "gfd.implication_s", "gfd.implies_calls"),
    )
    recorder.patch_method(
        match_table.MatchTable, "violation_mask",
        lambda fn: call(fn, "enforce.mask_s"),
    )
    for op in ("op_enforce_install", "op_enforce_update"):
        recorder.patch_method(
            backend.ShardWorker, op, lambda fn: call(fn, "enforce.install_s")
        )
    recorder.patch_function(
        delta, "affected_nodes",
        lambda fn: call(fn, "enforce.ball_s", "enforce.ball_nodes", size),
    )
    for cls in (backend.ExecutionBackend, backend.SerialBackend,
                backend.MultiprocessBackend):
        for method, row in (("run_superstep", "parallel.superstep_wait_s"),
                            ("run_unmetered", "parallel.superstep_wait_s"),
                            ("refresh_index", "parallel.refresh_index_s")):
            if method in cls.__dict__:
                recorder.patch_method(
                    cls, method, lambda fn, row=row: call(fn, row)
                )
    recorder.patch_function(
        backend, "make_backend",
        lambda fn: call(fn, "parallel.backend_start_s"),
    )
    recorder.patch_method(
        writer.GroupCommitWriter, "commit", lambda fn: _commit_wrapper(
            recorder, fn
        ),
    )
    recorder.patch_method(
        snapshots.SnapshotChain, "pin",
        lambda fn: call(fn, "serve.pin_s"),
    )


def _commit_wrapper(recorder: Recorder, fn: Callable) -> Callable:
    """Time a group commit and remember its duration by published version."""
    timed = recorder.wrap_call(fn, "serve.commit_s")

    def wrapper(self, ops):
        started = time.perf_counter()
        snapshot = timed(self, ops)
        recorder.commit_seconds[snapshot.version] = (
            time.perf_counter() - started
        )
        return snapshot

    return wrapper
