"""The :class:`Session` — one resource-owning facade for the whole pipeline.

The paper's workflow is a single pipeline: ``ParDis`` discovers Σ,
``ParCover`` minimizes it, and the rules are then *served* against the live
graph.  Historically each phase was a separate entry point that built its
own graph index, spun up its own worker pools and tore everything down on
return — four pool lifecycles for one pipeline.  A ``Session`` owns those
resources once:

* the **frozen graph index** snapshot (re-snapshotted automatically when
  the graph mutates — live backends are re-pointed via ``refresh_index``,
  never rebuilt);
* one lazily-started **execution backend** (serial or multiprocess) shared
  by discover, cover and enforce;
* one **delta log** attached to the graph for incremental enforcement;
* the current **Σ** with its supports, flowing from phase to phase;
* a **chase-cost model** so repeated covers balance by measured unit costs
  instead of the static proxy weights;
* a metered **cluster ledger** and the backend's transfer/lifecycle
  counters, unified under :meth:`Session.metrics` — "pools started once,
  index attached once" is asserted there, not assumed.

Typical use::

    from repro import DiscoveryConfig, Session

    with Session(graph, DiscoveryConfig(k=3, sigma=50)) as session:
        session.discover()           # ParDis on the session backend
        session.cover()              # ParCover over the same pools
        report = session.enforce()   # compiled validation, resident tables
        graph.add_edge(u, v, "knows")
        report = session.refresh()   # incremental — ships only the delta
        session.save_sigma("sigma.json")
        print(session.metrics().as_dict())

Streaming discovery with early-stop budgets::

    with Session(graph, config) as session:
        for gfd in session.discover_iter(max_rules=25):
            print(gfd)               # rules arrive as lattice levels finish

The engines stay directly usable (``discover``, ``ParallelDiscovery``,
``parallel_cover``, a directly-constructed ``EnforcementEngine``); each
such call starts and stops its own backend, and the Session path is
differential-tested against them (``tests/test_api.py``).  Pipelines should
hold a session.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from .core.config import DiscoveryConfig, EnforcementConfig
from .core.cover import CoverResult
from .core.results import DiscoveryResult
from .enforce.delta import DeltaLog
from .enforce.engine import EnforcementEngine, EnforcementReport
from .enforce.monitor import RuleSketchMonitor
from .gfd.gfd import GFD
from .gfd.parser import dumps_sigma, loads_sigma
from .graph.graph import Graph
from .graph.index import GraphIndex
from .graph.statistics import compute_statistics
from .graph.store import IndexStoreStale
from .obs.metrics import MetricsRegistry, registry_from_metrics
from .obs.tracer import NULL_TRACER
from .parallel.backend import (
    BACKEND_NAMES,
    ExecutionBackend,
    LifecycleCounters,
    TransferLedger,
    make_backend,
)
from .parallel.cluster import ClusterMetrics, SimulatedCluster
from .parallel.costs import ChaseCostModel, PhaseCostPlanner
from .parallel.parcover import parallel_cover
from .parallel.pardis import ParallelDiscovery

__all__ = ["Session", "SessionMetrics"]


@dataclass
class SessionMetrics:
    """One unified view of a session's resource usage and work.

    Combines the backend's :class:`~repro.parallel.backend.LifecycleCounters`
    (pool starts, index attaches/refreshes) and
    :class:`~repro.parallel.backend.TransferLedger` (match rows crossing the
    master boundary) with the :class:`~repro.parallel.cluster.
    ClusterMetrics` superstep ledger and the session's own phase counters.
    The acceptance property of the facade reads directly off this object:
    after a full discover → cover → enforce → refresh pipeline,
    ``backend_starts == 1`` and ``lifecycle.index_attaches == 1``.

    :meth:`as_dict` renders the documented **schema v2** (see there) and
    :meth:`registry` lifts the same snapshot into a
    :class:`~repro.obs.metrics.MetricsRegistry` for Prometheus-style
    exposition.
    """

    #: Version of the :meth:`as_dict` layout.  Bump on any key change.
    SCHEMA_VERSION = 2

    backend_name: str
    num_workers: int
    #: Backends the session constructed — 1 for any number of phases.
    backend_starts: int
    lifecycle: LifecycleCounters
    transfers: TransferLedger
    cluster: ClusterMetrics
    #: Executed phase counts: discover / discover_iter / cover / enforce /
    #: refresh.
    phases: Dict[str, int] = field(default_factory=dict)
    #: Current ``|Σ|`` held by the session.
    sigma_size: int = 0
    #: Cover-unit chase timings absorbed by the session's cost model.
    cover_cost_observations: int = 0
    #: Wall-clock seconds the backend spent recovering failed workers
    #: (respawn + install-log replay); 0.0 on fault-free runs.
    recovery_seconds: float = 0.0
    #: Observed seconds-per-item rates of the ``"auto"`` planner, per
    #: phase and backend (empty until phases have run).
    planner: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: The concrete backend the planner resolved per phase on its most
    #: recent run (equals ``backend_name`` on non-``"auto"`` sessions).
    phase_backends: Dict[str, str] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        """A JSON-serializable rendering (CI artifacts, ``--metrics``).

        **Schema v2.**  Every top-level key except ``timings`` holds only
        deterministic values — names, worker counts, event counts — so two
        runs over the same input diff cleanly.  All wall-clock derived
        floats (phase seconds, recovery seconds, planner rates) are
        isolated under the single ``timings`` key; a consumer comparing
        artifacts drops that one key and compares the rest byte-for-byte
        (``benchmarks/bench_session.py --check`` does exactly this).

        Keys: ``schema_version``, ``repro_version``, ``backend``,
        ``num_workers``, ``backend_starts``, ``lifecycle`` (6 lifecycle
        counts), ``faults`` (4 fault counts), ``transfers`` (4 row/rule
        counts), ``cluster`` (``supersteps``), ``phases``,
        ``phase_backends``, ``sigma_size``, ``cover_cost_observations``,
        ``timings`` (``parallel_seconds``, ``master_seconds``,
        ``total_work_seconds``, ``recovery_seconds``,
        ``cluster_recovery_seconds``, ``planner`` rate map).
        """
        from repro import __version__

        return {
            "schema_version": self.SCHEMA_VERSION,
            "repro_version": __version__,
            "backend": self.backend_name,
            "num_workers": self.num_workers,
            "backend_starts": self.backend_starts,
            "lifecycle": {
                "pools_started": self.lifecycle.pools_started,
                "index_attaches": self.lifecycle.index_attaches,
                "index_refreshes": self.lifecycle.index_refreshes,
                "delta_refreshes": self.lifecycle.delta_refreshes,
                "resets": self.lifecycle.resets,
                "shutdowns": self.lifecycle.shutdowns,
            },
            "faults": {
                "timeouts": self.lifecycle.timeouts,
                "retries": self.lifecycle.retries,
                "respawns": self.lifecycle.respawns,
                "degraded_workers": self.lifecycle.degraded_workers,
            },
            "transfers": {
                "rows_to_workers": self.transfers.rows_to_workers,
                "rows_to_master": self.transfers.rows_to_master,
                "rows_staged": self.transfers.rows_staged,
                "sigma_rules": self.transfers.sigma_rules,
            },
            "cluster": {
                "supersteps": self.cluster.supersteps,
            },
            "phases": dict(self.phases),
            "phase_backends": dict(self.phase_backends),
            "sigma_size": self.sigma_size,
            "cover_cost_observations": self.cover_cost_observations,
            "timings": {
                "parallel_seconds": self.cluster.parallel_seconds,
                "master_seconds": self.cluster.master_seconds,
                "total_work_seconds": self.cluster.total_work_seconds,
                "recovery_seconds": self.recovery_seconds,
                "cluster_recovery_seconds": self.cluster.recovery_seconds,
                "planner": {
                    phase: dict(rates)
                    for phase, rates in self.planner.items()
                },
            },
        }

    def registry(self) -> MetricsRegistry:
        """This snapshot as a :class:`~repro.obs.metrics.MetricsRegistry`.

        Counts become ``repro_*`` counters, timings become gauges; render
        with :meth:`~repro.obs.metrics.MetricsRegistry.to_prometheus` or
        :func:`~repro.obs.export.write_prometheus`.
        """
        return registry_from_metrics(self.as_dict())


class Session:
    """Context-managed pipeline state: discover → cover → enforce → refresh.

    Args:
        graph: the live data graph.  The session snapshots its frozen
            index, attaches a delta log, and tracks mutations — a phase
            run after a mutation re-snapshots and re-points the live
            backend instead of rebuilding it.
        config: the :class:`~repro.core.config.DiscoveryConfig` driving
            discovery *and* the session's execution substrate
            (``parallel_backend``, ``num_workers``, ``use_index``);
            ``None`` uses the defaults.
        enforcement: enforcement policies (delta thresholds, sample caps,
            the per-rule violation cap, persistent tables).  The execution
            knobs (``backend``, ``num_workers``, ``use_index``) are
            overridden by the session's — one backend serves every phase.
            ``None`` uses the defaults.
        num_workers: worker count ``n`` (overrides ``config.num_workers``;
            default: ``config.num_workers``, else 1 for the serial backend
            and 4 for multiprocess).
        backend: backend name overriding ``config.parallel_backend``
            (``"serial"``, ``"multiprocess"`` or ``"auto"``).  With
            ``"auto"`` each phase picks serial or multiprocess through a
            :class:`~repro.parallel.costs.PhaseCostPlanner`: serial until
            a phase's input is large enough (``config.
            planner_mp_min_size``) or multiprocess has measured faster on
            that phase — multiprocess must *never lose to serial* by more
            than the planner's margin.
        index_path: optional path of a persisted index snapshot (the
            ``repro.graph.store`` format).  A valid store file whose
            fingerprint matches the graph attaches via ``mmap`` with
            *zero* index rebuild — and the multiprocess backend ships the
            same file to every worker instead of allocating a
            shared-memory copy.  A missing or stale file is rebuilt from
            the graph and re-persisted (atomic replace); a *corrupt* file
            raises :class:`~repro.graph.store.IndexStoreError` rather
            than being silently overwritten.  Ignored when
            ``config.use_index`` is off.
        index_mmap: attach mode for ``index_path`` — ``True`` (default)
            maps the file read-only; ``False`` loads it eagerly into
            process memory (checksums verified).
        index_autosave: with ``index_path`` set, whether a stale-or-missing
            store file is re-persisted after the in-memory rebuild
            (default ``True`` — the path always holds the current
            snapshot).  A serving process that commits many small write
            batches turns this off: re-serializing the store on every
            published version would dominate the commit path, and the
            serving layer decides when a durable snapshot is worth
            writing.
        monitor: an optional :class:`~repro.enforce.monitor.
            RuleSketchMonitor`; when given (or restored by
            :meth:`load_sigma`), every enforcement pass streams its
            violating pivot ids into the monitor's per-rule sketches.
        tracer: an optional :class:`~repro.obs.tracer.Tracer`.  When
            given, the session opens a root ``session`` span, wraps every
            phase in a ``phase`` span, and threads the tracer through the
            cluster, the planner, every backend it starts and the
            enforcement engine — one trace covers the whole pipeline.
            Default: the shared no-op ``NULL_TRACER`` (tracing off; every
            hook is a constant-time no-op and results are byte-identical
            either way).

    Single-threaded, like the engines.  Use as a context manager, or call
    :meth:`close` — worker processes and shared-memory segments outlive no
    session.
    """

    def __init__(
        self,
        graph: Graph,
        config: Optional[DiscoveryConfig] = None,
        enforcement: Optional[EnforcementConfig] = None,
        num_workers: Optional[int] = None,
        backend: Optional[str] = None,
        index_path: Optional[Any] = None,
        index_mmap: bool = True,
        index_autosave: bool = True,
        tracer: Optional[Any] = None,
        monitor: Optional[RuleSketchMonitor] = None,
    ) -> None:
        self.graph = graph
        #: The session tracer — a live ``Tracer`` or the no-op singleton.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.config = config if config is not None else DiscoveryConfig()
        self._backend_name = backend or self.config.parallel_backend
        if self._backend_name not in BACKEND_NAMES + ("auto",):
            raise ValueError(
                f"unknown parallel backend {self._backend_name!r} "
                f"(expected one of {BACKEND_NAMES + ('auto',)})"
            )
        if self._backend_name == "multiprocess" and not self.config.use_index:
            raise ValueError(
                "the multiprocess backend requires config.use_index=True"
            )
        if num_workers is None:
            num_workers = self.config.num_workers
        if num_workers is None:
            num_workers = 1 if self._backend_name == "serial" else 4
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self._num_workers = num_workers
        #: Per-phase serial-vs-multiprocess planner; only consulted when
        #: the session backend is ``"auto"``, but always fed observations
        #: so :meth:`metrics` can report measured phase rates.
        self.planner = PhaseCostPlanner(
            mp_min_size=self.config.planner_mp_min_size
        )
        self.planner.tracer = self.tracer
        #: The concrete backend each phase last resolved to.
        self._phase_backends: Dict[str, str] = {}
        base = enforcement if enforcement is not None else EnforcementConfig()
        #: The enforcement config actually used: session-owned execution
        #: knobs, caller-owned policies.  An ``"auto"`` session pins the
        #: name per engine build (:meth:`_ensure_engine`).
        self.enforcement = replace(
            base,
            backend=(
                "serial" if self._backend_name == "auto"
                else self._backend_name
            ),
            num_workers=num_workers,
            use_index=self.config.use_index,
            fault=self.config.fault,
        )
        self._snapshot_version = graph.version
        self._index_path = Path(index_path) if index_path is not None else None
        self._index_mmap = bool(index_mmap)
        self._index_autosave = bool(index_autosave)
        self._monitor = monitor
        self._index: Optional[GraphIndex] = (
            self._snapshot_index() if self.config.use_index else None
        )
        self._stats = (
            self._index.statistics()
            if self._index is not None
            else compute_statistics(graph)
        )
        if self.config.active_attributes is not None:
            self._gamma = list(self.config.active_attributes)
        else:
            self._gamma = self._stats.top_attributes(
                self.config.max_active_attributes
            )
        self.cluster = SimulatedCluster(num_workers, tracer=self.tracer)
        self.cover_costs = ChaseCostModel()
        self._delta = DeltaLog()
        graph.attach_delta_log(self._delta)
        self._backend: Optional[ExecutionBackend] = None
        #: Every backend the session has started, keyed by name.  Concrete
        #: sessions hold at most one; an ``"auto"`` session may hold both
        #: when the planner's per-phase choices differ.
        self._backends: Dict[str, ExecutionBackend] = {}
        self._backend_starts = 0
        self._engine: Optional[EnforcementEngine] = None
        self._engine_backend: Optional[str] = None
        self._sigma: List[GFD] = []
        self._supports: Dict[GFD, int] = {}
        self._phases: Dict[str, int] = {}
        self._closed = False
        self._root_span = (
            self.tracer.begin(
                "session",
                "session",
                backend=self._backend_name,
                num_workers=num_workers,
            )
            if self.tracer.enabled
            else None
        )

    # ------------------------------------------------------------------
    # resource ownership
    # ------------------------------------------------------------------
    @property
    def backend_name(self) -> str:
        """The execution backend this session runs on."""
        return self._backend_name

    @property
    def num_workers(self) -> int:
        """The worker count ``n`` shared by every phase."""
        return self._num_workers

    @property
    def index(self) -> Optional[GraphIndex]:
        """The session's current frozen index snapshot (``None`` when
        ``config.use_index`` is off)."""
        return self._index

    @property
    def delta(self) -> DeltaLog:
        """The session-owned delta log fed by the graph's mutators."""
        return self._delta

    @property
    def sigma(self) -> List[GFD]:
        """The current rule set Σ (a copy)."""
        return list(self._sigma)

    @property
    def supports(self) -> Dict[GFD, int]:
        """Per-rule supports of the current Σ (a copy)."""
        return dict(self._supports)

    @property
    def monitor(self) -> Optional[RuleSketchMonitor]:
        """The streaming violation monitor, if one is attached."""
        return self._monitor

    def set_sigma(
        self,
        rules: List[GFD],
        supports: Optional[Dict[GFD, int]] = None,
    ) -> None:
        """Replace the session's Σ (and supports) programmatically.

        The equivalent of :meth:`load_sigma` for rules already in hand —
        a serving layer uses it to pin the service Σ after exploratory
        discovery requests.  If the new Σ differs from the enforcement
        engine's, the engine is dropped and the next enforce/refresh
        compiles a fresh plan over the same backend.
        """
        self._check_open()
        self._set_sigma(list(rules), supports)

    def _resolve(self, phase: str, size: int) -> str:
        """The concrete backend name *phase* runs on for *size* items.

        Concrete sessions always answer their configured name.  An
        ``"auto"`` session asks the :class:`~repro.parallel.costs.
        PhaseCostPlanner` — serial until the phase is large enough or
        multiprocess has measured faster — except that without the frozen
        index (``use_index=False``) multiprocess cannot run at all, so
        serial is forced.
        """
        if self._backend_name != "auto":
            if self.tracer.enabled:
                self.tracer.event(
                    "planner_decision",
                    phase=phase,
                    size=size,
                    chosen=self._backend_name,
                    mode="pinned",
                )
            return self._backend_name
        if not self.config.use_index:
            if self.tracer.enabled:
                self.tracer.event(
                    "planner_decision",
                    phase=phase,
                    size=size,
                    chosen="serial",
                    mode="forced_serial",
                )
            return "serial"
        return self.planner.choose(phase, size)

    def _backend_for(self, name: str) -> ExecutionBackend:
        """The session's backend *name*, started on first use and cached.

        Also records it as the session's current backend (what
        :meth:`backend` answers between phases).
        """
        self._check_open()
        backend = self._backends.get(name)
        if backend is None:
            backend = make_backend(
                name,
                self._num_workers,
                self.graph,
                self._index,
                self._gamma,
                fault=self.config.fault,
                tracer=self.tracer,
            )
            self._backends[name] = backend
            self._backend_starts += 1
        self._backend = backend
        return backend

    def backend(self) -> ExecutionBackend:
        """The session's execution backend, started on first use.

        Every phase runs on this one instance (concrete sessions) and
        :meth:`metrics` proves the single lifecycle (``backend_starts``,
        ``lifecycle.pools_started``).  On an ``"auto"`` session this is
        the most recently used backend (resolved for discovery when no
        phase has run yet); individual phases may resolve differently.
        """
        self._check_open()
        if self._backend_name != "auto":
            return self._backend_for(self._backend_name)
        if self._backend is not None:
            return self._backend
        return self._backend_for(
            self._resolve("discover", self.graph.num_nodes)
        )

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("the session is closed")

    def _snapshot_index(self) -> GraphIndex:
        """The frozen snapshot, via the on-disk store when ``index_path`` set.

        A valid persisted snapshot mmap-attaches (or eager-loads) with
        zero rebuild; a missing or *stale* file — the graph mutated since
        the save — is rebuilt from the graph and re-persisted, so the
        path always holds the current snapshot afterwards.  Corruption is
        never papered over: a damaged file raises ``IndexStoreError``.
        """
        if self._index_path is None:
            return self.graph.index()
        if self._index_path.exists():
            try:
                index = GraphIndex.load(
                    self._index_path,
                    graph=self.graph,
                    mmap=self._index_mmap,
                )
                if self.tracer.enabled:
                    self.tracer.event(
                        "index_loaded",
                        path=str(self._index_path),
                        mmap=self._index_mmap,
                    )
                return index
            except IndexStoreStale:
                if self.tracer.enabled:
                    self.tracer.event(
                        "index_stale_rebuild", path=str(self._index_path)
                    )
        index = self.graph.index()
        if self._index_autosave:
            index.save(self._index_path)
            if self.tracer.enabled:
                self.tracer.event("index_saved", path=str(self._index_path))
        return index

    def _refresh_snapshot(self) -> None:
        """Re-snapshot the index, statistics and Γ after graph mutations.

        ``graph.index()`` is version-cached, so this is free while the
        graph is unchanged; after a mutation the new snapshot is exported
        to the live backend exactly once (``refresh_index`` — worker pools
        survive).  On the dict reference path (``use_index=False``) the
        statistics are rescanned on version change, so a post-mutation
        discovery sees the same label counts a fresh session would.
        """
        if self.graph.version == self._snapshot_version:
            return
        self._snapshot_version = self.graph.version
        if self.config.use_index:
            index = self._snapshot_index()
            if index is self._index:
                return
            self._index = index
            self._stats = index.statistics()
        else:
            self._stats = compute_statistics(self.graph)
        if self.config.active_attributes is None:
            self._gamma = self._stats.top_attributes(
                self.config.max_active_attributes
            )
        if self.config.use_index:
            for backend in self._backends.values():
                backend.refresh_index(self._index)

    def _count(self, phase: str) -> None:
        self._phases[phase] = self._phases.get(phase, 0) + 1

    def _set_sigma(
        self, rules: List[GFD], supports: Optional[Dict[GFD, int]] = None
    ) -> None:
        self._sigma = list(rules)
        if supports is None:
            supports = {}
        self._supports = {
            gfd: supports[gfd] for gfd in self._sigma if gfd in supports
        }
        if self._engine is not None and self._engine.sigma != self._sigma:
            # Σ changed: the compiled plan (and any resident shards) no
            # longer match — the next enforce builds a fresh engine over
            # the same backend
            self._engine.close()
            self._engine = None

    # ------------------------------------------------------------------
    # pipeline phases
    # ------------------------------------------------------------------
    def _discovery_engine(self, backend_name: str) -> ParallelDiscovery:
        return ParallelDiscovery(
            self.graph,
            self.config,
            cluster=self.cluster,
            stats=self._stats,
            index=self._index,
            backend=self._backend_for(backend_name),
        )

    def _after_discovery(self) -> None:
        """The shared backend was reset by the returning discovery engine."""
        if self._engine is not None:
            self._engine.invalidate_residency()

    def discover(self) -> DiscoveryResult:
        """Run ``ParDis`` on the session backend; Σ becomes the result.

        Results are identical to a direct ``ParallelDiscovery`` run
        (differential tests pin this); only the resource lifecycle differs — the
        session's pools and index snapshot are reused, not rebuilt.
        """
        self._check_open()
        self._refresh_snapshot()
        self._count("discover")
        size = self.graph.num_nodes
        name = self._resolve("discover", size)
        self._phase_backends["discover"] = name
        with self.tracer.span("discover", "phase", backend=name, size=size):
            engine = self._discovery_engine(name)
            start = time.perf_counter()
            try:
                result = engine.run()
            finally:
                self._after_discovery()
        self.planner.observe(
            "discover", name, size, time.perf_counter() - start
        )
        self._set_sigma(result.gfds, result.supports)
        return result

    def discover_iter(
        self,
        max_rules: Optional[int] = None,
        max_levels: Optional[int] = None,
        update_sigma: bool = True,
    ) -> Iterator[GFD]:
        """Stream discovery: yield rules as their lattice levels complete.

        Early-stop budgets: ``max_rules`` stops after that many rules,
        ``max_levels`` after the given generation-tree level (level 0 =
        single-node patterns).  Σ (with supports) is set to everything
        yielded so far whenever the iteration ends — exhausted, budgeted,
        or abandoned (the update runs from the generator's ``finally``) —
        unless ``update_sigma`` is off, which leaves the session's Σ (and
        its compiled enforcement plan) untouched: the mode a serving layer
        uses for exploratory, budgeted discovery requests that must not
        clobber the served rule set.

        Streaming skips the final pairwise ``≪``-minimality filter — that
        is a global pass over the completed set; run :meth:`cover` (or a
        full :meth:`discover`) for the minimized Σ.
        """
        self._check_open()
        self._refresh_snapshot()
        self._count("discover_iter")
        size = self.graph.num_nodes
        name = self._resolve("discover", size)
        self._phase_backends["discover"] = name
        # a generator cannot hold a ``with`` open across yields safely
        # when abandoned, so the phase span is closed from the finally
        span = (
            self.tracer.begin(
                "discover_iter", "phase", backend=name, size=size
            )
            if self.tracer.enabled
            else None
        )
        engine = self._discovery_engine(name)
        emitted: List[Tuple[GFD, int]] = []
        budget_hit = False
        start = time.perf_counter()
        levels = engine.run_iter()
        try:
            for level, batch in levels:
                for gfd, support in batch:
                    emitted.append((gfd, support))
                    yield gfd
                    if max_rules is not None and len(emitted) >= max_rules:
                        budget_hit = True
                        break
                if budget_hit:
                    break
                if max_levels is not None and level >= max_levels:
                    break
        finally:
            levels.close()  # releases the engine's hold on the backend
            self._after_discovery()
            if span is not None:
                self.tracer.end(span)
            self.planner.observe(
                "discover", name, size, time.perf_counter() - start
            )
            if update_sigma:
                self._set_sigma(
                    [gfd for gfd, _ in emitted],
                    {gfd: support for gfd, support in emitted},
                )

    def cover(self, sigma: Optional[List[GFD]] = None) -> CoverResult:
        """Reduce Σ to a minimal cover (``ParCover`` on the session pools).

        Uses the session's :class:`~repro.parallel.costs.ChaseCostModel`:
        the first cover balances by the static proxy weights, later covers
        by the measured per-unit chase costs fed back from the workers.
        ``sigma`` overrides the input set (default: the session's Σ);
        either way the session's Σ becomes the computed cover.
        """
        self._check_open()
        self._count("cover")
        rules = list(sigma) if sigma is not None else list(self._sigma)
        name = self._resolve("cover", len(rules))
        self._phase_backends["cover"] = name
        start = time.perf_counter()
        with self.tracer.span(
            "cover", "phase", backend=name, size=len(rules)
        ):
            result, _ = parallel_cover(
                rules,
                cluster=self.cluster,
                backend=self._backend_for(name),
                cost_model=self.cover_costs,
            )
        self.planner.observe(
            "cover", name, len(rules), time.perf_counter() - start
        )
        self._set_sigma(result.cover, self._supports)
        return result

    def _ensure_engine(self, rules: List[GFD]) -> EnforcementEngine:
        if self._engine is not None and self._engine.sigma == rules:
            return self._engine
        if self._engine is not None:
            self._engine.close()
            self._engine = None
        # The engine pins its backend: resident shard tables live in that
        # backend's workers, so refresh() must keep hitting the same one.
        name = self._resolve("enforce", self.graph.num_nodes)
        self._engine_backend = name
        self._engine = EnforcementEngine(
            self.graph,
            rules,
            replace(self.enforcement, backend=name),
            backend=self._backend_for(name),
            delta=self._delta,
            tracer=self.tracer,
            monitor=self._monitor,
        )
        return self._engine

    def enforce(self, sigma: Optional[List[GFD]] = None) -> EnforcementReport:
        """Full validation of Σ against the current graph state.

        Compiles Σ once per rule set (the engine is kept while Σ is
        unchanged, so repeated calls reuse the compiled plan) and
        evaluates on the session backend.  A *full* pass always re-matches
        and re-installs the group shards; it is :meth:`refresh` that
        exploits the worker-resident tables to ship deltas only — use it
        for the serve loop.  ``sigma`` overrides the rule set without
        changing the session's Σ.
        """
        self._check_open()
        self._refresh_snapshot()
        self._count("enforce")
        rules = list(sigma) if sigma is not None else list(self._sigma)
        size = self.graph.num_nodes
        start = time.perf_counter()
        with self.tracer.span("enforce", "phase", size=size):
            report = self._ensure_engine(rules).validate()
        name = self._engine_backend or self._backend_name
        self._phase_backends["enforce"] = name
        self.planner.observe(
            "enforce", name, size, time.perf_counter() - start
        )
        return report

    def refresh(self) -> EnforcementReport:
        """Incremental revalidation after graph mutations.

        Consumes the session's delta log: only the radius-``d_Q`` ball
        around touched nodes is re-matched, resident shards receive just
        the delta, and a clean refresh ships zero match rows (the transfer
        ledger in :meth:`metrics` proves it).  Falls back to a full
        :meth:`enforce` pass on the first call or on a too-wide delta.
        """
        self._check_open()
        self._refresh_snapshot()
        self._count("refresh")
        size = self.graph.num_nodes
        start = time.perf_counter()
        with self.tracer.span("refresh", "phase", size=size):
            if self._engine is not None:
                # continue whatever Σ the engine is serving (an
                # enforce(sigma) override included) — its resident tables
                # are the state the delta splices into
                report = self._engine.refresh()
            else:
                report = self._ensure_engine(list(self._sigma)).refresh()
        name = self._engine_backend or self._backend_name
        self._phase_backends["refresh"] = name
        self.planner.observe(
            "refresh", name, size, time.perf_counter() - start
        )
        return report

    # ------------------------------------------------------------------
    # Σ persistence
    # ------------------------------------------------------------------
    def save_sigma(self, path, include_state: bool = True) -> None:
        """Write the session's Σ (with supports) as the JSON envelope.

        With ``include_state`` (the default), warm-start state rides along
        under a ``"state"`` key beside the rules: the
        :class:`~repro.parallel.costs.ChaseCostModel` observations (so a
        fresh process's first :meth:`cover` balances by measured unit
        costs, not the static proxy) and the
        :class:`~repro.enforce.monitor.RuleSketchMonitor` sketches (so the
        distinct-pivots-ever gauges survive a restart).  ``loads_sigma``
        ignores unknown top-level keys, so the envelope stays readable by
        every consumer that only wants the rules.
        """
        self._check_open()
        payload = json.loads(dumps_sigma(self._sigma, supports=self._supports))
        state: Dict[str, Any] = {}
        if include_state:
            if self.cover_costs.observations or len(self.cover_costs):
                state["chase_costs"] = self.cover_costs.as_state()
            if self._monitor is not None and len(self._monitor):
                state["sketches"] = self._monitor.as_state()
        if state:
            payload["state"] = state
        Path(path).write_text(
            json.dumps(payload, indent=2) + "\n", encoding="utf-8"
        )

    def load_sigma(self, path) -> List[GFD]:
        """Load Σ (and supports) from a ``dumps_sigma`` JSON envelope.

        The loaded set becomes the session's Σ — ready for :meth:`cover`,
        :meth:`enforce` or :meth:`refresh` — and is also returned.  A
        ``"state"`` section written by :meth:`save_sigma` warm-starts the
        session: the chase-cost model is restored, and persisted sketches
        (re)attach a :class:`~repro.enforce.monitor.RuleSketchMonitor`.
        """
        self._check_open()
        text = Path(path).read_text(encoding="utf-8")
        rules, supports = loads_sigma(text)
        self._set_sigma(rules, supports)
        state = json.loads(text).get("state")
        if isinstance(state, dict):
            costs = state.get("chase_costs")
            if isinstance(costs, dict):
                self.cover_costs = ChaseCostModel.from_state(costs)
            sketches = state.get("sketches")
            if isinstance(sketches, dict):
                self._monitor = RuleSketchMonitor.from_state(sketches)
                if self._engine is not None:
                    self._engine.monitor = self._monitor
        return list(rules)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def trace(self) -> Any:
        """The session's tracer (the no-op ``NULL_TRACER`` when off).

        With a live tracer, hand it to :func:`~repro.obs.export.
        write_chrome_trace` / :func:`~repro.obs.export.write_event_log`
        after :meth:`close` for the full per-worker timeline.
        """
        return self.tracer

    def metrics(self) -> SessionMetrics:
        """The unified resource/work view (see :class:`SessionMetrics`).

        Every field is a snapshot — two calls can be diffed for
        before/after deltas without aliasing the live counters.
        """
        lifecycle = LifecycleCounters()
        transfers = TransferLedger()
        recovery = 0.0
        # Sum over every backend the session started — 1 for concrete
        # sessions, possibly 2 for "auto" (each field is an event count).
        for backend in self._backends.values():
            for spec in fields(LifecycleCounters):
                setattr(
                    lifecycle,
                    spec.name,
                    getattr(lifecycle, spec.name)
                    + getattr(backend.lifecycle, spec.name),
                )
            snap = backend.transfers.snapshot()
            for spec in fields(TransferLedger):
                setattr(
                    transfers,
                    spec.name,
                    getattr(transfers, spec.name) + getattr(snap, spec.name),
                )
            recovery += backend.recovery_seconds
        return SessionMetrics(
            backend_name=self._backend_name,
            num_workers=self._num_workers,
            backend_starts=self._backend_starts,
            lifecycle=lifecycle,
            transfers=transfers,
            cluster=replace(self.cluster.metrics),
            phases=dict(self._phases),
            sigma_size=len(self._sigma),
            cover_cost_observations=self.cover_costs.observations,
            recovery_seconds=recovery,
            planner=self.planner.as_dict(),
            phase_backends=dict(self._phase_backends),
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release every session resource (idempotent).

        Closes the enforcement engine (dropping its resident shards),
        shuts the backend down (worker processes joined, shared-memory
        segments unlinked) and detaches the delta log.
        """
        if self._closed:
            return
        self._closed = True
        if self._engine is not None:
            self._engine.close()
            self._engine = None
        for backend in self._backends.values():
            # shut down but keep the references: metrics() stays readable
            # (shutdowns == 1 per backend is part of the lifecycle story)
            # and _check_open prevents any reuse
            backend.shutdown()
        self.graph.detach_delta_log(self._delta)
        if self._root_span is not None:
            self.tracer.end(self._root_span)
            self._root_span = None

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Session(backend={self._backend_name!r}, "
            f"workers={self._num_workers}, sigma={len(self._sigma)}, "
            f"{'closed' if self._closed else 'open'})"
        )
