"""The serving layer (PR 10): MVCC snapshots, group commit, identity.

Four guarantee families:

1. **Chain mechanics** — publish/pin/release refcounting, retire-on-
   publish, pinned-version survival, store-mapping release through the
   PR 9 seam, leak accounting at close.
2. **Group commit** — batches land in one published version, every
   waiter resolves with the version whose report first reflects its
   write, failed ops poison only their batch.
3. **Service semantics** — admission control (queue depth, deadlines,
   closed), budget clamping, read-your-writes, the HTTP front and the
   ``repro-gfd serve`` CLI verb.
4. **Replay identity under concurrency** (the satellite-4 harness) —
   randomized concurrent read/write traffic, on the serial and
   multiprocess backends and under a seeded worker-kill fault plan,
   where every response served at pinned version ``V`` must be
   byte-identical to a single-client :class:`repro.Session` replaying
   the commit log up to ``V``.

Plus the satellite units: the streaming per-rule sketch monitor, the
engine's start-of-pass version capture (readers on version ``N`` never
observe ``N+1`` mid-request and racing deltas are never lost), and the
Σ-adjacent warm-start persistence (chase costs + sketches).
"""

from __future__ import annotations

import asyncio
import json
import random

import numpy as np
import pytest

from repro import DiscoveryConfig, Session, format_gfd, parse_gfd
from repro.core import FaultConfig
from repro.enforce import RuleSketchMonitor
from repro.graph import load_index, save_index
from repro.graph.index import GraphIndex
from repro.parallel import ChaseCostModel
from repro.parallel.janitor import live_mappings, live_segments
from repro.serve import (
    DeadlineExceeded,
    EnforcementService,
    GroupCommitWriter,
    MutationOp,
    ServeConfig,
    ServiceClosed,
    ServiceOverloaded,
    Snapshot,
    SnapshotChain,
    apply_ops,
    report_payload,
    run_load,
    serve_http,
)

BACKENDS = ["serial", "multiprocess"]

#: The film_graph invariants (it is clean w.r.t. all three).
PHI_FILM = (
    'Q[x, y] { (x:person)-[create]->(y:product) } '
    '(y.type="film" -> x.type="producer")'
)
PHI_BOOK = (
    'Q[x, y] { (x:person)-[create]->(y:product) } '
    '(y.type="book" -> x.type="actor")'
)
PHI_PARENT = (
    "Q[x, y] { (x:person)-[parent]->(y:person), (y)-[parent]->(x) } "
    "( -> false)"
)


def film_rules():
    return [parse_gfd(PHI_FILM), parse_gfd(PHI_BOOK), parse_gfd(PHI_PARENT)]


def _report(graph, rules):
    """A real EnforcementReport (the chain stores them as read surface)."""
    with Session(graph) as session:
        session.set_sigma(rules)
        return session.enforce()


# ---------------------------------------------------------------------------
# 1. SnapshotChain mechanics
# ---------------------------------------------------------------------------
class TestSnapshotChain:
    def _snapshot(self, version, index=None):
        return Snapshot(
            version=version, graph_version=version, index=index, report=None
        )

    def test_publish_retires_older_unpinned(self):
        chain = SnapshotChain()
        chain.publish(self._snapshot(0))
        chain.publish(self._snapshot(1))
        assert chain.live_versions() == [1]
        stats = chain.stats()
        assert stats["published"] == 2 and stats["retired"] == 1

    def test_publish_must_increase(self):
        chain = SnapshotChain()
        chain.publish(self._snapshot(3))
        with pytest.raises(ValueError):
            chain.publish(self._snapshot(3))

    def test_pinned_version_survives_publication(self):
        chain = SnapshotChain()
        chain.publish(self._snapshot(0))
        lease = chain.pin()
        chain.publish(self._snapshot(1))
        chain.publish(self._snapshot(2))
        # version 0 is pinned: alive; version 1 was unpinned: retired
        assert chain.live_versions() == [0, 2]
        assert lease.version == 0
        lease.release()
        assert chain.live_versions() == [2]

    def test_pin_specific_and_missing_version(self):
        chain = SnapshotChain()
        chain.publish(self._snapshot(0))
        chain.publish(self._snapshot(1))
        with chain.pin(1) as lease:
            assert lease.version == 1
        with pytest.raises(LookupError):
            chain.pin(0)  # retired
        with pytest.raises(LookupError):
            chain.pin(7)  # never existed

    def test_release_is_idempotent_but_chain_guards_overrelease(self):
        chain = SnapshotChain()
        chain.publish(self._snapshot(0))
        lease = chain.pin()
        lease.release()
        lease.release()  # lease-level double release: fine
        chain.publish(self._snapshot(1))
        with pytest.raises(RuntimeError):
            chain.release(1)  # never pinned

    def test_retire_releases_store_mapping(self, film_graph, tmp_path):
        path = save_index(GraphIndex.build(film_graph), tmp_path / "g.rgix")
        attached = load_index(path, mmap=True)
        assert attached.store_mapping is not None
        chain = SnapshotChain()
        chain.publish(self._snapshot(0, index=attached))
        chain.publish(self._snapshot(1))
        assert attached.store_mapping is None  # released through the seam
        assert chain.stats()["mappings_released"] == 1
        assert attached not in live_mappings()

    def test_close_counts_leaked_leases(self):
        chain = SnapshotChain()
        chain.publish(self._snapshot(0))
        chain.pin()
        chain.pin()
        assert chain.close() == 2
        assert chain.live_versions() == []

    def test_shared_index_released_once_with_last_version(self, film_graph, tmp_path):
        path = save_index(GraphIndex.build(film_graph), tmp_path / "g.rgix")
        attached = load_index(path, mmap=True)
        chain = SnapshotChain()
        chain.publish(self._snapshot(0, index=attached))
        lease = chain.pin(0)
        chain.publish(self._snapshot(1, index=attached))
        lease.release()  # retires 0, but version 1 still holds the index
        assert attached.store_mapping is not None
        chain.publish(self._snapshot(2))
        assert attached.store_mapping is None
        assert chain.stats()["mappings_released"] == 1


# ---------------------------------------------------------------------------
# 2. MutationOp + GroupCommitWriter
# ---------------------------------------------------------------------------
class TestMutationOp:
    def test_from_dict_roundtrip(self):
        op = MutationOp.from_dict(
            {"op": "set_attr", "node": 3, "attr": "name", "value": "x"}
        )
        assert op.as_dict() == {
            "op": "set_attr", "node": 3, "attr": "name", "value": "x"
        }

    def test_unknown_op_and_missing_args_rejected(self):
        with pytest.raises(ValueError, match="unknown mutation op"):
            MutationOp.from_dict({"op": "drop_table"})
        with pytest.raises(ValueError, match="missing"):
            MutationOp.from_dict({"op": "add_edge", "src": 0, "dst": 1})

    def test_apply_ops_replays(self, film_graph):
        replica = film_graph.copy()
        ops = [
            MutationOp("set_attr", {"node": 0, "attr": "type", "value": "actor"}),
            MutationOp("add_node", {"label": "person", "attrs": {"type": "actor"}}),
        ]
        apply_ops(replica, ops)
        assert replica.get_attr(0, "type") == "actor"
        assert replica.num_nodes == film_graph.num_nodes + 1


class TestGroupCommitWriter:
    def test_bootstrap_then_commits_publish_increasing_versions(self, film_graph):
        with Session(film_graph) as session:
            session.set_sigma(film_rules())
            chain = SnapshotChain()
            writer = GroupCommitWriter(session, chain)
            v0 = writer.bootstrap()
            assert v0.version == 0 and v0.report.is_clean
            batch = [
                MutationOp("set_attr", {"node": 0, "attr": "type", "value": "actor"})
            ]
            v1 = writer.commit(batch)
            assert v1.version == 1
            assert v1.report.total_violations > 0
            assert writer.commit_log == [batch]
            v2 = writer.commit(
                [MutationOp("set_attr",
                            {"node": 0, "attr": "type", "value": "producer"})]
            )
            assert v2.version == 2 and v2.report.is_clean
            assert chain.current_version == 2
            chain.close()

    def test_failed_op_poisons_batch_next_commit_absorbs_prefix(self, film_graph):
        with Session(film_graph) as session:
            session.set_sigma(film_rules())
            chain = SnapshotChain()
            writer = GroupCommitWriter(session, chain)
            writer.bootstrap()
            bad = [
                MutationOp("set_attr", {"node": 0, "attr": "type", "value": "actor"}),
                MutationOp("set_attr",
                           {"node": 10**6, "attr": "type", "value": "actor"}),
            ]
            with pytest.raises(Exception):
                writer.commit(bad)
            assert writer.commit_log == []  # failed batch not recorded
            # the applied prefix is still in the graph + delta log: the next
            # successful commit's refresh absorbs it
            good = [
                MutationOp("set_attr", {"node": 1, "attr": "name", "value": "z"})
            ]
            snapshot = writer.commit(good)
            assert snapshot.version == 1
            assert snapshot.report.total_violations > 0  # sees node 0's edit
            chain.close()


# ---------------------------------------------------------------------------
# 3. Service semantics
# ---------------------------------------------------------------------------
def _service(graph, **kwargs):
    kwargs.setdefault("sigma", film_rules())
    return EnforcementService(graph, **kwargs)


class TestServiceSemantics:
    def test_validate_mutate_read_your_writes(self, film_graph):
        async def scenario():
            async with _service(film_graph.copy()) as service:
                v0 = await service.validate()
                assert v0["version"] == 0 and v0["clean"]
                answer = await service.mutate(
                    [{"op": "set_attr", "node": 0, "attr": "type",
                      "value": "actor"}]
                )
                dirty = await service.validate(version=answer["version"])
                assert dirty["total_violations"] > 0
                assert dirty["version"] == answer["version"]
            assert service.leaked_leases == 0

        asyncio.run(scenario())

    def test_pinned_reader_does_not_observe_next_version(self, film_graph):
        """A lease pinned at version N serves N even after N+1 publishes."""
        async def scenario():
            async with _service(film_graph.copy()) as service:
                lease = service.pin()
                assert lease.version == 0
                await service.mutate(
                    [{"op": "set_attr", "node": 0, "attr": "type",
                      "value": "actor"}]
                )
                assert service.chain.current_version == 1
                # the pinned lease still reads version 0's clean report
                assert lease.report.is_clean
                pinned = await service.validate(version=0)
                assert pinned["clean"] and pinned["version"] == 0
                lease.release()
                with pytest.raises(LookupError):
                    await service.validate(version=0)  # now retired

        asyncio.run(scenario())

    def test_group_commit_batches_concurrent_writers(self, film_graph):
        async def scenario():
            config = ServeConfig(commit_linger_s=0.05)
            async with _service(film_graph.copy(), serve=config) as service:
                answers = await asyncio.gather(*(
                    service.mutate(
                        [{"op": "set_attr", "node": node, "attr": "name",
                          "value": "w"}]
                    )
                    for node in range(6)
                ))
                versions = {a["version"] for a in answers}
                assert len(versions) < 6  # the linger window grouped some
                assert service.writer.commits == len(versions)
                assert service.writer.mutations == 6

        asyncio.run(scenario())

    def test_queue_depth_rejection(self, film_graph):
        import threading

        async def scenario():
            config = ServeConfig(max_queue_depth=1, commit_linger_s=0.0)
            async with _service(film_graph.copy(), serve=config) as service:
                gate = threading.Event()
                blocker = service._loop.run_in_executor(
                    service._pool, gate.wait
                )
                queued = asyncio.ensure_future(service.discover(max_rules=1))
                await asyncio.sleep(0.02)  # fills the one admitted slot
                with pytest.raises(ServiceOverloaded):
                    await service.cover()
                gate.set()
                await queued
                await blocker

        asyncio.run(scenario())

    def test_deadline_rejection_for_queued_work(self, film_graph):
        import threading

        async def scenario():
            async with _service(film_graph.copy()) as service:
                gate = threading.Event()
                blocker = service._loop.run_in_executor(
                    service._pool, gate.wait
                )
                await asyncio.sleep(0.01)
                expired = asyncio.ensure_future(
                    service.cover(deadline_s=0.05)
                )
                await asyncio.sleep(0.15)  # deadline passes while queued
                gate.set()
                with pytest.raises(DeadlineExceeded):
                    await expired
                await blocker

        asyncio.run(scenario())

    def test_closed_service_rejects(self, film_graph):
        async def scenario():
            service = _service(film_graph.copy())
            await service.start()
            await service.close()
            with pytest.raises(ServiceClosed):
                await service.validate()
            with pytest.raises(ServiceClosed):
                await service.mutate(
                    [{"op": "set_attr", "node": 0, "attr": "name",
                      "value": "x"}]
                )

        asyncio.run(scenario())

    def test_discover_budgets_clamp_to_service_caps(self, film_graph, film_config):
        async def scenario():
            config = ServeConfig(discover_max_rules=4, discover_max_levels=2)
            async with _service(
                film_graph.copy(), config=film_config, serve=config
            ) as service:
                answer = await service.discover(max_rules=500, max_levels=50)
                assert answer["max_rules"] == 4
                assert answer["max_levels"] == 2
                assert len(answer["rules"]) <= 4
                # and the served Σ is untouched (read-only analytics)
                assert len(service.session.sigma) == 3

        asyncio.run(scenario())

    def test_startup_discovery_when_no_sigma(self, film_graph, film_config):
        async def scenario():
            async with EnforcementService(
                film_graph.copy(), config=film_config,
                serve=ServeConfig(discover_max_rules=6),
            ) as service:
                assert 0 < len(service.session.sigma) <= 6
                answer = await service.validate()
                assert answer["version"] == 0

        asyncio.run(scenario())

    def test_metrics_and_stats_surfaces(self, film_graph):
        async def scenario():
            async with _service(film_graph.copy()) as service:
                await service.validate()
                await service.mutate(
                    [{"op": "set_attr", "node": 0, "attr": "type",
                      "value": "actor"}]
                )
                stats = service.stats()
                assert stats["version"] == 1
                assert stats["commits"] == 1
                text = service.metrics_text()
                assert "repro_serve_requests_total" in text
                assert 'kind="validate",outcome="ok"' in text
                assert "repro_serve_rule_distinct_pivots_ever" in text
                assert "repro_serve_current_version 1" in text

        asyncio.run(scenario())

    def test_zero_leaks_after_shutdown(self, film_graph, tmp_path):
        # earlier test modules may hold their own registrations open, so
        # assert the serve run adds nothing rather than global emptiness
        segments_before = set(live_segments())
        mappings_before = set(id(m) for m in live_mappings())

        async def scenario():
            index_path = tmp_path / "serve.rgix"
            async with _service(
                film_graph.copy(), index_path=index_path
            ) as service:
                await service.mutate(
                    [{"op": "set_attr", "node": 0, "attr": "type",
                      "value": "actor"}]
                )
                await service.validate()
            assert service.leaked_leases == 0
            assert service.chain.live_versions() == []

        asyncio.run(scenario())
        assert set(live_segments()) <= segments_before
        assert {id(m) for m in live_mappings()} <= mappings_before


# ---------------------------------------------------------------------------
# 4. HTTP front + CLI verb
# ---------------------------------------------------------------------------
async def _http_json(host, port, method, path, body=None):
    reader, writer = await asyncio.open_connection(host, port)
    payload = json.dumps(body or {}).encode()
    request = (
        f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n"
        f"Content-Length: {len(payload) if method == 'POST' else 0}\r\n\r\n"
    ).encode()
    writer.write(request + (payload if method == "POST" else b""))
    await writer.drain()
    status_line = await reader.readline()
    status = int(status_line.split()[1])
    length = 0
    content_type = ""
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode().partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
        elif name.strip().lower() == "content-type":
            content_type = value.strip()
    raw = await reader.readexactly(length)
    writer.close()
    await writer.wait_closed()
    if content_type.startswith("application/json"):
        return status, json.loads(raw)
    return status, raw.decode()


class TestHttpFront:
    def test_routes(self, film_graph):
        async def scenario():
            async with _service(film_graph.copy()) as service:
                server = await serve_http(service, port=0)
                host, port = server.sockets[0].getsockname()[:2]
                try:
                    status, health = await _http_json(host, port, "GET", "/healthz")
                    assert status == 200 and health["ok"]

                    status, answer = await _http_json(
                        host, port, "POST", "/validate")
                    assert status == 200 and answer["version"] == 0

                    status, answer = await _http_json(
                        host, port, "POST", "/mutate",
                        {"ops": [{"op": "set_attr", "node": 0,
                                  "attr": "type", "value": "actor"}]})
                    assert status == 200 and answer["version"] == 1

                    status, answer = await _http_json(
                        host, port, "POST", "/validate")
                    assert answer["total_violations"] > 0

                    status, text = await _http_json(host, port, "GET", "/metrics")
                    assert status == 200
                    assert "repro_serve_requests_total" in text

                    status, answer = await _http_json(host, port, "GET", "/stats")
                    assert status == 200 and answer["commits"] == 1

                    status, _ = await _http_json(host, port, "GET", "/nowhere")
                    assert status == 404

                    status, answer = await _http_json(
                        host, port, "POST", "/mutate",
                        {"ops": [{"op": "drop_table"}]})
                    assert status == 400
                finally:
                    server.close()
                    await server.wait_closed()

        asyncio.run(scenario())

    def test_cli_serve_duration(self, film_graph, tmp_path, capsys):
        from repro.cli import main
        from repro.graph.io import save_json

        graph_path = tmp_path / "g.json"
        rules_path = tmp_path / "rules.txt"
        save_json(film_graph, graph_path)
        rules_path.write_text(f"{PHI_FILM}\n{PHI_BOOK}\n")
        code = main([
            "serve", str(graph_path), "--rules", str(rules_path),
            "--port", "0", "--duration", "0.2",
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert "# serving http://" in err
        assert "leaked leases 0" in err


# ---------------------------------------------------------------------------
# 5. Replay identity under randomized concurrency (satellite 4)
# ---------------------------------------------------------------------------
def _strip_envelope(response):
    return {
        k: v for k, v in response.items()
        if k not in ("kind", "version", "graph_version")
    }


def _replay(base, sigma, commit_log, version):
    graph = base.copy()
    for batch in commit_log[:version]:
        apply_ops(graph, batch)
    with Session(graph) as session:
        session.set_sigma(sigma)
        return json.dumps(
            report_payload(
                session.enforce(), include_nodes=True, include_samples=True
            ),
            sort_keys=True,
        )


def _assert_replay_identity(base, sigma, commit_log, responses):
    assert responses, "load run issued no validate requests"
    truth = {}
    for response in responses:
        version = response["version"]
        if version not in truth:
            truth[version] = _replay(base, sigma, commit_log, version)
        served = json.dumps(_strip_envelope(response), sort_keys=True)
        assert served == truth[version], f"divergence at version {version}"
    return len(truth)


class TestConcurrentReplayIdentity:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_randomized_traffic_is_serializable(self, film_graph, backend):
        base = film_graph
        sigma = film_rules()
        segments_before = set(live_segments())
        mappings_before = set(id(m) for m in live_mappings())

        async def scenario():
            service = EnforcementService(
                base.copy(),
                sigma=sigma,
                serve=ServeConfig(commit_linger_s=0.01),
                backend=backend,
                num_workers=2 if backend == "multiprocess" else None,
            )
            await service.start()
            try:
                load = await run_load(
                    service,
                    clients=4,
                    requests_per_client=12,
                    seed=3,
                    mutation_attrs=["type", "name"],
                    discover_budget=5,
                )
                commit_log = [list(b) for b in service.writer.commit_log]
            finally:
                await service.close()
            assert load.errors == 0
            assert service.leaked_leases == 0
            return load, commit_log

        load, commit_log = asyncio.run(scenario())
        versions = _assert_replay_identity(
            base, sigma, commit_log, load.validate_responses
        )
        assert versions >= 1
        assert set(live_segments()) <= segments_before
        assert {id(m) for m in live_mappings()} <= mappings_before

    def test_replay_identity_under_worker_kills(self, film_graph):
        """Chaos variant: a worker dies mid-serving; supervision respawns
        it and every served answer still matches the serial replay."""
        base = film_graph
        sigma = film_rules()
        # the session builds every phase backend from DiscoveryConfig.fault,
        # so the plan supervises the enforcement lane too; the first
        # incremental refresh op on worker 0 dies and is respawn-replayed
        fault = FaultConfig(
            fault_plan=json.dumps(
                {"kill_on": {"op": "enforce_update", "nth": 1},
                 "workers": [0]}
            )
        )

        async def scenario():
            service = EnforcementService(
                base.copy(),
                sigma=sigma,
                config=DiscoveryConfig(fault=fault),
                serve=ServeConfig(commit_linger_s=0.01),
                backend="multiprocess",
                num_workers=2,
            )
            await service.start()
            try:
                load = await run_load(
                    service,
                    clients=3,
                    requests_per_client=8,
                    seed=5,
                    mutation_attrs=["type"],
                    discover_budget=3,
                )
                commit_log = [list(b) for b in service.writer.commit_log]
                respawns = service.session.metrics().lifecycle.respawns
            finally:
                await service.close()
            assert service.leaked_leases == 0
            return load, commit_log, respawns

        load, commit_log, respawns = asyncio.run(scenario())
        assert load.errors == 0
        if commit_log:  # a commit ran the killed op: the chaos actually hit
            assert respawns >= 1
        _assert_replay_identity(base, sigma, commit_log, load.validate_responses)


# ---------------------------------------------------------------------------
# 6. Satellite units: monitor, engine version capture, persistence
# ---------------------------------------------------------------------------
class TestRuleSketchMonitor:
    def test_exact_backend_counts_distinct_pivots_ever(self, film_graph):
        monitor = RuleSketchMonitor(backend="exact")
        rules = film_rules()
        with Session(film_graph, monitor=monitor) as session:
            session.set_sigma(rules)
            session.enforce()
            assert monitor.estimates() == {}  # clean graph: nothing absorbed
            film_graph.set_attr(0, "type", "actor")  # node 0 made violating
            session.refresh()
            estimates = monitor.estimates()
            assert estimates[format_gfd(rules[0])] == 1.0
            # repair it, then break a different node: the sketch is a
            # monotone union — "ever", not "currently"
            film_graph.set_attr(0, "type", "producer")
            film_graph.set_attr(1, "type", "actor")
            session.refresh()
            assert monitor.estimates()[format_gfd(rules[0])] == 2.0

    def test_state_roundtrip_and_gauges(self):
        monitor = RuleSketchMonitor(backend="exact")
        rule = parse_gfd(PHI_FILM)
        monitor.absorb(rule, np.array([1, 2, 2, 5]))
        state = monitor.as_state()
        restored = RuleSketchMonitor.from_state(state)
        assert restored.estimates() == monitor.estimates()
        assert restored.absorbed == monitor.absorbed

        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        restored.fill_registry(registry)
        text = registry.to_prometheus()
        assert "repro_serve_rule_distinct_pivots_ever" in text
        assert "repro_serve_monitor_absorbed 1" in text

    def test_hll_tracks_exact_at_small_cardinalities(self):
        exact = RuleSketchMonitor(backend="exact")
        hll = RuleSketchMonitor(backend="hll")
        rule = parse_gfd(PHI_FILM)
        pivots = np.array(random.Random(0).sample(range(10**6), 200))
        exact.absorb(rule, pivots)
        hll.absorb(rule, pivots)
        truth = exact.estimate(rule)
        assert truth == 200.0
        assert abs(hll.estimate(rule) - truth) / truth < 0.15


class TestEngineVersionCapture:
    """Satellite 3: the engine stamps the version it captured at pass
    start, and a delta racing into a running pass is never lost."""

    def test_mid_pass_mutation_not_lost_and_version_is_start_version(
        self, film_graph
    ):
        rules = film_rules()

        class MutatingMonitor:
            """Fires a graph mutation from *inside* the pass (the absorb
            hook runs per evaluated rule) — a stand-in for a writer racing
            the enforcement pass."""

            def __init__(self, graph):
                self.graph = graph
                self.fired = False

            def absorb(self, rule, pivots):
                if not self.fired:
                    self.fired = True
                    self.graph.set_attr(1, "type", "actor")

        monitor = MutatingMonitor(film_graph)
        with Session(film_graph, monitor=monitor) as session:
            session.set_sigma(rules)
            film_graph.set_attr(0, "type", "actor")  # make absorb fire
            start_version = film_graph.version
            report = session.refresh()
            assert monitor.fired
            # stamped with the version captured at pass START, not the
            # version the racing mutation bumped it to
            assert report.graph_version == start_version
            assert film_graph.version > start_version
            # the racing delta survives: the next refresh sees node 1
            flagged = session.refresh().flagged_nodes()
            assert 1 in flagged

    def test_drain_takes_and_clears_atomically(self):
        from repro.enforce import DeltaLog

        delta = DeltaLog()
        delta.record([3])
        delta.record([9])
        taken = delta.drain()
        assert taken == {3, 9}
        assert delta.drain() == set()


class TestSigmaWarmStartPersistence:
    """Satellite 2: chase costs + sketches persist beside Σ."""

    def test_costs_and_sketches_roundtrip(self, film_graph, tmp_path):
        path = tmp_path / "sigma.json"
        monitor = RuleSketchMonitor(backend="exact")
        rules = film_rules()
        with Session(film_graph, monitor=monitor) as session:
            session.set_sigma(rules)
            film_graph.set_attr(0, "type", "actor")
            session.refresh()
            session.cover()  # feeds the chase-cost model
            assert session.cover_costs.observations > 0
            session.save_sigma(path)
            saved_costs = session.cover_costs.as_state()
            saved_estimates = monitor.estimates()

        payload = json.loads(path.read_text())
        assert "state" in payload
        assert "chase_costs" in payload["state"]
        assert "sketches" in payload["state"]

        with Session(film_graph.copy()) as fresh:
            loaded = fresh.load_sigma(path)
            assert {format_gfd(g) for g in loaded} == {
                format_gfd(g) for g in rules
            }
            assert fresh.cover_costs.as_state() == saved_costs
            assert fresh.monitor is not None
            assert fresh.monitor.estimates() == saved_estimates

    def test_sigma_files_without_state_still_load(self, film_graph, tmp_path):
        path = tmp_path / "plain.json"
        with Session(film_graph) as session:
            session.set_sigma(film_rules())
            session.save_sigma(path, include_state=False)
        payload = json.loads(path.read_text())
        assert "state" not in payload
        with Session(film_graph.copy()) as fresh:
            assert len(fresh.load_sigma(path)) == 3

    def test_cost_model_state_roundtrip_preserves_canonical_keys(self):
        model = ChaseCostModel()
        key_a = (("person", "product"), ((0, 1, "create"),))
        key_b = (("person",), ())
        model.observe(key_a, 4, 3, 0.25)
        model.observe(key_a, 4, 3, 0.35)
        model.observe(key_b, 2, 1, 0.10)
        restored = ChaseCostModel.from_state(model.as_state())
        assert restored.as_state() == model.as_state()
        # the keys restore to the SAME hashables: measured weights hit
        assert restored.weight(key_a, 4, 3) == model.weight(key_a, 4, 3)
        assert restored.weight(key_b, 2, 1) == model.weight(key_b, 2, 1)
