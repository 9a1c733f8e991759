"""Execution-backend tests: shared-memory lifecycle, backend reuse, the cap.

Covers the multiprocess plumbing the differential harness treats as a black
box: buffer export/attach round trips, stale-index export refusal, segment
cleanup after shutdown (name probing — an unlinked segment must not be
re-attachable), backend selection and reuse, and the per-shard
``max_matches_per_pattern`` enforcement that keeps both engines in
agreement when the cap binds.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core import DiscoveryConfig, discover, gfd_identity
from repro.graph import Graph
from repro.graph.index import GraphIndex
from repro.parallel import (
    MultiprocessBackend,
    ParallelDiscovery,
    SerialBackend,
    SharedIndexBuffers,
    make_backend,
)


def _probe_segment(name: str):
    """Attach an existing segment by name (caller closes)."""
    from multiprocessing import shared_memory

    return shared_memory.SharedMemory(name=name)


def small_graph() -> Graph:
    graph = Graph()
    people = [
        graph.add_node("person", {"kind": "a" if i % 2 else "b", "year": 2000 + i % 3})
        for i in range(24)
    ]
    cities = [graph.add_node("city", {"kind": "c"}) for _ in range(8)]
    for i, person in enumerate(people):
        graph.add_edge(person, cities[i % len(cities)], "live_in")
        graph.add_edge(person, people[(i + 1) % len(people)], "like")
    return graph


def small_config(**overrides) -> DiscoveryConfig:
    defaults = dict(
        k=2, sigma=4, max_lhs_size=1, active_attributes=["kind", "year"]
    )
    defaults.update(overrides)
    return DiscoveryConfig(**defaults)


class TestBufferExport:
    def test_round_trip_preserves_arrays(self):
        graph = small_graph()
        index = graph.index()
        meta, arrays = index.export_buffers()
        rebuilt = GraphIndex.from_buffers(meta, arrays)
        assert rebuilt.detached and rebuilt.is_fresh()
        assert rebuilt.num_nodes == index.num_nodes
        assert rebuilt.num_edges == index.num_edges
        np.testing.assert_array_equal(
            rebuilt.node_label_codes, index.node_label_codes
        )
        np.testing.assert_array_equal(rebuilt.out_indptr, index.out_indptr)
        np.testing.assert_array_equal(
            rebuilt.nodes_with_label("person"), index.nodes_with_label("person")
        )
        for attr in index.attr_names:
            np.testing.assert_array_equal(
                rebuilt.attr_code_array(attr), index.attr_code_array(attr)
            )
        # value interning survives (code 0 re-anchors on this process's
        # MISSING sentinel)
        assert rebuilt.code_of_value == index.code_of_value
        # statistics compute detached (no backing graph needed)
        assert (
            rebuilt.statistics().edge_label_counts
            == index.statistics().edge_label_counts
        )
        assert (
            rebuilt.statistics().node_label_counts
            == index.statistics().node_label_counts
        )

    def test_stale_index_export_raises(self):
        graph = small_graph()
        index = graph.index()
        graph.add_node("person", {})
        assert not index.is_fresh()
        with pytest.raises(RuntimeError, match="stale"):
            index.export_buffers()

    def test_shared_buffers_attach_by_name_then_unlink(self):
        graph = small_graph()
        buffers = SharedIndexBuffers(graph.index())
        name = buffers.name
        probe = _probe_segment(name)  # attachable while alive
        probe.close()
        buffers.close()
        with pytest.raises(FileNotFoundError):
            _probe_segment(name)
        buffers.close()  # idempotent


class TestBackendLifecycle:
    def test_shutdown_unlinks_segment(self):
        graph = small_graph()
        index = graph.index()
        backend = MultiprocessBackend(2, index, ["kind", "year"])
        name = backend.shm_name
        assert name is not None
        probe = _probe_segment(name)
        probe.close()
        backend.shutdown()
        with pytest.raises(FileNotFoundError):
            _probe_segment(name)
        backend.shutdown()  # idempotent

    def test_engine_run_leaves_no_segment(self):
        graph = small_graph()
        config = small_config(parallel_backend="multiprocess")
        engine = ParallelDiscovery(graph, config, num_workers=2)
        tracked = {}
        original = SharedIndexBuffers.__init__

        def spy(self, index):
            original(self, index)
            tracked["name"] = self.name

        SharedIndexBuffers.__init__ = spy
        try:
            engine.run()
        finally:
            SharedIndexBuffers.__init__ = original
        assert "name" in tracked
        with pytest.raises(FileNotFoundError):
            _probe_segment(tracked["name"])

    def test_external_backend_reused_across_runs(self):
        graph = small_graph()
        config = small_config()
        reference = {gfd_identity(g) for g in discover(graph, config).gfds}
        backend = make_backend(
            "multiprocess", 2, graph, graph.index(),
            ["kind", "year"],
        )
        try:
            for _ in range(2):
                result = ParallelDiscovery(
                    graph, config, num_workers=2, backend=backend
                ).run()
                assert {gfd_identity(g) for g in result.gfds} == reference
        finally:
            backend.shutdown()

    def test_multiprocess_requires_index(self):
        graph = small_graph()
        config = small_config(use_index=False, parallel_backend="multiprocess")
        with pytest.raises(ValueError, match="use_index"):
            ParallelDiscovery(graph, config, num_workers=2)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="parallel_backend"):
            small_config(parallel_backend="ray")
        graph = small_graph()
        with pytest.raises(ValueError, match="unknown parallel backend"):
            ParallelDiscovery(
                graph, small_config(), num_workers=2, backend="ray"
            )

    def test_default_backend_follows_config_and_env(self):
        import os

        expected = os.environ.get("REPRO_PARALLEL_BACKEND", "serial")
        engine = ParallelDiscovery(small_graph(), small_config(), num_workers=2)
        assert engine.backend_name == expected
        pinned = ParallelDiscovery(
            small_graph(),
            small_config(parallel_backend="serial"),
            num_workers=2,
        )
        assert pinned.backend_name == "serial"
        assert isinstance(
            make_backend("serial", 2, None, None, []), SerialBackend
        )


class TestMatchCapAgreement:
    """``max_matches_per_pattern`` per-shard enforcement (both engines)."""

    def _engines(self, graph, config):
        runs = {"seq": discover(graph, config)}
        for backend in ("serial", "multiprocess"):
            runs[backend] = ParallelDiscovery(
                graph, config, num_workers=3, backend=backend
            ).run()
        return runs

    def test_engines_agree_when_cap_binds(self):
        graph = small_graph()
        config = small_config(max_matches_per_pattern=10)
        runs = self._engines(graph, config)
        fingerprints = {
            name: frozenset(gfd_identity(g) for g in result.gfds)
            for name, result in runs.items()
        }
        assert fingerprints["seq"] == fingerprints["serial"]
        assert fingerprints["seq"] == fingerprints["multiprocess"]
        # the cap did bind: truncated patterns were counted on every engine
        assert runs["seq"].stats.truncated_patterns > 0
        assert runs["serial"].stats.truncated_patterns > 0
        assert runs["multiprocess"].stats.truncated_patterns > 0

    def test_capped_run_is_subset_of_uncapped(self):
        graph = small_graph()
        uncapped = {
            gfd_identity(g)
            for g in discover(graph, small_config()).gfds
        }
        capped_result = discover(
            graph, small_config(max_matches_per_pattern=10)
        )
        capped = {gfd_identity(g) for g in capped_result.gfds}
        # truncation only suppresses rules; it never invents them
        assert capped <= uncapped

    def test_truncated_patterns_are_leaves(self):
        """A truncated pattern spawns no children on the sequential engine."""
        graph = small_graph()
        result = discover(graph, small_config(max_matches_per_pattern=10))
        tree = result.tree
        truncated = {
            id(node)
            for node in tree.all_nodes()
            if node.table is not None and node.table.truncated
        }
        assert truncated  # the cap did bind
        for node in tree.all_nodes():
            assert not any(id(parent) in truncated for parent in node.parents)


class TestWorkerToWorkerStaging:
    """Rebalanced pivot groups ship worker-to-worker, not through the master."""

    def _skewed_graph(self, num_workers: int = 3) -> Graph:
        """Hub pivots colocated on worker 0 so rebalancing must move groups."""
        graph = Graph()
        nodes = []
        for i in range(3 * num_workers):
            if i % num_workers == 0:
                nodes.append(graph.add_node("hub", {"kind": "h"}))
            else:
                nodes.append(
                    graph.add_node("person", {"kind": "a", "year": 2000})
                )
        hubs = [n for n in nodes if graph.node_label(n) == "hub"]
        people = [
            graph.add_node("person", {"kind": "ab"[i % 2], "year": 2000 + i % 3})
            for i in range(60)
        ]
        for i, person in enumerate(people):
            graph.add_edge(person, hubs[i % len(hubs)], "link")
            if i % 2:
                graph.add_edge(person, people[(i * 7 + 1) % 60], "like")
        return graph

    def test_plan_matches_array_rebalance_loads(self):
        """The summary-based plan lands the same loads and group homes as
        the master-side array rebalance it replaces."""
        from repro.parallel.balancer import (
            plan_pivot_group_moves,
            rebalance_pivot_group_arrays,
        )

        rng = np.random.default_rng(5)
        for _ in range(20):
            num_shards = int(rng.integers(2, 5))
            shards = []
            for worker in range(num_shards):
                rows = int(rng.integers(0, 40))
                pivots = rng.integers(0, 9, size=rows)
                shards.append(
                    np.stack([pivots, rng.integers(0, 100, size=rows)], axis=1)
                    if rows
                    else np.empty((0, 2), dtype=np.int64)
                )
            summaries = [
                np.unique(shard[:, 0], return_counts=True) for shard in shards
            ]
            moves, received = plan_pivot_group_moves(summaries)
            planned_loads = [int(s[1].sum()) for s in summaries]
            for (src, dst), (pivots, rows) in moves.items():
                planned_loads[src] -= rows
                planned_loads[dst] += rows
            rebalanced, _ = rebalance_pivot_group_arrays(shards, 0)
            actual_loads = [int(shard.shape[0]) for shard in rebalanced]
            assert planned_loads == actual_loads
            # pivot-disjointness: after applying the plan no pivot lives on
            # two shards
            homes = {}
            for worker, (pivots, counts) in enumerate(summaries):
                for pivot in pivots.tolist():
                    homes[pivot] = {worker}
            for (src, dst), (pivots, rows) in moves.items():
                for pivot in pivots:
                    homes[pivot] = {dst}
            assert all(len(workers) == 1 for workers in homes.values())

    def test_direct_shipping_keeps_rows_off_the_master(self):
        """With staging on, the skewed-join rebalance moves rows through
        shared memory: the ledger shows staged rows and zero fetches."""
        graph = self._skewed_graph()
        config = small_config(
            k=3, sigma=3, active_attributes=["kind", "year"]
        )
        results = {}
        ledgers = {}
        for direct in (True, False):
            run_config = replace(config, direct_shipping=direct)
            runner = ParallelDiscovery(
                graph, run_config, num_workers=3, backend="multiprocess"
            )
            backend = make_backend(
                "multiprocess", 3, graph, graph.index(), runner.gamma
            )
            try:
                runner = ParallelDiscovery(
                    graph, run_config, backend=backend
                )
                result = runner.run()
                results[direct] = {gfd_identity(g) for g in result.gfds}
                ledgers[direct] = backend.transfers.snapshot()
                staged_metric = sum(
                    w.items_staged for w in runner.cluster.workers
                )
                if direct:
                    assert backend.transfers.rows_staged > 0
                    assert staged_metric > 0
                else:
                    assert backend.transfers.rows_staged == 0
            finally:
                backend.shutdown()
        assert results[True] == results[False]
        # the fallback route fetches rows to the master; staging must not
        assert ledgers[False].rows_to_master > ledgers[True].rows_to_master
        assert ledgers[True].rows_to_master == 0
        # both routes ship the cold-start seeds; the fallback additionally
        # re-ships every fetched row back out, the staging route none
        assert (
            ledgers[False].rows_to_workers - ledgers[True].rows_to_workers
            == ledgers[False].rows_to_master
        )

    def test_no_segment_leak_after_staged_run(self):
        graph = self._skewed_graph()
        config = small_config(k=3, sigma=3, active_attributes=["kind", "year"])
        runner = ParallelDiscovery(
            graph, config, num_workers=3, backend="multiprocess"
        )
        runner.run()  # owned backend: shutdown inside run()
        # the index segment is gone; staging segments were per-exchange
        assert runner._backend is None


class TestGraphFreeAndIndexRefresh:
    def test_graph_free_multiprocess_backend(self):
        """Cover-phase workers need processes but no graph."""
        backend = make_backend("multiprocess", 2, None, None, [])
        try:
            assert backend.shm_name is None
            results = backend.run_unmetered(
                [(w, "drop_sigma", 0, {}) for w in range(2)]
            )
            assert results == [None, None]
        finally:
            backend.shutdown()

    def test_refresh_index_swaps_segment_and_keeps_state(self):
        graph = small_graph()
        index = graph.index()
        backend = MultiprocessBackend(2, index, ["kind", "year"])
        try:
            first_segment = backend.shm_name
            # park enforcement state worker-side
            from repro.pattern import Pattern

            pattern = Pattern(["person", "city"], [(0, 1, "live_in")], pivot=0)
            from repro.pattern.matcher import find_matches

            rows = np.asarray(
                list(find_matches(graph, pattern, index=index)), dtype=np.int64
            )
            from repro.gfd.literals import ConstantLiteral

            rules = [((ConstantLiteral(0, "kind", "a"),), None)]
            install = backend.run_unmetered(
                [
                    (0, "enforce_install", 7,
                     {"pattern": pattern, "matches": rows, "rules": rules}),
                ]
            )
            before = install[0][0][0]
            # mutate the graph, ship the new snapshot
            node = graph.add_node("person", {"kind": "a"})
            new_index = graph.index()
            backend.refresh_index(new_index)
            assert backend.shm_name != first_segment
            with pytest.raises(FileNotFoundError):
                _probe_segment(first_segment)
            # resident state survived the swap
            after = backend.run_unmetered([(0, "enforce", 7, {})])
            assert after[0][0][0] == before
        finally:
            backend.shutdown()
        if backend.shm_name is not None:
            with pytest.raises(FileNotFoundError):
                _probe_segment(backend.shm_name)
