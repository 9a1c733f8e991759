"""Randomized differential harness: every engine finds the same GFDs.

The paper's Theorem 5 claims ``ParDis`` changes *time*, never *results*.
This harness generates a seeded population of adversarial graphs (skewed
label distributions, dense attribute columns, multigraph edges, isolated
nodes, self-referential structure) and asserts four engine configurations
agree exactly on every one:

* ``SequentialDiscovery`` over the frozen CSR index,
* ``SequentialDiscovery`` with ``use_index=False`` (dict reference path),
* ``ParallelDiscovery`` on the ``serial`` backend,
* ``ParallelDiscovery`` on the ``multiprocess`` backend (2–4 real workers
  over shared-memory graph buffers).

Agreement is checked on the canonical-keyed GFD sets, the per-rule support
counts, and the minimal covers.  A companion class locks down the
``DistinctPivotSketch`` merge semantics the multi-worker tally aggregation
relies on.
"""

from __future__ import annotations

import random
from dataclasses import replace

import numpy as np
import pytest

from repro.core import DiscoveryConfig, discover, gfd_identity, sequential_cover
from repro.core.config import FaultConfig
from repro.core.support import DistinctPivotSketch, sketch_distinct_upper_bound
from repro.gfd import implies
from repro.graph import Graph
from repro.parallel import (
    ParallelDiscovery,
    parallel_cover,
    parallel_cover_ungrouped,
)

#: Number of random graphs in the population (one pytest case each).
NUM_GRAPHS = 30

NODE_LABELS = ["person", "film", "book", "city", "award", "studio"]
EDGE_LABELS = ["create", "like", "live_in", "win", "made_by"]
ATTRS = ["kind", "year", "grade"]


def _random_graph(seed: int) -> Graph:
    """One adversarial random graph, deterministic per seed.

    Varies along the axes the engines disagree on when buggy: label skew
    (Zipf-ish weights stress shard imbalance and the load balancer), dense
    vs sparse attribute columns (stresses the MISSING handling), parallel
    edges between one node pair (multigraph CSR dedup), and isolated nodes
    (empty shards, empty neighborhoods).
    """
    rng = random.Random(seed)
    num_nodes = rng.randint(36, 80)
    num_labels = rng.randint(2, len(NODE_LABELS))
    labels = NODE_LABELS[:num_labels]
    # skewed label choice: weight 1/(rank+1)
    weights = [1.0 / (rank + 1) for rank in range(num_labels)]
    dense_attrs = rng.random() < 0.5
    attr_density = 0.95 if dense_attrs else rng.uniform(0.25, 0.7)
    value_pool = {
        "kind": ["a", "b", "c"][: rng.randint(2, 3)],
        "year": list(range(2000, 2000 + rng.randint(2, 4))),
        "grade": ["x", "y"],
    }

    graph = Graph()
    for _ in range(num_nodes):
        label = rng.choices(labels, weights=weights)[0]
        attrs = {
            attr: rng.choice(value_pool[attr])
            for attr in ATTRS
            if rng.random() < attr_density
        }
        graph.add_node(label, attrs)

    # leave a tail of isolated nodes (no incident edges at all)
    num_isolated = rng.randint(2, 6)
    connectable = list(range(num_nodes - num_isolated))
    num_edges = rng.randint(num_nodes, 3 * num_nodes)
    edge_labels = EDGE_LABELS[: rng.randint(2, len(EDGE_LABELS))]
    for _ in range(num_edges):
        src = rng.choice(connectable)
        dst = rng.choice(connectable)
        if src == dst:
            continue
        graph.add_edge(src, dst, rng.choice(edge_labels))
    # multigraph stress: stack several labels on a few fixed pairs
    for _ in range(rng.randint(1, 5)):
        src = rng.choice(connectable)
        dst = rng.choice(connectable)
        if src == dst:
            continue
        for label in edge_labels:
            graph.add_edge(src, dst, label)
    return graph


def _config(seed: int) -> DiscoveryConfig:
    """Discovery parameters varied (deterministically) with the graph."""
    rng = random.Random(10_000 + seed)
    return DiscoveryConfig(
        k=rng.choice([2, 2, 3]),
        sigma=rng.randint(3, 7),
        max_lhs_size=1,
        active_attributes=list(ATTRS),
        mine_negative=rng.random() < 0.8,
        variable_literals=rng.random() < 0.8,
        parallel_backend="serial",
    )


def _fingerprint(result):
    """(gfd set, supports, cover) under canonical keys — the parity basis."""
    keys = frozenset(gfd_identity(g) for g in result.gfds)
    supports = {gfd_identity(g): result.supports[g] for g in result.gfds}
    cover = frozenset(
        gfd_identity(g) for g in sequential_cover(result.gfds).cover
    )
    return keys, supports, cover


class TestDifferentialEngines:
    @pytest.mark.parametrize("seed", range(NUM_GRAPHS))
    def test_engines_agree(self, seed):
        graph = _random_graph(seed)
        config = _config(seed)
        reference = _fingerprint(discover(graph, config))

        no_index = _fingerprint(
            discover(graph, replace(config, use_index=False))
        )
        assert no_index == reference, "use_index=False diverged"

        engine = ParallelDiscovery(
            graph, config, num_workers=2 + seed % 3, backend="serial"
        )
        serial = engine.run()
        cluster = engine.cluster
        assert _fingerprint(serial) == reference, "ParDis(serial) diverged"
        assert cluster.metrics.supersteps > 0

        workers = 2 + seed % 3  # 2–4 real processes
        multiprocess = ParallelDiscovery(
            graph, config, num_workers=workers, backend="multiprocess"
        ).run()
        assert _fingerprint(multiprocess) == reference, (
            f"ParDis(multiprocess, {workers} workers) diverged"
        )

    def test_balancing_off_agrees(self):
        """``ParGFDnb`` (no balancing) also matches, on both backends."""
        graph = _random_graph(3)
        config = _config(3)
        reference = _fingerprint(discover(graph, config))
        for backend in ("serial", "multiprocess"):
            result = ParallelDiscovery(
                graph, config, num_workers=3, balance=False, backend=backend
            ).run()
            assert _fingerprint(result) == reference


class TestParCoverDifferential:
    """``ParCover``/``ParCovern`` sharded over real worker processes.

    The cover phase runs on the same ``ShardWorker`` op layer as discovery:
    workers receive ``Σ`` once plus unit manifests, and return removed
    indices (grouped) or implication verdicts (ungrouped).  Since unit
    checks are deterministic and independent, the computed cover must be
    *byte-identical* — same GFDs in the same order — across backends and
    worker counts.
    """

    def _sigma(self, seed):
        graph = _random_graph(seed)
        return discover(graph, _config(seed)).gfds

    @pytest.mark.parametrize("seed", [0, 7, 19])
    def test_grouped_cover_identical_across_backends(self, seed):
        sigma = self._sigma(seed)
        reference, _ = parallel_cover(sigma, num_workers=2, backend="serial")
        for workers in (2, 3, 4):
            serial, _ = parallel_cover(
                sigma, num_workers=workers, backend="serial"
            )
            multiprocess, _ = parallel_cover(
                sigma, num_workers=workers, backend="multiprocess"
            )
            for result in (serial, multiprocess):
                assert result.cover == reference.cover
                assert result.removed == reference.removed
                assert result.implication_tests == reference.implication_tests
        # the cover is sound: every removed GFD is implied by the survivors
        for removed in reference.removed:
            assert implies(reference.cover, removed)

    @pytest.mark.parametrize("seed", [3, 11])
    def test_ungrouped_cover_identical_across_backends(self, seed):
        sigma = self._sigma(seed)
        reference, _ = parallel_cover_ungrouped(
            sigma, num_workers=2, backend="serial"
        )
        for workers, backend in ((2, "multiprocess"), (4, "multiprocess"),
                                 (3, "serial")):
            result, _ = parallel_cover_ungrouped(
                sigma, num_workers=workers, backend=backend
            )
            assert result.cover == reference.cover
            assert result.removed == reference.removed

    def test_cover_equivalent_to_sequential(self):
        """Both parallel variants agree with ``SeqCover`` on identity sets."""
        sigma = self._sigma(5)
        sequential = {
            gfd_identity(g) for g in sequential_cover(sigma).cover
        }
        for compute in (parallel_cover, parallel_cover_ungrouped):
            result, _ = compute(sigma, num_workers=3, backend="multiprocess")
            assert {gfd_identity(g) for g in result.cover} == sequential

    def test_sigma_ships_once_and_no_match_rows(self):
        """The cover phase broadcasts Σ and exchanges scalars otherwise."""
        from repro.parallel.backend import make_backend

        sigma = self._sigma(0)
        backend = make_backend("multiprocess", 3, None, None, [])
        try:
            result, _ = parallel_cover(sigma, backend=backend)
            assert backend.transfers.sigma_rules == 3 * len(sigma)
            assert backend.transfers.rows_to_workers == 0
            assert backend.transfers.rows_to_master == 0
            reference, _ = parallel_cover(sigma, num_workers=3)
            assert result.cover == reference.cover
        finally:
            backend.shutdown()


class TestFusionDifferential:
    """Fused supersteps: ParDis ≡ SeqDis at a pinned superstep count.

    A whole VSpawn/HSpawn round is submitted as one request per worker
    per superstep, and the engines batch sibling patterns into joint
    rounds.  The counts below are what the fused protocol issues on these
    inputs; a change that adds rounds (or silently drops work) moves them.
    """

    #: seed -> supersteps of ParDis with ``2 + seed % 3`` serial workers
    SERIAL_SUPERSTEPS = {0: 17, 5: 56, 7: 19, 13: 7, 19: 24, 26: 24}
    #: seed -> supersteps of ParDis with 3 multiprocess workers, as
    #: (unsupervised, supervised): supervision disables worker-to-worker
    #: staging, so skew rebalances take the fetch-through-master route
    #: and its own rounds (injected kills retry inside a superstep and
    #: add none)
    MULTIPROCESS_SUPERSTEPS = {0: (17, 17), 19: (24, 37)}

    @pytest.mark.parametrize("seed", sorted(SERIAL_SUPERSTEPS))
    def test_serial_superstep_count_pinned(self, seed):
        graph = _random_graph(seed)
        config = _config(seed)
        engine = ParallelDiscovery(
            graph, config, num_workers=2 + seed % 3, backend="serial"
        )
        result = engine.run()
        assert _fingerprint(result) == _fingerprint(discover(graph, config))
        assert engine.cluster.metrics.supersteps == self.SERIAL_SUPERSTEPS[seed]

    @pytest.mark.parametrize("seed", sorted(MULTIPROCESS_SUPERSTEPS))
    def test_multiprocess_superstep_count_pinned(self, seed):
        graph = _random_graph(seed)
        config = _config(seed)
        reference = _fingerprint(discover(graph, config))
        # FaultConfig() arms REPRO_FAULT_PLAN when the chaos job sets it
        for fault, expected in zip(
            (None, FaultConfig()), self.MULTIPROCESS_SUPERSTEPS[seed]
        ):
            engine = ParallelDiscovery(
                graph,
                replace(config, fault=fault),
                num_workers=3,
                backend="multiprocess",
            )
            assert _fingerprint(engine.run()) == reference
            assert engine.cluster.metrics.supersteps == expected

    def test_cover_runs_in_one_superstep(self):
        """The Σ broadcast rides the work superstep: one BSP round."""
        from repro.parallel.backend import make_backend

        sigma = discover(_random_graph(7), _config(7)).gfds
        backend = make_backend("serial", 3, None, None, [])
        try:
            result, cluster = parallel_cover(sigma, backend=backend)
        finally:
            backend.shutdown()
        assert {gfd_identity(g) for g in result.cover} == {
            gfd_identity(g) for g in sequential_cover(sigma).cover
        }
        assert cluster.metrics.supersteps == 1


class TestSketchMergeSemantics:
    """``DistinctPivotSketch`` under multi-worker tally aggregation.

    ``ParDis`` shards are pivot-disjoint, but merge correctness must not
    depend on that: the union bound has to hold for arbitrary overlap.
    """

    def _shard(self, values: np.ndarray, num_workers: int):
        return [values[values % num_workers == w] for w in range(num_workers)]

    @pytest.mark.parametrize("seed", range(8))
    def test_merged_upper_bound_covers_exact_union(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 5_000, size=rng.integers(10, 20_000))
        for num_workers in (2, 3, 5):
            merged = DistinctPivotSketch()
            for shard in self._shard(values, num_workers):
                merged.merge(DistinctPivotSketch().add_array(shard))
            exact = len(set(values.tolist()))
            assert merged.upper_bound() >= exact

    def test_merge_equals_single_sketch(self):
        """Register-wise max over shards == one sketch over the union."""
        rng = np.random.default_rng(42)
        values = rng.integers(0, 100_000, size=50_000)
        single = DistinctPivotSketch().add_array(values)
        merged = DistinctPivotSketch()
        # overlapping shards: every worker also re-sees a common chunk
        common = values[:5_000]
        for shard in self._shard(values, 4):
            merged.merge(
                DistinctPivotSketch()
                .add_array(shard)
                .add_array(common)
            )
        assert np.array_equal(merged.registers, single.registers)

    def test_merge_precision_mismatch_raises(self):
        with pytest.raises(ValueError):
            DistinctPivotSketch(precision=12).merge(
                DistinctPivotSketch(precision=13)
            )

    @pytest.mark.parametrize("seed", range(5))
    def test_prefilter_never_drops_true_support(self, seed):
        """The sketch bound dominates the exact count on shard unions.

        The property enforcement's ``sketch_cardinality`` reports rely on:
        a (merged) sketch bound never undercounts the distinct pivots.
        """
        rng = np.random.default_rng(100 + seed)
        values = rng.integers(0, 2_000, size=rng.integers(50, 5_000))
        exact = len(set(values.tolist()))
        assert sketch_distinct_upper_bound(values) >= exact
        merged = DistinctPivotSketch()
        for shard in self._shard(values, 3):
            merged.merge(DistinctPivotSketch().add_array(shard))
        assert merged.upper_bound() >= exact
