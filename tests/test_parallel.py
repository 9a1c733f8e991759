"""Tests for the cluster simulation, balancing, ParDis and ParCover."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DiscoveryConfig, discover, gfd_identity, sequential_cover
from repro.gfd import GFD, ConstantLiteral, implies
from repro.parallel import (
    ParallelDiscovery,
    SimulatedCluster,
    assign_units_lpt,
    is_skewed,
    parallel_cover,
    parallel_cover_ungrouped,
    rebalance_pivot_groups,
    rebalance_shards,
)
from repro.pattern import Pattern


class TestCluster:
    def test_superstep_makespan(self):
        cluster = SimulatedCluster(2)
        with cluster.superstep() as step:
            step.run(0, lambda: sum(range(200_000)))
            step.run(1, lambda: None)
        assert cluster.metrics.supersteps == 1
        assert cluster.metrics.parallel_seconds > 0
        # makespan equals the slow worker, not the sum
        assert cluster.metrics.parallel_seconds <= cluster.metrics.total_work_seconds

    def test_ship_charges_receiver(self):
        cluster = SimulatedCluster(2, seconds_per_item=1e-3)
        with cluster.superstep() as step:
            step.ship(1, 100)
        assert cluster.workers[1].comm_seconds == pytest.approx(0.1)
        assert cluster.workers[0].comm_seconds == 0

    def test_broadcast_excludes(self):
        cluster = SimulatedCluster(3, seconds_per_item=1e-3)
        with cluster.superstep() as step:
            step.broadcast(10, exclude=0)
        assert cluster.workers[0].items_received == 0
        assert cluster.workers[1].items_received == 10

    def test_master_metering(self):
        cluster = SimulatedCluster(1)
        with cluster.master():
            sum(range(10_000))
        assert cluster.metrics.master_seconds > 0

    def test_ship_to_master(self):
        cluster = SimulatedCluster(1, seconds_per_item=1e-3)
        cluster.ship_to_master(50)
        assert cluster.metrics.master_seconds == pytest.approx(0.05)

    def test_reset(self):
        cluster = SimulatedCluster(2)
        with cluster.superstep() as step:
            step.run(0, lambda: None)
        cluster.reset()
        assert cluster.metrics.supersteps == 0
        assert cluster.workers[0].units_executed == 0

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            SimulatedCluster(0)


class TestBalancer:
    def test_is_skewed(self):
        assert is_skewed([100, 1, 1, 1])
        assert not is_skewed([10, 10, 10, 10])
        assert not is_skewed([])
        assert not is_skewed([0, 0])

    def test_rebalance_evens_out(self):
        shards = [[("m", i) for i in range(90)], [], [("x", 1)]]
        balanced, moved = rebalance_shards(shards)
        sizes = [len(shard) for shard in balanced]
        assert max(sizes) - min(sizes) <= 1
        assert sum(moved.values()) > 0

    def test_rebalance_preserves_items(self):
        shards = [[1, 2, 3, 4, 5, 6], [7], []]
        balanced, _ = rebalance_shards(shards)
        assert sorted(x for shard in balanced for x in shard) == list(range(1, 8))

    @settings(max_examples=40, deadline=None)
    @given(
        sizes=st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=6)
    )
    def test_rebalance_property(self, sizes):
        item = 0
        shards = []
        for size in sizes:
            shards.append(list(range(item, item + size)))
            item += size
        balanced, _ = rebalance_shards(shards)
        assert sorted(x for shard in balanced for x in shard) == list(range(item))
        lengths = [len(shard) for shard in balanced]
        assert max(lengths) - min(lengths) <= 1

    def test_rebalance_pivot_groups_keeps_groups_together(self):
        # matches are (pivot, payload) tuples; pivot is position 0
        shards = [
            [(p, i) for p in range(6) for i in range(10)],  # 60 matches
            [],
            [],
        ]
        balanced, moved = rebalance_pivot_groups(shards, pivot_var=0)
        # every pivot's matches stay on one shard
        location = {}
        for worker, shard in enumerate(balanced):
            for match in shard:
                location.setdefault(match[0], set()).add(worker)
        assert all(len(workers) == 1 for workers in location.values())
        assert sorted(len(s) for s in balanced) != [0, 0, 60]

    def test_lpt_assignment(self):
        assignment = assign_units_lpt([5, 3, 3, 2, 2, 1], 2)
        loads = [
            sum([5, 3, 3, 2, 2, 1][unit] for unit in units)
            for units in assignment
        ]
        assert abs(loads[0] - loads[1]) <= 2

    def test_lpt_all_assigned(self):
        assignment = assign_units_lpt([1.0] * 7, 3)
        assigned = sorted(unit for units in assignment for unit in units)
        assert assigned == list(range(7))


class TestParDisParity:
    def test_results_equal_sequential(self, film_graph, film_config):
        sequential = discover(film_graph, film_config)
        engine = ParallelDiscovery(film_graph, film_config, num_workers=4)
        parallel = engine.run()
        cluster = engine.cluster
        assert {gfd_identity(g) for g in sequential.gfds} == {
            gfd_identity(g) for g in parallel.gfds
        }
        parallel_supports = {
            gfd_identity(g): parallel.supports[g] for g in parallel.gfds
        }
        for gfd in sequential.gfds:
            assert parallel_supports[gfd_identity(gfd)] == sequential.supports[gfd]
        assert cluster.metrics.supersteps > 0

    def test_parity_on_kb(self, yago_small, yago_config):
        sequential = discover(yago_small, yago_config)
        parallel = ParallelDiscovery(yago_small, yago_config, num_workers=3).run()
        assert {gfd_identity(g) for g in sequential.gfds} == {
            gfd_identity(g) for g in parallel.gfds
        }

    def test_parity_without_balancing(self, film_graph, film_config):
        sequential = discover(film_graph, film_config)
        parallel = ParallelDiscovery(
            film_graph, film_config, num_workers=4, balance=False
        ).run()
        assert {gfd_identity(g) for g in sequential.gfds} == {
            gfd_identity(g) for g in parallel.gfds
        }

    def test_parity_across_worker_counts(self, film_graph, film_config):
        baseline = {
            gfd_identity(g)
            for g in ParallelDiscovery(
                film_graph, film_config, num_workers=2
            ).run().gfds
        }
        for workers in (3, 5):
            other = {
                gfd_identity(g)
                for g in ParallelDiscovery(
                    film_graph, film_config, num_workers=workers
                ).run().gfds
            }
            assert other == baseline

    def test_cluster_accounting_positive(self, film_graph, film_config):
        engine = ParallelDiscovery(film_graph, film_config, num_workers=4)
        engine.run()
        cluster = engine.cluster
        assert cluster.metrics.elapsed_parallel > 0
        assert cluster.metrics.total_work_seconds > 0
        assert all(w.units_executed > 0 for w in cluster.workers)


class TestParCover:
    def make_sigma(self):
        pattern = Pattern(["person", "product"], [(0, 1, "create")], pivot=0)
        base = GFD(
            pattern,
            frozenset({ConstantLiteral(1, "type", "film")}),
            ConstantLiteral(0, "type", "producer"),
        )
        weaker = GFD(
            pattern,
            frozenset(
                {
                    ConstantLiteral(1, "type", "film"),
                    ConstantLiteral(1, "year", 2000),
                }
            ),
            ConstantLiteral(0, "type", "producer"),
        )
        bigger_pattern = pattern.with_new_node("award", 1, True, "receive")
        extended = GFD(
            bigger_pattern,
            frozenset({ConstantLiteral(1, "type", "film")}),
            ConstantLiteral(0, "type", "producer"),
        )
        other = GFD(
            Pattern(["city", "country"], [(0, 1, "located")], pivot=0),
            frozenset(),
            ConstantLiteral(1, "kind", "place"),
        )
        return [base, weaker, extended, other]

    def test_grouped_cover_equivalent(self):
        sigma = self.make_sigma()
        result, cluster = parallel_cover(sigma, num_workers=2)
        for removed in result.removed:
            assert implies(result.cover, removed)
        assert len(result.cover) == 2  # base + other survive
        assert cluster.metrics.supersteps >= 1

    def test_ungrouped_cover_equivalent(self):
        sigma = self.make_sigma()
        result, _ = parallel_cover_ungrouped(sigma, num_workers=2)
        for removed in result.removed:
            assert implies(result.cover, removed)
        assert len(result.cover) == 2

    def test_mutual_implication_keeps_one(self):
        """Pivot variants imply each other; the cover must keep exactly one."""
        pattern = Pattern(["a", "b"], [(0, 1, "e")], pivot=0)
        gfd_x = GFD(pattern, frozenset(), ConstantLiteral(0, "v", 1))
        gfd_y = GFD(pattern.with_pivot(1), frozenset(), ConstantLiteral(0, "v", 1))
        for compute in (
            lambda s: parallel_cover(s, num_workers=2)[0],
            lambda s: parallel_cover_ungrouped(s, num_workers=2)[0],
            sequential_cover,
        ):
            result = compute([gfd_x, gfd_y])
            assert len(result.cover) == 1

    def test_matches_sequential_on_discovered(self, film_graph, film_config):
        discovered = discover(film_graph, film_config)
        seq = sequential_cover(discovered.gfds)
        par, _ = parallel_cover(discovered.gfds, num_workers=3)
        # both covers are equivalent to Σ (sizes may differ by tie-breaks;
        # here the scan orders coincide, so compare sets)
        assert {gfd_identity(g) for g in par.cover} == {
            gfd_identity(g) for g in seq.cover
        }

    def test_empty_sigma(self):
        result, _ = parallel_cover([], num_workers=2)
        assert result.cover == []
