"""Equivalence of the dict-adjacency and frozen CSR-index hot paths.

The frozen :class:`~repro.graph.index.GraphIndex` re-implements candidate
seeding, edge checks, incremental joins, spawning tallies and match-table
construction as vectorized array operations.  These tests assert, on
randomized synthetic graphs, that every index-backed operation produces
*identical* results to the reference dict path — plus the freeze/invalidate
lifecycle and the HLL distinct-pivot sketch.
"""

import numpy as np
import pytest

from repro.core.config import DiscoveryConfig
from repro.core.discovery import discover
from repro.core.match_table import MISSING, MatchTable
from repro.core.reduction import gfd_identity
from repro.core.spawning import extension_statistics
from repro.core.support import DistinctPivotSketch, sketch_distinct_upper_bound
from repro.datasets.synthetic import SYNTHETIC_ATTRIBUTES, synthetic_graph
from repro.graph.index import GraphIndex
from repro.pattern.incremental import Extension, extend_matches
from repro.pattern.matcher import count_matches, find_matches, pivot_image
from repro.pattern.pattern import WILDCARD, Pattern


def small_graph(seed: int):
    return synthetic_graph(
        240, 900, num_labels=6, num_values=12, regularity=0.7, seed=seed
    )


PATTERNS = [
    Pattern(["L0"]),
    Pattern(["L1", "L2"], [(0, 1, "e1")]),
    Pattern(["L0", "L1", "L2"], [(0, 1, "e0"), (1, 2, "e1")]),
    Pattern(["L0", "L1"], [(0, 1, WILDCARD)]),
    Pattern([WILDCARD, "L1"], [(0, 1, "e0")]),
    Pattern(["L2", "L3"], [(0, 1, "e2"), (0, 1, WILDCARD)]),  # parallel edges
    Pattern(["L0", "L1", "L0"], [(0, 1, "e0"), (2, 1, "e0")], pivot=1),
]


def normalize_stats(stats):
    return (
        {key: set(map(int, pivots)) for key, pivots in stats.new_node.items()},
        {key: set(map(int, pivots)) for key, pivots in stats.closing.items()},
    )


class TestMatcherEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_find_matches_identical(self, seed):
        graph = small_graph(seed)
        index = graph.index()
        for pattern in PATTERNS:
            dict_matches = set(find_matches(graph, pattern))
            index_matches = set(find_matches(graph, pattern, index=index))
            assert dict_matches == index_matches

    def test_count_and_pivot_image(self):
        graph = small_graph(3)
        index = graph.index()
        for pattern in PATTERNS:
            assert count_matches(graph, pattern) == count_matches(
                graph, pattern, index=index
            )
            assert pivot_image(graph, pattern) == pivot_image(
                graph, pattern, index=index
            )

    def test_seeded_search(self):
        graph = small_graph(4)
        index = graph.index()
        pattern = PATTERNS[2]
        seeds = list(range(0, graph.num_nodes, 3))
        assert set(find_matches(graph, pattern, seeds=seeds)) == set(
            find_matches(graph, pattern, seeds=seeds, index=index)
        )


class TestIncrementalEquivalence:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_extend_matches_identical(self, seed):
        graph = small_graph(seed)
        index = graph.index()
        base = list(find_matches(graph, Pattern(["L0", "L1"], [(0, 1, "e0")])))
        extensions = [
            Extension(0, 2, "e1", "L2", True),
            Extension(1, 2, "e1", "L2", True),
            Extension(1, 2, WILDCARD, WILDCARD, False),
            Extension(1, 0, "e1"),  # closing
            Extension(0, 1, WILDCARD),  # closing wildcard
            Extension(0, 2, "missing-label", "L2", True),
        ]
        for extension in extensions:
            dict_result = set(extend_matches(graph, base, extension))
            index_list = extend_matches(graph, base, extension, index=index)
            assert dict_result == set(index_list)
            index_array = extend_matches(
                graph, base, extension, index=index, as_array=True
            )
            assert dict_result == {tuple(row) for row in index_array.tolist()}

    def test_wildcard_over_parallel_edges_yields_no_duplicates(self):
        from repro.graph.graph import Graph

        graph = Graph()
        u = graph.add_node("U")
        v = graph.add_node("V")
        graph.add_edge(u, v, "a")
        graph.add_edge(u, v, "b")
        index = graph.index()
        pattern = Pattern(["U", "V"], [(0, 1, WILDCARD)])
        # list equality: duplicate emissions must not hide inside a set
        assert list(find_matches(graph, pattern)) == list(
            find_matches(graph, pattern, index=index)
        )
        extension = Extension(0, 1, WILDCARD, "V", True)
        assert extend_matches(graph, [(u,)], extension) == extend_matches(
            graph, [(u,)], extension, index=index
        )

    def test_blockwise_capped_expansion_matches_full_join(self):
        from repro.graph.graph import Graph

        graph = Graph()
        hub = graph.add_node("H")
        for _ in range(3000):
            leaf = graph.add_node("W")
            graph.add_edge(hub, leaf, "e")
        index = graph.index()
        base = [(hub,)] * 400  # 1.2M-row join: exceeds the 1M block budget
        extension = Extension(0, 1, "e", "W", True)
        capped = extend_matches(
            graph, base, extension, max_matches=500, index=index, as_array=True
        )
        assert capped.shape == (500, 2)
        uncapped_prefix = extend_matches(
            graph, base[:1], extension, index=index, as_array=True
        )
        # block-wise capping returns the same leading rows as the full join
        assert capped.tolist() == uncapped_prefix.tolist()[:500]

    def test_extend_matches_respects_cap(self):
        graph = small_graph(2)
        index = graph.index()
        base = list(find_matches(graph, Pattern(["L0", "L1"], [(0, 1, "e0")])))
        capped = extend_matches(
            graph, base, Extension(1, 2, WILDCARD, WILDCARD, True),
            max_matches=5, index=index,
        )
        assert len(capped) <= 5


class TestSpawningEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("can_add_node", [True, False])
    def test_extension_statistics_identical(self, seed, can_add_node):
        graph = small_graph(seed)
        index = graph.index()
        for pattern in PATTERNS[:4]:
            matches = list(find_matches(graph, pattern))
            dict_stats = extension_statistics(graph, pattern, matches, can_add_node)
            index_stats = extension_statistics(
                graph, pattern, matches, can_add_node, index=index
            )
            assert normalize_stats(dict_stats) == normalize_stats(index_stats)


class TestMatchTableEquivalence:
    def build_tables(self, seed=1):
        graph = small_graph(seed)
        index = graph.index()
        pattern = Pattern(["L0", "L1", "L2"], [(0, 1, "e0"), (1, 2, "e1")])
        matches = list(find_matches(graph, pattern))
        attributes = list(SYNTHETIC_ATTRIBUTES[:3])
        dict_table = MatchTable(graph, pattern, matches, attributes)
        index_table = MatchTable.from_index(index, pattern, matches, attributes)
        return dict_table, index_table

    def test_rows_and_pivots(self):
        dict_table, index_table = self.build_tables()
        assert dict_table.num_rows == index_table.num_rows
        assert sorted(dict_table.matches) == sorted(index_table.matches)
        assert dict_table.support(dict_table.all_rows()) == index_table.support(
            index_table.all_rows()
        )

    def test_columns_decode(self):
        dict_table, index_table = self.build_tables()
        # rows sort stably by pivot but may interleave differently within a
        # pivot; compare columns as multisets of (match, value) pairs
        for variable in range(3):
            for attr in dict_table.attributes:
                dict_cells = {
                    (match, value if value is not MISSING else None)
                    for match, value in zip(
                        dict_table.matches, dict_table.column(variable, attr)
                    )
                }
                index_cells = {
                    (match, value if value is not MISSING else None)
                    for match, value in zip(
                        index_table.matches, index_table.column(variable, attr)
                    )
                }
                assert dict_cells == index_cells

    def test_literal_alphabet_and_masks(self):
        dict_table, index_table = self.build_tables()
        constants = dict_table.candidate_constant_literals(5)
        assert constants == index_table.candidate_constant_literals(5)
        variables = dict_table.candidate_variable_literals()
        assert variables == index_table.candidate_variable_literals()
        for literal in constants + variables:
            assert dict_table.literal_count(literal) == index_table.literal_count(
                literal
            )
            assert dict_table.mask_support(
                dict_table.literal_mask(literal)
            ) == index_table.mask_support(index_table.literal_mask(literal))
            assert dict_table.literal_pivots(literal) == index_table.literal_pivots(
                literal
            )

    def test_value_counts_merge_equivalent(self):
        dict_table, index_table = self.build_tables()
        assert dict_table.constant_value_counts() == index_table.constant_value_counts()
        assert (
            dict_table.variable_agreement_counts()
            == index_table.variable_agreement_counts()
        )

    def test_mask_cache_audit(self):
        _, index_table = self.build_tables()
        literals = index_table.candidate_constant_literals(3)
        if not literals:
            pytest.skip("no literals on this synthetic graph")
        for literal in literals:
            index_table.literal_mask(literal)
        misses = index_table.mask_cache_misses
        for literal in literals:
            index_table.literal_mask(literal)
        # per-pattern lifetime reuse: the second sweep is all hits
        assert index_table.mask_cache_misses == misses
        assert index_table.mask_cache_hits >= len(literals)


class TestFreezeLifecycle:
    def test_index_is_cached_per_version(self):
        graph = small_graph(0)
        first = graph.index()
        assert graph.index() is first

    def test_mutation_invalidates_index(self):
        graph = small_graph(0)
        index = graph.index()
        assert index.is_fresh()
        node = graph.add_node("L0", {"a0": "v1"})
        assert not index.is_fresh()
        rebuilt = graph.index()
        assert rebuilt is not index
        assert rebuilt.is_fresh()
        assert rebuilt.num_nodes == graph.num_nodes
        assert int(rebuilt.nodes_with_label("L0")[-1]) == node

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda g: g.add_edge(0, 1, "fresh-label"),
            lambda g: g.set_attr(0, "a0", "changed"),
            lambda g: g.remove_attr(0, "a0"),
            lambda g: g.relabel_node(0, "L5"),
        ],
    )
    def test_every_mutation_bumps_version(self, mutate):
        graph = small_graph(1)
        before = graph.version
        mutate(graph)
        assert graph.version > before

    def test_stale_index_queries_old_snapshot(self):
        graph = small_graph(0)
        index = graph.index()
        edges_before = index.num_edges
        graph.add_edge(0, 1, "brand-new")
        assert index.num_edges == edges_before  # frozen snapshot
        assert graph.index().has_edge(0, 1, "brand-new")


class TestDiscoveryEquivalence:
    @pytest.mark.parametrize("seed", [0, 5])
    def test_dict_and_index_paths_find_same_gfds(self, seed):
        graph = synthetic_graph(
            200, 700, num_labels=5, num_values=8, regularity=0.85, seed=seed
        )
        config_kwargs = dict(
            k=3, sigma=8, max_lhs_size=1,
            active_attributes=list(SYNTHETIC_ATTRIBUTES[:2]),
        )
        with_index = discover(graph, DiscoveryConfig(use_index=True, **config_kwargs))
        without = discover(graph, DiscoveryConfig(use_index=False, **config_kwargs))
        keyed_with = {gfd_identity(g): with_index.supports[g] for g in with_index.gfds}
        keyed_without = {gfd_identity(g): without.supports[g] for g in without.gfds}
        assert keyed_with == keyed_without

    def test_precomputed_stats_and_index_accepted(self):
        graph = small_graph(2)
        index = graph.index()
        stats = index.statistics()
        config = DiscoveryConfig(k=2, sigma=10, max_lhs_size=1)
        result = discover(graph, config, stats=stats, index=index)
        baseline = discover(graph, config)
        assert {gfd_identity(g) for g in result.gfds} == {
            gfd_identity(g) for g in baseline.gfds
        }

    def test_index_statistics_match_dict_statistics(self):
        from repro.graph.statistics import compute_statistics

        graph = small_graph(3)
        fast = graph.index().statistics()
        slow = compute_statistics(graph)
        assert fast.node_label_counts == slow.node_label_counts
        assert fast.edge_label_counts == slow.edge_label_counts
        assert fast.triple_counts == slow.triple_counts
        assert fast.attr_counts == slow.attr_counts
        assert fast.attr_value_counts == slow.attr_value_counts
        assert fast.max_degree == slow.max_degree


class TestDistinctPivotSketch:
    def test_estimate_accuracy(self):
        rng = np.random.default_rng(0)
        values = rng.integers(0, 50_000, size=200_000, dtype=np.int64)
        truth = len(np.unique(values))
        sketch = DistinctPivotSketch(precision=12).add_array(values)
        assert abs(sketch.estimate() - truth) / truth < 0.1
        assert sketch.upper_bound() >= truth

    def test_small_cardinalities_are_near_exact(self):
        values = np.arange(40, dtype=np.int64)
        sketch = DistinctPivotSketch(precision=12).add_array(values)
        assert 35 <= sketch.estimate() <= 45
        assert sketch.upper_bound() >= 40

    def test_merge_matches_union(self):
        rng = np.random.default_rng(1)
        a = rng.integers(0, 5_000, size=20_000, dtype=np.int64)
        b = rng.integers(2_500, 7_500, size=20_000, dtype=np.int64)
        merged = DistinctPivotSketch(12).add_array(a).merge(
            DistinctPivotSketch(12).add_array(b)
        )
        direct = DistinctPivotSketch(12).add_array(np.concatenate([a, b]))
        assert merged.estimate() == pytest.approx(direct.estimate())

    def test_one_shot_helper(self):
        values = np.arange(1000, dtype=np.int64)
        assert sketch_distinct_upper_bound(values) >= 1000
