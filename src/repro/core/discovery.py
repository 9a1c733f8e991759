"""``SeqDis`` — sequential GFD discovery (Section 5.1).

The algorithm interleaves two levelwise processes over a generation tree:

* **vertical spawning** (``VSpawn``): extend frequent patterns by one edge,
  verify the new patterns by incremental matching, and merge isomorphic
  spawns;
* **horizontal spawning** (``HSpawn``): over each verified pattern's match
  table, grow LHS literal sets levelwise per RHS literal, emitting GFDs that
  are valid, σ-frequent, nontrivial and reduced.

Negative GFDs are discovered *simultaneously* (``NVSpawn`` finds zero-match
extensions of frequent patterns; ``NHSpawn`` finds literal extensions of
valid positives that no match satisfies), per Section 5.1.

Pruning follows Lemma 4: (a) trivial GFDs are never emitted, (b) once
``G ⊨ Q(X → l)``, supersets of ``X`` are not generated for ``(Q, l)``, and
(c) patterns below the support threshold are not extended.  ``ParGFDn``
(the paper's no-pruning baseline) disables these via ``config.prune``.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from ..graph.graph import Graph
from ..graph.index import GraphIndex
from ..graph.statistics import GraphStatistics, compute_statistics
from ..gfd.closure import LiteralClosure
from ..gfd.gfd import GFD
from ..gfd.literals import FALSE, Literal
from ..pattern.incremental import Extension, apply_extension, extend_matches
from ..pattern.pattern import Pattern
from .config import CandidateBudgetExceeded, DiscoveryConfig
from .generation_tree import GenerationTree, TreeNode
from .match_table import MatchTable
from .reduction import gfd_identity, minimal_cover_by_reduction
from .results import DiscoveryResult, MiningStats
from .spawning import (
    extension_statistics,
    extensions_from_statistics,
    speculative_closing_extensions,
    wildcard_extensions_from_statistics,
)

__all__ = ["SequentialDiscovery", "discover"]


class SequentialDiscovery:
    """One discovery run of ``SeqDis`` over a graph.

    Usage::

        result = SequentialDiscovery(graph, DiscoveryConfig(k=3, sigma=50)).run()

    ``stats`` and ``index`` accept precomputed :class:`GraphStatistics` /
    :class:`GraphIndex` snapshots so repeated runs (parallel workers,
    baseline sweeps, benchmark series) don't rescan the graph per run; by
    default both come from the graph's cached frozen index (``config.
    use_index``), or a fresh statistics scan with the index disabled.
    """

    def __init__(
        self,
        graph: Graph,
        config: DiscoveryConfig,
        stats: Optional[GraphStatistics] = None,
        index: Optional[GraphIndex] = None,
    ) -> None:
        self.graph = graph
        self.config = config
        if index is not None:
            self.index: Optional[GraphIndex] = index
        elif config.use_index:
            self.index = graph.index()
        else:
            self.index = None
        if stats is not None:
            self.graph_stats = stats
        elif self.index is not None:
            self.graph_stats = self.index.statistics()
        else:
            self.graph_stats = compute_statistics(graph)
        if config.active_attributes is not None:
            self.gamma = list(config.active_attributes)
        else:
            self.gamma = self.graph_stats.top_attributes(config.max_active_attributes)
        self.stats = MiningStats()
        self._found: Dict[Tuple, Tuple[GFD, int]] = {}
        #: How many ``_found`` entries :meth:`_drain_found` has handed out.
        self._drained = 0

    # ------------------------------------------------------------------
    # engine lifecycle hooks (the parallel engine overrides these; the
    # sequential reference engine needs no external resources)
    # ------------------------------------------------------------------
    def _start_backend(self) -> None:
        """Acquire execution resources before the first level runs."""

    def _finish_backend(self) -> None:
        """Release (or hand back) execution resources after the last level."""

    def _master(self):
        """Context manager metering master-side post-processing."""
        return nullcontext()

    def _seed_level(self, tree: GenerationTree) -> None:
        """Spawn the level-0 single-node patterns."""
        self._seed_single_nodes(tree)

    def _extend_level(self, tree: GenerationTree, level: int) -> List[TreeNode]:
        """``VSpawn(level)``: one-edge extensions of the previous level."""
        return self._vspawn(tree, level)

    def _mine_nodes(self, nodes: Sequence[TreeNode]) -> None:
        """``HSpawn`` over one level's verified patterns.

        The sequential engine mines them one by one; the parallel engine
        overrides this to validate all of a level's patterns in fused
        supersteps — emissions land in ``_found`` in the same per-node
        order either way.
        """
        for node in nodes:
            self._hspawn(node)

    # ------------------------------------------------------------------
    def _drain_found(self) -> List[Tuple[GFD, int]]:
        """The ``(gfd, support)`` pairs emitted since the previous drain.

        ``_found`` is insertion-ordered by GFD identity; a re-emission that
        only raises a support does not re-append, so drained batches are
        exactly the *newly discovered* rules.
        """
        items = list(self._found.values())
        fresh = items[self._drained:]
        self._drained = len(items)
        return fresh

    def _levels(
        self, tree: GenerationTree
    ) -> Iterator[Tuple[int, List[Tuple[GFD, int]]]]:
        """Drive the levelwise search, yielding per-level emission batches.

        The shared core of :meth:`run` and :meth:`run_iter`: seed, mine
        level 0, then alternate ``VSpawn``/``HSpawn`` up to the edge
        budget, yielding ``(level, [(gfd, support), ...])`` after each
        completed level.  Backend lifecycle is the caller's concern.
        """
        self._seed_level(tree)
        self._mine_nodes(list(tree.level(0)))
        yield 0, self._drain_found()
        for level in range(1, self.config.edge_budget + 1):
            new_nodes = self._extend_level(tree, level)
            if not new_nodes:
                return
            self._mine_nodes(new_nodes)
            yield level, self._drain_found()

    def run(self) -> DiscoveryResult:
        """Execute discovery and return the minimum frequent GFDs."""
        started = time.perf_counter()
        self._drained = 0
        self._start_backend()
        tree = GenerationTree()
        try:
            for _level, _fresh in self._levels(tree):
                pass
            gfds = [gfd for gfd, _ in self._found.values()]
            supports = {gfd: supp for gfd, supp in self._found.values()}
            with self._master():
                if self.config.minimality_filter:
                    gfds = minimal_cover_by_reduction(gfds)
                    supports = {gfd: supports[gfd] for gfd in gfds}
        finally:
            self._finish_backend()
        self.stats.positives_found = sum(1 for gfd in gfds if gfd.is_positive)
        self.stats.negatives_found = sum(1 for gfd in gfds if gfd.is_negative)
        self.stats.elapsed_seconds = time.perf_counter() - started
        return DiscoveryResult(
            gfds=gfds, supports=supports, stats=self.stats, tree=tree
        )

    def run_iter(self) -> Iterator[Tuple[int, List[Tuple[GFD, int]]]]:
        """Stream discovery: yield ``(level, [(gfd, support), ...])`` batches.

        Rules arrive as their generation-tree level completes, so a
        consumer can act on (or stop after) early rules without waiting for
        the full run — the engine behind ``Session.discover_iter`` and its
        early-stop budgets.  Closing the iterator early releases the
        engine's execution resources (the ``finally`` below runs on
        ``GeneratorExit``).

        Two deliberate differences from :meth:`run`: the final pairwise
        ``≪``-minimality filter is *not* applied (it is a global pass over
        the completed set — ``Session.discover`` still applies it), and a
        support that is later raised for an already-yielded rule is not
        re-reported.
        """
        self._drained = 0
        self._start_backend()
        tree = GenerationTree()
        try:
            yield from self._levels(tree)
        finally:
            self._finish_backend()

    # ------------------------------------------------------------------
    # vertical spawning
    # ------------------------------------------------------------------
    def _seed_single_nodes(self, tree: GenerationTree) -> None:
        """Cold start: one single-node pattern per frequent node label."""
        for label in sorted(self.graph_stats.node_label_counts):
            count = self.graph_stats.node_label_counts[label]
            if count < self.config.sigma:
                continue
            pattern = Pattern([label])
            node, created = tree.add(pattern, level=0)
            if not created:
                continue
            if self.index is not None:
                matches = self.index.nodes_with_label(label)[:, None]
            else:
                matches = [(v,) for v in self.graph.nodes_with_label(label)]
            node.table = MatchTable(
                self.graph, pattern, matches, self.gamma, index=self.index
            )
            node.support = count
            self.stats.patterns_spawned += 1
            self.stats.patterns_frequent += 1

    def _vspawn(self, tree: GenerationTree, level: int) -> List[TreeNode]:
        """``VSpawn(level)``: extend every frequent level-1 pattern by one edge."""
        matching_started = time.perf_counter()
        created_nodes: List[TreeNode] = []
        parents = list(tree.level(level - 1))
        for parent in parents:
            if parent.table is None:
                continue
            if parent.table.truncated:
                continue  # a capped sample certifies nothing downstream
            if self.config.prune and parent.support < self.config.sigma:
                continue  # Lemma 4(c): no frequent GFD below this pattern
            if parent.support == 0:
                continue  # zero-support (negative) patterns are leaves
            for extension in self._generate_extensions(parent):
                pattern = apply_extension(parent.pattern, extension)
                if pattern.num_nodes > self.config.k:
                    continue
                node, created = tree.add(pattern, level, parent)
                if not created:
                    continue
                self.stats.patterns_spawned += 1
                self._verify_pattern(parent, node, extension)
                created_nodes.append(node)
                if (
                    self.config.max_patterns_per_level is not None
                    and len(created_nodes) >= self.config.max_patterns_per_level
                ):
                    self.stats.matching_seconds += (
                        time.perf_counter() - matching_started
                    )
                    return created_nodes
        self.stats.matching_seconds += time.perf_counter() - matching_started
        return created_nodes

    def _generate_extensions(self, parent: TreeNode) -> List[Extension]:
        """All one-edge extensions to try from ``parent`` (overridable hook).

        Baselines restrict this (e.g. GCFD mining keeps only path-shaped
        growth); the parallel algorithm replaces it with distributed
        tallying.
        """
        tallies = extension_statistics(
            self.graph,
            parent.pattern,
            parent.table.match_array
            if self.index is not None
            else parent.table.matches,
            can_add_node=parent.pattern.num_nodes < self.config.k,
            index=self.index,
        )
        extensions = extensions_from_statistics(parent.pattern, tallies, self.config)
        extensions += wildcard_extensions_from_statistics(
            parent.pattern, tallies, self.config
        )
        if self.config.mine_negative and self.config.speculative_closing_edges:
            extensions += speculative_closing_extensions(
                self.graph_stats, parent, self.config
            )
        return extensions

    def _verify_pattern(
        self, parent: TreeNode, node: TreeNode, extension: Extension
    ) -> None:
        """Incremental matching ``Q'(G) = Q(G) ⋈ e`` plus ``NVSpawn``."""
        cap = self.config.max_matches_per_pattern
        matches = extend_matches(
            self.graph,
            parent.table.match_array
            if self.index is not None
            else parent.table.matches,
            extension,
            max_matches=cap,
            index=self.index,
            as_array=self.index is not None,
        )
        truncated = cap is not None and len(matches) >= cap
        node.table = MatchTable(
            self.graph,
            node.pattern,
            matches,
            self.gamma,
            truncated=truncated,
            index=self.index,
        )
        if truncated:
            self.stats.truncated_patterns += 1
        node.support = node.table.support(node.table.all_rows())
        if node.support >= self.config.sigma:
            self.stats.patterns_frequent += 1
        if node.support == 0:
            self.stats.patterns_zero_support += 1
            if self.config.mine_negative and parent.support >= self.config.sigma:
                # NVSpawn: a frequent base pattern with a zero-match
                # extension — the "illegal structure" negative GFD.
                negative = GFD(node.pattern, frozenset(), FALSE)
                self._emit(negative, parent.support)

    # ------------------------------------------------------------------
    # horizontal spawning
    # ------------------------------------------------------------------
    def _literal_alphabet(self, table: MatchTable) -> List[Literal]:
        """The candidate literals of a pattern's match table."""
        literals: List[Literal] = list(
            table.candidate_constant_literals(
                self.config.max_constants, self.config.min_literal_rows
            )
        )
        if self.config.variable_literals and table.pattern.num_nodes > 1:
            literals.extend(
                table.candidate_variable_literals(
                    self.config.variable_literals_same_attr_only,
                    self.config.min_literal_rows,
                )
            )
        return literals

    def _hspawn(self, node: TreeNode) -> None:
        """``HSpawn``: mine dependencies ``X → l`` over one pattern's table."""
        validation_started = time.perf_counter()
        table = node.table
        if table is None or table.truncated:
            return
        if node.support < self.config.sigma and self.config.prune:
            return
        literals = self._literal_alphabet(table)
        if not literals:
            return
        if self.config.prune:
            # alphabet prefilter: a literal below σ pivot-support can appear
            # in no frequent GFD at this pattern (anti-monotonicity), so the
            # lattice never needs to see it.  NHSpawn keeps the full
            # alphabet — a negative's support comes from its base.
            lattice_literals = [
                literal
                for literal in literals
                if self._literal_support_reaches_sigma(table, literal)
            ]
        else:
            lattice_literals = literals
        all_rows = table.full_mask()
        for rhs in lattice_literals:
            self._mine_rhs(node, table, lattice_literals, rhs, all_rows, literals)
        self.stats.validation_seconds += time.perf_counter() - validation_started

    def _literal_support_reaches_sigma(self, table: MatchTable, literal) -> bool:
        """Whether a literal's distinct-pivot support reaches ``σ``."""
        mask = table.literal_mask(literal)
        return table.mask_support(mask) >= self.config.sigma

    def _mine_rhs(
        self,
        node: TreeNode,
        table: MatchTable,
        literals: List[Literal],
        rhs: Literal,
        all_rows,
        nh_literals: Optional[List[Literal]] = None,
    ) -> None:
        """Levelwise LHS lattice search for one RHS literal.

        Row subsets travel as numpy boolean masks; literal evaluation is a
        mask AND, validity a count comparison, support a distinct-pivot
        count over the masked pivot column.
        """
        empty: FrozenSet[Literal] = frozenset()
        nh_literals = nh_literals if nh_literals is not None else literals
        total_rows = table.num_rows
        rhs_mask = table.literal_mask(rhs)
        count_rhs = table.mask_count(rhs_mask)
        support_rhs = table.mask_support(rhs_mask)
        if self.config.prune and support_rhs < self.config.sigma:
            return  # supp(X ∧ l) ≤ supp(l): nothing below can be frequent
        self._charge_candidate()
        if (empty, rhs) in node.covered:
            return  # valid at an ancestor pattern: not pattern-reduced here
        if count_rhs == total_rows and total_rows:
            node.valid_pairs.add((empty, rhs))
            if support_rhs >= self.config.sigma:
                gfd = GFD(node.pattern, empty, rhs)
                self._emit(gfd, support_rhs)
                self._nhspawn(
                    node, table, nh_literals, empty, rhs, all_rows, support_rhs
                )
            return  # Lemma 4(b): supersets of a valid LHS are not reduced
        # indexable alphabet for rymon-tree (prefix-ordered) enumeration
        indexed = [
            (index, literal)
            for index, literal in enumerate(literals)
            if literal != rhs
        ]
        valid_sets: List[FrozenSet[Literal]] = []
        frontier = [(empty, -1, all_rows)]
        for _ in range(self.config.max_lhs_size):
            next_frontier = []
            for lhs, max_index, rows in frontier:
                for index, literal in indexed:
                    if index <= max_index:
                        continue
                    extended = lhs | {literal}
                    if any(valid <= extended for valid in valid_sets):
                        continue  # a subset already valid: not left-reduced
                    if self._is_trivial(extended, rhs):
                        continue
                    self._charge_candidate()
                    rows_lhs = rows & table.literal_mask(literal)
                    rows_both = rows_lhs & rhs_mask
                    count_lhs = table.mask_count(rows_lhs)
                    count_both = table.mask_count(rows_both)
                    if self.config.prune and count_both < self.config.sigma:
                        continue  # supp ≤ |rows|: cannot be frequent below
                    supp = table.mask_support(rows_both)
                    if self.config.prune and supp < self.config.sigma:
                        continue  # anti-monotone: no extension recovers support
                    if count_lhs and count_both == count_lhs:
                        valid_sets.append(extended)
                        node.valid_pairs.add((extended, rhs))
                        if (extended, rhs) in node.covered:
                            continue
                        if supp >= self.config.sigma:
                            gfd = GFD(node.pattern, extended, rhs)
                            self._emit(gfd, supp)
                            self._nhspawn(
                                node, table, nh_literals, extended, rhs,
                                rows_lhs, supp,
                            )
                        continue  # Lemma 4(b)
                    next_frontier.append((extended, index, rows_lhs))
            frontier = next_frontier
            if not frontier:
                break

    def _nhspawn(
        self,
        node: TreeNode,
        table: MatchTable,
        literals: List[Literal],
        lhs: FrozenSet[Literal],
        rhs: Literal,
        rows_lhs,
        base_support: int,
    ) -> None:
        """``NHSpawn``: negative GFDs by one-literal extension of a valid base.

        The base ``Q(X → l)`` is valid and frequent; for each extra literal
        ``l''`` with no match satisfying ``X ∪ {l''}``, emit
        ``Q(X ∪ {l''} → false)`` with the base's support (Section 4.2).
        """
        if not self.config.mine_negative:
            return
        threshold = self.config.negative_literal_min_rows
        if threshold is None:
            threshold = self.config.sigma
        emitted = 0
        for literal in literals:
            if literal == rhs or literal in lhs:
                continue
            extended = lhs | {literal}
            if self._lhs_unsatisfiable(extended):
                continue  # trivial negative
            if bool((rows_lhs & table.literal_mask(literal)).any()):
                continue  # some match satisfies X ∪ {l''}: not a negative
            if table.literal_count(literal) < threshold:
                continue  # l'' itself is rare: the negative is uninteresting
            negative = GFD(node.pattern, extended, FALSE)
            self._emit(negative, base_support)
            emitted += 1
            if emitted >= self.config.max_negatives_per_pattern:
                break

    # ------------------------------------------------------------------
    def _charge_candidate(self) -> None:
        """Count one candidate check; abort when over the configured budget."""
        self.stats.candidates_checked += 1
        budget = self.config.max_candidates
        if budget is not None and self.stats.candidates_checked > budget:
            raise CandidateBudgetExceeded(
                self.stats.candidates_checked, self.stats.patterns_spawned
            )

    @staticmethod
    def _lhs_unsatisfiable(lhs: FrozenSet[Literal]) -> bool:
        closure = LiteralClosure()
        for literal in lhs:
            closure.add(literal)
        return closure.conflicting

    @staticmethod
    def _is_trivial(lhs: FrozenSet[Literal], rhs: Literal) -> bool:
        """Trivial-GFD test (Section 4.1) with a closure-free fast path.

        Conflicts require two constant literals on one term; derivations of
        ``rhs`` beyond direct membership require a variable-literal chain —
        absent variable literals, direct checks suffice.
        """
        from ..gfd.literals import ConstantLiteral as _Const

        constants: Dict[Tuple[int, str], object] = {}
        has_variable_literal = False
        for literal in lhs:
            if isinstance(literal, _Const):
                term = (literal.var, literal.attr)
                previous = constants.get(term)
                if previous is not None and previous != literal.value:
                    return True  # X is unsatisfiable
                constants[term] = literal.value
            else:
                has_variable_literal = True
        from ..gfd.literals import VariableLiteral as _Var

        if isinstance(rhs, _Const):
            if constants.get((rhs.var, rhs.attr)) == rhs.value:
                return True  # l follows from X directly
        elif isinstance(rhs, _Var):
            left = constants.get((rhs.var1, rhs.attr1))
            right = constants.get((rhs.var2, rhs.attr2))
            if left is not None and left == right:
                return True  # x.A = c ∧ y.B = c entails x.A = y.B
        if not has_variable_literal:
            return rhs in lhs
        closure = LiteralClosure()
        for literal in lhs:
            closure.add(literal)
        if closure.conflicting:
            return True
        return closure.entails(rhs)

    def _emit(self, gfd: GFD, support: int) -> None:
        key = gfd_identity(gfd)
        existing = self._found.get(key)
        if existing is None or existing[1] < support:
            self._found[key] = (gfd, support)


def discover(
    graph: Graph,
    config: Optional[DiscoveryConfig] = None,
    stats: Optional[GraphStatistics] = None,
    index: Optional[GraphIndex] = None,
) -> DiscoveryResult:
    """Discover minimum σ-frequent GFDs in ``graph`` (the ``SeqDis`` entry point)."""
    return SequentialDiscovery(
        graph, config or DiscoveryConfig(), stats=stats, index=index
    ).run()
