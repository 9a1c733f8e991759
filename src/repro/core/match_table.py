"""Columnar match tables — the bridge between pattern and FD mining.

The paper's key algorithmic idea is to run pattern mining and dependency
mining *in a single process* (Section 5.1).  Once the matches of a pattern
``Q`` are known, checking a dependency ``X → l`` is relational work: treat
every match ``h(x̄)`` as a row, every pair ``(variable, attribute)`` as a
column, and evaluate literals column-wise.  :class:`MatchTable` materializes
exactly that relation, restricted to the *active attributes* ``Γ``
(Section 4.3), and supports

* literal evaluation over row-index subsets (``HSpawn``'s inner loop),
* distinct-pivot counting (the support ``|Q(G, Xl, z)|``), and
* candidate-literal generation (frequent constants per column, compatible
  column pairs for variable literals).
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from ..graph.graph import Graph
from ..graph.index import MISSING, GraphIndex
from ..gfd.literals import (
    ConstantLiteral,
    FalseLiteral,
    Literal,
    VariableLiteral,
    make_variable_literal,
)
from ..pattern.matcher import Match
from ..pattern.pattern import Pattern

__all__ = [
    "MatchTable",
    "MISSING",
    "merge_value_counts",
    "merge_agreement_counts",
    "constant_literals_from_counts",
    "variable_literals_from_counts",
]


class MatchTable:
    """The matches of one pattern as a columnar relation.

    Args:
        graph: the data graph (attribute source).
        pattern: the matched pattern.
        matches: the match tuples (graph node per variable) — or, with
            ``index``, optionally an ``(N, num_vars)`` int64 array.
        attributes: the active attributes ``Γ`` whose columns to materialize.
        truncated: set when ``matches`` is a capped subset — validity
            judgements must not be made from a truncated table.
        index: a frozen :class:`~repro.graph.index.GraphIndex` of ``graph``;
            when given, columns are gathered from the index's columnar
            attribute codes (one fancy-indexing per column) instead of the
            per-row ``get_attr`` loop, and raw-value columns materialize
            lazily by decoding.
    """

    def __init__(
        self,
        graph: Graph,
        pattern: Pattern,
        matches: Union[Sequence[Match], np.ndarray],
        attributes: Sequence[str],
        truncated: bool = False,
        index: Optional[GraphIndex] = None,
    ) -> None:
        self.graph = graph
        self.pattern = pattern
        self.index = index
        self.attributes = list(attributes)
        self.truncated = truncated
        # rows are kept sorted by pivot so distinct-pivot counting over a
        # mask is a run count instead of a sort (stable: preserves relative
        # order within a pivot).
        pivot_var = pattern.pivot
        # columns are kept twice: raw Python values (for counters and
        # candidate generation) and factorized integer codes (for literal
        # masks — a C-speed vector compare instead of a per-row loop).
        # Code 0 is reserved for MISSING; values share one code space (per
        # table without an index, graph-global with one) so variable
        # literals compare codes directly.
        self._columns: Dict[Tuple[int, str], List[Any]] = {}
        self._codes: Dict[Tuple[int, str], np.ndarray] = {}
        if index is not None:
            if isinstance(matches, np.ndarray):
                array = matches.reshape(-1, pattern.num_nodes)
            elif len(matches):
                array = np.asarray(matches, dtype=np.int64)
            else:
                array = np.empty((0, pattern.num_nodes), dtype=np.int64)
            order = np.argsort(array[:, pivot_var], kind="stable")
            array = np.ascontiguousarray(array[order])
            self._match_array: Optional[np.ndarray] = array
            self._matches: Optional[List[Match]] = None
            self._pivot_array = array[:, pivot_var]
            self._value_codes: Dict[Any, int] = index.code_of_value
            num_rows = array.shape[0]
            for variable in pattern.variables():
                nodes = array[:, variable]
                for attr in self.attributes:
                    column_codes = index.attr_code_array(attr)
                    self._codes[(variable, attr)] = (
                        column_codes[nodes]
                        if column_codes is not None
                        else np.zeros(num_rows, dtype=np.int64)
                    )
        else:
            self._matches = sorted(matches, key=lambda match: match[pivot_var])
            self._match_array = None
            self._pivot_array = np.asarray(
                [match[pivot_var] for match in self._matches], dtype=np.int64
            )
            self._value_codes = {}
            num_rows = len(self._matches)
            for variable in pattern.variables():
                for attr in self.attributes:
                    column = [
                        graph.get_attr(match[variable], attr, MISSING)
                        for match in self._matches
                    ]
                    self._columns[(variable, attr)] = column
                    self._codes[(variable, attr)] = self._encode(column)
        self._num_rows = num_rows
        self._pivots_list: Optional[List[int]] = None
        # lazily-computed row sets per literal: the lattice search reduces to
        # numpy boolean-mask operations instead of per-row Python loops.
        if num_rows > 1:
            boundary = np.empty(num_rows, dtype=bool)
            boundary[0] = True
            boundary[1:] = self._pivot_array[1:] != self._pivot_array[:-1]
            self._pivot_run_starts = np.flatnonzero(boundary)
        else:
            self._pivot_run_starts = np.zeros(
                1 if num_rows else 0, dtype=np.int64
            )
        self._full_mask = np.ones(num_rows, dtype=bool)
        self._literal_masks: Dict[Literal, np.ndarray] = {}
        self._literal_rows: Dict[Literal, frozenset] = {}
        self._literal_pivots: Dict[Literal, frozenset] = {}
        #: literal-mask cache audit: (hits, misses) over the table lifetime.
        self.mask_cache_hits = 0
        self.mask_cache_misses = 0

    @classmethod
    def from_index(
        cls,
        index: GraphIndex,
        pattern: Pattern,
        matches: Union[Sequence[Match], np.ndarray],
        attributes: Sequence[str],
        truncated: bool = False,
    ) -> "MatchTable":
        """Fast constructor: columns gathered from a frozen graph index."""
        return cls(
            index.graph, pattern, matches, attributes,
            truncated=truncated, index=index,
        )

    # ------------------------------------------------------------------
    @property
    def matches(self) -> List[Match]:
        """The pivot-sorted match tuples (materialized lazily on the index path)."""
        if self._matches is None:
            self._matches = [tuple(row) for row in self._match_array.tolist()]
        return self._matches

    @property
    def match_array(self) -> np.ndarray:
        """The pivot-sorted matches as an ``(N, num_vars)`` int64 array."""
        if self._match_array is None:
            if self._matches:
                self._match_array = np.asarray(self._matches, dtype=np.int64)
            else:
                self._match_array = np.empty(
                    (0, self.pattern.num_nodes), dtype=np.int64
                )
        return self._match_array

    @property
    def _pivots(self) -> List[int]:
        """The per-row pivot nodes as a plain list (lazy)."""
        if self._pivots_list is None:
            self._pivots_list = self._pivot_array.tolist()
        return self._pivots_list

    @property
    def num_rows(self) -> int:
        """Number of matches in the table."""
        return self._num_rows

    def all_rows(self) -> List[int]:
        """Every row index."""
        return list(range(self._num_rows))

    def column(self, variable: int, attr: str) -> List[Any]:
        """The value column for ``(variable, attr)`` (``MISSING`` sentinel)."""
        cached = self._columns.get((variable, attr))
        if cached is None:
            cached = self.index.decode_values(self._codes[(variable, attr)])
            self._columns[(variable, attr)] = cached
        return cached

    def pivot_of(self, row: int) -> int:
        """The pivot's graph node at ``row``."""
        return int(self._pivot_array[row])

    def distinct_pivots(self, rows: Iterable[int]) -> Set[int]:
        """``{h(z) | row ∈ rows}`` — the support set of a row subset."""
        pivots = self._pivots
        return {pivots[row] for row in rows}

    def support(self, rows: Iterable[int]) -> int:
        """Number of distinct pivots over ``rows``."""
        return len(self.distinct_pivots(rows))

    # ------------------------------------------------------------------
    # literal evaluation
    # ------------------------------------------------------------------
    def _encode(self, column: List[Any]) -> np.ndarray:
        """Factorize a value column into integer codes (0 = MISSING)."""
        codes = np.empty(len(column), dtype=np.int64)
        value_codes = self._value_codes
        for row, cell in enumerate(column):
            if cell is MISSING:
                codes[row] = 0
                continue
            code = value_codes.get(cell)
            if code is None:
                code = len(value_codes) + 1
                value_codes[cell] = code
            codes[row] = code
        return codes

    # -- numpy mask interface (the discovery hot loop) -----------------
    def full_mask(self) -> np.ndarray:
        """A boolean mask selecting every row (do not mutate)."""
        return self._full_mask

    def literal_mask(self, literal: Literal) -> np.ndarray:
        """Boolean row mask of ``literal`` (cached; do not mutate).

        Missing attributes never satisfy a literal (Section 2.2 semantics):
        code 0 (MISSING) never equals a value code, and two MISSING cells
        are explicitly excluded from variable-literal equality.
        """
        cached = self._literal_masks.get(literal)
        if cached is not None:
            self.mask_cache_hits += 1
            return cached
        self.mask_cache_misses += 1
        if isinstance(literal, ConstantLiteral):
            codes = self._codes[(literal.var, literal.attr)]
            wanted = self._value_codes.get(literal.value, -1)
            mask = codes == wanted
        else:
            assert isinstance(literal, VariableLiteral)
            codes1 = self._codes[(literal.var1, literal.attr1)]
            codes2 = self._codes[(literal.var2, literal.attr2)]
            mask = (codes1 == codes2) & (codes1 != 0)
        self._literal_masks[literal] = mask
        return mask

    def violation_mask(
        self,
        lhs: Iterable[Literal],
        rhs: Optional[Literal],
    ) -> np.ndarray:
        """Rows violating ``X → l``: ``h ⊨ X`` but ``h ⊭ l`` (Section 2.2).

        ``rhs`` is the single RHS literal of a normal-form GFD; ``None`` or
        a :class:`FalseLiteral` selects the negative semantics, where every
        row satisfying ``X`` is a violation.  Missing attributes follow the
        literal-mask rules: a missing LHS attribute satisfies the
        implication vacuously (the row drops out of the LHS mask), a
        missing RHS attribute fails the RHS.  The result may alias cached
        masks for degenerate literal sets — do not mutate.
        """
        mask: Optional[np.ndarray] = None
        for literal in lhs:
            current = self.literal_mask(literal)
            mask = current if mask is None else mask & current
        if rhs is None or isinstance(rhs, FalseLiteral):
            return mask if mask is not None else self._full_mask
        rhs_mask = self.literal_mask(rhs)
        return ~rhs_mask if mask is None else mask & ~rhs_mask

    def literal_count(self, literal: Literal) -> int:
        """Number of rows satisfying ``literal``."""
        return int(np.count_nonzero(self.literal_mask(literal)))

    @staticmethod
    def mask_count(mask: np.ndarray) -> int:
        """Number of selected rows."""
        return int(np.count_nonzero(mask))

    def mask_support(self, mask: np.ndarray) -> int:
        """Distinct pivots over the selected rows (``|Q(G, ·, z)|``).

        Rows are pivot-sorted, so the distinct count is the number of value
        runs in the selection — no sort needed.
        """
        codes = self._pivot_array[mask]
        if codes.size == 0:
            return 0
        return int(np.count_nonzero(codes[1:] != codes[:-1])) + 1

    def stack_supports(self, stack: np.ndarray) -> np.ndarray:
        """Distinct-pivot counts per row of a 2-D boolean mask stack.

        Vectorized over the whole stack: rows are pivot-sorted, so a pivot
        contributes when any of its run's positions is selected —
        ``reduceat`` over the precomputed run starts.
        """
        if stack.shape[1] == 0 or self._pivot_run_starts.size == 0:
            return np.zeros(stack.shape[0], dtype=np.int64)
        group_any = np.add.reduceat(stack, self._pivot_run_starts, axis=1) > 0
        return group_any.sum(axis=1)

    def mask_pivot_set(self, mask: np.ndarray) -> frozenset:
        """The distinct pivot node ids over the selected rows."""
        if not mask.any():
            return frozenset()
        return frozenset(np.unique(self._pivot_array[mask]).tolist())

    def literal_rows(self, literal: Literal) -> frozenset:
        """All rows satisfying ``literal`` (cached)."""
        cached = self._literal_rows.get(literal)
        if cached is None:
            cached = frozenset(np.flatnonzero(self.literal_mask(literal)).tolist())
            self._literal_rows[literal] = cached
        return cached

    def literal_pivots(self, literal: Literal) -> frozenset:
        """Distinct pivots over :meth:`literal_rows` (cached).

        ``|literal_pivots(l)|`` bounds the support of every GFD whose LHS or
        RHS contains ``l`` at this pattern — the alphabet prefilter of the
        discovery algorithms.
        """
        cached = self._literal_pivots.get(literal)
        if cached is None:
            pivots = self._pivots
            cached = frozenset(pivots[row] for row in self.literal_rows(literal))
            self._literal_pivots[literal] = cached
        return cached

    def rows_satisfying(self, literal: Literal, rows: Iterable[int]) -> Set[int]:
        """Filter ``rows`` down to those whose match satisfies ``literal``."""
        if not isinstance(rows, (set, frozenset)):
            rows = set(rows)
        return rows & self.literal_rows(literal)

    def rows_satisfying_all(
        self, literals: Iterable[Literal], rows: Optional[Iterable[int]] = None
    ) -> Set[int]:
        """Rows satisfying every literal of ``literals``."""
        current: Set[int] = set(rows) if rows is not None else set(self.all_rows())
        for literal in literals:
            current = self.rows_satisfying(literal, current)
            if not current:
                break
        return current

    # ------------------------------------------------------------------
    # candidate literals (HSpawn's alphabet)
    # ------------------------------------------------------------------
    def constant_value_counts(self) -> Dict[Tuple[int, str], Counter]:
        """Per-column value frequencies (mergeable across match shards).

        Computed by a ``np.unique`` group-by over the code column and a
        decode of the (few) distinct codes — never a per-row Python loop.
        """
        counts: Dict[Tuple[int, str], Counter] = {}
        decode = (
            self.index.value_of_code if self.index is not None else None
        )
        if decode is None:
            # per-table code space: invert the interning dict once
            decode = [MISSING] * (len(self._value_codes) + 1)
            for value, code in self._value_codes.items():
                decode[code] = value
        for key, codes in self._codes.items():
            counter: Counter = Counter()
            if codes.size:
                present = codes[codes != 0]
                if present.size:
                    values, tallies = np.unique(present, return_counts=True)
                    for code, tally in zip(values.tolist(), tallies.tolist()):
                        counter[decode[code]] = tally
            counts[key] = counter
        return counts

    def variable_agreement_counts(
        self, same_attr_only: bool = True
    ) -> Dict[Tuple[int, str, int, str], int]:
        """Per column pair: rows on which both columns agree (mergeable).

        Agreement is a vectorized code compare: codes share one space per
        table (or graph-globally with an index), so value equality is code
        equality, and code 0 (MISSING) never agrees.
        """
        counts: Dict[Tuple[int, str, int, str], int] = {}
        keys = sorted(self._codes)
        for index, (var1, attr1) in enumerate(keys):
            for var2, attr2 in keys[index + 1:]:
                if var1 == var2:
                    continue
                if same_attr_only and attr1 != attr2:
                    continue
                codes1 = self._codes[(var1, attr1)]
                codes2 = self._codes[(var2, attr2)]
                agreeing = int(
                    np.count_nonzero((codes1 == codes2) & (codes1 != 0))
                )
                counts[(var1, attr1, var2, attr2)] = agreeing
        return counts

    def candidate_constant_literals(
        self, max_constants: int, min_rows: int = 1
    ) -> List[ConstantLiteral]:
        """Frequent constant literals per column.

        For each ``(variable, attr)`` column, the ``max_constants`` most
        frequent present values occurring in at least ``min_rows`` rows —
        the paper's "5 most frequent values" protocol (Section 7).
        """
        return constant_literals_from_counts(
            self.constant_value_counts(), max_constants, min_rows
        )

    def candidate_variable_literals(
        self, same_attr_only: bool = True, min_rows: int = 1
    ) -> List[VariableLiteral]:
        """Variable literals ``x.A = y.B`` over distinct variables.

        Only pairs agreeing on at least ``min_rows`` rows are candidates;
        ``same_attr_only`` restricts to ``A = B`` (the common case in the
        paper's examples, e.g. ``y.name = z.name``).
        """
        return variable_literals_from_counts(
            self.variable_agreement_counts(same_attr_only), min_rows
        )


def merge_value_counts(
    parts: Iterable[Dict[Tuple[int, str], Counter]],
) -> Dict[Tuple[int, str], Counter]:
    """Combine per-shard column value counts (``ParDis`` master aggregation)."""
    merged: Dict[Tuple[int, str], Counter] = {}
    for part in parts:
        for key, counter in part.items():
            if key in merged:
                merged[key].update(counter)
            else:
                merged[key] = Counter(counter)
    return merged


def merge_agreement_counts(
    parts: Iterable[Dict[Tuple[int, str, int, str], int]],
) -> Dict[Tuple[int, str, int, str], int]:
    """Combine per-shard column-pair agreement counts."""
    merged: Dict[Tuple[int, str, int, str], int] = {}
    for part in parts:
        for key, count in part.items():
            merged[key] = merged.get(key, 0) + count
    return merged


def constant_literals_from_counts(
    counts: Dict[Tuple[int, str], Counter], max_constants: int, min_rows: int
) -> List[ConstantLiteral]:
    """Build the constant-literal alphabet from (merged) value counts.

    Ranking is deterministic: by descending count, then value text — the
    sequential and distributed paths therefore produce identical alphabets.
    """
    import heapq

    literals: List[ConstantLiteral] = []
    for (variable, attr) in sorted(counts):
        counter = counts[(variable, attr)]
        if len(counter) > max_constants:
            # narrow to values at or above the k-th largest count before
            # paying the str() tie-break key on every value
            threshold = heapq.nlargest(max_constants, counter.values())[-1]
            pool = [kv for kv in counter.items() if kv[1] >= threshold]
        else:
            pool = list(counter.items())
        ranked = sorted(pool, key=lambda kv: (-kv[1], str(kv[0])))
        for value, count in ranked[:max_constants]:
            if count >= min_rows:
                literals.append(ConstantLiteral(variable, attr, value))
    return literals


def variable_literals_from_counts(
    counts: Dict[Tuple[int, str, int, str], int], min_rows: int
) -> List[VariableLiteral]:
    """Build the variable-literal alphabet from (merged) agreement counts."""
    literals: List[VariableLiteral] = []
    for (var1, attr1, var2, attr2) in sorted(counts):
        if counts[(var1, attr1, var2, attr2)] >= min_rows:
            literals.append(make_variable_literal(var1, attr1, var2, attr2))
    return literals
