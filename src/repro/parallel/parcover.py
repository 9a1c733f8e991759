"""``ParCover`` — parallel cover computation (Section 6.3, Figure 4).

``Σ`` is partitioned into *groups* of GFDs with isomorphic patterns.  By the
independence property (Lemma 6), whether ``Σ \\ {φ} ⊨ φ`` only depends on
``Σ̄_Q`` — the GFDs whose patterns are *embedded* in ``φ``'s pattern — so
each group can be checked in isolation against its embedded set, in parallel
across groups.  Work units (group, embedded set) are distributed over the
workers with the LPT factor-2 balancing the paper cites ([4]).

Grouping is by pattern isomorphism *ignoring pivots*: implication is
pivot-blind, so two GFDs equal up to re-pivoting imply each other and must
be resolved greedily inside one unit (keeping one), never independently
(dropping both).

``ParCovern`` — the paper's no-grouping baseline — checks every GFD against
the full remainder, which re-enumerates embeddings of all of ``Σ`` for every
test; the grouping speedup of Exp-4 comes precisely from skipping that.

Execution runs on the same :class:`~repro.parallel.backend.ShardWorker` op
layer as ``ParDis`` and enforcement: the master broadcasts ``Σ`` once
(``op_sigma``), ships work units as index lists, and receives removed
indices / implication verdicts — scalars.  ``backend`` selects ``"serial"``
(inline under the simulated cluster, the historical semantics and default)
or ``"multiprocess"`` (real per-worker processes; graph-free workers, since
implication needs no graph), or accepts a pre-started
:class:`~repro.parallel.backend.ExecutionBackend` — e.g. the pool a
discovery run just used — so the cover phase shards over the same worker
pools as discovery.  Covers are identical across backends and worker counts
by construction (unit checks are deterministic and independent); the
differential harness asserts it.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple, Union

from ..core.cover import CoverResult, _scan_order
from ..gfd.gfd import GFD
from ..gfd.implication import ImplicationChecker, greedy_group_elimination
from ..pattern.canonical import canonical_key
from ..pattern.embedding import is_embedded
from ..pattern.pattern import Pattern
from .backend import (
    BACKEND_NAMES,
    ExecutionBackend,
    make_backend,
    next_node_key,
)
from .balancer import assign_units_lpt
from .cluster import SimulatedCluster
from .costs import ChaseCostModel

__all__ = ["parallel_cover", "parallel_cover_ungrouped"]


def _pattern_group_key(pattern: Pattern) -> Tuple:
    """Isomorphism key ignoring the pivot (min over pivot placements)."""
    return min(
        canonical_key(pattern.with_pivot(variable))
        for variable in pattern.variables()
    )


def _group_sigma(sigma: Sequence[GFD]) -> Dict[Tuple, List[int]]:
    """Partition GFD indices by pattern-isomorphism class."""
    groups: Dict[Tuple, List[int]] = {}
    for index, gfd in enumerate(sigma):
        groups.setdefault(_pattern_group_key(gfd.pattern), []).append(index)
    return groups


def _embedded_indices(
    sigma: Sequence[GFD], representative: Pattern, group: List[int]
) -> List[int]:
    """Indices of GFDs whose pattern embeds into ``representative``.

    This is ``Σ̄_Q`` of Lemma 6 — the only GFDs that can participate in a
    derivation over ``representative``'s pattern.
    """
    embedded: List[int] = []
    group_set = set(group)
    for index, gfd in enumerate(sigma):
        if index in group_set:
            embedded.append(index)
            continue
        if is_embedded(gfd.pattern, representative, pivot_preserving=False):
            embedded.append(index)
    return embedded


def _check_group(
    sigma: Sequence[GFD], group: List[int], embedded: List[int]
) -> List[int]:
    """``ParImp`` on one unit (kept as the serial reference entry point)."""
    return greedy_group_elimination(sigma, group, embedded)


class _CoverSession:
    """Backend + cluster lifecycle shared by both cover variants.

    Owns the backend when given a name (or ``None`` — the historical
    serial default) and shuts it down on exit; a supplied
    :class:`ExecutionBackend` instance is borrowed (the caller keeps
    ownership — e.g. the pools of a finished discovery run), and only this
    session's ``Σ`` slot is dropped.
    """

    def __init__(
        self,
        num_workers: int,
        cluster: Optional[SimulatedCluster],
        backend: Union[None, str, ExecutionBackend],
        fault: Any = "auto",
    ) -> None:
        if isinstance(backend, ExecutionBackend):
            num_workers = backend.num_workers
        self.cluster = cluster or SimulatedCluster(num_workers)
        if isinstance(backend, ExecutionBackend):
            self.backend = backend
            self.owns = False
        else:
            name = backend or "serial"
            if name not in BACKEND_NAMES:
                raise ValueError(
                    f"unknown parallel backend {name!r} "
                    f"(expected one of {BACKEND_NAMES})"
                )
            # graph-free cover workers are supervised like any others —
            # the install log then holds just the Σ broadcast
            self.backend = make_backend(
                name, num_workers, None, None, [], fault=fault,
                tracer=self.cluster.tracer,
            )
            self.owns = True
        self.key = next_node_key()

    @property
    def num_workers(self) -> int:
        return self.cluster.num_workers

    def run_with_sigma(self, sigma: Sequence[GFD], requests: List) -> List:
        """Ship ``Σ`` and run the cover work units in one superstep.

        The Σ broadcast (the only bulk transfer) rides the same superstep
        — and, per worker, the same fused submission — as the work ops.
        Op order per worker is preserved: Σ lands before the unit batch.
        """
        sigma_requests = [
            (worker, "sigma", self.key, {"sigma": list(sigma)})
            for worker in range(self.num_workers)
        ]
        with self.cluster.superstep() as step:
            step.broadcast(len(sigma))
            results = self.backend.run_superstep(
                step, sigma_requests + requests
            )
        return results[len(sigma_requests):]

    def __enter__(self) -> "_CoverSession":
        return self

    def __exit__(self, *exc_info) -> None:
        try:
            self.backend.run_unmetered(
                [
                    (worker, "drop_sigma", self.key, {})
                    for worker in range(self.num_workers)
                ],
                wait=False,
            )
        finally:
            if self.owns:
                self.backend.shutdown()


def parallel_cover(
    sigma: Sequence[GFD],
    num_workers: int = 4,
    cluster: Optional[SimulatedCluster] = None,
    backend: Union[None, str, ExecutionBackend] = None,
    cost_model: Optional[ChaseCostModel] = None,
    fault: Any = "auto",
) -> Tuple[CoverResult, SimulatedCluster]:
    """Compute a cover of ``Σ`` with grouping + LPT balancing (``ParCover``).

    Args:
        sigma: the rule set to reduce.
        num_workers: the worker count ``n`` (ignored when ``backend`` is a
            pre-started instance, which knows its own).
        cluster: optionally supply a pre-built metered cluster.
        backend: a backend name (``"serial"`` — the default — or
            ``"multiprocess"``), or a pre-started
            :class:`~repro.parallel.backend.ExecutionBackend` to reuse
            (the caller keeps ownership).
        cost_model: a :class:`~repro.parallel.costs.ChaseCostModel` whose
            measured per-unit chase costs replace the static
            ``|group| × |embedded|`` LPT weights; the workers' timings for
            this run are fed back into it afterwards.  ``None`` keeps the
            paper's static weights.  Weights only shift *which worker* runs
            a unit — the cover itself is weight-independent.
        fault: supervision policy for an *owned* multiprocess backend (a
            :class:`~repro.core.config.FaultConfig`, ``None`` to disable,
            or the default ``"auto"`` = follow ``REPRO_FAULT_PLAN``); a
            borrowed backend keeps whatever policy it was built with.

    Returns ``(cover result, metered cluster)``; the cover is identical
    across backends, worker counts and weight models.  A call without a
    pre-started ``backend`` starts and stops its own worker pools;
    :meth:`repro.session.Session.cover` shares the session's pools and
    persists the cost model across covers.
    """
    started = time.perf_counter()
    sigma = list(sigma)
    with _CoverSession(num_workers, cluster, backend, fault=fault) as session:
        cluster = session.cluster
        with cluster.master():
            groups = _group_sigma(sigma)
            ordered_keys = sorted(groups)
            units: List[Tuple[List[int], List[int]]] = []
            for group_key in ordered_keys:
                group = groups[group_key]
                representative = sigma[group[0]].pattern
                embedded = _embedded_indices(sigma, representative, group)
                units.append((group, embedded))
            if cost_model is not None:
                weights = [
                    cost_model.weight(key, len(group), len(embedded))
                    for key, (group, embedded) in zip(ordered_keys, units)
                ]
            else:
                weights = [
                    ChaseCostModel.static_weight(len(group), len(embedded))
                    for group, embedded in units
                ]
            assignment = assign_units_lpt(weights, cluster.num_workers)
        removed_indices: Set[int] = set()
        if sigma:
            requests = [
                (
                    worker,
                    "implication_batch",
                    session.key,
                    {"units": [units[unit_id] for unit_id in unit_ids]},
                )
                for worker, unit_ids in enumerate(assignment)
            ]
            parts = session.run_with_sigma(sigma, requests)
            for unit_ids, (removed_part, unit_seconds) in zip(
                assignment, parts
            ):
                removed_indices.update(removed_part)
                if cost_model is not None:
                    for unit_id, seconds in zip(unit_ids, unit_seconds):
                        group, embedded = units[unit_id]
                        cost_model.observe(
                            ordered_keys[unit_id],
                            len(group),
                            len(embedded),
                            seconds,
                        )
            cluster.ship_to_master(len(removed_indices))

    cover = [gfd for index, gfd in enumerate(sigma) if index not in removed_indices]
    removed = [sigma[index] for index in sorted(removed_indices)]
    result = CoverResult(
        cover=cover,
        removed=removed,
        implication_tests=len(sigma),
        elapsed_seconds=time.perf_counter() - started,
    )
    return result, cluster


def parallel_cover_ungrouped(
    sigma: Sequence[GFD],
    num_workers: int = 4,
    cluster: Optional[SimulatedCluster] = None,
    backend: Union[None, str, ExecutionBackend] = None,
) -> Tuple[CoverResult, SimulatedCluster]:
    """``ParCovern``: leave-one-out checks against the *full* set, no groups.

    Mutual-implication pairs are resolved by a deterministic tie-break: a
    GFD is only removed when it is implied by the remainder *after* removing
    every GFD that precedes it in the scan order and was itself removed —
    matching the sequential semantics, but paying full-``Σ`` embedding
    enumeration per test, distributed round-robin over the workers
    (``op_cover_probe``).  ``backend`` selects the execution backend as in
    :func:`parallel_cover`.
    """
    started = time.perf_counter()
    sigma = list(sigma)
    with _CoverSession(num_workers, cluster, backend) as session:
        cluster = session.cluster
        with cluster.master():
            order = _scan_order(sigma)
        # Distribute tests in scan-order round-robin.  Each worker evaluates
        # its share against the full Σ minus the candidate (the expensive
        # part); the master then reconciles mutual implications sequentially
        # (cheap — implication verdicts are reused, only chains re-check).
        verdicts: Dict[int, bool] = {}
        if sigma:
            assignments: List[List[int]] = [
                [] for _ in range(cluster.num_workers)
            ]
            for position, index in enumerate(order):
                assignments[position % cluster.num_workers].append(index)
            requests = [
                (worker, "cover_probe", session.key, {"indices": indices})
                for worker, indices in enumerate(assignments)
            ]
            for part in session.run_with_sigma(sigma, requests):
                for index, verdict in part:
                    verdicts[index] = verdict
            cluster.ship_to_master(len(sigma))

        removed_indices: Set[int] = set()
        with cluster.master():
            for index in order:
                if not verdicts[index]:
                    continue
                remainder = [
                    gfd
                    for position, gfd in enumerate(sigma)
                    if position != index and position not in removed_indices
                ]
                if ImplicationChecker(remainder).implies(sigma[index]):
                    removed_indices.add(index)

    cover = [gfd for index, gfd in enumerate(sigma) if index not in removed_indices]
    removed = [sigma[index] for index in sorted(removed_indices)]
    result = CoverResult(
        cover=cover,
        removed=removed,
        implication_tests=len(sigma),
        elapsed_seconds=time.perf_counter() - started,
    )
    return result, cluster


# re-export for the baselines module
par_cover_no_grouping = parallel_cover_ungrouped
