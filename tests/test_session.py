"""The Session facade: one backend lifecycle, streaming, budgets, plugins.

The acceptance property of the API redesign lives here: a full
discover → cover → enforce → refresh pipeline under one
:class:`repro.Session` starts its worker pools exactly once and attaches
the graph index exactly once — read off ``session.metrics()``, not assumed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    DiscoveryConfig,
    EnforcementConfig,
    Session,
    discover,
    parse_gfd,
)
from repro.core import gfd_identity, make_sketch, register_sketch
from repro.parallel import ChaseCostModel
from repro.quality.detector import detect_gfd_violations

BACKENDS = ["serial", "multiprocess"]


class TestOneBackendLifecycle:
    """The ISSUE acceptance criterion, per backend."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_full_pipeline_single_lifecycle(
        self, film_graph, film_config, backend
    ):
        with Session(
            film_graph, film_config, backend=backend, num_workers=2
        ) as session:
            result = session.discover()
            assert result.gfds
            cover = session.cover()
            assert cover.cover
            report = session.enforce()
            assert report.is_clean  # rules mined from this very graph
            film_graph.set_attr(0, "type", "gardener")
            refreshed = session.refresh()
            assert refreshed.mode == "incremental"
            assert not refreshed.is_clean

            metrics = session.metrics()
            # pools started exactly once, for every phase
            assert metrics.backend_starts == 1
            assert metrics.lifecycle.pools_started == 2
            assert metrics.lifecycle.shutdowns == 0
            # the index was attached exactly once; the post-mutation
            # snapshot went through refresh_index (pools survive)
            assert metrics.lifecycle.index_attaches == 1
            assert metrics.lifecycle.index_refreshes == 1
            assert metrics.phases == {
                "discover": 1,
                "cover": 1,
                "enforce": 1,
                "refresh": 1,
            }
            assert metrics.cluster.supersteps > 0
            assert metrics.sigma_size == len(cover.cover)
        # after close the pools are gone
        assert session.metrics().lifecycle.shutdowns == 1

    def test_results_equal_legacy_entry_points(self, film_graph, film_config):
        legacy = discover(film_graph, film_config)
        with Session(film_graph, film_config, num_workers=2) as session:
            result = session.discover()
        assert {gfd_identity(g) for g in result.gfds} == {
            gfd_identity(g) for g in legacy.gfds
        }

    def test_clean_refresh_ships_zero_rows(self, film_graph, film_config):
        with Session(film_graph, film_config) as session:
            session.discover()
            session.enforce()
            before = session.metrics().transfers
            report = session.refresh()  # nothing changed
            after = session.metrics().transfers
            assert report.mode == "full"  # the cached report, unchanged
            assert after.rows_to_workers == before.rows_to_workers
            assert after.rows_to_master == before.rows_to_master

    def test_closed_session_refuses_work(self, film_graph, film_config):
        session = Session(film_graph, film_config)
        session.close()
        with pytest.raises(RuntimeError, match="closed"):
            session.discover()
        session.close()  # idempotent


class TestStreamingDiscovery:
    def test_full_stream_equals_unfiltered_discover(
        self, film_graph, film_config
    ):
        from dataclasses import replace

        with Session(film_graph, film_config) as session:
            streamed = list(session.discover_iter())
            assert {gfd_identity(g) for g in streamed} == {
                gfd_identity(g) for g in session.sigma
            }
        unfiltered = discover(
            film_graph, replace(film_config, minimality_filter=False)
        )
        assert {gfd_identity(g) for g in streamed} == {
            gfd_identity(g) for g in unfiltered.gfds
        }

    def test_max_rules_budget_stops_early_and_sets_sigma(
        self, film_graph, film_config
    ):
        with Session(film_graph, film_config) as session:
            streamed = list(session.discover_iter(max_rules=3))
            assert len(streamed) == 3
            assert [str(g) for g in session.sigma] == [
                str(g) for g in streamed
            ]
            # supports of the yielded rules came along
            assert all(g in session.supports for g in session.sigma)
            # the session stays usable: the backend survived the early stop
            report = session.enforce()
            assert len(report.rules) == 3
            assert session.metrics().backend_starts == 1

    def test_max_levels_budget(self, film_graph, film_config):
        with Session(film_graph, film_config) as session:
            level0 = list(session.discover_iter(max_levels=0))
            # level 0 = single-node patterns only
            assert all(g.pattern.num_edges == 0 for g in level0)

    def test_abandoned_stream_releases_cleanly(self, film_graph, film_config):
        with Session(film_graph, film_config) as session:
            iterator = session.discover_iter()
            first = next(iterator)
            iterator.close()  # abandon mid-level
            assert [str(g) for g in session.sigma] == [str(first)]
            assert session.discover().gfds  # full run still works


class TestSigmaPersistence:
    def test_save_load_round_trip(self, film_graph, film_config, tmp_path):
        path = tmp_path / "sigma.json"
        with Session(film_graph, film_config) as session:
            result = session.discover()
            session.save_sigma(path)
            supports = session.supports
        with Session(film_graph, film_config) as fresh:
            loaded = fresh.load_sigma(path)
            assert [str(g) for g in loaded] == [str(g) for g in result.gfds]
            assert {str(g): s for g, s in fresh.supports.items()} == {
                str(g): s for g, s in supports.items()
            }
            # the loaded Σ drives enforcement directly
            assert fresh.enforce().is_clean


class TestViolationCap:
    def _negative_rule(self):
        # every person match satisfies the (empty) LHS: |violations| = 120
        return [parse_gfd("Q[x] { (x:person) } ( -> false)")]

    def test_counts_stay_exact_under_cap(self, film_graph):
        sigma = self._negative_rule()
        with Session(
            film_graph,
            enforcement=EnforcementConfig(max_violations_per_rule=7),
            num_workers=2,
        ) as capped:
            capped_report = capped.enforce(sigma)
        with Session(film_graph, num_workers=2) as exact:
            exact_report = exact.enforce(sigma)
        capped_rule = capped_report.rules[0]
        exact_rule = exact_report.rules[0]
        assert exact_rule.violation_count == 120
        assert capped_rule.violation_count == 120  # popcounts, not rows
        assert not capped_report.is_clean
        assert capped_rule.witnesses_truncated
        assert not exact_rule.witnesses_truncated
        # witnesses degrade to a subset: at most cap rows per shard
        assert len(capped_rule.nodes) <= 7 * 2
        assert capped_rule.nodes <= exact_rule.nodes
        assert capped_rule.distinct_pivots <= exact_rule.distinct_pivots

    def test_cap_not_binding_is_identity(self, film_graph, film_config):
        sigma = discover(film_graph, film_config).gfds
        film_graph.set_attr(0, "type", "gardener")
        with Session(
            film_graph,
            film_config,
            enforcement=EnforcementConfig(max_violations_per_rule=10_000),
        ) as capped:
            capped_report = capped.enforce(sigma)
        with Session(film_graph, film_config) as exact:
            exact_report = exact.enforce(sigma)
        assert [
            (r.violation_count, r.nodes, r.sample, r.witnesses_truncated)
            for r in capped_report.rules
        ] == [
            (r.violation_count, r.nodes, r.sample, r.witnesses_truncated)
            for r in exact_report.rules
        ]

    def test_cap_survives_incremental_refresh(self, film_graph):
        sigma = self._negative_rule()
        with Session(
            film_graph,
            enforcement=EnforcementConfig(max_violations_per_rule=5),
        ) as session:
            first = session.enforce(sigma)
            film_graph.set_attr(0, "name", "renamed")
            second = session.refresh()
            assert second.mode == "incremental"
            assert second.rules[0].violation_count == 120
            assert second.rules[0].witnesses_truncated
            assert first.rules[0].violation_count == 120


class TestChaseCostModel:
    def test_weight_falls_back_to_static(self):
        model = ChaseCostModel()
        assert model.weight("k", 3, 4) == 12.0  # static |group|×|embedded|
        model.observe("k", 3, 4, seconds=0.5)
        assert model.weight("k", 3, 4) == 0.5  # measured wins
        # unseen keys scale by the global seconds-per-static-weight rate
        assert model.weight("other", 2, 2) == pytest.approx(
            4 * (0.5 / 12.0)
        )
        model.observe("k", 3, 4, seconds=0.1)
        assert model.weight("k", 3, 4) == pytest.approx(0.3)  # EWMA α=0.5

    def test_repeated_covers_feed_the_model(self, film_graph, film_config):
        with Session(film_graph, film_config) as session:
            session.discover()
            sigma = session.sigma
            first = session.cover(sigma)
            seen = session.cover_costs.observations
            assert seen > 0  # timings came back from the workers
            second = session.cover(sigma)  # measured-weight LPT this time
            assert session.cover_costs.observations > seen
            # weights shift assignment only — never the cover itself
            assert [str(g) for g in first.cover] == [
                str(g) for g in second.cover
            ]

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            ChaseCostModel(alpha=0.0)


class TestSketchPluggability:
    def test_exact_backend_reports_exact_pivots(self, film_graph):
        sigma = [parse_gfd("Q[x] { (x:person) } ( -> false)")]
        with Session(
            film_graph,
            enforcement=EnforcementConfig(
                sketch_cardinality=True, sketch_backend="exact"
            ),
        ) as session:
            report = session.enforce(sigma)
        assert report.rules[0].distinct_pivots == 120  # no estimation error

    def test_hll_backend_bounds_from_above(self, film_graph):
        sigma = [parse_gfd("Q[x] { (x:person) } ( -> false)")]
        with Session(
            film_graph,
            enforcement=EnforcementConfig(
                sketch_cardinality=True, sketch_backend="hll"
            ),
        ) as session:
            report = session.enforce(sigma)
        assert report.rules[0].distinct_pivots >= 120

    def test_custom_estimator_registers(self):
        class Constant:
            def __init__(self, precision: int = 12) -> None:
                self.precision = precision

            def add_array(self, values):
                return self

            def merge(self, other):
                return self

            def estimate(self):
                return 42.0

            def upper_bound(self, z: float = 3.0) -> int:
                return 42

        register_sketch("constant-test", Constant)
        sketch = make_sketch("constant-test", 8)
        assert sketch.add_array(np.arange(5)).upper_bound() == 42
        with pytest.raises(ValueError, match="unknown sketch backend"):
            make_sketch("no-such-estimator")

    def test_unknown_backend_is_a_clear_error(self, film_graph):
        sigma = [parse_gfd("Q[x] { (x:person) } ( -> false)")]
        with Session(
            film_graph,
            enforcement=EnforcementConfig(
                sketch_cardinality=True, sketch_backend="bogus"
            ),
        ) as session:
            with pytest.raises(ValueError, match="unknown sketch backend"):
                session.enforce(sigma)


class TestPostMutationParity:
    """A long-lived session must equal a fresh run after graph mutations."""

    @staticmethod
    def _chain_graph():
        from repro import Graph

        graph = Graph()
        for _ in range(40):
            graph.add_node("person", {"a": "x"})
        for node in range(39):
            graph.add_edge(node, node + 1, "knows")
        return graph

    def test_gamma_follows_the_mutated_snapshot(self):
        # the top attribute changes after discovery; the session's live
        # workers must mine the new Γ, not the construction-time one
        config = DiscoveryConfig(
            k=2, sigma=10, max_lhs_size=1, max_active_attributes=1
        )
        live = self._chain_graph()
        with Session(live, config) as session:
            session.discover()
            for node in range(40):
                live.set_attr(node, "0b", "y")  # sorts before "a"
            second = session.discover()
        fresh_graph = self._chain_graph()
        for node in range(40):
            fresh_graph.set_attr(node, "0b", "y")
        fresh = discover(fresh_graph, config)
        assert {gfd_identity(g) for g in second.gfds} == {
            gfd_identity(g) for g in fresh.gfds
        }

    def test_dict_path_statistics_follow_mutations(self):
        # use_index=False has no index snapshot to invalidate; the session
        # must rescan statistics on version change all the same
        config = DiscoveryConfig(k=2, sigma=10, max_lhs_size=1, use_index=False)
        live = self._chain_graph()
        # the dict reference path is serial by definition (multiprocess
        # requires the index), whatever REPRO_PARALLEL_BACKEND says
        with Session(live, config, backend="serial") as session:
            session.discover()
            robots = [
                live.add_node("robot", {"a": "r"}) for _ in range(30)
            ]
            for position in range(29):
                live.add_edge(robots[position], robots[position + 1], "serves")
            second = session.discover()
        fresh_graph = self._chain_graph()
        robots = [fresh_graph.add_node("robot", {"a": "r"}) for _ in range(30)]
        for position in range(29):
            fresh_graph.add_edge(robots[position], robots[position + 1], "serves")
        fresh = discover(fresh_graph, config)
        assert {gfd_identity(g) for g in second.gfds} == {
            gfd_identity(g) for g in fresh.gfds
        }

    def test_detector_rejects_a_foreign_session(self, film_graph, film_config):
        sigma = discover(film_graph, film_config).gfds
        other = self._chain_graph()
        with Session(other) as foreign:
            with pytest.raises(ValueError, match="different graph"):
                detect_gfd_violations(film_graph, sigma, session=foreign)

    def test_detector_rejects_mismatched_caps(self, film_graph, film_config):
        # a session-backed detection samples by the session's enforcement
        # config; a contradictory explicit cap must not be dropped silently
        sigma = discover(film_graph, film_config).gfds
        with Session(film_graph) as session:  # default samples cap = 10
            with pytest.raises(ValueError, match="does not match"):
                detect_gfd_violations(
                    film_graph, sigma, max_per_gfd=500, session=session
                )

    def test_metrics_snapshots_do_not_alias_live_counters(
        self, film_graph, film_config
    ):
        with Session(film_graph, film_config) as session:
            session.discover()
            session.enforce()
            before = session.metrics()
            film_graph.set_attr(0, "name", "renamed")
            session.refresh()
            after = session.metrics()
            assert (
                after.lifecycle.index_refreshes
                > before.lifecycle.index_refreshes
            )
            assert after.cluster.supersteps >= before.cluster.supersteps


class TestDetectorSessionReuse:
    def test_detector_reuses_a_supplied_session(self, film_graph, film_config):
        sigma = discover(film_graph, film_config).gfds
        film_graph.set_attr(0, "type", "gardener")
        scoped = detect_gfd_violations(film_graph, sigma, 10_000)
        with Session(
            film_graph,
            enforcement=EnforcementConfig(max_violation_samples=10_000),
            backend="serial",
            num_workers=1,
        ) as session:
            reused = detect_gfd_violations(
                film_graph, sigma, session=session
            )
            # a second call reuses the compiled plan and resident shards
            again = detect_gfd_violations(film_graph, sigma, session=session)
            assert session.metrics().backend_starts == 1
        key = lambda vs: [(str(v.gfd), v.match) for v in vs]  # noqa: E731
        assert key(scoped) == key(reused) == key(again)


class TestAutoBackendPlanner:
    """``backend="auto"``: the cost planner picks serial or multiprocess
    per phase, so multiprocess is never chosen where it would lose."""

    def test_small_graph_resolves_every_phase_serial(
        self, film_graph, film_config
    ):
        with Session(
            film_graph, film_config, backend="auto", num_workers=2
        ) as session:
            session.discover()
            session.cover()
            session.enforce()
            film_graph.set_attr(0, "type", "gardener")
            session.refresh()
            metrics = session.metrics()
        # well below the crossover floor: serial everywhere, one backend
        assert metrics.backend_name == "auto"
        assert metrics.phase_backends == {
            "discover": "serial",
            "cover": "serial",
            "enforce": "serial",
            "refresh": "serial",
        }
        assert metrics.backend_starts == 1
        # every phase fed the planner a measured rate
        assert set(metrics.planner) == {
            "discover", "cover", "enforce", "refresh"
        }
        assert all(
            "serial" in rates for rates in metrics.planner.values()
        )

    def test_zero_floor_resolves_multiprocess(self, film_graph, film_config):
        from dataclasses import replace

        config = replace(film_config, planner_mp_min_size=0)
        reference = discover(film_graph, film_config)
        with Session(
            film_graph, config, backend="auto", num_workers=2
        ) as session:
            result = session.discover()
            metrics = session.metrics()
            assert metrics.phase_backends["discover"] == "multiprocess"
            assert "multiprocess" in metrics.planner["discover"]
        assert {gfd_identity(g) for g in result.gfds} == {
            gfd_identity(g) for g in reference.gfds
        }

    def test_without_index_auto_forces_serial(self, film_graph, film_config):
        from dataclasses import replace

        config = replace(
            film_config, use_index=False, planner_mp_min_size=0
        )
        with Session(
            film_graph, config, backend="auto", num_workers=2
        ) as session:
            session.discover()
            assert session.metrics().phase_backends["discover"] == "serial"

    def test_unknown_backend_still_rejected(self, film_graph, film_config):
        with pytest.raises(ValueError, match="unknown parallel backend"):
            Session(film_graph, film_config, backend="bogus")

    def test_engine_backend_is_pinned_for_refresh(
        self, film_graph, film_config
    ):
        """Resident enforcement tables live in one backend's workers;
        refresh must keep hitting it even as planner rates evolve."""
        with Session(
            film_graph, film_config, backend="auto", num_workers=2
        ) as session:
            session.discover()
            session.enforce()
            film_graph.set_attr(0, "type", "gardener")
            refreshed = session.refresh()
            assert refreshed.mode == "incremental"
            metrics = session.metrics()
            assert (
                metrics.phase_backends["refresh"]
                == metrics.phase_backends["enforce"]
            )


class TestFusedSession:
    """Fused supersteps at the session level: a pinned round count."""

    #: Supersteps of discover + cover on ``film_graph`` with 2 workers —
    #: one count for both backends, since the engines batch identically.
    PIPELINE_SUPERSTEPS = 14

    def test_fusion_reduces_pipeline_supersteps(self, film_graph, film_config):
        reference = {
            gfd_identity(g) for g in discover(film_graph, film_config).gfds
        }
        for backend in BACKENDS:
            with Session(
                film_graph, film_config, backend=backend, num_workers=2
            ) as session:
                result = session.discover()
                session.cover()
                steps = session.metrics().cluster.supersteps
            assert {gfd_identity(g) for g in result.gfds} == reference
            # the bench gate (benchmarks/bench_session.py --check) pins
            # the yago2 pipeline count at scale
            assert steps == self.PIPELINE_SUPERSTEPS, (
                f"{backend}: {steps} supersteps "
                f"(pinned {self.PIPELINE_SUPERSTEPS})"
            )

    def test_mutation_ships_a_delta_refresh(self, film_graph, film_config):
        """A small post-mutation snapshot goes through the delta path:
        only the changed arrays cross into shared memory, counted by
        ``lifecycle.delta_refreshes``."""
        with Session(
            film_graph, film_config, backend="multiprocess", num_workers=2
        ) as session:
            session.discover()
            before = session.metrics().lifecycle
            assert before.delta_refreshes == 0
            film_graph.set_attr(0, "type", "gardener")
            session.enforce()
            after = session.metrics().lifecycle
            assert after.index_refreshes == before.index_refreshes + 1
            assert after.delta_refreshes == 1
