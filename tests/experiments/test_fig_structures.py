"""Structural tests for the remaining figure harnesses (2, 4, 5, 7, 8).

Each runs with 1 trial and, where the sweep is wide, a reduced grid via
monkeypatching the module-level sweep constants.
"""

import pytest

from repro.experiments import (
    ablations,
    fig2_latency,
    fig4_local_models,
    fig5_memory,
    fig7_scalability,
    fig8_serving,
)
from repro.experiments.common import ExperimentSettings, measure_grid

FAST = ExperimentSettings(n_trials=1, base_seed=9, difficulty="easy")


class TestFig2:
    @pytest.fixture(scope="class")
    def result(self):
        return fig2_latency.run(FAST)

    def test_all_fourteen_profiled(self, result):
        assert len(result.profiles) == 14

    def test_shares_normalized(self, result):
        for profile in result.profiles:
            assert sum(profile.module_share.values()) == pytest.approx(1.0)

    def test_llm_heavy_suite(self, result):
        assert result.mean_llm_fraction > 0.3

    def test_render_mentions_paper_number(self, result):
        assert "70.2%" in fig2_latency.render(result)


class TestFig4:
    @pytest.fixture(scope="class")
    def result(self, monkeypatch_class=None):
        return fig4_local_models.run(FAST)

    def test_all_cells(self, result):
        for subject in fig4_local_models.SUBJECTS:
            for model in fig4_local_models.MODELS:
                result.cell(subject, model)

    def test_render_marks_failures(self, result):
        text = fig4_local_models.render(result)
        assert "llama-3-8b" in text

    def test_means_defined(self, result):
        assert 0.0 <= result.mean_success("gpt-4") <= 1.0
        assert result.mean_minutes("gpt-4") > 0


class TestFig5:
    @pytest.fixture(scope="class")
    def result(self):
        import repro.experiments.fig5_memory as module

        original = module.CAPACITIES
        module.CAPACITIES = (5, 30, 90)
        try:
            return module.run(FAST)
        finally:
            module.CAPACITIES = original

    def test_series_sorted_by_capacity(self, result):
        cells = result.series("jarvis-1", "easy")
        capacities = [cell.capacity for cell in cells]
        assert capacities == sorted(capacities)

    def test_retrieval_latency_monotone_in_capacity(self, result):
        for subject in fig5_memory.SUBJECTS:
            cells = result.series(subject, "easy")
            assert cells[-1].retrieval_seconds_per_step >= cells[0].retrieval_seconds_per_step


class TestFig7:
    @pytest.fixture(scope="class")
    def result(self):
        import repro.experiments.fig7_scalability as module

        original_counts = module.AGENT_COUNTS
        original_difficulties = module.DIFFICULTIES
        module.AGENT_COUNTS = (2, 4)
        module.DIFFICULTIES = ("easy",)
        try:
            return module.run(FAST)
        finally:
            module.AGENT_COUNTS = original_counts
            module.DIFFICULTIES = original_difficulties

    def test_cells_for_each_subject(self, result):
        for subject in fig7_scalability.SUBJECTS:
            assert result.series(subject, "easy")

    def test_llm_calls_recorded(self, result):
        for cell in result.cells:
            assert cell.llm_calls > 0


class TestFig8:
    @pytest.fixture(scope="class")
    def result(self):
        import repro.experiments.fig8_serving as module

        original_counts = module.AGENT_COUNTS
        module.AGENT_COUNTS = (2, 4)
        try:
            return module.summarize(measure_grid(module.grid(), FAST))
        finally:
            module.AGENT_COUNTS = original_counts

    def test_cells_for_each_subject(self, result):
        for subject in fig8_serving.SUBJECTS:
            series = result.series(subject)
            assert [cell.n_agents for cell in series] == [2, 4]

    def test_outcomes_invariant_everywhere(self, result):
        """The serving layer's contract, asserted per sweep cell."""
        for cell in result.cells:
            assert cell.outcomes_invariant

    def test_batched_never_slower(self, result):
        for cell in result.cells:
            assert cell.batched_minutes <= cell.percall_minutes * (1 + 1e-9)
            assert cell.occupancy >= 1.0

    def test_decentralized_occupancy_tracks_team(self, result):
        for cell in result.series("coela"):
            assert cell.occupancy == pytest.approx(cell.n_agents, abs=0.5)

    def test_continuous_occupancy_matches_or_beats_batched(self, result):
        """Cross-phase engine queues can only merge more, never less."""
        for cell in result.cells:
            assert cell.continuous_occupancy >= cell.occupancy - 1e-9
            assert cell.continuous_minutes <= cell.percall_minutes * (1 + 1e-9)

    def test_continuous_queueing_on_decentralized_teams(self, result):
        """Once coela exposes >1 step of phases, the engine queue is real."""
        cells = result.series("coela")
        assert any(cell.queue_delay > 0.0 for cell in cells)
        assert any(cell.inflight_joins > 0.0 for cell in cells)

    def test_render_mentions_every_subject(self, result):
        text = fig8_serving.render(result)
        for subject in fig8_serving.SUBJECTS:
            assert subject in text


class TestAblationsStructure:
    @pytest.fixture(scope="class")
    def result(self):
        return ablations.run(FAST)

    def test_all_pairs_present(self, result):
        names = {row.recommendation for row in result.rows}
        assert {
            "rec1_batching",
            "rec1_quantization",
            "rec1_mlc_runtime",
            "rec5_dual_memory",
            "rec7_multistep",
            "rec8_plan_then_comm",
            "rec9_hierarchy",
            "rec10_comm_filter",
        } <= names
        for name in names:
            baseline, optimized = result.pair(name)
            assert baseline.variant == "baseline"
            assert optimized.variant == "optimized"

    def test_speedups_positive(self, result):
        for name in {row.recommendation for row in result.rows}:
            assert result.latency_speedup(name) > 0

    def test_render(self, result):
        text = ablations.render(result)
        assert "rec9_hierarchy" in text
