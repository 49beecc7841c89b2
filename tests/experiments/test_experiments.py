"""Smoke and shape tests for the figure experiment harnesses.

These run with a single trial (fast) and assert structural properties —
every cell present, applicability marked correctly, renders non-empty —
plus the cheap directional claims.  Full-shape verification lives in the
benchmarks and EXPERIMENTS.md.  The suite's single wave (one dispatch,
per-section slices and cost footers) is driven by a cheap deterministic
stand-in for episodes.
"""

from dataclasses import replace

import pytest

from repro.core.clock import ModuleName
from repro.core.executor import SerialExecutor, TrialJob
from repro.core.fleet import JobLedger, job_fingerprint
from repro.core.metrics import EpisodeResult
from repro.experiments import common, fig3_sensitivity, fig6_tokens, suite
from repro.experiments.common import (
    ExperimentSettings,
    GridCell,
    dispatch_jobs,
    episode_jobs,
    grid_jobs,
    measure_grid,
)
from repro.llm.costs import tokens_cost
from repro.workloads import get_workload

FAST = ExperimentSettings(n_trials=1, base_seed=3, difficulty="easy")


class TestCommon:
    """``ExperimentSettings.from_env``: the trial and worker knobs."""

    def test_trials_from_env_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRIALS", raising=False)
        assert ExperimentSettings.from_env(n_trials=7).n_trials == 7
        assert ExperimentSettings.from_env().n_trials == 5

    def test_trials_from_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRIALS", "3")
        assert ExperimentSettings.from_env().n_trials == 3
        assert ExperimentSettings.from_env(n_trials=7).n_trials == 3

    def test_trials_from_env_validation(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRIALS", "zero")
        with pytest.raises(ValueError):
            ExperimentSettings.from_env()
        monkeypatch.setenv("REPRO_TRIALS", "0")
        with pytest.raises(ValueError):
            ExperimentSettings.from_env()

    def test_trials_from_env_strips_whitespace(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRIALS", "  3 ")
        assert ExperimentSettings.from_env().n_trials == 3
        monkeypatch.setenv("REPRO_TRIALS", "   ")
        assert ExperimentSettings.from_env(n_trials=7).n_trials == 7

    def test_workers_from_env_default_and_override(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert ExperimentSettings.from_env().max_workers == 1
        monkeypatch.setenv("REPRO_WORKERS", " 4 ")
        assert ExperimentSettings.from_env().max_workers == 4

    @pytest.mark.parametrize("raw", ["two", "0", "-3", "2.5"])
    def test_workers_from_env_validation(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_WORKERS", raw)
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            ExperimentSettings.from_env()

    def test_settings_follow_workers_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        settings = ExperimentSettings.from_env(n_trials=1)
        assert settings.executor == "parallel"
        assert settings.max_workers == 3
        assert ExperimentSettings(n_trials=1).executor == "serial"  # no knob read
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert ExperimentSettings.from_env(n_trials=1).executor == "serial"

    def test_settings_reject_unknown_executor(self):
        with pytest.raises(ValueError):
            ExperimentSettings(n_trials=1, executor="threads")
        with pytest.raises(ValueError):
            ExperimentSettings(n_trials=1, max_workers=0)

    def test_measure_runs(self):
        result = measure_grid([GridCell(config=get_workload("embodiedgpt").config)], FAST)[0]
        assert result.n_trials == 1

    def test_measure_grid_matches_measure(self):
        configs = [get_workload(name).config for name in ("embodiedgpt", "jarvis-1")]
        grid_results = measure_grid([GridCell(config=c) for c in configs], FAST)
        assert grid_results == [measure_grid([GridCell(config=c)], FAST)[0] for c in configs]


class TestCostMetering:
    """Each suite section's footer prices that section's own episodes."""

    @pytest.fixture(scope="class")
    def episodes(self):
        cells = [GridCell(config=get_workload("embodiedgpt").config)]
        return dispatch_jobs(grid_jobs(cells, FAST), FAST)

    def test_meter_collects_dispatched_episodes(self, episodes):
        footer = suite.section_block("Probe", "body", episodes).splitlines()[-1]
        assert footer.startswith("LLM serving cost: $")
        spent = _deployment_tokens(episodes)
        assert spent and all(prompt > 0 for prompt, _ in spent.values())
        for model in spent:
            assert model in footer

    def test_suite_section_footer_carries_cost(self, episodes):
        block = suite.section_block("Probe", "body", episodes)
        assert block.splitlines()[-1] == _footer(episodes)

    def test_suite_section_without_episodes_has_no_footer(self):
        block = suite.section_block("Probe", "body", [])
        assert "LLM serving cost" not in block
        assert block.splitlines()[-1] == "body"


def _deployment_tokens(results: list[EpisodeResult]) -> dict[str, tuple[int, int]]:
    """Per-deployment token sums, added up here rather than by ``aggregate``."""
    spent: dict[str, tuple[int, int]] = {}
    for result in results:
        for model, (prompt, output) in result.deployment_tokens.items():
            before = spent.get(model, (0, 0))
            spent[model] = (before[0] + prompt, before[1] + output)
    return spent


def _footer(results: list[EpisodeResult]) -> str:
    costs = {
        model: tokens_cost(model, prompt, output)
        for model, (prompt, output) in sorted(_deployment_tokens(results).items())
    }
    parts = ", ".join(f"{model} ${cost:.4f}" for model, cost in costs.items())
    return f"LLM serving cost: ${sum(costs.values()):.4f}  ({parts})"


# ---------------------------------------------------------------------- #
# The suite as one wave, driven by a cheap stand-in for episodes
# ---------------------------------------------------------------------- #


def stand_in_episode(job: TrialJob) -> EpisodeResult:
    """A deterministic episode whose numbers depend on the whole job;
    like a real one, it carries a series only for a flagged job."""
    mark = int(job_fingerprint(job)[:8], 16)
    steps = 1 + mark % 17
    prompt, output = 100 + mark % 900, 10 + mark % 90
    return EpisodeResult(
        workload=job.config.name,
        success=mark % 3 > 0,
        steps=steps,
        horizon=job.task.horizon,
        sim_seconds=float(steps * (1 + mark % 7)),
        goal_progress=(mark % 11) / 10.0,
        module_seconds={
            ModuleName.PLANNING: float(1 + mark % 13),
            ModuleName.MEMORY: float(mark % 5),
            ModuleName.EXECUTION: float(1 + mark % 3),
        },
        llm_calls=1 + mark % 4,
        prompt_tokens=prompt,
        output_tokens=output,
        messages_sent=mark % 6,
        messages_useful=mark % 4,
        faults={},
        reflections_triggered=0,
        replans=0,
        deployment_tokens={job.config.planning_model: (prompt, output)},
        prompt_series={
            "agent_0:plan": tuple(
                value
                for step in range(steps)
                for value in (step, prompt + step * (mark % 9))
            )
        }
        if job.prompt_series
        else {},
    )


class StandInExecutor(SerialExecutor):
    """Serial stand-in that records the job list of every stream it starts."""

    def __init__(self):
        super().__init__(job_runner=stand_in_episode)
        self.streams: list[list[TrialJob]] = []

    def run_stream(self, jobs, window=None):
        self.streams.append(jobs)
        return super().run_stream(jobs, window)


RULE = "=" * 72
TITLES = ["Table I", "Table II"] + [title for title, _, _ in suite._FIGURES]


def _sections(report: str) -> dict[str, str]:
    """Title -> section content (body plus any footer) of a report."""
    head, *chunks = report.split(RULE + "\n")
    assert head == ""
    titles = [title.rstrip("\n") for title in chunks[0::2]]
    assert titles == TITLES
    return {title: content.rstrip("\n") for title, content in zip(titles, chunks[1::2])}


def _without_timing(report: str) -> str:
    body, timing = report.rsplit("\n", 1)
    assert timing.startswith("Report generated in ") and timing.endswith("s wall")
    return body


#: The one-trial suite wave: jobs submitted, and distinct fingerprints
#: among them (Fig. 8's per-call arm repeats Fig. 7 cells, Fig. 3's
#: baselines repeat Fig. 2's workloads, the Rec. 9 baseline is Fig. 7's
#: 8-agent medium mindagent cell, and so on).
FAST_WAVE_JOBS = 233
FAST_WAVE_DISTINCT = 199


class TestSuiteWave:
    @pytest.fixture
    def stand_in(self, monkeypatch):
        executor = StandInExecutor()
        monkeypatch.setattr(ExperimentSettings, "make_executor", lambda self: executor)
        monkeypatch.delenv("REPRO_LEDGER", raising=False)
        return executor

    @staticmethod
    def _one_stream_of_distinct_jobs(stand_in):
        assert len(stand_in.streams) == 1
        prints = [job_fingerprint(job) for job in stand_in.streams[0]]
        assert len(prints) == len(set(prints)) == FAST_WAVE_DISTINCT

    def test_one_dispatch_per_report(self, stand_in):
        suite.run_all(FAST)
        self._one_stream_of_distinct_jobs(stand_in)

    @staticmethod
    def _wave(monkeypatch) -> list[TrialJob]:
        """The jobs one report submits."""
        wave: list[TrialJob] = []
        original = suite.dispatch_jobs

        def captured(jobs, settings):
            wave.extend(jobs)
            return original(jobs, settings)

        monkeypatch.setattr(suite, "dispatch_jobs", captured)
        suite.run_all(FAST)
        return wave

    def test_fingerprints_group_exactly_equal_jobs(self, stand_in, monkeypatch):
        """Dispatch shares a result between jobs with equal fingerprints,
        so on the suite's wave that must mean equal jobs, and vice versa."""
        wave = self._wave(monkeypatch)
        assert len(wave) == FAST_WAVE_JOBS
        by_print: dict[str, list[TrialJob]] = {}
        for job in wave:
            by_print.setdefault(job_fingerprint(job), []).append(job)
        classes: list[TrialJob] = []
        for job in wave:
            if not any(job == other for other in classes):
                classes.append(job)
        assert all(job == group[0] for group in by_print.values() for job in group)
        assert len(classes) == len(by_print) == FAST_WAVE_DISTINCT

    def test_no_two_jobs_differ_only_in_name(self, stand_in, monkeypatch):
        """A variant keeps its workload's name, so a variant equal to a
        workload (Fig. 4 setting a workload's planner to the model it
        already uses) is the same job and runs once."""
        wave = self._wave(monkeypatch)
        prints = {job_fingerprint(job) for job in wave}
        nameless = {
            job_fingerprint(replace(job, config=replace(job.config, name=""))) for job in wave
        }
        assert len(nameless) == len(prints) == FAST_WAVE_DISTINCT

    def test_no_two_jobs_differ_only_in_default_agents(self, stand_in, monkeypatch):
        """A job's task fixes its team size, and nothing in an episode
        reads ``config.default_agents`` after that, so a cell sets its
        team on the task (``GridCell.n_agents``) and a team equal to
        another section's cell is the same job."""
        wave = self._wave(monkeypatch)
        prints = {job_fingerprint(job) for job in wave}
        teamless = {
            job_fingerprint(
                replace(job, config=replace(job.config, default_agents=job.task.n_agents))
            )
            for job in wave
        }
        assert len(teamless) == len(prints) == FAST_WAVE_DISTINCT

    def test_sections_match_their_modules(self, stand_in, monkeypatch):
        """Each footer prices every result its module's grid returns,
        repeated jobs included, though each distinct job ran once."""
        returned: list[EpisodeResult] = []
        original = common.dispatch_jobs

        def recorded(jobs, settings):
            results = original(jobs, settings)
            returned.extend(results)
            return results

        monkeypatch.setattr(common, "dispatch_jobs", recorded)
        report = suite.run_all(FAST)
        sections = _sections(_without_timing(report))
        assert "LLM serving cost" not in sections["Table I"]
        assert "LLM serving cost" not in sections["Table II"]
        for title, module, episodes in suite._FIGURES:
            returned.clear()
            run_grid = common.episode_grid if episodes else common.measure_grid
            body = module.render(module.summarize(run_grid(module.grid(), FAST)))
            assert sections[title] == f"{body}\n{_footer(returned)}", title

    def test_one_ledger_load_per_report_and_full_resume(
        self, stand_in, monkeypatch, tmp_path
    ):
        ledger = tmp_path / "suite.jsonl"
        monkeypatch.setenv("REPRO_LEDGER", str(ledger))
        loads = []
        original = JobLedger.load

        def counted(self):
            loads.append(self)
            return original(self)

        monkeypatch.setattr(JobLedger, "load", counted)
        first = suite.run_all(FAST)
        assert len(loads) == 1
        self._one_stream_of_distinct_jobs(stand_in)
        assert len(ledger.read_bytes().splitlines()) == FAST_WAVE_DISTINCT
        size = ledger.stat().st_size
        second = suite.run_all(FAST)
        assert len(loads) == 2
        assert len(stand_in.streams) == 1  # a full resume starts no stream
        assert ledger.stat().st_size == size
        assert _without_timing(second) == _without_timing(first)


class TestFig3Structure:
    @pytest.fixture(scope="class")
    def result(self):
        return fig3_sensitivity.run(
            ExperimentSettings(n_trials=1, base_seed=5, difficulty="easy")
        )

    def test_all_cells_present(self, result):
        for subject in fig3_sensitivity.SUBJECTS:
            result.cell(subject, "baseline")
            for ablation in fig3_sensitivity.ABLATIONS:
                result.cell(subject, ablation)

    def test_not_applicable_matches_paper(self, result):
        assert not result.cell("jarvis-1", "communication").applicable
        assert not result.cell("coela", "reflection").applicable
        assert not result.cell("combo", "reflection").applicable
        assert result.cell("roco", "reflection").applicable

    def test_render_contains_na(self, result):
        text = fig3_sensitivity.render(result)
        assert "N/A" in text
        assert "w/o execution" in text

    def test_exec_ablation_catastrophic(self, result):
        assert result.mean_success_drop("execution") > 30.0


class TestFig6Structure:
    def test_only_fig6_jobs_carry_the_series(self):
        """A grid job's result holds no series.  An ``episode_jobs``
        result carries it, and differs from its unflagged twin's result
        by the series alone; the twin is a different job."""
        cells = [GridCell(config=get_workload("roco").config)]
        [grid_result] = dispatch_jobs(grid_jobs(cells, FAST), FAST)
        assert grid_result.prompt_series == {}
        [job] = episode_jobs(cells, FAST)
        [episode] = dispatch_jobs([job], FAST)
        assert {name.rsplit(":", 1)[1] for name in episode.prompt_series} == {
            "plan",
            "message",
        }
        twin = replace(job, prompt_series=False)
        assert job_fingerprint(twin) != job_fingerprint(job)
        assert dispatch_jobs([twin], FAST) == [replace(episode, prompt_series={})]

    def test_token_series_growth(self):
        result = fig6_tokens.run(ExperimentSettings(n_trials=1, base_seed=2))
        for trace in result.traces:
            assert trace.series, trace.workload
            plan_slopes = [
                slope for name, slope in trace.slopes.items() if name.endswith(":plan")
            ]
            # Prompt growth: at least one agent's plan prompts must grow.
            assert max(plan_slopes) > 0, trace.workload

    def test_render(self):
        result = fig6_tokens.run(ExperimentSettings(n_trials=1, base_seed=2))
        text = fig6_tokens.render(result)
        assert "prompt tokens" in text
        assert "tok/step" in text
