"""Figure 3: module sensitivity analysis via ablation.

For six systems (CoELA, COMBO, COHERENT, RoCo, HMAS, JARVIS-1), disable
one module at a time (communication, memory, reflection, execution) and
measure average success rate and steps to completion.

Paper shapes to preserve: w/o memory ≈ 1.61× steps and −27.7 pp success;
w/o reflection ≈ 1.88× steps and −33.3 pp success; w/o execution drives
tasks to the step limit; w/o communication is not significant.  Cells
where the baseline system lacks the module are "Not Applicable", exactly
as in the paper's figure.

Difficulty: Figure 3 runs at its settings' difficulty, like every other
section.  The paper ablates on long-horizon tasks, closest to ``hard``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.report import format_table
from repro.core.config import SystemConfig
from repro.core.metrics import AggregateResult
from repro.experiments.common import ExperimentSettings, GridCell, measure_grid
from repro.workloads.registry import get_workload

SUBJECTS = ("coela", "combo", "coherent", "roco", "hmas", "jarvis-1")
ABLATIONS = ("communication", "memory", "reflection", "execution")


@dataclass(frozen=True)
class AblationCell:
    workload: str
    ablation: str  # "baseline" or the ablated module
    applicable: bool
    success_rate: float = 0.0
    mean_steps: float = 0.0


@dataclass(frozen=True)
class Fig3Result:
    cells: list[AblationCell]

    def cell(self, workload: str, ablation: str) -> AblationCell:
        for cell in self.cells:
            if cell.workload == workload and cell.ablation == ablation:
                return cell
        raise KeyError(f"no cell for {workload}/{ablation}")

    def _applicable_pairs(self, ablation: str) -> list[tuple[AblationCell, AblationCell]]:
        pairs = []
        for subject in SUBJECTS:
            baseline = self.cell(subject, "baseline")
            ablated = self.cell(subject, ablation)
            if ablated.applicable:
                pairs.append((baseline, ablated))
        return pairs

    def mean_step_ratio(self, ablation: str) -> float:
        """Average (ablated steps / baseline steps) over applicable systems."""
        pairs = self._applicable_pairs(ablation)
        if not pairs:
            return 0.0
        return sum(
            ablated.mean_steps / max(1.0, baseline.mean_steps)
            for baseline, ablated in pairs
        ) / len(pairs)

    def mean_success_drop(self, ablation: str) -> float:
        """Average success-rate drop (percentage points) when ablated."""
        pairs = self._applicable_pairs(ablation)
        if not pairs:
            return 0.0
        return sum(
            100.0 * (baseline.success_rate - ablated.success_rate)
            for baseline, ablated in pairs
        ) / len(pairs)


def _variants() -> list[tuple[str, str, SystemConfig | None]]:
    """``(subject, variant, config)`` in report order; ``config`` is
    ``None`` where the subject lacks the module ("Not Applicable")."""
    variants: list[tuple[str, str, SystemConfig | None]] = []
    for subject in SUBJECTS:
        config = get_workload(subject).config
        variants.append((subject, "baseline", config))
        for ablation in ABLATIONS:
            present = config.module_flags()[ablation]
            variants.append((subject, ablation, config.without(ablation) if present else None))
    return variants


def grid() -> list[GridCell]:
    """One cell per applicable variant, in report order."""
    return [GridCell(config=config) for _, _, config in _variants() if config is not None]


def summarize(aggregates: list[AggregateResult]) -> Fig3Result:
    measured = iter(aggregates)
    return Fig3Result(
        cells=[
            _cell(subject, variant, next(measured))
            if config is not None
            else AblationCell(workload=subject, ablation=variant, applicable=False)
            for subject, variant, config in _variants()
        ]
    )


def run(settings: ExperimentSettings) -> Fig3Result:
    return summarize(measure_grid(grid(), settings))


def _cell(workload: str, ablation: str, result: AggregateResult) -> AblationCell:
    return AblationCell(
        workload=workload,
        ablation=ablation,
        applicable=True,
        success_rate=result.success_rate,
        mean_steps=result.mean_steps,
    )


def render(result: Fig3Result) -> str:
    headers = ["Workload", "Variant", "Success %", "Avg steps"]
    rows = []
    for subject in SUBJECTS:
        for variant in ("baseline",) + ABLATIONS:
            cell = result.cell(subject, variant)
            label = "full agent" if variant == "baseline" else f"w/o {variant}"
            if not cell.applicable:
                rows.append([subject, label, "N/A", "N/A"])
            else:
                rows.append(
                    [
                        subject,
                        label,
                        f"{100.0 * cell.success_rate:.0f}",
                        f"{cell.mean_steps:.1f}",
                    ]
                )
    table = format_table(headers, rows, title="Fig 3: module sensitivity analysis")
    summary_lines = []
    for ablation in ABLATIONS:
        summary_lines.append(
            f"w/o {ablation}: {result.mean_step_ratio(ablation):.2f}x steps, "
            f"-{result.mean_success_drop(ablation):.1f} pp success"
        )
    summary_lines.append(
        "(paper: w/o memory 1.61x / -27.7 pp; w/o reflection 1.88x / -33.3 pp; "
        "w/o execution -> step limit; w/o communication not significant)"
    )
    return table + "\n\n" + "\n".join(summary_lines)
