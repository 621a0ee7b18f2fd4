"""The string-keyed experiment registry: one entry per committed artifact.

Every experiment name equals the committed artifact file stem —
``results/<name>.txt`` is regenerated byte-identically by
``repro campaign run <name>``.  The declared trial counts and seeds are
the ones the committed artifacts were recorded with; change either and
the spec hash (hence the cache slot) changes with it.
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments.campaign.ablations import (
    BestMembersExperiment,
    FrequencyLadderExperiment,
    ImproverStartExperiment,
    LeakageExperiment,
    OrderingExperiment,
    RouterPowerExperiment,
)
from repro.experiments.campaign.extensions import (
    AppWorkloadsExperiment,
    MetaHeuristicsExperiment,
    MultipathGainExperiment,
    NocLatencyExperiment,
    OpenProblemExperiment,
    OptimalityGapExperiment,
    ReorderOverheadExperiment,
    TrafficPatternsExperiment,
)
from repro.experiments.campaign.spec import Experiment
from repro.experiments.campaign.sweeps import (
    SummaryExperiment,
    SweepExperiment,
)
from repro.experiments.campaign.theorybench import (
    Fig2Experiment,
    TheoryRatioExperiment,
)
from repro.utils.validation import ReproError

#: the artifacts `repro campaign check --fast` regenerates (CI gate)
FAST_SUBSET = (
    "fig2_example",
    "summary_6_4",
    "noc_latency",
    "ablation_improver_start",
)


def _figure_sweeps() -> List[Experiment]:
    panels = [
        # (name, figure, panel, x grid, trials)
        ("fig7a_small_comms", "fig7", "a", tuple(range(20, 141, 20)), 25),
        ("fig7b_mixed_comms", "fig7", "b", tuple(range(10, 71, 10)), 25),
        ("fig7c_big_comms", "fig7", "c", tuple(range(4, 31, 4)), 25),
        ("fig8a_few_comms", "fig8", "a", tuple(range(200, 3501, 300)), 25),
        ("fig8b_some_comms", "fig8", "b", tuple(range(200, 3501, 300)), 25),
        (
            "fig8c_numerous_comms",
            "fig8",
            "c",
            tuple(range(200, 1801, 200)),
            25,
        ),
        ("fig9a_numerous_small", "fig9", "a", tuple(range(2, 15, 2)), 15),
        ("fig9b_some_mixed", "fig9", "b", tuple(range(2, 15, 2)), 25),
        ("fig9c_few_big", "fig9", "c", tuple(range(2, 15, 2)), 25),
    ]
    titles = {
        "fig7": "Figure 7: sensitivity to the number of communications",
        "fig8": "Figure 8: sensitivity to the communication weight",
        "fig9": "Figure 9: sensitivity to the communication length",
    }
    return [
        SweepExperiment(
            name=name,
            title=f"{titles[figure]} (panel {panel})",
            figure=figure,
            panel=panel,
            x_values=xs,
            trials=trials,
        )
        for name, figure, panel, xs, trials in panels
    ]


def _build() -> Dict[str, Experiment]:
    experiments: List[Experiment] = [
        *(_figure_sweeps()),
        SummaryExperiment(
            name="summary_6_4",
            title="Section 6.4 summary averages over all instance families",
        ),
        Fig2Experiment(
            name="fig2_example",
            title="Section 3.5 worked example: XY 128 / 1-MP 56 / 2-MP 32",
        ),
        TheoryRatioExperiment(
            name="theorem1_ratio",
            title="Theorem 1: P_XY / P_maxMP growth on p x p",
            kind="theorem1",
            sizes=(4, 8, 16, 32, 64),
        ),
        TheoryRatioExperiment(
            name="lemma2_ratio",
            title="Lemma 2: P_XY / P_YX on the staircase instance",
            kind="lemma2",
            sizes=(4, 8, 16, 32),
        ),
        BestMembersExperiment(
            name="ablation_best_members",
            title="Ablation: win shares inside BEST, marginal XYI/PR",
        ),
        FrequencyLadderExperiment(
            name="ablation_frequency_ladder",
            title="Ablation: power vs DVFS-ladder granularity",
        ),
        ImproverStartExperiment(
            name="ablation_improver_start",
            title="Ablation: XYI descent seeded by XY, TB and IG",
        ),
        LeakageExperiment(
            name="ablation_leakage",
            title="Ablation: the P_leak/P0 ratio around Kim-Horowitz",
        ),
        OrderingExperiment(
            name="ablation_ordering",
            title="Ablation: communication-processing order for SG/IG/TB",
        ),
        RouterPowerExperiment(
            name="ablation_router_power",
            title="Ablation: router power in the XY-vs-Manhattan story",
        ),
        MetaHeuristicsExperiment(
            name="meta_heuristics",
            title="Extension: SA/GA/TABU vs the paper's heuristics",
        ),
        MultipathGainExperiment(
            name="multipath_gain",
            title="Extension: the XY / 1-MP / s-MP hierarchy, measured",
        ),
        NocLatencyExperiment(
            name="noc_latency",
            title="Deployment: load-latency curves of XY vs PR",
        ),
        OpenProblemExperiment(
            name="open_problem",
            title="Section 7 open problem: shared-endpoint gains",
        ),
        OptimalityGapExperiment(
            name="optimality_gap",
            title="Extension: heuristics vs the exact 1-MP optimum",
        ),
        ReorderOverheadExperiment(
            name="reorder_overhead",
            title="Extension: split budget vs reorder-buffer cost",
        ),
        TrafficPatternsExperiment(
            name="traffic_patterns",
            title="Extension: classic NoC traffic patterns",
        ),
        AppWorkloadsExperiment(
            name="app_workloads",
            title="Extension: published multimedia apps on the 8x8 chip",
        ),
    ]
    registry = {}
    for exp in experiments:
        if exp.name in registry:
            raise ReproError(f"duplicate experiment name {exp.name!r}")
        registry[exp.name] = exp
    return registry


EXPERIMENTS: Dict[str, Experiment] = _build()


def available_experiments() -> List[str]:
    """Registered experiment names, sorted."""
    return sorted(EXPERIMENTS)


def get_experiment(name: str) -> Experiment:
    """Look an experiment up by name (``ReproError`` on unknown)."""
    try:
        return EXPERIMENTS[name]
    except KeyError:
        raise ReproError(
            f"unknown experiment {name!r}; choose from "
            f"{', '.join(available_experiments())}"
        ) from None
