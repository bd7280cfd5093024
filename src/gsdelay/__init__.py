"""Group-sequential trial design and the efficiency cost of delayed outcomes.

Builds two-arm group-sequential designs (stopping boundaries, stage sizes,
exit probabilities, expected sample size) and quantifies how much of their
efficiency gain over a single-stage trial is lost when outcomes arrive a
fixed delay after recruitment, under uniform, linear or mixed accrual.
"""

from .boundaries import (
    BoundaryFamily,
    BoundarySet,
    FutilityStyle,
    HwangShihDeCani,
    WangTsiatis,
    hsd_spend,
    spending_boundaries,
    wt_boundaries,
)
from .delay import DelayAssessment, DelayQuery, assess_delay, efficiency_loss, ess_delay, expected_time
from .design import (
    DesignSpec,
    GroupSequentialDesign,
    build_design,
    round_for_report,
    single_stage_n,
)
from .errors import ConfigError, ScenarioError, SolveError
from .recruitment import PipelineProfile, RecruitmentModel, pipeline_counts, recruit_time, solve_delta
from .scenario import Scenario, load_scenario, parse_scenario, spacing_for
from .sequential import (
    ExitProbabilities,
    SequentialProblem,
    exit_probabilities,
    normal_quantile,
)
from .simulate import SimConfig, SimResult, simulate

__version__ = "0.1.0"

__all__ = [
    "BoundaryFamily",
    "BoundarySet",
    "ConfigError",
    "DelayAssessment",
    "DelayQuery",
    "DesignSpec",
    "ExitProbabilities",
    "FutilityStyle",
    "GroupSequentialDesign",
    "HwangShihDeCani",
    "PipelineProfile",
    "RecruitmentModel",
    "Scenario",
    "ScenarioError",
    "SequentialProblem",
    "SimConfig",
    "SimResult",
    "SolveError",
    "WangTsiatis",
    "assess_delay",
    "build_design",
    "efficiency_loss",
    "ess_delay",
    "exit_probabilities",
    "expected_time",
    "hsd_spend",
    "load_scenario",
    "normal_quantile",
    "parse_scenario",
    "pipeline_counts",
    "recruit_time",
    "round_for_report",
    "simulate",
    "single_stage_n",
    "solve_delta",
    "spacing_for",
    "spending_boundaries",
    "wt_boundaries",
    "__version__",
]
