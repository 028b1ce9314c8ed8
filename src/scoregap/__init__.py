"""Strategic effort investment under peer-estimated scoring rules.

Subgroups observe scored peers spanning different subspaces, recover the
deployed linear rule by minimum-norm regression, and shift their features
against a quadratic effort cost. The principal deploys the unit rule
maximizing total true-quality improvement. This package computes the
resulting movements and improvement metrics, checks when the deployed
rule treats both subgroups fairly, and runs the dataset experiments.
"""

from .errors import (
    ConfigError,
    CsvParseError,
    DegenerateObjectiveError,
    DimensionMismatchError,
    EmptyDataError,
    EmptyGroupError,
    EmptyPeerSetError,
    EpsilonOutOfRangeError,
    IngestError,
    MissingColumnError,
    NonFiniteError,
    NotPositiveDefiniteError,
    RankTooLargeError,
    ScoregapError,
    ShapeMismatchError,
    UnmappedCategoryError,
    ZeroProjectedRuleError,
)
from .linalg import (
    ProjectionMatrix,
    alignment,
    effective_rank,
    min_norm_least_squares,
    subspace_projection,
)
from .agents import (
    CostMatrix,
    PeerDataset,
    Subgroup,
    best_response,
    estimate_rule_analytic,
    estimate_rule_empirical,
    movement,
    utility,
)
from .principal import (
    PopulationModel,
    group_optimal_rule,
    welfare_gain,
    welfare_maximizing_rule,
)
from .metrics import (
    improvement_difference,
    improvement_report,
    optimal_per_unit_improvement,
    per_unit_improvement,
    total_improvement,
)
from .conditions import (
    ConditionCheck,
    check_do_no_harm,
    check_equal_improvement,
    check_per_unit_optimality,
    check_sufficient_per_unit,
    condition_report,
    disparity_example,
)
from .ingest import (
    Dataset,
    GroupPredicate,
    GroupingSpec,
    load_csv,
    split_masks,
    standardize_columns,
)
from .config import ExperimentConfig, ModelEntry, load_config
from .modelio import load_model, model_from_dict
from .experiment import population_payload, render_csv, render_json, run_analysis

__version__ = "0.1.0"

# every public name bound above, less the submodules the imports bind
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, type(errors))] + ["__version__"]
