"""Sums of linear Cantor sets: covering, uniqueness dimension, structure.

The library analyzes digit sets A in base n (0, n-1 in A) through the
sumset A + A: whether C_A + C_A fills [0, 2], the Hausdorff dimension
of the set of uniquely representable sums, the full-interval / Cantor /
mixed trichotomy, explicit constructions, and exhaustive or randomized
search -- everything cross-checked by an exact finite-depth oracle.
"""

from .digitset import (
    DigitSet,
    InvariantError,
    SumsetProfile,
    is_n_good,
    reflect,
    sumset_profile,
)
from .gdifs import (
    TypingProfile,
    UniquenessReport,
    classify_intervals,
    edge_digit_dimension_bound,
    perron_eigenvalue,
    uniqueness_report,
)
from .structure import (
    CantorDimension,
    NotApplicableError,
    StructureCase,
    StructureReport,
    cantor_sum_dimension,
    classify_structure,
)
from .oracle import (
    BudgetExceededError,
    GrowthReport,
    LevelSet,
    growth_check,
    is_refinement,
    level_set,
    level_start_counts,
    level_typing_counts,
    typing_count_evolution,
)
from .constructions import (
    BaseMissingError,
    ChainRow,
    TowerChain,
    TowerVerificationError,
    VeryGoodPreconditionError,
    chain_to_target,
    load_base_table,
    load_base_table_dims,
    predicted_tower_matrix,
    sqrt_good_set,
    tower,
    tower_dim,
)
from .search import (
    InfeasibleSearchError,
    LOG2_OVER_LOG3,
    SearchRecord,
    SearchResult,
    figure_data,
    iter_exhaustive_records,
    search_exhaustive,
    search_heuristic,
)
from .report import AnalysisReport, analyze

__version__ = "0.1.0"
