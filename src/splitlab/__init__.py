"""Prime splitting in quadratic and multiquadratic fields, the local splitting
series, and certified tower constructions."""

from .errors import ResourceBudgetError, SplitlabError, VerificationError
from .primes import (
    FactoredInt,
    PrimeRange,
    crt_solve,
    find_prime_in_ap,
    is_prime,
    kronecker,
    sieve_primes,
    squarefree_kernel,
)
from .quadratic import (
    LocalData,
    SplittingType,
    SquarefreeInt,
    discriminant,
    local_data_quadratic,
    splitting_type,
)
from .multiquadratic import (
    MultiquadField,
    compositum,
    is_totally_real,
    linearly_disjoint,
    local_data,
    totally_split,
)
from .series import (
    SeriesReport,
    StabilizationCertificate,
    partial_sum,
    series_term,
    tail_bound_fully_inert,
    tower_sum,
)
from .constructions import (
    ConstructionTrace,
    SplittingSpec,
    WidmerTerm,
    build_divergence_tower,
    build_split_prime_tower,
    certify_adjoin_i_convergence,
    construct_prescribed_quadratic,
    search_inert_companion,
)
from .density import DensityReport, count_totally_split, reciprocal_sum_totally_split
from .northcott import NorthcottBounds, northcott_bounds, select_prime_window

__version__ = "0.1.0"

__all__ = [
    "ConstructionTrace",
    "DensityReport",
    "FactoredInt",
    "LocalData",
    "MultiquadField",
    "NorthcottBounds",
    "PrimeRange",
    "ResourceBudgetError",
    "SeriesReport",
    "SplitlabError",
    "SplittingSpec",
    "SplittingType",
    "SquarefreeInt",
    "StabilizationCertificate",
    "VerificationError",
    "WidmerTerm",
    "build_divergence_tower",
    "build_split_prime_tower",
    "certify_adjoin_i_convergence",
    "compositum",
    "construct_prescribed_quadratic",
    "count_totally_split",
    "crt_solve",
    "discriminant",
    "find_prime_in_ap",
    "is_prime",
    "is_totally_real",
    "kronecker",
    "linearly_disjoint",
    "local_data",
    "local_data_quadratic",
    "northcott_bounds",
    "partial_sum",
    "reciprocal_sum_totally_split",
    "search_inert_companion",
    "select_prime_window",
    "series_term",
    "sieve_primes",
    "splitting_type",
    "squarefree_kernel",
    "tail_bound_fully_inert",
    "totally_split",
    "tower_sum",
]
