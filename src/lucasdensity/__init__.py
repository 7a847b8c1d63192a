"""Exact Dirichlet densities for rank-of-apparition divisibility in Lucas sequences."""

from .density import (
    REFERENCE_PROFILES,
    REFERENCE_ROWS,
    DensityResult,
    STerm,
    dispatch,
    normal_form,
    s_eval,
    series_oracle,
)
from .errors import (
    DiscMismatchError,
    DivisionByZeroError,
    HypothesisError,
    LimitError,
    LucasDensityError,
    OracleMismatchError,
    ReducibleError,
    TorsionError,
    UnreachableCaseError,
    ZeroParameterError,
)
from .lucasrank import (
    EmpiricalReport,
    dump_ranks,
    empirical_density,
    rank,
    spf_sieve,
)
from .quadfield import (
    QuadElem,
    SequenceContext,
    gamma_from_radicand,
    make_context,
    power_index,
)

__version__ = "0.1.0"

__all__ = [
    "DensityResult",
    "DiscMismatchError",
    "DivisionByZeroError",
    "EmpiricalReport",
    "HypothesisError",
    "LimitError",
    "LucasDensityError",
    "OracleMismatchError",
    "QuadElem",
    "REFERENCE_PROFILES",
    "REFERENCE_ROWS",
    "ReducibleError",
    "STerm",
    "SequenceContext",
    "TorsionError",
    "UnreachableCaseError",
    "ZeroParameterError",
    "__version__",
    "dispatch",
    "dump_ranks",
    "empirical_density",
    "gamma_from_radicand",
    "make_context",
    "normal_form",
    "power_index",
    "rank",
    "s_eval",
    "series_oracle",
    "spf_sieve",
]
