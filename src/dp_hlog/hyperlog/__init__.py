"""Word algebra, derived conic webs and numerics for hyperlogarithms."""

from .dp4 import (
    DP4Data,
    ResidueMismatch,
    SymbolicIdentityViolation,
    conic_web,
    dp4_data,
    dp4_residue_check,
    dp4_symbolic_identity,
)
from .numeric import (
    LogFormBasis,
    NumericReport,
    PathEvaluation,
    PathTooClose,
    QuadratureFailure,
    ai3_cross_check,
    evaluate_words,
    verify_identity_numeric,
)
from .words import (
    IdentityReport,
    WordCombination,
    asym,
    shuffle,
    shuffle_combinations,
    verify_asym_shuffle_identities,
    word,
)

__all__ = [
    "DP4Data",
    "IdentityReport",
    "LogFormBasis",
    "NumericReport",
    "PathEvaluation",
    "PathTooClose",
    "QuadratureFailure",
    "ResidueMismatch",
    "SymbolicIdentityViolation",
    "WordCombination",
    "ai3_cross_check",
    "asym",
    "conic_web",
    "dp4_data",
    "dp4_residue_check",
    "dp4_symbolic_identity",
    "evaluate_words",
    "shuffle",
    "shuffle_combinations",
    "verify_asym_shuffle_identities",
    "verify_identity_numeric",
    "word",
]
