"""Bernstein-Sato ideals for parametric families, with symbolic certificates.

Exact computation over Q of Bernstein-Sato polynomials and ideals,
generic Bernstein-Sato data over prime parameter loci, and finite
stratifications of parameter space, every claim accompanied by an
operator identity that re-verifies by direct action on f^s.
"""

from .annbs import (
    BernsteinPoly,
    BSIdeal,
    ann_fs,
    bs_ideal,
    bs_poly,
    rationality_report,
)
from .cli import JobSpec, main, run_command
from .errors import (
    DecompositionUnsupported,
    DivisionByZeroModQ,
    EmptyAnsatz,
    FamilyVanishesModQ,
    GenbsError,
    HomogeneityViolation,
    InvalidInput,
    MixedRingError,
    ParseError,
    PointOutsideStratum,
    TimeoutBudget,
    UnitIdealError,
    VerificationFailed,
    ZeroPolynomialError,
)
from .factor import Factorization, factor, squarefree_decomposition, squarefree_part
from .fsmodule import (
    AnsatzBounds,
    FsElement,
    act,
    ansatz_bs,
    check_congruence,
    check_identity,
    congruence_remainder,
)
from .groebner import buchberger, ideal_dim, normal_form
from .instance import ProblemInstance, generic_family, make_instance
from .orders import Block, GRevLex, Lex, TermOrder
from .parametric import (
    GenericBS,
    ResidueField,
    generic_bs,
    op_scale_clear,
    rationalize,
    residue_context,
    specialize_check,
)
from .parser import parse_op, parse_poly
from .poly import Poly, PolyRing, QQ
from .primes import PrimeIdealQ, minimal_primes, the_zero_prime
from .stratify import (
    LocallyClosedSet,
    Region,
    Stratification,
    Stratum,
    refine_partition,
    sample_point,
    stratify,
)
from .variables import VarRegistry
from .weyl import WeylOp, WeylRing, commutator
from .weyl_groebner import GBBudget, LeftIdealW, eliminate, left_buchberger

__version__ = "0.1.0"

__all__ = [
    "AnsatzBounds",
    "BernsteinPoly",
    "Block",
    "BSIdeal",
    "DecompositionUnsupported",
    "DivisionByZeroModQ",
    "EmptyAnsatz",
    "Factorization",
    "FamilyVanishesModQ",
    "FsElement",
    "GBBudget",
    "GenbsError",
    "GenericBS",
    "GRevLex",
    "HomogeneityViolation",
    "InvalidInput",
    "JobSpec",
    "LeftIdealW",
    "Lex",
    "LocallyClosedSet",
    "MixedRingError",
    "ParseError",
    "PointOutsideStratum",
    "Poly",
    "PolyRing",
    "PrimeIdealQ",
    "ProblemInstance",
    "QQ",
    "Region",
    "ResidueField",
    "Stratification",
    "Stratum",
    "TermOrder",
    "TimeoutBudget",
    "UnitIdealError",
    "VarRegistry",
    "VerificationFailed",
    "WeylOp",
    "WeylRing",
    "ZeroPolynomialError",
    "act",
    "ann_fs",
    "ansatz_bs",
    "bs_ideal",
    "bs_poly",
    "buchberger",
    "check_congruence",
    "check_identity",
    "commutator",
    "congruence_remainder",
    "eliminate",
    "factor",
    "generic_bs",
    "generic_family",
    "ideal_dim",
    "left_buchberger",
    "main",
    "make_instance",
    "minimal_primes",
    "normal_form",
    "op_scale_clear",
    "parse_op",
    "parse_poly",
    "rationality_report",
    "rationalize",
    "refine_partition",
    "residue_context",
    "run_command",
    "sample_point",
    "specialize_check",
    "squarefree_decomposition",
    "squarefree_part",
    "stratify",
    "the_zero_prime",
]
