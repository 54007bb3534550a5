"""Exception types shared across the package.

Every error that can surface through the CLI carries an ``exit_code`` so
that command dispatch can map failures onto the documented process exit
codes (2 = verification failed, 3 = budget exhausted, 4 = input/problem
error).
"""

import sys


class GenbsError(Exception):
    """Base class for all package errors."""

    exit_code = 4


class InvalidInput(GenbsError, ValueError):
    """Malformed input: a bad name, shift vector or bound (still a ValueError)."""


def digit_limit(what):
    """Message for an integer past Python's limit on int/str conversion."""
    return (
        "%s has more than %d digits, the limit of Python's int/str conversion "
        "(sys.get_int_max_str_digits(); the environment variable "
        "PYTHONINTMAXSTRDIGITS sets it)" % (what, sys.get_int_max_str_digits())
    )


class MixedRingError(GenbsError):
    """Operands live in different rings."""


class MissingBasisError(GenbsError):
    """An operation required a cached Groebner basis that is not present."""


class UnitIdealError(GenbsError):
    """The ideal is the whole ring where a proper ideal was required."""


class DecompositionUnsupported(GenbsError):
    """Minimal-prime decomposition left the supported splitting fragment."""


class ZeroPolynomialError(GenbsError):
    """Zero polynomial passed where a nonzero one is required."""


class VerificationFailed(GenbsError):
    """An internal check on a computed result failed: a pipeline bug."""

    exit_code = 2


class HomogeneityViolation(GenbsError):
    """A weight-homogeneous element was expected but not found."""


class TimeoutBudget(GenbsError):
    """A configured step/size budget was exhausted.

    Carries a ``partial`` dict describing how far the computation got, so
    callers can emit an honest partial report instead of a wrong answer.
    """

    exit_code = 3

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = dict(partial or {})


class DivisionByZeroModQ(GenbsError, ZeroDivisionError):
    """A residue-field denominator lies in Q (still a ZeroDivisionError)."""


class FamilyVanishesModQ(GenbsError):
    """Some member of the polynomial family is identically zero modulo Q."""


class NonRationalCertificate(GenbsError):
    """The ideal handed to ``rationalize`` has no generators, so no
    rational member can be read from it.  The search itself needs no
    budget: on an irreducible V(Q) a nonzero rational member exists."""


class PointOutsideStratum(GenbsError):
    """A parameter point does not satisfy the stratum's membership conditions."""


class EmptyAnsatz(GenbsError):
    """The bounded linear ansatz admits no solution with nonzero b."""


class ParseError(GenbsError):
    """Syntax or lookup error while parsing an expression."""

    def __init__(self, message, line=1, col=1):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col
