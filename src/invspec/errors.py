"""Exception hierarchy shared across the package."""
from __future__ import annotations


class InvspecError(Exception):
    """Base class for all library-specific failures."""


class InputError(InvspecError):
    """Malformed or out-of-contract user input (files, index ranges)."""


class DegenerateDenominatorError(InvspecError):
    """The Fredholm determinant vanished on the real axis, where the scan counts its zeros."""


class NonFiniteResultError(InvspecError):
    """A computed result overflowed to a non-finite value."""


class ConvergenceError(InvspecError):
    """A truncated quantity failed its convergence criterion."""


class VerificationError(InvspecError):
    """One or more verification checks failed; the message names them."""
