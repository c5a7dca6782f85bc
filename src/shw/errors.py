"""Exception hierarchy shared across the package.

Structural problems (malformed tables, unknown labels) are kept distinct
from mathematical failures (a lattice law that does not hold): the former
raise, the latter are reported as data.
"""

from __future__ import annotations


class ShwError(Exception):
    """Base class for all package errors."""


class StructuralError(ShwError):
    """An operation table or element list is malformed."""


class SignatureError(ShwError):
    """An operation was requested that the algebra does not carry."""


class InputError(ShwError):
    """User-supplied input (labels, keys, expressions) is invalid."""


class ParseError(InputError):
    """Raised by the term parser; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position
