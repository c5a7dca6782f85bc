"""shw: a verification workbench for finite semi-Heyting algebras.

The package hard-codes a catalog of small simple algebras (chains and
four-element diamonds with a dual De Morgan style negation), checks
identities against them by exhaustive evaluation, computes subalgebra /
congruence / morphism structure, counts subvarieties, decides amalgamation
instances, and searches for algebras on a given lattice satisfying or
violating chosen identities.
"""

from .algebra import (
    FiniteAlgebra,
    ValidationReport,
    expand,
    from_json_dict,
    lattice_from_covers,
    product,
    subalgebra,
    to_json_dict,
    validate_lattice,
)
from .errors import (
    InputError,
    ParseError,
    ShwError,
    SignatureError,
    StructuralError,
)

__version__ = "0.1.0"

__all__ = [
    "FiniteAlgebra",
    "ValidationReport",
    "expand",
    "from_json_dict",
    "lattice_from_covers",
    "product",
    "subalgebra",
    "to_json_dict",
    "validate_lattice",
    "InputError",
    "ParseError",
    "ShwError",
    "SignatureError",
    "StructuralError",
    "__version__",
]
