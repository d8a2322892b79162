"""Exact L-functions and analytic ranks of twisted Carlitz tensor powers."""

from .ff import (PrimeField, ExtField, ResidueCtx, field_make,
                 field_from_cardinality, binom_mod_p)
from .poly import (Poly, poly_gcd, is_squarefree, is_irreducible,
                   irreducibles_of_degree, irreducible_count,
                   poly_to_str, poly_from_str)
from .lfun import LFun, lfun_order_at, lfun_substitute
from .motive import (TwistedPower, build_matrix, l_function, analytic_rank,
                     infinity_factor, d_coefficients)

__version__ = "0.1.0"

__all__ = [
    "PrimeField", "ExtField", "ResidueCtx", "field_make",
    "field_from_cardinality", "binom_mod_p",
    "Poly", "poly_gcd", "is_squarefree", "is_irreducible",
    "irreducibles_of_degree", "irreducible_count", "poly_to_str",
    "poly_from_str",
    "LFun", "lfun_order_at", "lfun_substitute",
    "TwistedPower", "build_matrix", "l_function",
    "analytic_rank", "infinity_factor", "d_coefficients",
    "__version__",
]
