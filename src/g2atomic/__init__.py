"""Exact computer algebra for the spherical Hecke algebra of affine type G2.

The package computes pre-canonical bases, the atomic decomposition of
canonical (Kazhdan-Lusztig) basis elements, and generalized Kostka-Foulkes
polynomials, all in exact integer arithmetic.  Two independent routes to the
atomic decomposition are implemented and cross-checked: atomic() is the
positive adjusted route, and precanonical.atomic is its oracle.  A Freudenthal
weight-multiplicity oracle pins the q=1 specializations to classical
representation theory.
"""

from .lattice import Weight, height, to_root_coords, is_dominant, dominance_leq, dominant_rep
from .polyq import Poly, eval_at_one
from .combo import Combination, BasisLabel, CANONICAL, STANDARD, ATOMIC, pre_canonical, adjusted_label, substitute, sorted_support
from .precanonical import defn_precanonical, step_up, inverse_step, tilde_h
from .adjusted import atomic_second, adjusted_expand_up, adjusted_step_down, adjusted_in_canonical, adjusted2_in_atomic
from .adjusted import atomic_second as atomic
from .kostka import kostka_foulkes, canonical_to_standard, atomic_to_standard, freudenthal_multiplicity, weyl_dimension, verify

__version__ = "0.1.0"

__all__ = [
    "Weight", "height", "to_root_coords", "is_dominant", "dominance_leq", "dominant_rep",
    "Poly", "eval_at_one",
    "Combination", "BasisLabel", "CANONICAL", "STANDARD", "ATOMIC",
    "pre_canonical", "adjusted_label", "substitute", "sorted_support",
    "atomic", "defn_precanonical", "step_up", "inverse_step", "tilde_h",
    "atomic_second", "adjusted_expand_up", "adjusted_step_down",
    "adjusted_in_canonical", "adjusted2_in_atomic",
    "kostka_foulkes", "canonical_to_standard", "atomic_to_standard",
    "freudenthal_multiplicity", "weyl_dimension", "verify",
    "__version__",
]
