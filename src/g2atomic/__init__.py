"""Exact computer algebra for the spherical Hecke algebra of affine type G2.

The package computes pre-canonical bases, the atomic decomposition of
canonical (Kazhdan-Lusztig) basis elements, and generalized Kostka-Foulkes
polynomials, all in exact integer arithmetic.  Two independent routes to the
atomic decomposition are implemented and cross-checked: atomic() is the
positive adjusted route, and precanonical.atomic is its oracle.  A Freudenthal
weight-multiplicity oracle pins the q=1 specializations to classical
representation theory.
"""

import importlib

__version__ = "0.1.0"

# Each submodule and the public names it defines.  A name is imported on
# first use (PEP 562), so that a caller loads only the submodules it needs.
_PUBLIC = {
    "lattice": ("Weight", "height", "to_root_coords", "is_dominant",
                "dominance_leq", "dominant_rep"),
    "polyq": ("Poly", "eval_at_one"),
    "combo": ("Combination", "BasisLabel", "CANONICAL", "STANDARD", "ATOMIC",
              "pre_canonical", "adjusted_label", "substitute", "sorted_support"),
    "precanonical": ("defn_precanonical", "step_up", "inverse_step", "tilde_h"),
    "adjusted": ("atomic_second", "adjusted_expand_up", "adjusted_step_down",
                 "adjusted_in_canonical", "adjusted2_in_atomic"),
    "kostka": ("kostka_foulkes", "canonical_to_standard", "atomic_to_standard",
               "freudenthal_multiplicity", "weyl_dimension"),
    "checks": ("verify",),
}
# name -> (submodule, attribute); atomic() is the positive adjusted route.
_SOURCES = {name: (module, name) for module, names in _PUBLIC.items() for name in names}
_SOURCES["atomic"] = ("adjusted", "atomic_second")

__all__ = [*_SOURCES, "__version__"]


def __getattr__(name):
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module, attr = _SOURCES[name]
    value = getattr(importlib.import_module(f"{__name__}.{module}"), attr)
    globals()[name] = value
    return value
