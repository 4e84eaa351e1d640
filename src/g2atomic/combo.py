"""Basis-labeled linear combinations of dominant weights.

A Combination is a finite sum of basis elements indexed by dominant weights,
with Laurent-polynomial coefficients.  The basis label records which family
the indexing elements belong to; mixing labels in arithmetic is a usage
error.  Level 6 of either parametrized family coincides with the canonical
basis, and labels compare accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from typing import Callable, Optional

from .lattice import (Weight, check_dominant, dominance_leq, is_dominant,
                      to_root_coords)
from .polyq import Poly, poly_add, poly_mul, iadd_scaled, one

_KINDS = ("canonical", "standard", "atomic", "precanonical", "adjusted")


@dataclass(frozen=True)
class BasisLabel:
    kind: str
    level: Optional[int] = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown basis kind {self.kind!r}")
        if self.kind in ("precanonical", "adjusted"):
            if self.level not in (2, 3, 4, 5, 6):
                raise ValueError(f"{self.kind} level must be in 2..6, got {self.level!r}")
        elif self.level is not None:
            raise ValueError(f"{self.kind} basis takes no level")

    def normalized(self) -> "BasisLabel":
        # Both parametrized families equal the canonical basis at level 6.
        if self.level == 6:
            return CANONICAL
        return self

    def __str__(self) -> str:
        if self.level is None:
            return self.kind
        return f"{self.kind}({self.level})"


CANONICAL = BasisLabel("canonical")
STANDARD = BasisLabel("standard")
ATOMIC = BasisLabel("atomic")


def pre_canonical(i: int) -> BasisLabel:
    return BasisLabel("precanonical", i)


def adjusted_label(k: int) -> BasisLabel:
    return BasisLabel("adjusted", k)


def same_basis(x: BasisLabel, y: BasisLabel) -> bool:
    return x.normalized() == y.normalized()


def parse_basis(s: str) -> BasisLabel:
    """Inverse of str(label)."""
    if s in ("canonical", "standard", "atomic"):
        return BasisLabel(s)
    for kind in ("precanonical", "adjusted"):
        if s.startswith(kind + "(") and s.endswith(")"):
            return BasisLabel(kind, int(s[len(kind) + 1:-1]))
    raise ValueError(f"unknown basis label {s!r}")


@dataclass
class Combination:
    """Sparse map from dominant weights to nonzero polynomials, plus a basis
    label.  Treated as immutable by convention; cached instances are shared."""

    basis: BasisLabel
    terms: dict[Weight, Poly] = field(default_factory=dict)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Combination):
            return NotImplemented
        return same_basis(self.basis, other.basis) and self.terms == other.terms

    def coeff(self, w: Weight) -> Poly:
        return self.terms.get(w, {})


def empty(basis: BasisLabel) -> Combination:
    return Combination(basis, {})


def single(basis: BasisLabel, w: Weight, p: Optional[Poly] = None) -> Combination:
    check_dominant(w)
    if p is None:
        p = one()
    return Combination(basis, {w: dict(p)} if p else {})


def combo_add(x: Combination, y: Combination) -> Combination:
    if not same_basis(x.basis, y.basis):
        raise ValueError(f"basis mismatch: {x.basis} vs {y.basis}")
    terms = {w: dict(p) for w, p in x.terms.items()}
    for w, p in y.terms.items():
        s = poly_add(terms.get(w, {}), p)
        if s:
            terms[w] = s
        else:
            terms.pop(w, None)
    return Combination(x.basis, terms)


def combo_scale(p: Poly, x: Combination) -> Combination:
    if not p:
        return Combination(x.basis, {})
    return Combination(x.basis, {w: poly_mul(p, r) for w, r in x.terms.items()})


def substitute(x: Combination, expander: Callable[[Weight], Combination],
               basis: Optional[BasisLabel] = None) -> Combination:
    """Replace each indexing weight w of x by expander(w) and collect terms.

    All expander outputs must share one basis label, which becomes the label
    of the result; pass basis= to assert it (required when x is empty, since
    there is nothing to infer from).
    """
    out_basis = basis
    acc: dict[Weight, Poly] = {}
    for w, p in x.terms.items():
        sub = expander(w)
        if out_basis is None:
            out_basis = sub.basis
        elif not same_basis(out_basis, sub.basis):
            raise ValueError(f"basis mismatch: {out_basis} vs {sub.basis}")
        for u, r in sub.terms.items():
            tgt = acc.get(u)
            if tgt is None:
                tgt = acc[u] = {}
            for e1, c1 in p.items():
                iadd_scaled(tgt, r, e1, c1)
    if out_basis is None:
        raise ValueError("cannot infer result basis from an empty combination")
    return Combination(out_basis, {w: q for w, q in acc.items() if q})


def layered(base: Callable[[Weight], Combination],
            chains: list[Callable[[Weight], Combination]],
            basis: BasisLabel) -> tuple:
    """Memoized layers of chain substitutions over a base expander: layer
    k is mu -> substitute(chains[k-1](mu), layer k-1, basis=basis), with
    layer 0 = base.  Returns the layers built on base, top last; the top
    layer is the checked expansion of the canonical element in the atomic
    basis.  Cached Combinations are shared; callers must not mutate them."""
    *inner, top_chain = chains
    layers = []
    for chain in inner:
        base = cache(lambda mu, chain=chain, lower=base:
                     substitute(chain(mu), lower, basis=basis))
        layers.append(base)

    @cache
    def atomic(lam: Weight) -> Combination:
        """Expansion of the canonical element at lam in the atomic basis,
        checked to be unitriangular with non-negative coefficients
        supported below lam."""
        check_dominant(lam)
        terms = substitute(top_chain(lam), base, basis=basis).terms
        if terms.get(lam) != {0: 1}:
            raise RuntimeError(f"atomic expansion at {lam!r} is not unitriangular")
        for w, p in terms.items():
            if not dominance_leq(w, lam):
                raise RuntimeError(f"atomic expansion at {lam!r} has support at {w!r}")
            if any(c < 0 for c in p.values()):
                raise RuntimeError(f"atomic expansion at {lam!r} has a negative "
                                   f"coefficient at {w!r}: {p!r}")
        return Combination(ATOMIC, terms)

    return (*layers, atomic)


def display_key(w: Weight):
    """Sort key for rendering: decreasing height, then decreasing first and
    second root coordinates.  A total order on weights."""
    r1, r2 = to_root_coords(w)
    return (-(r1 + r2), -r1, -r2)


def sorted_support(x: Combination, first: Optional[Weight] = None) -> list[Weight]:
    """Support of x for display: the designated weight first when present,
    then the rest by display_key."""
    rest = [w for w in x.terms if w != first]
    rest.sort(key=display_key)
    if first is not None and first in x.terms:
        return [first] + rest
    return rest


def validate(x: Combination) -> None:
    """Assert the representation invariants (dominant keys, canonical
    nonzero polynomials).  Test and debug helper."""
    for w, p in x.terms.items():
        assert is_dominant(w), f"non-dominant key {w!r}"
        assert p, f"zero polynomial stored at {w!r}"
        assert all(c != 0 for c in p.values()), f"zero coefficient at {w!r}"
