"""Pre-canonical bases and the first route to the atomic decomposition.

For each level i in 2..6 there is a pre-canonical element attached to every
dominant weight: the signed sum, over subsets of the positive roots of
height >= i, of straightened canonical elements

    N^i(lam) = sum over I subset of Phi(>=i) of (-q)^|I| * tH(lam - sum I),

where tH is the straightening of a canonical element to a dominant index
(zero for singular weights, a sign otherwise).  The subset sum is the
product of (1 - q T_{-gamma}) over those roots, taken before straightening,
so one kernel (straightened) computes it, tH itself and the definitional
round trip of the checks.  At level 6 the root set is empty, so N^6 is the
canonical basis; at level 2 the family is the atomic basis.  Each change
of basis between consecutive levels is written once, as a link (see
combo.Link): step_up walks it, a single chain, and inverse_step is the
two-term relation that the chain inverts (combo.relation).  Expanding the
canonical basis into the atomic one is four push passes over the links,
one per level, run forward from the canonical element.  The level-4 chain
is signed; its terms cancel at each level before they travel further.  The
route is kept as the independent oracle for the adjusted route, which
serves atomic() at the package level.  Coefficients of the result are
non-negative, the expansion is unitriangular, and its support lies below
the indexing weight; atomic() checks all three.
"""

from __future__ import annotations

from .lattice import (Weight, PHI_GEQ, check_dominant, check_level,
                      check_weight, dominant_rep)
from .polyq import Poly, iadd_scaled
from .combo import (Combination, ATOMIC, CANONICAL, folded, pre_canonical,
                    relation, walk)


def straightened(terms: dict[Weight, Poly], roots) -> Combination:
    """The terms, read as canonical elements at arbitrary weights, times
    the product of (1 - q T_{-gamma}) over the roots, straightened.

    Each factor copies the terms, then subtracts from the copy q times the
    terms shifted by its root: it reads only what the factor before it
    left, so it needs no order of visit.  Each weight that did not cancel
    is then straightened once, by dominant_rep unless it is dominant
    already.  Neither terms nor any of its polynomials is changed, or
    shared with the result."""
    y = terms
    for ga, gb in roots:
        z = {w: dict(p) for w, p in y.items()}
        for (a, b), p in y.items():
            iadd_scaled(z.setdefault((a - ga, b - gb), {}), p, 1, -1)
        y = z
    acc: dict[Weight, Poly] = {}
    for w, p in y.items():
        sign = 1
        if w[0] < 0 or w[1] < 0:
            sd = dominant_rep(w)
            if sd is None:
                continue
            sign, w = sd
        iadd_scaled(acc.setdefault(w, {}), p, 0, sign)
    return Combination(CANONICAL, {w: p for w, p in acc.items() if p})


def tilde_h(w: Weight) -> Combination:
    """Straightened canonical element for an arbitrary weight: zero when w
    is singular, otherwise a sign times the canonical element at the
    dominant representative of the dot orbit."""
    check_weight(w)
    return straightened({w: {0: 1}}, ())


def defn_precanonical(i: int, lam: Weight) -> Combination:
    """Definitional expansion of the level-i pre-canonical element in the
    canonical basis: signed sum over subsets of the roots of height >= i."""
    check_level(i, 6)
    check_dominant(lam)
    return straightened({lam: {0: 1}}, PHI_GEQ[i])


def inverse_step(i: int, lam: Weight) -> Combination:
    """Expansion of the level-i element at lam in the level-(i+1) basis:
    the two-term relation whose inverse is the chain step_up(i, lam)."""
    check_level(i, 5)
    check_dominant(lam)
    return relation(_LINKS[i], lam, pre_canonical(i + 1))


# Each level's chain is defined by its link (see combo.Link): the next
# weight of the walk and the factor c*q^d it picks up there.  step_up walks
# the chain and inverse_step is its two-term relation.  Level 4 is the only
# signed chain.

def _link5(a: int, b: int):
    return ((a, b - 1), 1, 1) if b >= 1 else None


def _link4(a: int, b: int):
    if a >= 3:
        return (a - 3, b + 1), 1, 1
    if a == 1:
        return (0, b), 1, -1
    if a == 0 and b >= 1:
        return (1, b - 1), 1, -1
    return None  # a == 2 or the origin


def _link3(a: int, b: int):
    if a >= 1:
        return (a - 1, b), 1, 1
    if b >= 2:
        return (2, b - 2), 2, 1
    return None


def _link2(a: int, b: int):
    return ((a + 1, b - 1), 1, 1) if b >= 1 else None


_LINKS = {5: _link5, 4: _link4, 3: _link3, 2: _link2}


def step_up(i: int, lam: Weight) -> Combination:
    """Expansion of the level-(i+1) element at lam in the level-i basis.
    Inverse of inverse_step; a single chain of monomial terms."""
    check_level(i, 5)
    check_dominant(lam)
    return walk(_LINKS[i], lam, pre_canonical(i))


# Closed forms for the four step_up transitions, written as the explicit
# sums that the chain walks unroll to.  Cross-checks only.

def closed_form_6to5(lam: Weight) -> Combination:
    """Canonical element in the level-5 basis: a geometric sum down the
    second coordinate."""
    check_dominant(lam)
    a, b = lam
    return Combination(pre_canonical(5), {(a, b - i): {i: 1} for i in range(b + 1)})


def closed_form_3to2(lam: Weight) -> Combination:
    """Level-3 element in the atomic-level basis: a geometric sum along the
    diagonal trade of the two coordinates."""
    check_dominant(lam)
    a, b = lam
    return Combination(pre_canonical(2), {(a + i, b - i): {i: 1} for i in range(b + 1)})


def closed_form_5to4(lam: Weight) -> tuple[Combination, Combination]:
    """Level-5 element split into a level-4 part and a level-3 remainder;
    the shape depends on lam[0] mod 3.  Returns (level4_part, level3_part)."""
    check_dominant(lam)
    a, b = lam
    m, r = divmod(a, 3)
    part4: dict[Weight, Poly] = {}
    part3: dict[Weight, Poly] = {}
    if r == 0:
        for i in range(m + 1):
            part4[(a - 3 * i, b + i)] = {i: 1}
        for i in range(1, m + b + 1):
            part3[(1, m + b - i)] = {m + 2 * i - 1: -1}
    elif r == 1:
        for i in range(m):
            part4[(a - 3 * i, b + i)] = {i: 1}
        for i in range(m + b + 1):
            part3[(1, m + b - i)] = {m + 2 * i: 1}
    else:
        for i in range(m + 1):
            part4[(a - 3 * i, b + i)] = {i: 1}
    return (Combination(pre_canonical(4), part4),
            Combination(pre_canonical(3), part3))


def closed_form_4to3(lam: Weight) -> Combination:
    """Level-4 element in the level-3 basis: a geometric sum down the first
    coordinate, then period-2 blocks down the second."""
    check_dominant(lam)
    a, b = lam
    terms: dict[Weight, Poly] = {}
    for i in range(a + 1):
        terms[(a - i, b)] = {i: 1}
    m = b // 2
    for i in range(1, m + 1):
        base = a + 4 * i - 2
        terms[(2, b - 2 * i)] = {base: 1}
        terms[(1, b - 2 * i)] = {base + 1: 1}
        terms[(0, b - 2 * i)] = {base + 2: 1}
    return Combination(pre_canonical(3), terms)


# Atomic pipeline, kept as the oracle for the adjusted route (which serves
# production): the canonical combination pushed down the four chain links
# (CHAIN); the level-2 basis is the atomic one.  The verification sweep
# checks it below the top link (g2atomic.graded).

CHAIN = [_link5, _link4, _link3, _link2]
atomic = folded(CHAIN, lambda terms: Combination(ATOMIC, terms))
