"""Pre-canonical bases and the first route to the atomic decomposition.

For each level i in 2..6 there is a pre-canonical element attached to every
dominant weight: the signed sum, over subsets of the positive roots of
height >= i, of straightened canonical elements

    N^i(lam) = sum over I subset of Phi(>=i) of (-q)^|I| * tH(lam - sum I),

where tH is the straightening of a canonical element to a dominant index
(zero for singular weights, a sign otherwise).  At level 6 the root set is
empty, so N^6 is the canonical basis; at level 2 the family is the atomic
basis.  Between consecutive levels the change of basis is given by two-term
relations (inverse_step) whose inversions are single chains (step_up), so
expanding the canonical basis into the atomic one is a composition of four
chain substitutions.  The level-4 chain is signed, so this route cancels
heavily; it is kept as the independent oracle for the adjusted route, which
serves atomic() at the package level.  Coefficients of the result are
non-negative, the expansion is unitriangular, and its support lies below
the indexing weight; atomic() checks all three.
"""

from __future__ import annotations

from functools import cache

from .lattice import Weight, PHI_GEQ, check_dominant, dominant_rep
from .polyq import Poly, poly_add, monomial
from .combo import Combination, CANONICAL, layered, pre_canonical


def _check_level(i: int, lo: int, hi: int) -> None:
    if not (isinstance(i, int) and lo <= i <= hi):
        raise ValueError(f"level must be in {lo}..{hi}, got {i!r}")


def tilde_h(w: Weight) -> Combination:
    """Straightened canonical element for an arbitrary weight: zero when w
    is singular, otherwise a sign times the canonical element at the
    dominant representative of the dot orbit."""
    sd = dominant_rep(w)
    if sd is None:
        return Combination(CANONICAL, {})
    sign, rep = sd
    return Combination(CANONICAL, {rep: {0: sign}})


def defn_precanonical(i: int, lam: Weight) -> Combination:
    """Definitional expansion of the level-i pre-canonical element in the
    canonical basis: signed sum over subsets of the roots of height >= i."""
    _check_level(i, 2, 6)
    check_dominant(lam)
    roots = PHI_GEQ[i]
    n = len(roots)
    acc: dict[Weight, Poly] = {}
    for mask in range(1 << n):
        sa, sb = lam
        size = 0
        m = mask
        j = 0
        while m:
            if m & 1:
                sa -= roots[j][0]
                sb -= roots[j][1]
                size += 1
            m >>= 1
            j += 1
        sd = dominant_rep((sa, sb))
        if sd is None:
            continue
        sign, rep = sd
        coeff = sign if size % 2 == 0 else -sign
        cur = poly_add(acc.get(rep, {}), monomial(size, coeff))
        if cur:
            acc[rep] = cur
        else:
            acc.pop(rep, None)
    return Combination(CANONICAL, acc)


def inverse_step(i: int, lam: Weight) -> Combination:
    """Expansion of the level-i element at lam in the level-(i+1) basis.
    Always one or two terms."""
    _check_level(i, 2, 5)
    check_dominant(lam)
    a, b = lam
    terms: dict[Weight, Poly] = {lam: {0: 1}}
    if i == 5:
        if b >= 1:
            terms[(a, b - 1)] = {1: -1}
    elif i == 4:
        if a >= 3:
            terms[(a - 3, b + 1)] = {1: -1}
        elif a == 1:
            terms[(0, b)] = {1: 1}
        elif a == 0 and b >= 1:
            terms[(1, b - 1)] = {1: 1}
        # a == 2 and the origin need no correction term
    elif i == 3:
        if a >= 1:
            terms[(a - 1, b)] = {1: -1}
        elif b >= 2:
            terms[(2, b - 2)] = {2: -1}
    else:  # i == 2
        if b >= 1:
            terms[(a + 1, b - 1)] = {1: -1}
    return Combination(pre_canonical(i + 1), terms)


# step_up inverts the chains above.  Each walk visits pairwise distinct
# weights, but a cheap cap guards against a typo ever making one cycle.
def _walk_cap(lam: Weight) -> int:
    return 4 * (lam[0] + lam[1]) + 16


def step_up(i: int, lam: Weight) -> Combination:
    """Expansion of the level-(i+1) element at lam in the level-i basis.
    Inverse of inverse_step; a single chain of monomial terms."""
    _check_level(i, 2, 5)
    check_dominant(lam)
    a, b = lam
    if i == 5:
        terms = {(a, b - j): {j: 1} for j in range(b + 1)}
        return Combination(pre_canonical(5), terms)
    if i == 2:
        terms = {(a + j, b - j): {j: 1} for j in range(b + 1)}
        return Combination(pre_canonical(2), terms)
    if i == 3:
        terms = {}
        e = 0
        cap = _walk_cap(lam)
        while True:
            terms[(a, b)] = {e: 1}
            if a >= 1:
                a -= 1
                e += 1
            elif b >= 2:
                a, b = 2, b - 2
                e += 2
            else:
                break
            cap -= 1
            if cap < 0:
                raise RuntimeError(f"chain walk from {lam!r} did not terminate")
        return Combination(pre_canonical(3), terms)
    # i == 4: the only chain with signs
    terms = {}
    e = 0
    c = 1
    cap = _walk_cap(lam)
    while True:
        terms[(a, b)] = {e: c}
        if a >= 3:
            a -= 3
            b += 1
            e += 1
        elif a == 2:
            break
        elif a == 1:
            a = 0
            e += 1
            c = -c
        elif b >= 1:  # a == 0
            a, b = 1, b - 1
            e += 1
            c = -c
        else:
            break
        cap -= 1
        if cap < 0:
            raise RuntimeError(f"chain walk from {lam!r} did not terminate")
    return Combination(pre_canonical(4), terms)


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


_CLOSED_FORMS = {
    "6to5": closed_form_6to5,
    "3to2": closed_form_3to2,
    "5to4": closed_form_5to4,
    "4to3": closed_form_4to3,
}


def closed_form(which: str, lam: Weight):
    """Dispatch over the four named transitions.  "5to4" returns a pair
    (level-4 part, level-3 part); the others return one Combination."""
    try:
        fn = _CLOSED_FORMS[which]
    except KeyError:
        raise ValueError(f"unknown closed form {which!r}; expected one of "
                         f"{sorted(_CLOSED_FORMS)}") from None
    return fn(lam)


# Atomic pipeline, kept as the oracle for the adjusted route (which serves
# production): three memoized layers over the level-3 chain, then the
# checked top layer.  Sweeps share all the work.

@cache
def _n3_atomic(mu: Weight) -> Combination:
    return step_up(2, mu)


_n4_atomic, _n5_atomic, atomic = layered(
    _n3_atomic,
    [lambda mu: step_up(3, mu), lambda mu: step_up(4, mu), lambda mu: step_up(5, mu)],
    basis=pre_canonical(2))
