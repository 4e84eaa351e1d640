"""Adjusted bases and the second route to the atomic decomposition.

The adjusted element at level k subtracts one q-shifted term from the
level-(k+1) element when the indexing weight lies in the correction set X_k,
and is the level-(k+1) element otherwise:

    tN^k(lam) = tN^{k+1}(lam) - q * tN^{k+1}(lam - gamma_k)   if lam in X_k
    tN^k(lam) = tN^{k+1}(lam)                                 otherwise,

with tN^6 the canonical basis.  Unwinding the recursion across all four
levels expresses an adjusted element as a signed sum of canonical elements
over the sets X_I (adjusted_in_canonical).  In the other direction each
level inverts to a chain with all-positive powers of q (adjusted_expand_up),
and the level-2 adjusted elements expand positively into the atomic basis
(adjusted2_in_atomic), which yields a manifestly positive expansion of the
canonical basis into the atomic one (atomic_second).  This route serves
atomic() at the package level; the pre-canonical route is its oracle.
"""

from __future__ import annotations

from functools import cache

from .lattice import (Weight, GAMMA, check_dominant, gamma_sum, is_dominant,
                      sub, x_I_member, x_set_member)
from .polyq import Poly, poly_add, monomial, iadd_scaled
from .combo import Combination, CANONICAL, ATOMIC, adjusted_label, layered

_INDEX_SUBSETS = tuple(
    tuple(i for i in (2, 3, 4, 5) if mask & (1 << (i - 2)))
    for mask in range(16)
)


def _check_level(k: int) -> None:
    if k not in (2, 3, 4, 5):
        raise ValueError(f"level must be in 2..5, got {k!r}")


def adjusted_step_down(k: int, lam: Weight) -> Combination:
    """Adjusted level-k element in the level-(k+1) adjusted basis: the
    defining one- or two-term relation."""
    _check_level(k)
    check_dominant(lam)
    terms: dict[Weight, Poly] = {lam: {0: 1}}
    if x_set_member(k, lam):
        terms[sub(lam, GAMMA[k])] = {1: -1}
    return Combination(adjusted_label(k + 1), terms)


def adjusted_expand_up(k: int, lam: Weight) -> Combination:
    """Adjusted level-(k+1) element in the level-k adjusted basis: the
    inverse chain, walking down by gamma_k while membership in X_k holds."""
    _check_level(k)
    check_dominant(lam)
    terms: dict[Weight, Poly] = {}
    w = lam
    j = 0
    while True:
        terms[w] = {j: 1}
        if x_set_member(k, w):
            w = sub(w, GAMMA[k])
            j += 1
        else:
            break
    return Combination(adjusted_label(k), terms)


def adjusted_in_canonical(k: int, lam: Weight) -> Combination:
    """Adjusted level-k element in the canonical basis: the recursion
    unwound, a signed sum over index subsets I with min I >= k whose
    membership set X_I contains lam."""
    if k not in (2, 3, 4, 5, 6):
        raise ValueError(f"level must be in 2..6, got {k!r}")
    check_dominant(lam)
    acc: dict[Weight, Poly] = {}
    for I in _INDEX_SUBSETS:
        if I and I[0] < k:
            continue
        if not x_I_member(I, lam):
            continue
        w = sub(lam, gamma_sum(I))
        # membership guarantees the shifted weight stays dominant
        if not is_dominant(w):
            raise RuntimeError(f"index set {I!r} left the dominant cone at {lam!r}")
        size = len(I)
        cur = poly_add(acc.get(w, {}), monomial(size, 1 if size % 2 == 0 else -1))
        if cur:
            acc[w] = cur
        else:
            acc.pop(w, None)
    return Combination(CANONICAL, acc)


def _adjusted2_below(lam: Weight) -> Weight | None:
    """The weight whose level-2 expansion the case split at lam reuses, or
    None in the base case.  Steps descend in the coordinate sum."""
    a, b = lam
    if a >= 3 or a + b < 2:
        return None
    if a == 2:
        return (0, b)
    if a == 1:
        return (1, b - 1)
    return (0, b - 2)


@cache
def adjusted2_in_atomic(lam: Weight) -> Combination:
    """Adjusted level-2 element in the atomic basis.

    Case split on the first coordinate; every branch is manifestly positive.
    """
    check_dominant(lam)
    below = _adjusted2_below(lam)
    if below is None:
        return Combination(ATOMIC, {lam: {0: 1}})
    # Fill the memo from the base case upward, so that no call reaches more
    # than one step down and the stack stays flat at any weight.
    descent = [below]
    while (w := _adjusted2_below(descent[-1])) is not None:
        descent.append(w)
    for w in reversed(descent):
        adjusted2_in_atomic(w)
    # a == 2: q^2 times the expansion at below.  a == 1 (b >= 1) and a == 0
    # (b >= 2): q^2 resp. q^4 times it, plus q^k N(a+k, b-k) for k >= 2-a.
    a, b = lam
    terms: dict[Weight, Poly] = {lam: {0: 1}}
    _acc_scaled(terms, adjusted2_in_atomic(below), 4 if a == 0 else 2)
    if a < 2:
        for k in range(2 - a, b + 1):
            _acc_poly(terms, (a + k, b - k), monomial(k))
    return Combination(ATOMIC, terms)


def _acc_scaled(dst: dict[Weight, Poly], x: Combination, exp: int) -> None:
    # dst += q**exp * x, in place
    for w, p in x.terms.items():
        tgt = dst.get(w)
        if tgt is None:
            tgt = dst[w] = {}
        iadd_scaled(tgt, p, exp, 1)
        if not tgt:
            del dst[w]


def _acc_poly(dst: dict[Weight, Poly], w: Weight, p: Poly) -> None:
    cur = poly_add(dst.get(w, {}), p)
    if cur:
        dst[w] = cur
    else:
        dst.pop(w, None)


# Second atomic pipeline, the production route: expand the canonical
# element down through the adjusted levels, then substitute the atomic
# expansion of level 2.  Every step has non-negative coefficients, so
# positivity holds by construction, and nothing cancels.  The pre-canonical
# route must agree, which the verification sweep asserts.

_t3_atomic, _t4_atomic, _t5_atomic, atomic_second = layered(
    adjusted2_in_atomic,
    [lambda mu: adjusted_expand_up(2, mu), lambda mu: adjusted_expand_up(3, mu),
     lambda mu: adjusted_expand_up(4, mu), lambda mu: adjusted_expand_up(5, mu)],
    basis=ATOMIC)
