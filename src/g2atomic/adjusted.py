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
the walk down by gamma_k along one link.  A level-2 adjusted element is,
in the atomic basis, a fifth chain, the level-2 correction, with a tail
of atomic terms at each weight (adjusted2_in_atomic).  Five push passes,
then the tails, expand the canonical basis positively into the atomic one
(atomic_second), the route of atomic(); the pre-canonical route is its oracle.
"""

from __future__ import annotations

from .lattice import (GAMMA, INDEX_SUBSETS, X_SINGLE, Weight, check_dominant,
                      check_level, gamma_sum, is_dominant, sub, x_I_member)
from .polyq import Poly, iadd_scaled
from .combo import (ATOMIC, CANONICAL, Combination, adjusted_label, folded,
                    push, relation, walk)


def adjusted_step_down(k: int, lam: Weight) -> Combination:
    """Adjusted level-k element in the level-(k+1) adjusted basis: the
    defining one- or two-term relation, whose inverse is the chain
    adjusted_expand_up(k, lam)."""
    check_level(k, 5)
    check_dominant(lam)
    return relation(_LINKS[k], lam, adjusted_label(k + 1))


def _link(k: int):
    """The level-k chain link: down by gamma_k while membership in X_k
    holds, which keeps every step inside the dominant cone."""
    member = X_SINGLE[k]
    ga, gb = GAMMA[k]
    return lambda a, b: ((a - ga, b - gb), 1, 1) if member(a, b) else None


_LINKS = {k: _link(k) for k in (2, 3, 4, 5)}


def adjusted_expand_up(k: int, lam: Weight) -> Combination:
    """Adjusted level-(k+1) element in the level-k adjusted basis: the
    inverse chain, walking down by gamma_k while membership in X_k holds."""
    check_level(k, 5)
    check_dominant(lam)
    return walk(_LINKS[k], lam, adjusted_label(k))


def adjusted_in_canonical(k: int, lam: Weight) -> Combination:
    """Adjusted level-k element in the canonical basis: the recursion
    unwound, a signed sum over index subsets I with min I >= k whose
    membership set X_I contains lam."""
    check_level(k, 6)
    check_dominant(lam)
    acc: dict[Weight, Poly] = {}
    for I in INDEX_SUBSETS:
        if I and I[0] < k:
            continue
        if not x_I_member(I, lam):
            continue
        w = sub(lam, gamma_sum(I))
        # membership guarantees the shifted weight stays dominant
        if not is_dominant(w):
            raise RuntimeError(f"index set {I!r} left the dominant cone at {lam!r}")
        iadd_scaled(acc.setdefault(w, {}), {len(I): (-1) ** len(I)})
    return Combination(CANONICAL, {w: p for w, p in acc.items() if p})


def _link2(a: int, b: int):
    """The level-2 correction link: (2, b) to (0, b) and (1, b) to (1, b-1)
    with q^2, (0, b) to (0, b-2) with q^4, none once a >= 3 or a + b < 2."""
    if a >= 3 or a + b < 2:
        return None
    if a == 0:
        return (0, b - 2), 4, 1
    return ((0, b) if a == 2 else (1, b - 1)), 2, 1


def _tails(terms: dict[Weight, Poly]) -> Combination:
    """Terms pushed along _link2, in the atomic basis: adds, in place,
    q^k N(a+k, b-k) for 2-a <= k <= b at each weight with a < 2.  Tails land
    only where a >= 2, so one snapshot of the a < 2 terms orders the pass."""
    for (a, b), p in [(w, p) for w, p in terms.items() if w[0] < 2]:
        for k in range(2 - a, b + 1):
            iadd_scaled(terms.setdefault((a + k, b - k), {}), p, k)
    return Combination(ATOMIC, {w: p for w, p in terms.items() if p})


def adjusted2_in_atomic(lam: Weight) -> Combination:
    """Adjusted level-2 element at lam in the atomic basis: the chain along
    _link2, each weight with its tail.  Every term is manifestly positive."""
    check_dominant(lam)
    return _tails(push({lam: {0: 1}}, _link2))


# Second atomic pipeline, the production route: the canonical element pushed
# down the adjusted levels and the level-2 correction, then the tails.  Every
# step is non-negative, so positivity holds by construction and nothing
# cancels; the verification sweep checks it against the pre-canonical route.

to_atomic, atomic_second = folded(
    [_LINKS[5], _LINKS[4], _LINKS[3], _LINKS[2], _link2], _tails)
