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
the walk down by gamma_k along one link, and the level-2 adjusted elements
expand positively into the atomic basis (adjusted2_in_atomic).  One push
pass per level, then the level-2 map, gives a manifestly positive expansion
of the canonical basis into the atomic one (atomic_second).  This route serves
atomic() at the package level; the pre-canonical route is its oracle.
"""

from __future__ import annotations

from .lattice import (GAMMA, INDEX_SUBSETS, X_SINGLE, Weight, check_dominant,
                      check_level, gamma_sum, is_dominant, sub, x_I_member)
from .polyq import Poly, iadd_scaled
from .combo import (ATOMIC, CANONICAL, Combination, adjusted_label, folded,
                    relation, walk)


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


def _adjusted2_push(terms: dict[Weight, Poly]) -> Combination:
    """A combination of adjusted level-2 elements, given by its terms, in
    the atomic basis.

    The element at (a, b) is N(a, b), plus q^s times the element at below
    = (0, b), (1, b-1) or (0, b-2) for a = 2, 1 or 0 (s = 4 for a = 0, else
    2), plus q^k N(a+k, b-k) for 2-a <= k <= b when a < 2; it is N(a, b)
    alone when a >= 3 or a + b < 2.  Every branch is manifestly positive.
    Weights are visited in decreasing a + b, each handing q^s times its
    merged coefficient down to below, so each is expanded once."""
    pending: dict[int, dict] = {}
    for (a, b), p in terms.items():
        pending.setdefault(a + b, {})[a, b] = dict(p)
    out: dict[Weight, Poly] = {}
    for s in range(max(pending, default=-1), -1, -1):
        for (a, b), p in pending.pop(s, {}).items():
            iadd_scaled(out.setdefault((a, b), {}), p)
            if a >= 3 or s < 2:
                continue
            below = (0, b) if a == 2 else (1, b - 1) if a == 1 else (0, b - 2)
            iadd_scaled(pending.setdefault(sum(below), {}).setdefault(below, {}),
                        p, 4 if a == 0 else 2)
            if a < 2:
                for k in range(2 - a, b + 1):
                    iadd_scaled(out.setdefault((a + k, b - k), {}), p, k)
    return Combination(ATOMIC, {w: p for w, p in out.items() if p})


def adjusted2_in_atomic(lam: Weight) -> Combination:
    """Adjusted level-2 element at lam in the atomic basis."""
    check_dominant(lam)
    return _adjusted2_push({lam: {0: 1}})


# Second atomic pipeline, the production route: push the canonical element
# down through the adjusted levels, then expand the level-2 elements in the
# atomic basis.  Every step has non-negative coefficients, so positivity
# holds by construction, and nothing cancels.  The pre-canonical route must
# agree, which the verification sweep asserts.

to_atomic, atomic_second = folded([_LINKS[5], _LINKS[4], _LINKS[3], _LINKS[2]],
                                  _adjusted2_push)
