"""Basis-labeled linear combinations of dominant weights.

A Combination is a finite sum of basis elements indexed by dominant weights,
with Laurent-polynomial coefficients.  The basis label records which family
the indexing elements belong to; mixing labels in arithmetic is a usage
error.  There is one label object per basis, so labels compare by identity.
Level 6 of either parametrized family is the canonical basis, and its label
is CANONICAL.
"""

from __future__ import annotations

from functools import lru_cache, update_wrapper
from typing import Callable, Optional

from .lattice import Weight, check_dominant, height
from .polyq import Poly, iadd_scaled, one


class BasisLabel:
    """A basis family, with its level when the family takes one.  There is
    one object per basis: BasisLabel(kind, level) returns it from a fixed
    table, and copies and pickles return it too, so labels compare by
    identity.  Level 6 of either parametrized family is CANONICAL.
    Immutable and hashable."""

    def __new__(cls, kind: str, level: Optional[int] = None):
        try:
            return _LABELS[kind, level]
        except (KeyError, TypeError):
            raise ValueError(f"no basis {kind!r} at level {level!r}") from None

    def __reduce__(self):
        return BasisLabel, (self.kind, self.level)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return f"BasisLabel(kind={self.kind!r}, level={self.level!r})"

    def __str__(self) -> str:
        if self.level is None:
            return self.kind
        return f"{self.kind}({self.level})"


def _label(kind: str, level: Optional[int] = None) -> BasisLabel:
    label = object.__new__(BasisLabel)
    label.__dict__.update(kind=kind, level=level)
    return label


CANONICAL, STANDARD, ATOMIC = map(_label, ("canonical", "standard", "atomic"))

# Every basis, keyed by (kind, level).  Level 6 of either family maps to
# CANONICAL.
_LABELS = {(x.kind, None): x for x in (CANONICAL, STANDARD, ATOMIC)}
_LABELS.update({(kind, i): CANONICAL if i == 6 else _label(kind, i)
                for kind in ("precanonical", "adjusted") for i in (2, 3, 4, 5, 6)})


def pre_canonical(i: int) -> BasisLabel:
    return BasisLabel("precanonical", i)


def adjusted_label(k: int) -> BasisLabel:
    return BasisLabel("adjusted", k)


class Combination:
    """Sparse map from dominant weights to nonzero polynomials, plus a basis
    label.  Treated as immutable by convention; cached instances are shared.
    Unhashable."""

    def __init__(self, basis: BasisLabel,
                 terms: Optional[dict[Weight, Poly]] = None):
        self.basis = basis
        self.terms = {} if terms is None else terms

    def __repr__(self) -> str:
        return f"Combination(basis={self.basis!r}, terms={self.terms!r})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Combination):
            return NotImplemented
        return self.basis is other.basis and self.terms == other.terms


def single(basis: BasisLabel, w: Weight, p: Optional[Poly] = None) -> Combination:
    check_dominant(w)
    if p is None:
        p = one()
    return Combination(basis, {w: dict(p)} if p else {})


def combo_add(x: Combination, y: Combination) -> Combination:
    """x + y, sharing no polynomial with either."""
    if x.basis is not y.basis:
        raise ValueError(f"basis mismatch: {x.basis} vs {y.basis}")
    terms = {w: dict(p) for w, p in x.terms.items()}
    for w, p in y.terms.items():
        iadd_scaled(terms.setdefault(w, {}), p)
    return Combination(x.basis, {w: p for w, p in terms.items() if p})


def substitute(x: Combination, expander: Callable[[Weight], Combination],
               basis: Optional[BasisLabel] = None) -> Combination:
    """Replace each indexing weight w of x by expander(w) and collect terms.

    All expander outputs must share one basis label, which becomes the label
    of the result; pass basis= to assert it (required when x is empty, since
    there is nothing to infer from).

    Cost model: expander is called once per weight of x, and the work is
    one coefficient update per (monomial of x's polynomial at w) x
    (monomial of expander(w)), counted before any cancellation, each made by
    the accumulate loop of polyq.iadd_scaled, written out here so that no
    update costs a call.  Neither x nor any expander output is mutated or
    shared with the result.
    """
    out_basis = basis
    acc: dict[Weight, Poly] = {}
    for w, p in x.terms.items():
        sub = expander(w)
        if out_basis is None:
            out_basis = sub.basis
        elif sub.basis is not out_basis:
            raise ValueError(f"basis mismatch: {out_basis} vs {sub.basis}")
        for u, r in sub.terms.items():
            tgt = acc.setdefault(u, {})
            for k, c in p.items():
                for e, v in r.items():
                    e += k
                    v = tgt.get(e, 0) + v * c
                    if v:
                        tgt[e] = v
                    else:
                        del tgt[e]
    if out_basis is None:
        raise ValueError("cannot infer result basis from an empty combination")
    return Combination(out_basis, {u: r for u, r in acc.items() if r})


# A chain is given by its link: link(a, b) is ((a', b'), d, c) when the
# chain at w = (a, b) is w + c*q^d*(the chain at (a', b')), c a nonzero int,
# and None when the chain at w is w alone.  A link must lead to a dominant
# weight of strictly lower height, so every chain ends.
Link = Callable[[int, int], Optional[tuple[Weight, int, int]]]


def _descend(w: Weight, u: Weight, h: int) -> None:
    """Raise RuntimeError unless u, the successor of w, which has height h,
    is dominant and strictly lower than w.  walk and push make the same
    test inline and call this only when it fails."""
    a, b = u
    if 3 * a + 5 * b >= h or a < 0 or b < 0:
        raise RuntimeError(f"chain link from {w!r} to {u!r} does not descend "
                           f"in the dominant cone")


def walk(link: Link, lam: Weight, basis: BasisLabel) -> Combination:
    """The chain at lam in basis: lam with coefficient 1, then each
    successor with the product of the link factors c*q^d met so far."""
    terms: dict[Weight, Poly] = {}
    w, e, c, h = lam, 0, 1, height(lam)
    while True:
        terms[w] = {e: c}
        step = link(*w)
        if step is None:
            return Combination(basis, terms)
        u, d, s = step
        a, b = u
        hu = 3 * a + 5 * b
        if hu >= h or a < 0 or b < 0:
            _descend(w, u, h)
        w, e, c, h = u, e + d, c * s, hu


def relation(link: Link, lam: Weight, basis: BasisLabel) -> Combination:
    """The two-term element in basis whose chain is walk(link, lam, .): lam
    with coefficient 1, minus c*q^d at the successor when link leads on.
    Raises RuntimeError if the link does not descend (see _descend)."""
    terms: dict[Weight, Poly] = {lam: {0: 1}}
    step = link(*lam)
    if step is not None:
        u, d, c = step
        _descend(lam, u, height(lam))
        terms[u] = {d: -c}
    return Combination(basis, terms)


def push(terms: dict[Weight, Poly], link: Link) -> dict[Weight, Poly]:
    """The terms of substitute(x, chain) for x with these terms, where chain
    is the walk along link, computed one link at a time.

    Weights are visited by decreasing height, kept in buckets keyed by
    height.  Each weight's merged coefficient p, kept free of zeros as
    polyq.iadd_scaled keeps it (its loop is written out here), is written
    out and handed once to its successor as c*q^d*p, which is a new
    polynomial when the successor has none yet.  That is one coefficient
    update per output monomial, and signed terms cancel before they travel
    on.  terms is not mutated and shares no polynomial with the result.
    Raises RuntimeError if a link does not descend (see _descend)."""
    buckets: dict[int, dict[Weight, Poly]] = {}
    for w, p in terms.items():
        buckets.setdefault(3 * w[0] + 5 * w[1], {})[w] = dict(p)
    out: dict[Weight, Poly] = {}
    h = max(buckets, default=0)
    while buckets:
        for w, p in buckets.pop(h, {}).items():
            if not p:
                continue
            out[w] = p
            step = link(*w)
            if step is None:
                continue
            u, d, c = step
            a, b = u
            hu = 3 * a + 5 * b
            if hu >= h or a < 0 or b < 0:
                _descend(w, u, h)
            bucket = buckets.setdefault(hu, {})
            tgt = bucket.get(u)
            if tgt is None:
                bucket[u] = tgt = {}
                for e, v in p.items():
                    tgt[e + d] = v * c
                continue
            for e, v in p.items():
                e += d
                v = tgt.get(e, 0) + v * c
                if v:
                    tgt[e] = v
                else:
                    del tgt[e]
        h -= 1
    return out


def folded(links: list[Link],
           base: Callable[[dict[Weight, Poly]], Combination]) -> tuple:
    """One route to the atomic basis as a left fold.  fold(terms, links)
    pushes terms, at dominant weights in the basis that links[0] leaves,
    through one push pass per link in turn, then hands them, fresh and so
    free to mutate, to the base map, which returns the atomic combination.
    Each level expands every weight once, so signed terms cancel before
    they are expanded further.  Returns (expand, atomic):

    - expand(x) checks x (else ValueError) and folds it through every link;
    - atomic(lam) is expand at the canonical element at lam, checked by
      check_atomic, and memoized by dominant_memo, so it keeps the one
      result asked for last, which is not to be mutated: kostka_foulkes at
      one lam and many mu folds lam once.

    The fold below the top link, which the verify sweep checks, is folded
    in ints by g2atomic.graded."""
    def fold(terms: dict[Weight, Poly], links: list[Link]) -> Combination:
        for link in links:
            terms = push(terms, link)
        return base(terms)

    def expand(x: Combination) -> Combination:
        if x.basis is not CANONICAL:
            raise ValueError(f"cannot expand a combination in the {x.basis} basis")
        for w in x.terms:
            check_dominant(w)
        return fold(x.terms, links)

    @dominant_memo
    def atomic(lam: Weight) -> Combination:
        """Expansion of the canonical element at lam in the atomic basis,
        checked by check_atomic."""
        x = fold({lam: {0: 1}}, links)
        check_atomic(lam, x)
        return x

    return expand, atomic


def dominant_memo(fn):
    """fn of one weight, keeping the one result asked for last (lru_cache(1)),
    behind check_dominant, since (2.0, 1) equals and hashes like (2, 1)."""
    memo = lru_cache(1)(fn)
    checked = update_wrapper(lambda lam: check_dominant(lam) or memo(lam), fn)
    checked.cache_info, checked.cache_clear = memo.cache_info, memo.cache_clear
    return checked


def check_atomic(lam: Weight, x: Combination) -> None:
    """Raise ValueError unless x is an expansion of the canonical element at
    lam in the atomic basis: unitriangular, supported on dominant weights
    below lam, with nonzero coefficients in N[q] of degree at most
    r2(lam - w), the second root coordinate of lam - w at w."""
    if x.basis is not ATOMIC:
        raise ValueError(f"expansion at {lam!r} is in the {x.basis} basis, not atomic")
    if x.terms.get(lam) != {0: 1}:
        raise ValueError(f"atomic expansion at {lam!r} is not unitriangular")
    la, lb = lam
    for w, p in x.terms.items():
        a, b = w
        r2 = la - a + 2 * (lb - b)
        # dominant, and below lam: lam - w has non-negative root coordinates
        if a < 0 or b < 0 or 2 * (la - a) + 3 * (lb - b) < 0 or r2 < 0:
            raise ValueError(f"atomic expansion at {lam!r} has support at {w!r}")
        if not p or min(p) < 0 or min(p.values()) < 0:
            raise ValueError(f"atomic expansion at {lam!r} has coefficient "
                             f"{p!r} at {w!r}, not a nonzero element of N[q]")
        if max(p) > r2:
            raise ValueError(f"atomic expansion at {lam!r} has coefficient "
                             f"{p!r} at {w!r}, of degree above r2 = {r2}")


def display_key(w: Weight) -> int:
    """Sort key for rendering: decreasing height h = 3a+5b, then decreasing
    first root coordinate r = 2a+3b.  The two fix the weight, so this is a
    total order.  One int, h(h+1) + r negated, orders as the pair does,
    since 0 <= r <= h on dominant weights, and costs no tuple per weight."""
    a, b = w
    h = 3 * a + 5 * b
    return -(h * (h + 1) + 2 * a + 3 * b)


def sorted_support(x: Combination, first: Optional[Weight] = None) -> list[Weight]:
    """Support of x for display: the designated weight first when present,
    then the rest by display_key."""
    rest = [w for w in x.terms if w != first]
    rest.sort(key=display_key)
    if first is not None and first in x.terms:
        rest.insert(0, first)
    return rest
