"""The fold below the top link, in ints: what the verify sweep checks.

Write r2(a, b) = a + 2b, the second root coordinate.  The top link of both
atomic routes sends (a, b) to (a, b-1) with factor q, so by linearity
atomic(lam) is lam folded through the links below the top, plus q times
atomic(a, b-1).  That fold is the level-5 element at lam in the atomic
basis, and it is graded: every link below the top, on both routes, and
every tail of the adjusted route carries q to its drop in r2.  So it is one
monomial n*q^(r2(lam - w)) at each w, and this module folds only the ints
n.  graded_push asserts that power of q at every step; with_q puts q back.

Only the sweep (g2atomic.checks) imports this module.  atomic, expand and
verify(lam) keep the polynomial fold of combo.folded.
"""

from __future__ import annotations

from . import adjusted, precanonical
from .combo import ATOMIC, Combination, Link, _descend, dominant_memo
from .lattice import Weight


def graded_push(terms: dict[Weight, int], link: Link) -> dict[Weight, int]:
    """combo.push on the ints n of terms n*q^(r - r2(w)), one r for all: a
    link that carries q to its drop in r2 keeps that form, so only the ints
    travel.  Raises RuntimeError at the first step that does not descend
    (see combo._descend) or carries another power of q."""
    buckets: dict[int, dict[Weight, int]] = {}
    for w, n in terms.items():
        buckets.setdefault(3 * w[0] + 5 * w[1], {})[w] = n
    out: dict[Weight, int] = {}
    h = max(buckets, default=0) + 1
    while buckets:
        h -= 1
        bucket = buckets.pop(h, None)
        if bucket is None:
            continue
        for w, n in bucket.items():
            if not n:
                continue
            out[w] = n
            step = link(*w)
            if step is None:
                continue
            u, d, c = step
            a, b = u
            hu = 3 * a + 5 * b
            if hu >= h or a < 0 or b < 0:
                _descend(w, u, h)
            if w[0] - a + 2 * (w[1] - b) != d:
                raise RuntimeError(f"chain link from {w!r} to {u!r} carries q^{d}, "
                                   f"not q^{w[0] - a + 2 * (w[1] - b)}, its drop in r2")
            tgt = buckets.get(hu)
            if tgt is None:
                buckets[hu] = {u: c * n}
            else:
                tgt[u] = tgt.get(u, 0) + c * n
    return out


def tails(terms: dict[Weight, int]) -> dict[Weight, int]:
    """adjusted._tails on the ints, in place: the tail q^k N(a+k, b-k) drops
    r2 by k, so it adds n where _tails adds q^k p.  The tails out of (0, s)
    and (1, s-1) both cover (j, s-j) for 2 <= j <= s, so each such weight
    gets the sum of their ints once."""
    sums: dict[int, int] = {}
    for (a, b), n in terms.items():
        if a < 2:
            sums[a + b] = sums.get(a + b, 0) + n
    for s, n in sums.items():
        if not n:
            continue
        for j in range(2, s + 1):
            u = (j, s - j)
            v = terms.get(u, 0) + n
            if v:
                terms[u] = v
            else:
                del terms[u]
    return terms


def below_top(chain: list[Link], base=None):
    """The function that folds lam through every link of chain but the top
    one, as the ints {w: n}, then through base, a map on those ints, when
    given.  It is memoized by dominant_memo, so it keeps the one result
    asked for last, which is not to be mutated; the sweep's three checks
    of it share one fold at each weight."""
    lower = chain[1:]

    @dominant_memo
    def level5(lam: Weight) -> dict[Weight, int]:
        terms = {lam: 1}
        for link in lower:
            terms = graded_push(terms, link)
        return terms if base is None else base(terms)
    return level5


precanonical_level5 = below_top(precanonical.CHAIN)
adjusted_level5 = below_top(adjusted.CHAIN, tails)


def with_q(lam: Weight, terms: dict[Weight, int]) -> Combination:
    """The level-5 element at lam in the atomic basis, from the ints of its
    fold below the top link: n*q^(r2(lam - w)) at each w."""
    r = lam[0] + 2 * lam[1]
    return Combination(ATOMIC, {w: {r - w[0] - 2 * w[1]: n} for w, n in terms.items()})


def check_positive(lam: Weight, terms: dict[Weight, int]) -> None:
    """combo.check_atomic on the ints of a fold below the top link, in its
    words: n = 1 at lam, support dominant and below lam (so every power of
    q is at least 0), and every n at least 1; else ValueError."""
    if terms.get(lam) != 1:
        raise ValueError(f"atomic expansion at {lam!r} is not unitriangular")
    la, lb = lam
    for w, n in terms.items():
        a, b = w
        if (a < 0 or b < 0
                or 2 * (la - a) + 3 * (lb - b) < 0 or la - a + 2 * (lb - b) < 0):
            raise ValueError(f"atomic expansion at {lam!r} has support at {w!r}")
        if n < 1:
            raise ValueError(f"atomic expansion at {lam!r} has coefficient "
                             f"{n!r} at {w!r}, not a positive int")
