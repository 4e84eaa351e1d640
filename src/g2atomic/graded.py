"""The fold below the top link, in ints: what the verify sweep checks.

Write r2(a, b) = a + 2b, the second root coordinate.  The top link of both
atomic routes sends (a, b) to (a, b-1) with factor q, so by linearity
atomic(lam) is lam folded through the links below the top, plus q times
atomic(a, b-1).  That fold is the level-5 element at lam in the atomic
basis, and it is graded: every link below the top, on both routes, and
every tail of the adjusted route carries q to its drop in r2.  So it is one
monomial n*q^(r2(lam - w)) at each w, and this module folds only the ints
n.  graded_push asserts that power of q at every step; in_canonical, the
round trip's kernel, straightens the ints and puts q back once, at the end.

Only the sweep (g2atomic.checks) imports this module.  atomic, expand and
verify(lam) keep the polynomial fold of combo.folded.
"""

from __future__ import annotations

from . import adjusted, precanonical
from .combo import CANONICAL, Combination, Link, _descend, dominant_memo
from .lattice import PHI_GEQ, Weight, dominant_rep
from .polyq import Poly


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


# The roots of the atomic elements' factors (1 - q T_{-gamma}), split by
# their r2: a root with r2 = 1 keeps the form n*q^(r - r2(w)) of the fold
# below the top link, one with r2 = 2 writes one power of q below it.
ONE_DROP = tuple(g for g in PHI_GEQ[2] if g[0] + 2 * g[1] == 1)
TWO_DROP = tuple(g for g in PHI_GEQ[2] if g[0] + 2 * g[1] == 2)


def in_canonical(lam: Weight, terms: dict[Weight, int]) -> Combination:
    """The element whose fold below the top link at lam has the ints terms,
    n*q^(r2(lam - w)) at each w, in the canonical basis:
    precanonical.straightened of it times the factors over PHI_GEQ[2], with
    q put back once, at the end.

    Each factor of ONE_DROP keeps one int per weight: it subtracts the
    ints, shifted by its root, from a copy of them.  The single factor of
    TWO_DROP then adds a second grade, one power of q lower, and each
    weight that did not cancel is straightened once in each grade, by
    dominant_rep unless it is dominant already.  terms is not changed."""
    y = terms
    for ga, gb in ONE_DROP:
        z = dict(y)
        for (a, b), n in y.items():
            if n:
                u = a - ga, b - gb
                z[u] = z.get(u, 0) - n
        y = z
    ((ga, gb),) = TWO_DROP
    r = lam[0] + 2 * lam[1]
    acc: dict[Weight, Poly] = {}
    for (a, b), n in y.items():
        if not n:
            continue  # cancelled
        e = r - a - 2 * b
        for w, f, c in (((a, b), e, n), ((a - ga, b - gb), e + 1, -n)):
            if w[0] < 0 or w[1] < 0:
                sd = dominant_rep(w)
                if sd is None:
                    continue
                sign, w = sd
                c *= sign
            p = acc.get(w)
            if p is None:
                acc[w] = {f: c}
                continue
            c += p.get(f, 0)
            if c:
                p[f] = c
            else:
                del p[f]
    return Combination(CANONICAL, {w: p for w, p in acc.items() if p})


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
