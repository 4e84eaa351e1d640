"""Sparse integer Laurent polynomials in q.

A polynomial is a dict mapping exponent to nonzero integer coefficient; the
zero polynomial is the empty dict.  Canonical form means no zero entries, so
dict equality is polynomial equality.  Functions never mutate their
arguments, except the in-place accumulator helpers, which mutate only the
accumulator they are handed.  Exponents may be negative in principle; every
basis change in this package produces only non-negative ones.

Accumulators.  iadd_scaled keeps one polynomial canonical as it goes.  The
helpers for a sparse sum of polynomials keyed by weight (iadd_terms,
iadd_product) do not: to save a test and a deletion per coefficient update,
such an accumulator may hold zero coefficients and empty polynomials until
pruned() returns its canonical form.  Each of them makes one coefficient
update per pair (monomial of one factor) x (monomial of the other), and
never stores a polynomial it was handed: a key seen for the first time gets
a fresh copy.
"""

from __future__ import annotations

Poly = dict[int, int]


def zero() -> Poly:
    return {}


def one() -> Poly:
    return {0: 1}


def monomial(exp: int, coeff: int = 1) -> Poly:
    return {exp: coeff} if coeff else {}


def poly_add(p: Poly, r: Poly) -> Poly:
    out = dict(p)
    for e, c in r.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def poly_mul(p: Poly, r: Poly) -> Poly:
    out: Poly = {}
    for e1, c1 in p.items():
        for e2, c2 in r.items():
            e = e1 + e2
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def iadd_scaled(acc: Poly, p: Poly, k: int = 0, coeff: int = 1) -> None:
    """In-place acc += coeff * q**k * p.  Internal accumulator plumbing;
    acc must be a dict owned by the caller."""
    if not coeff:
        return
    for e, c in p.items():
        e2 = e + k
        s = acc.get(e2, 0) + c * coeff
        if s:
            acc[e2] = s
        else:
            del acc[e2]


def iadd_terms(acc: dict, terms: dict, k: int = 0, c: int = 1) -> None:
    """In place, acc[u] += c * q**k * terms[u] for every key u of terms.
    May leave zeros in acc; see pruned."""
    if c == 1 and k == 0:
        for u, r in terms.items():
            tgt = acc.get(u)
            if tgt is None:
                acc[u] = dict(r)
            else:
                for e, v in r.items():
                    tgt[e] = tgt.get(e, 0) + v
    elif c == 1:
        for u, r in terms.items():
            tgt = acc.get(u)
            if tgt is None:
                acc[u] = {e + k: v for e, v in r.items()}
            else:
                for e, v in r.items():
                    e += k
                    tgt[e] = tgt.get(e, 0) + v
    elif c == -1:
        for u, r in terms.items():
            tgt = acc.get(u)
            if tgt is None:
                acc[u] = {e + k: -v for e, v in r.items()}
            else:
                for e, v in r.items():
                    e += k
                    tgt[e] = tgt.get(e, 0) - v
    else:
        for u, r in terms.items():
            tgt = acc.get(u)
            if tgt is None:
                acc[u] = {e + k: v * c for e, v in r.items()}
            else:
                for e, v in r.items():
                    e += k
                    tgt[e] = tgt.get(e, 0) + v * c


def iadd_product(acc: dict, p: Poly, terms: dict) -> None:
    """In place, acc[u] += p * terms[u] for every key u of terms.  May leave
    zeros in acc; see pruned.

    A monomial p is one pass of iadd_terms.  Otherwise each monomial
    terms[u] shifts a copy of p, and only a product of two polynomials with
    several terms each runs the double loop."""
    if len(p) == 1:
        (k, c), = p.items()
        iadd_terms(acc, terms, k, c)
        return
    for u, r in terms.items():
        tgt = acc.get(u)
        if len(r) == 1:
            (k, c), = r.items()
            if tgt is None:
                acc[u] = {e + k: v * c for e, v in p.items()}
            elif c == 1:
                for e, v in p.items():
                    e += k
                    tgt[e] = tgt.get(e, 0) + v
            elif c == -1:
                for e, v in p.items():
                    e += k
                    tgt[e] = tgt.get(e, 0) - v
            else:
                for e, v in p.items():
                    e += k
                    tgt[e] = tgt.get(e, 0) + v * c
        else:
            if tgt is None:
                tgt = acc[u] = {}
            for k, c in p.items():
                for e, v in r.items():
                    e += k
                    tgt[e] = tgt.get(e, 0) + v * c


def pruned(acc: dict) -> dict:
    """The canonical form of an accumulator: zero coefficients dropped, then
    empty polynomials.  Only polynomials that hold a zero are rebuilt."""
    out = {}
    for u, r in acc.items():
        if 0 in r.values():
            r = {e: v for e, v in r.items() if v}
        if r:
            out[u] = r
    return out


def eval_at_one(p: Poly) -> int:
    return sum(p.values())


def is_nonnegative(p: Poly) -> bool:
    return all(c >= 0 for c in p.values())


def degree(p: Poly):
    """Largest exponent, or None for the zero polynomial."""
    return max(p) if p else None


def leading_coeff(p: Poly) -> int:
    return p[max(p)] if p else 0


def to_pairs(p: Poly) -> list[list[int]]:
    """Serialize as [exponent, coefficient] pairs, ascending exponent."""
    return [[e, p[e]] for e in sorted(p)]


def from_pairs(pairs) -> Poly:
    """Inverse of to_pairs.  Rejects duplicate exponents and zero
    coefficients so that serialized form stays canonical."""
    out: Poly = {}
    for e, c in pairs:
        e = int(e)
        c = int(c)
        if c == 0:
            raise ValueError("zero coefficient in serialized polynomial")
        if e in out:
            raise ValueError("duplicate exponent in serialized polynomial")
        out[e] = c
    return out
