"""Sparse integer Laurent polynomials in q.

A polynomial is a dict mapping exponent to nonzero integer coefficient; the
zero polynomial is the empty dict.  Canonical form means no zero entries, so
dict equality is polynomial equality.  Functions never mutate their
arguments, except iadd_scaled, which mutates only the accumulator it is
handed.  Exponents may be negative in principle; every basis change in this
package produces only non-negative ones.

One accumulator.  iadd_scaled adds a scaled, shifted polynomial into
another and keeps it canonical as it goes.  A sum keyed by weight is a dict
of such accumulators, iadd_scaled(acc.setdefault(w, {}), p, k, c), from
which the polynomials that cancelled to empty are dropped at the end; it
makes one coefficient update per monomial handed in, and never stores a
polynomial it was handed.
"""

from __future__ import annotations

Poly = dict[int, int]


def one() -> Poly:
    return {0: 1}


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
    """Inverse of to_pairs.  Rejects entries other than ints (bools too),
    duplicate exponents and zero coefficients, so that serialized form
    stays canonical."""
    out: Poly = {}
    for e, c in pairs:
        if type(e) is not int or type(c) is not int:
            raise ValueError(f"serialized pair {[e, c]!r} is not two ints")
        if c == 0:
            raise ValueError("zero coefficient in serialized polynomial")
        if e in out:
            raise ValueError("duplicate exponent in serialized polynomial")
        out[e] = c
    return out
