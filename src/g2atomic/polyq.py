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


def two_ints(field: str, v) -> tuple[int, int]:
    """v, a serialized weight or pair, as exactly two ints (not bools)."""
    if not (isinstance(v, (list, tuple)) and len(v) == 2
            and type(v[0]) is int and type(v[1]) is int):
        raise ValueError(f"serialized {field} {v!r} is not two ints")
    return v[0], v[1]


def from_pairs(pairs) -> Poly:
    """Inverse of the JSON [exponent, coefficient] pairs.  Rejects entries
    other than two ints, duplicate exponents and zero coefficients, so that
    serialized form stays canonical."""
    out: Poly = {}
    for pair in pairs:
        e, c = two_ints("pair", pair)
        if c == 0:
            raise ValueError("zero coefficient in serialized polynomial")
        if e in out:
            raise ValueError("duplicate exponent in serialized polynomial")
        out[e] = c
    return out
