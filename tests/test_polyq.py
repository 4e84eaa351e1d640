"""Polynomial arithmetic: frozen examples, ring axioms, canonical form."""

import re

from hypothesis import given, strategies as st

from g2atomic.polyq import (Poly, degree, eval_at_one, from_pairs,
                            iadd_scaled, is_nonnegative, leading_coeff, one)

import pytest


# Polynomial helpers that only the tests need.

def to_pairs(p: Poly) -> list[list[int]]:
    """[exponent, coefficient] pairs, ascending exponent."""
    return [[e, p[e]] for e in sorted(p)]


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


def poly_sub(p: Poly, r: Poly) -> Poly:
    out = dict(p)
    for e, c in r.items():
        s = out.get(e, 0) - c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def poly_scale_qpow(p: Poly, k: int, coeff: int = 1) -> Poly:
    """coeff * q**k * p."""
    if not coeff:
        return {}
    return {e + k: c * coeff for e, c in p.items()}


def trailing_degree(p: Poly):
    """Smallest exponent, or None for the zero polynomial."""
    return min(p) if p else None


def test_arithmetic_examples():
    assert poly_add({2: 1}, {2: -1}) == {}
    assert poly_mul({0: 1, 1: 1}, {0: 1, 1: 1}) == {0: 1, 1: 2, 2: 1}
    assert poly_scale_qpow({0: 1, 1: 1}, 3, -1) == {3: -1, 4: -1}
    assert poly_sub({0: 1}, {0: 1}) == {}
    assert poly_mul({1: 1}, {}) == {}


def test_eval_at_one_examples():
    assert eval_at_one({1: 1, 5: 1}) == 2
    assert eval_at_one({}) == 0
    assert eval_at_one({44: 1, 20: 51, 9: 1}) == 53


def test_predicates_examples():
    p = {4: 2, 3: 1, 2: 1}
    assert is_nonnegative(p)
    assert degree(p) == 4
    assert trailing_degree(p) == 2
    assert leading_coeff(p) == 2
    r = {1: 1, 3: -1}
    assert not is_nonnegative(r)
    assert degree(r) == 3
    assert trailing_degree(r) == 1
    assert is_nonnegative({})
    assert degree({}) is None
    assert trailing_degree({}) is None
    assert leading_coeff({}) == 0


def test_basic_constructors():
    assert one() == {0: 1}
    assert one() is not one()  # a fresh dict each time, safe to mutate


polys = st.dictionaries(st.integers(-6, 6),
                        st.integers(-9, 9).filter(bool), max_size=5)


@given(polys, polys, polys)
def test_ring_axioms(p, r, s):
    assert poly_add(p, r) == poly_add(r, p)
    assert poly_mul(p, r) == poly_mul(r, p)
    assert poly_add(poly_add(p, r), s) == poly_add(p, poly_add(r, s))
    assert poly_mul(poly_mul(p, r), s) == poly_mul(p, poly_mul(r, s))
    assert poly_mul(p, poly_add(r, s)) == poly_add(poly_mul(p, r), poly_mul(p, s))
    assert poly_mul(p, one()) == p
    assert poly_add(p, {}) == p


@given(polys, polys)
def test_canonical_closure(p, r):
    for out in (poly_add(p, r), poly_sub(p, r), poly_mul(p, r),
                poly_scale_qpow(p, 2, -1)):
        assert all(c != 0 for c in out.values())


@given(polys, polys)
def test_eval_at_one_is_ring_homomorphism(p, r):
    assert eval_at_one(poly_add(p, r)) == eval_at_one(p) + eval_at_one(r)
    assert eval_at_one(poly_mul(p, r)) == eval_at_one(p) * eval_at_one(r)


@given(polys)
def test_serialization_roundtrip(p):
    pairs = to_pairs(p)
    assert pairs == sorted(pairs)
    assert from_pairs(pairs) == p


def test_from_pairs_rejects_noncanonical():
    with pytest.raises(ValueError):
        from_pairs([[0, 0]])
    with pytest.raises(ValueError):
        from_pairs([[1, 2], [1, 3]])
    # floats are not truncated, strings not parsed, bools not read as ints
    for pairs in ([[1.5, 2.9]], [[1, 2.0]], [["7", 1]], [[1, "7"]],
                  [[True, 1]], [[1, True]], [[1, None]]):
        with pytest.raises(ValueError, match="not two ints"):
            from_pairs(pairs)


def test_from_pairs_names_a_pair_of_the_wrong_length():
    for pairs, shown in (([[0, 1, 2]], "[0, 1, 2]"), ([[3]], "[3]"),
                         ([[]], "[]"), ([7], "7")):
        with pytest.raises(ValueError, match=re.escape(f"serialized pair {shown} "
                                                       "is not two ints")):
            from_pairs(pairs)


@given(polys, polys, st.integers(0, 4), st.integers(-3, 3))
def test_iadd_scaled_matches_functional_form(p, r, k, c):
    acc = dict(p)
    iadd_scaled(acc, r, k, c)
    assert acc == poly_add(p, poly_scale_qpow(r, k, c))


@given(polys)
def test_inputs_never_mutated(p):
    snapshot = dict(p)
    poly_add(p, {0: 1})
    poly_sub(p, {0: 1})
    poly_mul(p, {1: 2})
    poly_scale_qpow(p, 1, -1)
    assert p == snapshot
