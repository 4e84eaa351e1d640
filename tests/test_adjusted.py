"""Adjusted-basis machinery: definitions, canonical expansions, the
correction recursion into the atomic basis, and the second pipeline."""

import inspect
import itertools
import sys

import pytest

from g2atomic.adjusted import (_LINKS, _link2, _tails, adjusted2_in_atomic,
                               adjusted_expand_up, adjusted_in_canonical,
                               adjusted_step_down, atomic_second)
from g2atomic.combo import (ATOMIC, CANONICAL, Combination, adjusted_label,
                            push, single, substitute)
from g2atomic.lattice import GAMMA, dominant_box, gamma_sum, sub, x_I_member
from g2atomic.polyq import iadd_scaled
from g2atomic.precanonical import defn_precanonical, step_up

from reference_data import REF_ATOMIC_24
from test_combo import validate
from test_polyq import poly_add, poly_sub


def test_step_down_examples():
    assert adjusted_step_down(4, (3, 0)).terms == {
        (3, 0): {0: 1}, (0, 1): {1: -1}}
    assert adjusted_step_down(2, (2, 0)).terms == {(2, 0): {0: 1}}
    assert adjusted_step_down(5, (0, 0)).terms == {(0, 0): {0: 1}}
    assert adjusted_step_down(2, (2, 1)).terms == {
        (2, 1): {0: 1}, (3, 0): {1: -1}}
    assert adjusted_step_down(4, (3, 0)).basis == adjusted_label(5)
    with pytest.raises(ValueError):
        adjusted_step_down(6, (0, 0))
    with pytest.raises(ValueError):
        adjusted_step_down(4, (0, -2))


def test_step_down_matches_membership_and_gamma():
    for lam in dominant_box(20, 20):
        for k in (2, 3, 4, 5):
            x = adjusted_step_down(k, lam)
            if x_I_member({k}, lam):
                g = GAMMA[k]
                mu = (lam[0] - g[0], lam[1] - g[1])
                assert x.terms == {lam: {0: 1}, mu: {1: -1}}
                assert mu[0] >= 0 and mu[1] >= 0
            else:
                assert x.terms == {lam: {0: 1}}


def test_expand_up_examples():
    for a in range(4):
        for b in range(4):
            assert adjusted_expand_up(5, (a, b)).terms == {
                (a, b - j): {j: 1} for j in range(b + 1)}
            assert adjusted_expand_up(3, (a, b)).terms == {
                (a - j, b): {j: 1} for j in range(max(a - 1, 0) + 1)}
    for b in range(4):
        assert adjusted_expand_up(2, (1, b)).terms == {(1, b): {0: 1}}
    assert adjusted_expand_up(2, (1, 1)).basis == adjusted_label(2)


def test_expand_up_positivity():
    for lam in dominant_box(10, 10):
        for k in (2, 3, 4, 5):
            x = adjusted_expand_up(k, lam)
            for w, p in x.terms.items():
                assert len(p) == 1
                (e, c), = p.items()
                assert c > 0 and e >= 0, (k, lam, w)


def test_step_roundtrips():
    for lam in dominant_box(10, 10):
        for k in (2, 3, 4, 5):
            f = substitute(adjusted_step_down(k, lam),
                           lambda w: adjusted_expand_up(k, w))
            assert f.terms == {lam: {0: 1}}, (k, lam)
            g = substitute(adjusted_expand_up(k, lam),
                           lambda w: adjusted_step_down(k, w))
            assert g.terms == {lam: {0: 1}}, (k, lam)


def test_in_canonical_examples():
    assert adjusted_in_canonical(2, (2, 0)).terms == {
        (2, 0): {0: 1}, (1, 0): {1: -1}}
    for lam in [(0, 0), (1, 2), (4, 4)]:
        assert adjusted_in_canonical(6, lam) == single(CANONICAL, lam)
    # deep in the dominant cone every index subset contributes; two pairs
    # of subsets share a shift weight, so 16 subsets land on 14 weights
    lam = (4, 2)
    subsets = [frozenset(I) for r in range(5)
               for I in itertools.combinations((2, 3, 4, 5), r)]
    assert all(x_I_member(I, lam) for I in subsets)
    x = adjusted_in_canonical(2, lam)
    assert len(x.terms) == 14
    assert x.terms[lam] == {0: 1}
    assert x.terms[(5, 1)] == {1: -1}
    assert x.terms[(4, 1)] == {1: -1, 2: 1}
    assert x.terms[(1, 2)] == {2: 1, 3: -1}


def test_in_canonical_is_the_signed_sum_over_index_sets():
    # the docstring's sum, from the validated membership test: (-q)^|I| at
    # lam - gamma_sum(I) for each I with min I >= k whose X_I holds lam
    subsets = [I for r in range(5) for I in itertools.combinations((2, 3, 4, 5), r)]
    for lam in dominant_box(24, 24):
        for k in (2, 3, 4, 5, 6):
            want = {}
            for I in subsets:
                if all(i >= k for i in I) and x_I_member(I, lam):
                    w = sub(lam, gamma_sum(I))
                    want[w] = poly_add(want.get(w, {}), {len(I): (-1) ** len(I)})
            want = {w: p for w, p in want.items() if p}
            assert adjusted_in_canonical(k, lam).terms == want, (k, lam)


def test_in_canonical_matches_layered_steps():
    for lam in dominant_box(8, 8):
        for k in (2, 3, 4, 5, 6):
            want = single(CANONICAL, lam)
            for j in range(k, 6):
                want = substitute(
                    want, lambda w, j=j: adjusted_step_down(j, w))
            # relabel: layered result carries the adjusted level-k label
            got = adjusted_in_canonical(k, lam)
            assert got.terms == want.terms, (k, lam)
            assert got.basis == CANONICAL


def test_adjusted2_examples():
    assert adjusted2_in_atomic((2, 0)).terms == {
        (2, 0): {0: 1}, (0, 0): {2: 1}}
    for lam in [(3, 0), (4, 5), (1, 0), (0, 1), (0, 0)]:
        assert adjusted2_in_atomic(lam).terms == {lam: {0: 1}}
    assert adjusted2_in_atomic((1, 1)).terms == {
        (1, 1): {0: 1}, (1, 0): {2: 1}, (2, 0): {1: 1}}
    assert adjusted2_in_atomic((0, 2)).terms == {
        (0, 2): {0: 1}, (0, 0): {4: 1}, (2, 0): {2: 1}}


def test_adjusted2_needs_no_deep_stack():
    # Long descents down the first columns must not recurse once per step.
    weights = [(1, 150), (0, 300)]
    want = [adjusted2_in_atomic(lam) for lam in weights]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        got = [adjusted2_in_atomic(lam) for lam in weights]
    finally:
        sys.setrecursionlimit(limit)
    assert got == want


def test_adjusted2_positivity():
    for lam in dominant_box(10, 10):
        x = adjusted2_in_atomic(lam)
        assert x.terms[lam] == {0: 1}
        for w, p in x.terms.items():
            assert all(c > 0 for c in p.values()), (lam, w)


@pytest.mark.parametrize("a", [0, 1])
def test_tails_are_shifted_level3_chains(a):
    # the tails of N(a, b) are q^(2-a) times the pre-canonical level-3
    # element at (2, b-2+a) in the level-2 basis, a route through
    # precanonical's own link that shares no code with _tails
    for b in range(41):
        want = {(a, b): {0: 1}}
        if b - 2 + a >= 0:
            for w, p in step_up(2, (2, b - 2 + a)).terms.items():
                want[w] = {e + 2 - a: c for e, c in p.items()}
        got = _tails({(a, b): {0: 1}})
        assert got.basis is ATOMIC
        assert got.terms == want, (a, b)


def _tails_reference(terms):
    """_tails with one polyq.iadd_scaled call per tail term."""
    for (a, b), p in [(w, p) for w, p in terms.items() if w[0] < 2]:
        for k in range(2 - a, b + 1):
            iadd_scaled(terms.setdefault((a + k, b - k), {}), p, k)
    return Combination(ATOMIC, {w: p for w, p in terms.items() if p})


def _tails_inputs():
    links = [_LINKS[5], _LINKS[4], _LINKS[3], _LINKS[2], _link2]
    for lam in [*dominant_box(12, 12), (0, 100), (1, 100), (2, 60)]:
        for chain in (links, links[1:]):
            terms = {lam: {0: 1}}
            for link in chain:
                terms = push(terms, link)
            yield (lam, len(chain)), terms
    # signed: the one tail of (0, 2) cancels the term at (2, 0)
    yield "cancel", {(0, 2): {0: 1}, (2, 0): {2: -1}}
    # the tails of (0, 3) and (1, 2) land on (2, 1), which has no term yet
    yield "merge", {(0, 3): {0: 1}, (1, 2): {1: 1, 3: -1}}


def test_tails_match_one_call_per_tail():
    for case, terms in _tails_inputs():
        want = _tails_reference({w: dict(p) for w, p in terms.items()})
        got = _tails({w: dict(p) for w, p in terms.items()})
        assert got.basis is ATOMIC
        assert list(got.terms.items()) == list(want.terms.items()), case
        validate(got)
        assert len({id(p) for p in got.terms.values()}) == len(got.terms)
    assert _tails({(0, 2): {0: 1}, (2, 0): {2: -1}}).terms == {(0, 2): {0: 1}}
    assert _tails({(0, 3): {0: 1}, (1, 2): {1: 1, 3: -1}}).terms == {
        (0, 3): {0: 1}, (1, 2): {1: 1, 3: -1},
        (2, 1): {2: 2, 4: -1}, (3, 0): {3: 2, 5: -1}}


def test_correction_identity():
    # the gap between the adjusted and plain level-2 elements, expanded
    # in the canonical basis, is exactly the correction recursion
    for lam in dominant_box(8, 8):
        lhs = {}
        a2 = adjusted_in_canonical(2, lam).terms
        p2 = defn_precanonical(2, lam).terms
        for w in set(a2) | set(p2):
            d = poly_sub(a2.get(w, {}), p2.get(w, {}))
            if d:
                lhs[w] = d
        corr = adjusted2_in_atomic(lam)
        terms = {w: dict(p) for w, p in corr.terms.items()}
        d = poly_sub(terms.get(lam, {}), {0: 1})
        if d:
            terms[lam] = d
        else:
            terms.pop(lam, None)
        gap = Combination(corr.basis, terms)
        rhs = substitute(gap, lambda w: defn_precanonical(2, w),
                         basis=CANONICAL)
        assert lhs == rhs.terms, lam


def test_atomic_second_examples():
    assert atomic_second((0, 0)).terms == {(0, 0): {0: 1}}
    assert atomic_second((0, 1)).terms == {(0, 1): {0: 1}, (0, 0): {1: 1}}
    assert atomic_second((2, 4)).terms == REF_ATOMIC_24
    with pytest.raises(ValueError):
        atomic_second((-1, 4))


def test_atomic_second_validates():
    for lam in dominant_box(8, 8):
        x = atomic_second(lam)
        validate(x)
        assert x.terms[lam] == {0: 1}
