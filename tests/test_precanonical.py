"""Pre-canonical machinery: frozen examples, independent definitional
oracle, inverse/forward round trips, closed-form agreement, positivity."""

import itertools

import pytest
from hypothesis import example, given, strategies as st

from g2atomic.combo import (ATOMIC, CANONICAL, Combination, pre_canonical,
                            single, substitute)
from g2atomic.lattice import PHI_GEQ, dominant_below, dominant_box, height
from g2atomic.precanonical import (atomic, closed_form_3to2, closed_form_4to3,
                                   closed_form_5to4, closed_form_6to5,
                                   defn_precanonical, inverse_step, step_up,
                                   straightened, tilde_h)

from reference_data import REF_ATOMIC_24, REF_ATOMIC_24_ZEROS
from test_combo import validate
from test_lattice import dot_reflect, orbit_rep_oracle
from test_polyq import poly_add, poly_scale_qpow


def defn_oracle(i, lam):
    """Signed subset sum computed from scratch: itertools subsets and the
    BFS orbit straightening, sharing no code with the production path."""
    acc = {}
    for size in range(len(PHI_GEQ[i]) + 1):
        for I in itertools.combinations(PHI_GEQ[i], size):
            w = (lam[0] - sum(g[0] for g in I), lam[1] - sum(g[1] for g in I))
            sd = orbit_rep_oracle(w)
            if sd is None:
                continue
            sign, rep = sd
            coeff = sign * (-1) ** size
            cur = poly_add(acc.get(rep, {}), {size: coeff})
            if cur:
                acc[rep] = cur
            else:
                acc.pop(rep, None)
    return acc


def test_tilde_h_examples():
    for n in range(0, 7):
        assert tilde_h((n, -1)).terms == {}
        assert tilde_h((-1, n)).terms == {}
    assert tilde_h((3, 2)).terms == {(3, 2): {0: 1}}
    assert tilde_h((-2, 1)).terms == {(0, 0): {0: -1}}
    assert tilde_h((0, 0)).basis == CANONICAL


def test_defn_examples():
    for lam in [(0, 0), (3, 1), (5, 5)]:
        assert defn_precanonical(6, lam) == single(CANONICAL, lam)
    for a in range(4):
        for b in range(1, 4):
            assert defn_precanonical(5, (a, b)).terms == {
                (a, b): {0: 1}, (a, b - 1): {1: -1}}
    assert defn_precanonical(2, (2, 0)).terms == {
        (2, 0): {0: 1}, (1, 0): {1: -1}, (0, 0): {2: -1}}
    with pytest.raises(ValueError):
        defn_precanonical(7, (0, 0))
    with pytest.raises(ValueError):
        defn_precanonical(2, (-1, 0))


def test_defn_against_independent_oracle():
    for lam in dominant_box(5, 5):
        for i in (2, 3, 4, 5, 6):
            got = defn_precanonical(i, lam)
            assert got.terms == defn_oracle(i, lam), (i, lam)
            validate(got)


# A term: a weight on either side of the walls, a monomial c*q^e, and
# whether to add its twin, the dot reflection with the same coefficient.
# A twin straightens to the negative, so with no roots the pair cancels.
_terms = st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6),
                            st.integers(0, 5), st.sampled_from([1, -1, 2, -3]),
                            st.sampled_from([None, 1, 2])),
                  max_size=6)


@given(st.sampled_from([2, 3, 4, 5, 6]), _terms)
@example(2, [(3, 0, 0, 1, None), (1, 0, 1, 2, None)])
@example(3, [(2, -3, 0, -3, 1), (0, 1, 2, 1, 2)])
@example(6, [(4, -3, 1, 2, 1), (1, 2, 0, -1, 2)])  # twins cancel to zero
def test_straightened_matches_oracle_on_sums(i, raw):
    # The kernel on a multi-term input is the coefficient-weighted sum of
    # the subset-sum oracle at each weight, and leaves its input as it was.
    terms = {}
    for a, b, e, c, twin in raw:
        for w in [(a, b)] + ([dot_reflect(twin, (a, b))] if twin else []):
            terms[w] = poly_add(terms.get(w, {}), {e: c})
    terms = {w: p for w, p in terms.items() if p}
    before = {w: dict(p) for w, p in terms.items()}
    want = {}
    for w, p in terms.items():
        for rep, r in defn_oracle(i, w).items():
            for e, c in p.items():
                want[rep] = poly_add(want.get(rep, {}), poly_scale_qpow(r, e, c))
    want = {w: p for w, p in want.items() if p}
    got = straightened(terms, PHI_GEQ[i])
    assert got.basis == CANONICAL
    assert got.terms == want
    assert terms == before
    validate(got)


def subset_sum(terms, roots):
    """straightened(terms, roots) by brute force: each term times every
    signed subset of the roots, each shifted weight read through tilde_h."""
    want = {}
    for (a, b), p in terms.items():
        for size in range(len(roots) + 1):
            for I in itertools.combinations(roots, size):
                w = (a - sum(g[0] for g in I), b - sum(g[1] for g in I))
                for rep, r in tilde_h(w).terms.items():
                    for e, c in p.items():
                        want[rep] = poly_add(want.get(rep, {}), poly_scale_qpow(
                            r, e + size, c * (-1) ** size))
    return {w: p for w, p in want.items() if p}


def test_straightened_revisits_a_weight_made_at_a_visited_height():
    # the gamma4 pass visits (4, 0) at height 12, then from (2, 2) makes
    # (-1, 3), also at height 12; the gamma5 pass must read it
    g4 = PHI_GEQ[4][0]
    terms = {(2, 2): {0: 1}, (4, 0): {1: 3}}
    made = (2 - g4[0], 2 - g4[1])
    assert made not in terms and height(made) == height((4, 0))
    got = straightened(terms, PHI_GEQ[4])
    assert got.terms == subset_sum(terms, PHI_GEQ[4])
    validate(got)


def test_straightened_drops_a_weight_whose_two_writes_cancel():
    # (3, 1) - gamma4 and (0, 3) - gamma5 are both (0, 2): the gamma4 pass
    # makes it from one source, and the gamma5 pass cancels it from the other
    g4, g5 = PHI_GEQ[4]
    terms = {(3, 1): {0: 1}, (0, 3): {0: -1}}
    assert (3 - g4[0], 1 - g4[1]) == (0 - g5[0], 3 - g5[1]) == (0, 2)
    got = straightened(terms, PHI_GEQ[4])
    assert got.terms == subset_sum(terms, PHI_GEQ[4])
    assert (0, 2) not in got.terms
    validate(got)


def test_inverse_step_examples():
    assert inverse_step(4, (1, 3)).terms == {(1, 3): {0: 1}, (0, 3): {1: 1}}
    assert inverse_step(3, (0, 5)).terms == {(0, 5): {0: 1}, (2, 3): {2: -1}}
    for a in range(5):
        assert inverse_step(2, (a, 0)).terms == {(a, 0): {0: 1}}
    assert inverse_step(5, (2, 3)).terms == {(2, 3): {0: 1}, (2, 2): {1: -1}}
    assert inverse_step(4, (7, 1)).terms == {(7, 1): {0: 1}, (4, 2): {1: -1}}
    assert inverse_step(4, (2, 9)).terms == {(2, 9): {0: 1}}
    assert inverse_step(4, (0, 3)).terms == {(0, 3): {0: 1}, (1, 2): {1: 1}}
    assert inverse_step(3, (4, 2)).terms == {(4, 2): {0: 1}, (3, 2): {1: -1}}
    assert inverse_step(2, (1, 2)).terms == {(1, 2): {0: 1}, (2, 1): {1: -1}}
    assert inverse_step(4, (0, 0)).terms == {(0, 0): {0: 1}}
    with pytest.raises(ValueError):
        inverse_step(6, (0, 0))


def test_step_up_examples():
    for a in range(4):
        for b in range(4):
            assert step_up(5, (a, b)).terms == {
                (a, b - j): {j: 1} for j in range(b + 1)}
    assert step_up(4, (1, 0)).terms == {(1, 0): {0: 1}, (0, 0): {1: -1}}
    for a in range(5):
        assert step_up(2, (a, 0)).terms == {(a, 0): {0: 1}}
    assert step_up(3, (0, 2)).terms == {
        (0, 2): {0: 1}, (2, 0): {2: 1}, (1, 0): {3: 1}, (0, 0): {4: 1}}
    assert step_up(4, (3, 0)).terms == {
        (3, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {2: -1}, (0, 0): {3: 1}}
    assert step_up(4, (2, 7)).terms == {(2, 7): {0: 1}}


def test_step_up_bases():
    for i in (2, 3, 4, 5):
        assert step_up(i, (1, 1)).basis == pre_canonical(i)
        assert inverse_step(i, (1, 1)).basis == pre_canonical(i + 1)


def test_inverse_forward_roundtrip():
    for lam in dominant_box(20, 20):
        for i in (2, 3, 4, 5):
            f = substitute(inverse_step(i, lam), lambda w: step_up(i, w))
            assert f.terms == {lam: {0: 1}}, (i, lam)
            g = substitute(step_up(i, lam), lambda w: inverse_step(i, w))
            assert g.terms == {lam: {0: 1}}, (i, lam)


def test_closed_form_examples():
    part4, part3 = closed_form_5to4((1, 0))
    assert part4.terms == {}
    assert part3.terms == {(1, 0): {0: 1}}
    for a in range(4):
        assert closed_form_4to3((a, 0)).terms == {
            (a - i, 0): {i: 1} for i in range(a + 1)}
    assert closed_form_3to2((0, 1)).terms == {(0, 1): {0: 1}, (1, 0): {1: 1}}
    assert closed_form_6to5((2, 2)).terms == {
        (2, 2): {0: 1}, (2, 1): {1: 1}, (2, 0): {2: 1}}


def test_closed_forms_match_step_up():
    for lam in dominant_box(10, 10):
        assert closed_form_6to5(lam) == step_up(5, lam)
        assert closed_form_3to2(lam) == step_up(2, lam)
        assert closed_form_4to3(lam) == step_up(3, lam)


def test_split_closed_form_matches_step_up():
    # compare in the level-3 basis and in the level-4 basis
    for lam in dominant_box(10, 10):
        part4, part3 = closed_form_5to4(lam)
        walk = step_up(4, lam)
        lhs3 = substitute(walk, lambda w: step_up(3, w), basis=pre_canonical(3))
        rhs3 = substitute(part4, lambda w: step_up(3, w), basis=pre_canonical(3))
        merged = {w: dict(p) for w, p in rhs3.terms.items()}
        for w, p in part3.terms.items():
            cur = poly_add(merged.get(w, {}), p)
            if cur:
                merged[w] = cur
            else:
                merged.pop(w, None)
        assert lhs3.terms == merged, lam

        lift4 = substitute(part3, lambda w: inverse_step(3, w),
                           basis=pre_canonical(4))
        merged4 = {w: dict(p) for w, p in part4.terms.items()}
        for w, p in lift4.terms.items():
            cur = poly_add(merged4.get(w, {}), p)
            if cur:
                merged4[w] = cur
            else:
                merged4.pop(w, None)
        assert walk.terms == merged4, lam


def test_levelwise_definitional_consistency():
    for lam in dominant_box(10, 10):
        for i in (2, 3, 4, 5):
            via = substitute(inverse_step(i, lam),
                             lambda w: defn_precanonical(i + 1, w),
                             basis=CANONICAL)
            assert via == defn_precanonical(i, lam), (i, lam)


def test_atomic_examples():
    assert atomic((2, 4)).terms == REF_ATOMIC_24
    for mu in REF_ATOMIC_24_ZEROS:
        assert mu in dominant_below((2, 4))
        assert mu not in atomic((2, 4)).terms
    assert atomic((0, 0)).terms == {(0, 0): {0: 1}}
    assert atomic((0, 1)).terms == {(0, 1): {0: 1}, (0, 0): {1: 1}}
    assert atomic((2, 0)).terms == {(2, 0): {0: 1}, (1, 0): {1: 1},
                                    (0, 0): {2: 1}}
    assert atomic((2, 4)).basis == ATOMIC
    with pytest.raises(ValueError):
        atomic((0, -1))


def test_even_column_closed_form():
    # the level-5 element in the zero column with even second coordinate
    # expands atomically as layered blocks with explicit exponents
    for m in range(0, 7):
        want = {}
        for i in range(m + 1):
            want[(0, 2 * m - 2 * i)] = {4 * i: 1}
        for i in range(1, m + 1):
            for j in range(1, 2 * m - 2 * i + 2):
                w = (j + 1, 2 * m - 2 * i - j + 1)
                want.setdefault(w, {})
                e = 4 * i + j - 3
                want[w][e] = want[w].get(e, 0) + 1
        got = substitute(step_up(4, (0, 2 * m)),
                         lambda u: substitute(step_up(3, u),
                                              lambda v: step_up(2, v),
                                              basis=pre_canonical(2)),
                         basis=pre_canonical(2))
        assert got.terms == want, m


def test_atomic_unit_diagonal_everywhere():
    for lam in dominant_box(9, 9):
        assert atomic(lam).terms[lam] == {0: 1}
