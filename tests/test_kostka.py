"""Standard-basis expansions, Kostka-Foulkes polynomials, and the
independent Freudenthal / Weyl-dimension oracles."""

import re
from functools import partial

import pytest
from hypothesis import example, given, settings, strategies as st

from g2atomic import adjusted, checks, graded, kostka, precanonical
from g2atomic.checks import VerifyReport, verify
from g2atomic.combo import ATOMIC, CANONICAL, STANDARD, Combination, substitute
from g2atomic.kostka import (CheckResult, atomic_to_standard,
                             canonical_to_standard, dimension_by_orbits,
                             freudenthal_multiplicity, kostka_foulkes,
                             multiplicity_table, weyl_dimension)
from g2atomic.lattice import (PHI_GEQ, POSITIVE_ROOTS, dominance_leq,
                              dominant_below, dominant_box, dominant_rep,
                              height, linear_dominant, orbit_size)
from g2atomic.polyq import degree, is_nonnegative

from reference_data import REF_KF_69_32
from test_graded import with_q
from test_precanonical import defn_oracle
from test_polyq import poly_add, poly_scale_qpow, poly_sub


def test_atomic_to_standard_examples():
    assert atomic_to_standard((1, 0)).terms == {(1, 0): {0: 1}, (0, 0): {3: 1}}
    assert atomic_to_standard((0, 0)).terms == {(0, 0): {0: 1}}
    assert atomic_to_standard((0, 1)).terms == {
        (0, 1): {0: 1}, (1, 0): {2: 1}, (0, 0): {5: 1}}
    assert atomic_to_standard((1, 0)).basis == STANDARD
    with pytest.raises(ValueError):
        atomic_to_standard((-1, 0))


def test_atomic_to_standard_structure():
    for lam in dominant_box(6, 6):
        x = atomic_to_standard(lam)
        below = dominant_below(lam)
        assert set(x.terms) == set(below)
        for mu, p in x.terms.items():
            d = (lam[0] - mu[0], lam[1] - mu[1])
            assert p == {height(d): 1}


def test_canonical_to_standard_examples():
    for lam in [(0, 0), (1, 1), (3, 2)]:
        assert canonical_to_standard(lam).terms[lam] == {0: 1}
    assert canonical_to_standard((0, 1)).terms[(0, 0)] == {1: 1, 5: 1}
    assert canonical_to_standard((6, 9)).terms[(3, 2)] == REF_KF_69_32


def _column_reference(x):
    # The column term by term: every atomic element of x replaced by its
    # standard expansion.
    return substitute(x, atomic_to_standard, basis=STANDARD)


@settings(deadline=None)
@given(st.sampled_from(dominant_box(12, 12)),
       st.lists(st.tuples(st.integers(0, 10**4), st.integers(0, 30),
                          st.integers(-3, 3)), max_size=4))
# Lopsided weights, where the grid of root coordinates is far from square.
# (1, 60) is left out: the reference alone takes about 12 s there.
@example((0, 40), [])
@example((40, 0), [])
@example((60, 1), [])
@example((1, 30), [])
@example((2, 0), [(8, 1, -1)])  # the column cancels to zero at (0, 1)
def test_canonical_to_standard_matches_substitute(lam, edits):
    # Real atomic expansions, and the same with coefficients edited below
    # the top (negative ones included): the quadrant sums give the
    # term-by-term substitution.
    terms = {w: dict(p) for w, p in adjusted.atomic_second(lam).terms.items()}
    below = [w for w in dominant_below(lam) if w != lam]
    for i, e, d in edits:
        if below:
            p = terms.setdefault(below[i % len(below)], {})
            p[e] = p.get(e, 0) + d
            if not p[e]:
                del p[e]
    x = Combination(ATOMIC, {w: p for w, p in terms.items() if p})
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kostka, "atomic", lambda w: x)
        got = canonical_to_standard.__wrapped__(lam)
    assert got == _column_reference(x)


def test_kostka_foulkes_examples():
    assert kostka_foulkes((6, 9), (3, 2)) == REF_KF_69_32
    assert len(REF_KF_69_32) == 36
    assert REF_KF_69_32[44] == 1
    assert REF_KF_69_32[38] == 9
    assert REF_KF_69_32[20] == 51
    assert REF_KF_69_32[9] == 1
    for lam in [(0, 0), (2, 1), (4, 0)]:
        assert kostka_foulkes(lam, lam) == {0: 1}
    assert kostka_foulkes((2, 0), (0, 0)) == {2: 1, 4: 1, 6: 1}
    assert kostka_foulkes((1, 2), (9, 9)) == {}
    assert kostka_foulkes((5, 0), (0, 3)) == {}
    with pytest.raises(ValueError):
        kostka_foulkes((1, 0), (0, -1))


def test_two_paths_agree():
    for lam in dominant_box(6, 6):
        col = canonical_to_standard(lam).terms
        for mu in dominant_below(lam):
            assert kostka_foulkes(lam, mu) == col.get(mu, {}), (lam, mu)


def test_freudenthal_examples():
    assert freudenthal_multiplicity((1, 0), (0, 0)) == 1
    assert freudenthal_multiplicity((0, 1), (0, 0)) == 2
    for lam in [(0, 0), (1, 0), (2, 3)]:
        assert freudenthal_multiplicity(lam, lam) == 1
    # multiplicity is constant on Weyl orbits; check via a reflected weight
    assert freudenthal_multiplicity((1, 0), (-1, 1)) == 1
    assert freudenthal_multiplicity((0, 1), (3, -1)) == 1
    assert freudenthal_multiplicity((2, 0), (11, 0)) == 0


def test_dimension_oracles():
    assert weyl_dimension((0, 0)) == 1
    assert weyl_dimension((1, 0)) == 7
    assert weyl_dimension((0, 1)) == 14
    assert weyl_dimension((2, 0)) == 27
    for lam in [(1, 0), (0, 1), (2, 0), (1, 1), (3, 2)]:
        assert dimension_by_orbits(lam) == weyl_dimension(lam), lam


def test_multiplicity_table_consistency():
    table = multiplicity_table((1, 1))
    assert table[(1, 1)] == 1
    total = sum(m * orbit_size(mu) for mu, m in table.items())
    assert total == weyl_dimension((1, 1)) == 64


def test_monic_top_degree():
    assert degree(kostka_foulkes((6, 9), (3, 2))) == 44
    assert height((3, 7)) == 44


def _monotone_fails(kf, mu, nu):
    # the shift-monotonicity relation written with the difference polynomial
    diff = poly_sub(kf[mu], poly_scale_qpow(kf[nu], height(nu) - height(mu)))
    return not is_nonnegative(diff)


def _monotone_reference(lam, kf):
    # the relation on every pair mu <= nu of the column
    for mu in kf:
        for nu in kf:
            if nu != mu and dominance_leq(mu, nu) and _monotone_fails(kf, mu, nu):
                raise AssertionError(f"monotonicity fails for {mu!r} <= {nu!r} "
                                     f"below {lam!r}")


@given(st.sampled_from(dominant_box(3, 3)),
       st.lists(st.tuples(st.integers(0, 40), st.integers(0, 12),
                          st.integers(-3, 3)), max_size=4))
# passes only because equal negative coefficients cancel
@example((1, 0), [(0, 5, -1), (1, 2, -1)])
# fails only on pairs below (0, 1), which no step of a simple root reaches
@example((0, 1), [(15, 12, 1)])
def test_monotone_check_matches_reference(lam, edits):
    # Real Kostka-Foulkes columns, some coefficients edited (negative ones
    # included): the root-step check gives the verdict of the reference on
    # every pair, and a failure names a root step mu <= mu + beta on which
    # the reference relation fails, though maybe not the reference's pair.
    kf = {mu: dict(p) for mu, p in canonical_to_standard(lam).terms.items()}
    weights = list(kf)
    for i, e, d in edits:
        p = kf[weights[i % len(weights)]]
        p[e] = p.get(e, 0) + d
        if not p[e]:
            del p[e]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kostka, "canonical_to_standard",
                   lambda w: Combination(STANDARD, kf))
        got = checks.run("m", partial(checks.monotone, lam))
    assert got.ok == checks.run("m", partial(_monotone_reference, lam, kf)).ok
    if not got.ok:
        m = re.fullmatch(r"monotonicity fails for \((\d+), (\d+)\) <= "
                         r"\((\d+), (\d+)\) below " + re.escape(repr(lam)),
                         got.detail)
        assert m, got.detail
        mu, nu = (int(m[1]), int(m[2])), (int(m[3]), int(m[4]))
        assert (nu[0] - mu[0], nu[1] - mu[1]) in [beta for beta, _, _ in POSITIVE_ROOTS]
        assert mu in kf and nu in kf and _monotone_fails(kf, mu, nu)


@given(st.sampled_from(dominant_box(6, 6)), st.sampled_from([6, 5]),
       st.one_of(st.none(), st.tuples(st.integers(0, 60), st.integers(0, 16),
                                      st.integers(-3, 3))))
@example((0, 1), 6, (0, 1, 1))  # (0,0) gets 2q: every coefficient stays positive
@example((2, 4), 6, (5, 9, 2))
@example((0, 0), 6, (0, 0, -1))  # nothing left
@example((2, 4), 5, None)
@example((2, 4), 5, (5, 9, 2))
@example((0, 0), 5, (0, 0, -1))
def test_inverts_definitional_matches_substitute(lam, level, edit):
    # Real expansions of the canonical element (level 6) and of the level-5
    # element at lam, and the same with one coefficient edited at any
    # dominant weight below lam: the factored check gives the verdict of
    # substituting the independent definitional oracle term by term.  The
    # level-5 element is the ints of its fold below the top link, checked
    # through graded.in_canonical, so its edit changes the int at a weight.
    below = dominant_below(lam)
    if level == 6:
        terms = {w: dict(p) for w, p in adjusted.atomic_second(lam).terms.items()}
        if edit is not None:
            i, e, d = edit
            p = terms.setdefault(below[i % len(below)], {})
            p[e] = p.get(e, 0) + d
            terms = {w: {f: c for f, c in r.items() if c} for w, r in terms.items()}
            terms = {w: r for w, r in terms.items() if r}
        x = Combination(ATOMIC, terms)
        got = checks.inverts_definitional(lam, x)
    else:
        ints = dict(graded.adjusted_level5(lam))
        if edit is not None:
            i, _, d = edit
            w = below[i % len(below)]
            ints[w] = ints.get(w, 0) + d
            ints = {w: n for w, n in ints.items() if n}
        x = with_q(lam, ints)
        got = graded.in_canonical(lam, ints) == precanonical.defn_precanonical(5, lam)
    want = substitute(x, lambda w: Combination(CANONICAL, defn_oracle(2, w)),
                      basis=CANONICAL).terms == defn_oracle(level, lam)
    assert got == want
    assert want == (edit is None or edit[2] == 0)


def _inverts_definitional_copying(lam, x):
    # The round trip before it ran in place: four full copies of the
    # expansion, one per root, kept as the reference.
    y = x.terms
    for ga, gb in PHI_GEQ[2]:
        z = dict(y)
        for (a, b), p in y.items():
            u = (a - ga, b - gb)
            z[u] = poly_add(z.get(u, {}), poly_scale_qpow(p, 1, -1))
        y = {w: p for w, p in z.items() if p}
    acc: dict = {}
    for w, p in y.items():
        sd = dominant_rep(w)
        if sd is not None:
            acc[sd[1]] = poly_add(acc.get(sd[1], {}), poly_scale_qpow(p, 0, sd[0]))
    return {w: p for w, p in acc.items() if p} == {lam: {0: 1}}


_edits = st.one_of(
    st.none(),
    st.tuples(st.just("change"), st.integers(0, 99), st.integers(0, 9),
              st.sampled_from([-2, -1, 1, 3])),
    st.tuples(st.just("add"), st.sampled_from(dominant_box(9, 9)),
              st.integers(0, 40), st.sampled_from([-1, 1, 2])),
    st.tuples(st.just("drop"), st.integers(0, 99)),
)


@given(st.sampled_from(dominant_box(8, 8)), _edits)
@example((3, 3), ("drop", 0))  # the top term dropped
@example((0, 2), ("add", (4, 4), 0, 1))  # a term above the top
def test_inverts_definitional_in_place_matches_copying(lam, edit):
    # True expansions, and the same with a coefficient changed, a term
    # added or a term dropped: the in-place round trip gives the verdict of
    # the copying one and leaves its input as it was.
    terms = {w: dict(p) for w, p in adjusted.atomic_second(lam).terms.items()}
    support = sorted(terms)
    if edit is not None and edit[0] == "change":
        p = terms[support[edit[1] % len(support)]]
        e = sorted(p)[edit[2] % len(p)]
        p[e] += edit[3]
    elif edit is not None and edit[0] == "add":
        _, w, e, c = edit
        p = terms.setdefault(w, {})
        p[e] = p.get(e, 0) + c
    elif edit is not None:
        del terms[support[edit[1] % len(support)]]
    terms = {w: {e: c for e, c in p.items() if c} for w, p in terms.items()}
    x = Combination(ATOMIC, {w: p for w, p in terms.items() if p})
    before = {w: dict(p) for w, p in x.terms.items()}
    got = checks.inverts_definitional(lam, x)
    assert x.terms == before
    assert got == _inverts_definitional_copying(lam, x)
    assert got == (edit is None)  # every edit changes x


def test_triangularity():
    for lam in dominant_box(5, 5):
        for mu in dominant_box(5, 5):
            p = kostka_foulkes(lam, mu)
            if dominance_leq(mu, lam):
                assert p, (lam, mu)
            else:
                assert p == {}, (lam, mu)


def test_verify_reports():
    for lam in [(0, 0), (2, 4), (6, 9)]:
        report = verify(lam)
        assert report.ok, [c for c in report.checks if not c.ok]
        names = {c.name for c in report.checks}
        assert "cross-approach" in names
        assert "kostka-at-one" in names
        assert len(report.checks) == 7


def test_check_results_compare_by_value():
    a, b = CheckResult("c", True), CheckResult("c", True, "")
    assert a == b and a != CheckResult("c", False)
    assert repr(a) == "CheckResult(name='c', ok=True, detail='')"
    report = VerifyReport((1, 0), [a])
    assert report == VerifyReport((1, 0), [b]) and report.ok
    assert repr(report) == f"VerifyReport(lam=(1, 0), checks=[{a!r}])"
    assert VerifyReport((0, 0)).checks == [] and VerifyReport((0, 0)).ok

    class Hooked(CheckResult):  # how a tracer hooks construction
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)

    hooked = Hooked("c", True, detail="d")
    assert (hooked.name, hooked.ok, hooked.detail) == ("c", True, "d")
    assert hooked == Hooked("c", True, "d") and hooked != CheckResult("c", True, "d")


def test_verify_reports_failure(monkeypatch):
    # an oracle route that disagrees is reported, not raised
    monkeypatch.setattr(precanonical, "atomic", lambda lam: Combination(ATOMIC, {}))
    report = verify((2, 4))
    assert report.ok is False
    assert len(report.checks) == 7
    failed = [c for c in report.checks if not c.ok]
    assert [c.name for c in failed] == ["cross-approach"]
    assert "disagree" in failed[0].detail
