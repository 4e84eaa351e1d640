"""The fold below the top link in ints: every link below the top carries q
to its drop in r2, the fold asserts it at each step, and with q put back
the fold is what the polynomial fold gives; the round trip's kernel on the
ints is precanonical.straightened with q put back."""

import re

import pytest
from hypothesis import example, given, strategies as st

from g2atomic import adjusted, combo, graded, precanonical
from g2atomic.combo import ATOMIC, Combination
from g2atomic.lattice import PHI_GEQ, dominant_box, height

from test_polyq import poly_add, poly_mul


def _r2(w):
    """The second root coordinate of w."""
    return w[0] + 2 * w[1]


def with_q(lam, terms):
    """The element of the atomic basis whose fold below the top link at lam
    has the ints terms: n*q^(r2(lam - w)) at each w."""
    return Combination(ATOMIC, {w: {_r2(lam) - _r2(w): n} for w, n in terms.items()})


def one_more_q(link):
    """link with one more power of q on every step."""
    def wrong(a, b):
        step = link(a, b)
        return step and (step[0], step[1] + 1, step[2])
    return wrong


def test_links_carry_q_to_their_drop_in_r2():
    # Every link below the top, on both routes, carries q^d with d the drop
    # in r2 along it, and so does each tail q^k N(a+k, b-k); both top links
    # carry q^1 on a drop of 2.  So the fold below the top link is one
    # monomial n*q^(r2(lam - w)) at each w.
    lower = {"precanonical2": precanonical._link2, "precanonical3": precanonical._link3,
             "precanonical4": precanonical._link4, "adjusted2": adjusted._LINKS[2],
             "adjusted3": adjusted._LINKS[3], "adjusted4": adjusted._LINKS[4],
             "correction": adjusted._link2}
    top = {"precanonical5": precanonical._link5, "adjusted5": adjusted._LINKS[5]}
    assert [*top.values()] == [precanonical.CHAIN[0], adjusted.CHAIN[0]]
    assert {*lower.values()} == {*precanonical.CHAIN[1:], *adjusted.CHAIN[1:]}
    steps = dict.fromkeys([*lower, *top, "tails"], 0)
    for w in dominant_box(60, 60):
        for name, link in {**lower, **top}.items():
            step = link(*w)
            if step is not None:
                u, d, _ = step
                want = (1, 2) if name in top else (_r2(w) - _r2(u),) * 2
                assert (d, _r2(w) - _r2(u)) == want, (name, w, step)
                steps[name] += 1
        if w[0] < 2:
            tails = adjusted._tails({w: {0: 1}}).terms
            assert tails.pop(w) == {0: 1}
            assert tails == {u: {_r2(w) - _r2(u): 1} for u in tails}, w
            assert graded.tails({w: 1}) == {w: 1, **dict.fromkeys(tails, 1)}
            steps["tails"] += len(tails)
    assert min(steps.values()) > 0, steps


def test_tails_sum_the_ints_of_both_sources():
    # (0, 3) and (1, 2) both send a tail to (2, 1) and (3, 0); the ints add,
    # and a weight whose ints cancel is dropped
    assert graded.tails({(0, 3): 2, (1, 2): 5, (3, 0): 1}) == {
        (0, 3): 2, (1, 2): 5, (2, 1): 7, (3, 0): 8}
    assert graded.tails({(0, 2): 1, (1, 1): -1, (2, 0): 4}) == {
        (0, 2): 1, (1, 1): -1, (2, 0): 4}
    assert graded.tails({(0, 2): 1, (2, 0): -1}) == {(0, 2): 1}


# Each route's chain, base map, and base map on the ints of the fold below
# its top link.
_ROUTES = {"precanonical": (precanonical.CHAIN, lambda terms: Combination(ATOMIC, terms),
                            None),
           "adjusted": (adjusted.CHAIN, adjusted._tails, graded.tails)}


def test_expansion_is_its_fold_below_the_top_link_plus_the_shifted_neighbour():
    # By linearity, atomic(lam) is the fold below the top link, with
    # q^(r2(lam - w)) put back at each w, plus c*q^d*atomic(u) when the top
    # link leads to u, and that fold alone when it leads nowhere.  The sweep
    # checks the fold alone and rests on this.  New folds, which no other
    # test can have warmed, of both routes and of the pre-canonical route
    # under a top link with factor 2q.  On both routes the top link is
    # (a, b) -> (a, b-1) with factor q, and every int below it is at least 1.
    chain, as_atomic, _ = _ROUTES["precanonical"]
    doubled = ([lambda a, b: ((a, b - 1), 1, 2) if b >= 1 else None] + chain[1:],
               as_atomic, None)
    for name, (chain, base, graded_base) in {**_ROUTES, "doubled-top": doubled}.items():
        atomic_at = combo.folded(chain, base)[1]
        below_top = graded.below_top(chain, graded_base)
        for lam in dominant_box(10, 10):
            x = below_top(lam)
            assert all(type(n) is int and n for n in x.values()), (name, lam)
            assert below_top(lam) is x, (name, lam)  # the memo's own result
            want = dict(atomic_at(lam).terms)
            step = chain[0](*lam)
            if step is not None:
                u, d, c = step
                for w, p in atomic_at(u).terms.items():
                    want[w] = poly_add(want.get(w, {}), poly_mul({d: -c}, p))
            assert with_q(lam, x).terms == {w: p for w, p in want.items() if p}, \
                (name, lam)
            if name != "doubled-top":
                a, b = lam
                assert step == (((a, b - 1), 1, 1) if b else None), (name, lam)
                assert min(x.values()) >= 1, (name, lam)
        if name != "doubled-top":
            assert getattr(graded, f"{name}_level5")((3, 5)) == below_top((3, 5))
            with pytest.raises(ValueError, match="not dominant"):
                getattr(graded, f"{name}_level5")((-1, 2))


def test_a_signed_second_link_off_the_grading_is_refused():
    # The step (a, b) -> (a, b-1) with factor q, then the same step with
    # factor -q: the second carries q^1 on a drop of 2, so the fold below
    # the top link raises at its first step, and at a weight with no step
    # it is that weight alone
    step = lambda c: lambda a, b: ((a, b - 1), 1, c) if b >= 1 else None
    below_top = graded.below_top([step(1), step(-1)])
    for lam in dominant_box(6, 6):
        if lam[1]:
            with pytest.raises(RuntimeError, match=re.escape(
                    f"chain link from {lam!r} to {(lam[0], lam[1] - 1)!r} "
                    f"carries q^1, not q^2, its drop in r2")):
                below_top(lam)
        else:
            assert below_top(lam) == {lam: 1}


@pytest.mark.parametrize("name, i", [("precanonical", i) for i in (1, 2, 3)]
                         + [("adjusted", i) for i in (1, 2, 3, 4)])
def test_a_wrong_power_of_q_below_the_top_is_caught(name, i):
    # A fresh fold whose link i carries q^(d+1): it raises at the first step
    # along that link, out of the highest weight that reaches it at that
    # level, and gives the right fold at every weight that does not.
    chain, _, base = _ROUTES[name]
    good = chain[i]
    chain = chain[:i] + [one_more_q(good)] + chain[i + 1:]
    below_top = graded.below_top(chain, base)
    right = getattr(graded, f"{name}_level5")
    caught = 0
    for lam in dominant_box(8, 8):
        terms = {lam: 1}
        for link in chain[1:i]:
            terms = graded.graded_push(terms, link)
        leading = [w for w in terms if good(*w) is not None]
        if not leading:
            assert below_top(lam) == right(lam), lam
            continue
        first = max(map(height, leading))
        with pytest.raises(RuntimeError) as raised:
            below_top(lam)
        assert str(raised.value) in {
            f"chain link from {w!r} to {good(*w)[0]!r} carries q^{good(*w)[1] + 1}, "
            f"not q^{good(*w)[1]}, its drop in r2"
            for w in leading if height(w) == first}, lam
        caught += 1
    assert caught > 0


def test_graded_push_refuses_links_that_do_not_descend():
    # the same refusals, in the same words, as combo.push
    flat = lambda a, b: ((a + 5, b - 3), 1, 1) if b >= 3 else None
    up = lambda a, b: ((a + 1, b), 1, 1) if a < 4 else None
    out = lambda a, b: ((a - 1, b), 1, 1) if b < 9 else None
    for link, w in ((flat, (0, 3)), (up, (1, 1)), (out, (0, 2))):
        with pytest.raises(RuntimeError, match="does not descend"):
            graded.graded_push({w: 1}, link)


@pytest.mark.parametrize("change, message", [
    (lambda t: {**t, (2, 4): 2}, "not unitriangular"),
    (lambda t: {**t, (-1, 3): 1}, "has support at (-1, 3)"),
    (lambda t: {**t, (3, 4): 1}, "has support at (3, 4)"),
    (lambda t: {**t, (0, 4): -1}, "coefficient -1 at (0, 4), not a positive int"),
    (lambda t: {**t, (0, 4): 0}, "coefficient 0 at (0, 4), not a positive int"),
], ids=["unitriangular", "outside the cone", "above lam", "negative", "zero"])
def test_check_positive_rejects_each_fault(change, message):
    # combo.check_atomic's faults, and its words, on the ints of the fold
    # below the top link; (0, 4) lies below (2, 4), and (3, 4) above it
    terms = graded.adjusted_level5((2, 4))
    graded.check_positive((2, 4), terms)
    with pytest.raises(ValueError, match=re.escape(message)) as raised:
        graded.check_positive((2, 4), change(dict(terms)))
    assert str(raised.value).startswith("atomic expansion at (2, 4) ")


def test_the_atomic_factors_split_by_their_drop_in_r2():
    # gamma2, gamma3 and gamma4 drop r2 by 1, gamma5 by 2: read off PHI_GEQ[2]
    assert len(graded.ONE_DROP) == 3 and len(graded.TWO_DROP) == 1
    assert [*graded.ONE_DROP, *graded.TWO_DROP] == [*PHI_GEQ[2]]
    assert {_r2(g) for g in graded.ONE_DROP} == {1}
    assert {_r2(g) for g in graded.TWO_DROP} == {2}


def _straightened_with_q(lam, terms):
    return precanonical.straightened(with_q(lam, terms).terms, PHI_GEQ[2])


def test_in_canonical_is_straightened_with_q_put_back():
    # At every weight of the 24x24 box, on both routes: the kernel on the
    # ints is the polynomial kernel on them with q put back, and both give
    # the level-5 definitional expansion; the fold is left as it was
    for lam in dominant_box(24, 24):
        want = precanonical.defn_precanonical(5, lam)
        for fold in (graded.adjusted_level5, graded.precanonical_level5):
            terms = fold(lam)
            before = dict(terms)
            got = graded.in_canonical(lam, terms)
            assert got == _straightened_with_q(lam, terms) == want, (fold, lam)
            assert terms == before, (fold, lam)


# Signed ints at weights near the walls, where the factors' images cancel,
# and leave the dominant cone or fall on a wall.
_near_walls = st.dictionaries(
    st.one_of(st.tuples(st.integers(0, 2), st.integers(0, 9)),
              st.tuples(st.integers(0, 9), st.integers(0, 2))),
    st.integers(-3, 3).filter(bool), max_size=12)


@given(st.sampled_from(dominant_box(6, 6)), _near_walls)
@example((0, 0), {(0, 0): 1, (0, 1): 1})  # gamma5's images of (0, 1) and (0, 0) meet
@example((2, 1), {(1, 0): 1, (0, 1): -1, (2, 0): 2})
def test_in_canonical_matches_straightened_near_the_walls(lam, terms):
    before = dict(terms)
    assert graded.in_canonical(lam, terms) == _straightened_with_q(lam, terms)
    assert terms == before
