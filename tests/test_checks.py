"""No sweep check passes vacuously: for each box check, one library
function made wrong turns that check to FAIL on a small box."""

import pytest

from g2atomic import adjusted, checks, kostka, precanonical
from g2atomic.combo import Combination, check_atomic
from g2atomic.lattice import dominant_box


def _times_q(fn):
    """fn with every polynomial of its result multiplied by q."""
    def wrong(*args):
        x = fn(*args)
        if isinstance(x, Combination):
            return Combination(x.basis, {w: {e + 1: c for e, c in p.items()}
                                         for w, p in x.terms.items()})
        return {e + 1: c for e, c in x.items()}
    return wrong


def _negated_and_checked(route):
    """An atomic route that builds the negated expansion and checks it, as
    the production route checks positivity while it builds."""
    def wrong(lam):
        x = route(lam)
        bad = Combination(x.basis, {w: {e: -c for e, c in p.items()}
                                    for w, p in x.terms.items()})
        check_atomic(lam, bad)
        return bad
    return wrong


# check name -> (module, function, how to make the function wrong)
BREAKERS = {
    "precanonical.step-roundtrips": (precanonical, "inverse_step", _times_q),
    "precanonical.closed-forms": (precanonical, "closed_form_6to5", _times_q),
    "precanonical.definitional-consistency": (precanonical, "inverse_step", _times_q),
    "precanonical.definitional-roundtrip": (adjusted, "atomic_second", _times_q),
    "precanonical.positivity": (adjusted, "atomic_second", _negated_and_checked),
    "precanonical.even-column-closed-form": (precanonical, "step_up", _times_q),
    "adjusted.step-roundtrips": (adjusted, "adjusted_step_down", _times_q),
    "adjusted.canonical-consistency": (adjusted, "adjusted_step_down", _times_q),
    "adjusted.atomic-consistency": (adjusted, "adjusted2_in_atomic", _times_q),
    "adjusted.correction-identity": (adjusted, "adjusted2_in_atomic", _times_q),
    "adjusted.cross-approach": (precanonical, "atomic", _times_q),
    "lattice.membership-tables":
        (checks, "x_I_member_closed", lambda f: lambda I, lam: not f(I, lam)),
    "kostka.two-paths": (kostka, "kostka_foulkes", _times_q),
    "kostka.at-one-vs-freudenthal":
        (kostka, "multiplicity_table",
         lambda f: lambda lam: {mu: m + 1 for mu, m in f(lam).items()}),
    "kostka.monic-and-monotone": (kostka, "canonical_to_standard", _times_q),
}


def test_every_box_check_has_a_breaker():
    assert list(BREAKERS) == [name for name, _ in checks.BOX_CHECKS]


@pytest.mark.parametrize("name", list(BREAKERS))
def test_box_check_fails_on_a_wrong_library_function(monkeypatch, name):
    module, attr, breaker = BREAKERS[name]
    monkeypatch.setattr(module, attr, breaker(getattr(module, attr)))
    # b reaches 2, so the even column has a level m = 1 to check
    results = {r.name: r for r in checks.sweep(2, 2)}
    assert not results[name].ok, results[name]


def test_box_checks_pass_unbroken():
    assert all(r.ok for r in checks.sweep(2, 2))


def test_sweep_folds_each_weight_once_and_the_memos_stay_bounded():
    # Each weight's per-weight checks all run while the bounded atomic memos
    # hold its expansions, so the sweep folds no weight again on the
    # pre-canonical route; on the adjusted route only kostka.two-paths,
    # which runs after them, asks again for the weights of the small box.
    for memo in (precanonical.atomic, adjusted.atomic_second,
                 kostka.canonical_to_standard, kostka.multiplicity_table):
        memo.cache_clear()
    assert all(r.ok for r in checks.sweep(12, 12))
    box = dominant_box(12, 12)
    pre, adj = precanonical.atomic.cache_info(), adjusted.atomic_second.cache_info()
    assert pre.misses == len(box)
    assert adj.misses <= len(box) + len(checks._small(box))
    assert pre.currsize <= pre.maxsize and adj.currsize <= adj.maxsize
