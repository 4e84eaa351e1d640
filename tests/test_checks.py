"""No check passes vacuously: for each box check, one library function
made wrong turns that check to FAIL on a small box, and for each check of
verify(lam), one turns it to FAIL at (2, 4).  The sweep split across
processes reports what the one-process sweep reports, whatever a child
does, runs a child's shard again only when it did not pass, and leaves no
child behind."""

import os
import signal
import threading
import weakref

import pytest
from hypothesis import given, strategies as st

from g2atomic import adjusted, checks, cli, graded, kostka, precanonical
from g2atomic.combo import Combination, check_atomic
from g2atomic.lattice import dominant_box

from test_graded import one_more_q


def _times_q(fn):
    """fn with every polynomial of its result multiplied by q."""
    def wrong(*args):
        x = fn(*args)
        if isinstance(x, Combination):
            return Combination(x.basis, {w: {e + 1: c for e, c in p.items()}
                                         for w, p in x.terms.items()})
        return {e + 1: c for e, c in x.items()}
    return wrong


def _negated(fn):
    """fn with every coefficient of its combination negated."""
    def wrong(*args):
        x = fn(*args)
        return Combination(x.basis, {w: {e: -c for e, c in p.items()}
                                     for w, p in x.terms.items()})
    return wrong


def _ints_times(k):
    """How to make a fold below the top link, {w: n}, wrong: every n times k."""
    return lambda fn: lambda lam: {w: k * n for w, n in fn(lam).items()}


def _negated_and_checked(route):
    """An atomic route that builds the negated expansion and checks it, as
    the production route checks positivity while it builds."""
    def wrong(lam):
        bad = _negated(route)(lam)
        check_atomic(lam, bad)
        return bad
    return wrong


# check name -> (module, function, how to make the function wrong)
BREAKERS = {
    "precanonical.step-roundtrips": (precanonical, "inverse_step", _times_q),
    "precanonical.closed-forms": (precanonical, "closed_form_6to5", _times_q),
    "precanonical.definitional-consistency": (precanonical, "inverse_step", _times_q),
    "precanonical.definitional-roundtrip": (graded, "adjusted_level5", _ints_times(2)),
    "precanonical.positivity": (graded, "adjusted_level5", _ints_times(-1)),
    "precanonical.even-column-closed-form": (precanonical, "step_up", _times_q),
    "adjusted.step-roundtrips": (adjusted, "adjusted_step_down", _times_q),
    "adjusted.canonical-consistency": (adjusted, "adjusted_step_down", _times_q),
    "adjusted.atomic-consistency": (adjusted, "adjusted2_in_atomic", _times_q),
    "adjusted.correction-identity": (adjusted, "adjusted2_in_atomic", _times_q),
    "adjusted.cross-approach": (graded, "precanonical_level5", _ints_times(2)),
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


def test_closed_forms_check_the_5to4_split(monkeypatch):
    # BREAKERS breaks closed-forms through 6to5 only; a wrong level-3
    # remainder of the 5to4 split turns it to FAIL on its own
    f = precanonical.closed_form_5to4

    def wrong(lam):
        part4, part3 = f(lam)
        return part4, _times_q(lambda: part3)()

    monkeypatch.setattr(precanonical, "closed_form_5to4", wrong)
    failed = {r.name: r.detail for r in checks.sweep(2, 2) if not r.ok}
    assert failed == {"precanonical.closed-forms": "5to4 disagrees at (0, 1)"}


# The same for verify(lam): per-weight check name -> (module, function, how
# to make the function wrong).
WEIGHT_BREAKERS = {
    "atomic-positivity": (adjusted, "atomic_second", _negated_and_checked),
    "cross-approach": (precanonical, "atomic", _times_q),
    "definitional-roundtrip": (adjusted, "atomic_second", _times_q),
    "kostka-at-one": BREAKERS["kostka.at-one-vs-freudenthal"],
    "dimension-by-orbits":
        (kostka, "dimension_by_orbits", lambda f: lambda lam: f(lam) + 1),
    "monic-degree": (kostka, "canonical_to_standard", _times_q),
    # multiplying by q keeps p_mu - q^s p_nu in N[q]; negating does not
    "shift-monotonicity": (kostka, "canonical_to_standard", _negated),
}


def test_every_weight_check_has_a_breaker():
    assert list(WEIGHT_BREAKERS) == [name for name, _ in checks.WEIGHT_CHECKS]


@pytest.mark.parametrize("name", list(WEIGHT_BREAKERS))
def test_weight_check_fails_on_a_wrong_library_function(monkeypatch, name):
    module, attr, breaker = WEIGHT_BREAKERS[name]
    monkeypatch.setattr(module, attr, breaker(getattr(module, attr)))
    results = {r.name: r for r in checks.verify((2, 4)).checks}
    assert not results[name].ok, results[name]


def test_weight_checks_pass_unbroken():
    assert checks.verify((2, 4)).ok


@pytest.mark.parametrize("lam", [(0, 100), (1, 100), (300, 1), (40, 40)],
                         ids=lambda lam: f"{lam[0]},{lam[1]}")
def test_atomic_oracles_at_published_weights(lam):
    # The per-weight checks of the atomic expansion, at weights that README
    # and the golden calls publish.  The Freudenthal and Kostka-Foulkes
    # column checks take seconds each at (0, 100) and above; the next test
    # runs them at (30, 30) and (40, 40).
    checks.positivity(lam)
    checks.cross_approach(lam)
    checks.definitional_roundtrip(lam)


@pytest.mark.parametrize("lam", [(30, 30), (40, 40)],
                         ids=lambda lam: f"{lam[0]},{lam[1]}")
def test_verify_at_published_weights(lam):
    # Every per-weight check, the Freudenthal and Kostka-Foulkes column
    # checks included, at the weight of the pinned `standard 30 30` and at
    # (40, 40).
    report = checks.verify(lam)
    assert report.ok, [c for c in report.checks if not c.ok]


def test_sweep_folds_each_weight_once_below_the_top_link(monkeypatch):
    # The sweep folds each weight once per route below the top link, shared
    # by the three checks that read that fold through its memo, and asks
    # the full-expansion memos only for the weights of the small box, for
    # the Kostka-Foulkes checks.  The folds and calls are counted in this
    # process, so the sweep runs in it alone.
    monkeypatch.setattr(checks.os, "sched_getaffinity", lambda pid: {0})
    calls = {}

    def recorded(module, attr):
        f = getattr(module, attr)

        def wrapped(lam):
            calls.setdefault((module.__name__, attr), []).append(lam)
            return f(lam)
        monkeypatch.setattr(module, attr, wrapped)

    for module, attr in ((precanonical, "atomic"), (adjusted, "atomic_second"),
                         (kostka, "atomic")):
        recorded(module, attr)
    folds = (graded.precanonical_level5, graded.adjusted_level5)
    for memo in (*folds, kostka.canonical_to_standard, kostka.multiplicity_table):
        memo.cache_clear()
    assert all(r.ok for r in checks.sweep(12, 12))
    box = dominant_box(12, 12)
    assert [fold.cache_info().misses for fold in folds] == [len(box)] * 2
    assert set(calls) == {("g2atomic.kostka", "atomic")}
    assert set(calls["g2atomic.kostka", "atomic"]) == set(checks._small(box))


def test_sweep_holds_no_canonical_expansion_across_weights(monkeypatch):
    # Each canonical-basis expansion that the consistency checks ask for is
    # counted while it is alive.  The most alive at once is the same on the
    # 6x6 and the 12x12 box: a check's memo lives for one weight, not one run.
    monkeypatch.setattr(checks.os, "sched_getaffinity", lambda pid: {0})
    alive = peak = 0

    def dead():
        nonlocal alive
        alive -= 1

    def counted(fn):
        def wrapped(*args):
            nonlocal alive, peak
            x = fn(*args)
            weakref.finalize(x, dead)
            alive += 1
            peak = max(peak, alive)
            return x
        return wrapped

    for module, attr in ((adjusted, "adjusted_in_canonical"),
                         (precanonical, "defn_precanonical")):
        monkeypatch.setattr(module, attr, counted(getattr(module, attr)))
    peaks = []
    for n in (6, 12):
        peak = 0
        assert all(r.ok for r in checks.sweep(n, n))
        assert alive == 0
        peaks.append(peak)
    # levels 2..6 at the weight and one successor at each of levels 3..6
    assert peaks == [9, 9]


# The forked sweep.  Patches made here are inherited by the forked children.

def _cpus(monkeypatch, n):
    monkeypatch.setattr(checks.os, "sched_getaffinity", lambda pid: set(range(n)))


def _failing_at(monkeypatch, module, attr, bad, how=None):
    """module.attr made to fail at the weights in bad: a wrong value, or
    whatever how(lam) does."""
    f = getattr(module, attr)

    def patched(*args):
        lam = args[-1]
        if lam in bad:
            if how is not None:
                how(lam)
            return None
        return f(*args)
    monkeypatch.setattr(module, attr, patched)


def _verify_8x1(capsys):
    code = cli.main(["verify", "--max-a", "8", "--max-b", "1"])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@given(st.integers(0, 40), st.integers(0, 40), st.integers(1, 4))
def test_shards_split_the_weights(max_a, max_b, k):
    box = dominant_box(max_a, max_b)
    shards = checks._shards(box, k)
    # every weight lands in exactly one shard, and each shard is in box order
    assert sorted(w for weights in shards for w in weights) == sorted(box)
    for weights in shards:
        members = set(weights)
        assert weights and [w for w in box if w in members] == weights
    assert len(shards) <= min(k, len(box))


def _8x2_shards():
    """The three shards of the 8x2 box: shard b holds the weights (a, b)."""
    shards = checks._shards(dominant_box(8, 2), 3)
    assert shards == [[(a, b) for a in range(9)] for b in range(3)]
    return shards


def test_forked_sweep_equals_the_one_process_sweep(monkeypatch):
    _8x2_shards()
    # membership-tables fails in the shards b = 1 and b = 2, and reports
    # the last shard's weight; closed-forms fails in the shards b = 0 and
    # b = 1, and reports the second's; at-one-vs-freudenthal fails in one
    _failing_at(monkeypatch, checks, "x_I_member_closed", {(8, 1), (7, 2)})
    _failing_at(monkeypatch, precanonical, "closed_form_6to5", {(8, 0), (1, 1)})
    _failing_at(monkeypatch, kostka, "weyl_dimension", {(2, 1)})
    _cpus(monkeypatch, 1)
    alone = checks.sweep(8, 2)
    _cpus(monkeypatch, 3)
    assert checks.sweep(8, 2) == alone
    _no_child_left()
    failed = {r.name: r.detail for r in alone if not r.ok}
    assert failed == {
        "lattice.membership-tables": "membership tables disagree for () at (7, 2)",
        "precanonical.closed-forms": "6to5 disagrees at (1, 1)",
        "kostka.at-one-vs-freudenthal": "dimension mismatch at (2, 1): product "
                                        "None, orbits 189"}


def _failures_on_one_and_three_cpus(monkeypatch):
    """The failures of the 8x2 sweep, name -> detail, once three CPUs have
    given the one-CPU results and left no child."""
    _8x2_shards()
    _cpus(monkeypatch, 1)
    alone = checks.sweep(8, 2)
    _cpus(monkeypatch, 3)
    assert checks.sweep(8, 2) == alone
    _no_child_left()
    return {r.name: r.detail for r in alone if not r.ok}


_WRONG_AT = pytest.mark.parametrize("bad, least", [({(8, 1), (3, 2)}, (3, 2)),
                                                   ({(8, 1)}, (8, 1))],
                                    ids=["in both", "in a child"])


@_WRONG_AT
def test_canonical_consistency_agrees_across_the_fork(monkeypatch, bad, least):
    # inverse_step is wrong at (8, 1), in the child of the shard b = 1, and
    # maybe at (3, 2), in the child of the shard b = 2; definitional-
    # consistency reports its failure at the least of those weights, on one
    # CPU or three
    f = precanonical.inverse_step
    wrong = _times_q(f)
    monkeypatch.setattr(precanonical, "inverse_step",
                        lambda i, lam: (wrong if lam in bad else f)(i, lam))
    failed = _failures_on_one_and_three_cpus(monkeypatch)
    assert set(failed) == {"precanonical.step-roundtrips",
                           "precanonical.definitional-consistency"}
    assert failed["precanonical.definitional-consistency"] == \
        f"level 2 canonical expansion disagrees at {least!r}"


@_WRONG_AT
def test_fold_below_the_top_link_agrees_across_the_fork(monkeypatch, bad, least):
    # The same with the adjusted route's fold below the top link wrong: each
    # of the three checks that read it reports the least of those weights
    f = graded.adjusted_level5
    wrong = _ints_times(2)(f)
    monkeypatch.setattr(graded, "adjusted_level5",
                        lambda lam: (wrong if lam in bad else f)(lam))
    assert _failures_on_one_and_three_cpus(monkeypatch) == {
        "precanonical.definitional-roundtrip":
            f"definitional expansion does not invert the pipeline at {least!r}",
        "precanonical.positivity": f"atomic expansion at {least!r} is not unitriangular",
        "adjusted.cross-approach": f"the two atomic routes disagree at {least!r}"}


@_WRONG_AT
def test_wrong_power_of_q_below_the_top_agrees_across_the_fork(monkeypatch, bad, least):
    # The same with the adjusted route folded, at those weights, through a
    # level-2 correction link that carries q^(d+1): the fold raises at its
    # first such step, and each of the three checks reports that at the
    # least of those weights
    f = graded.adjusted_level5
    wrong = graded.below_top(adjusted.CHAIN[:-1] + [one_more_q(adjusted._link2)],
                             graded.tails)
    monkeypatch.setattr(graded, "adjusted_level5",
                        lambda lam: (wrong if lam in bad else f)(lam))
    with pytest.raises(RuntimeError, match=r"^chain link from .* carries q\^\d+, "
                                           r"not q\^\d+, its drop in r2$") as raised:
        wrong(least)
    detail = str(raised.value)
    assert _failures_on_one_and_three_cpus(monkeypatch) == {
        "precanonical.definitional-roundtrip": detail,
        "precanonical.positivity": detail,
        "adjusted.cross-approach": detail}


def test_top_link_that_does_not_descend_fails_cross_approach(monkeypatch):
    # The folds below the top link never read it, so cross-approach compares
    # the two routes' top links at each weight.  One that leads (1, 1), of
    # height 8, up to (0, 2), of height 10, fails it there.
    f = precanonical._LINKS[5]
    monkeypatch.setitem(precanonical._LINKS, 5,
                        lambda a, b: ((0, 2), 1, 1) if (a, b) == (1, 1) else f(a, b))
    results = {r.name: r for r in checks.sweep(2, 2)}
    assert results["adjusted.cross-approach"].detail == (
        "chain link from (1, 1) to (0, 2) does not descend in the dominant cone")
    # a top link that descends elsewhere than the other route's
    monkeypatch.setitem(precanonical._LINKS, 5,
                        lambda a, b: ((2, 0), 1, 1) if (a, b) == (1, 1) else f(a, b))
    results = {r.name: r for r in checks.sweep(2, 2)}
    assert results["adjusted.cross-approach"].detail == (
        "the two routes' top links disagree at (1, 1)")


def test_out_of_memory_in_a_child(monkeypatch, capsys):
    _cpus(monkeypatch, 2)
    assert (8, 0) in checks._shards(dominant_box(8, 1), 2)[0]

    def exhausted(lam):
        raise MemoryError

    _failing_at(monkeypatch, checks, "x_I_member_closed", {(8, 0)}, exhausted)
    with pytest.raises(MemoryError):
        checks.sweep(8, 1)
    _no_child_left()
    assert _verify_8x1(capsys) == (1, "", "error: out of memory running verify\n")
    _no_child_left()


def _counting_first_failures(monkeypatch):
    """The weights of each call of checks._first_failures in this process.
    A forked child counts in its own copy of the list, which never reaches
    this one."""
    calls = []
    f = checks._first_failures

    def counted(weights, *args):
        calls.append(list(weights))
        return f(weights, *args)
    monkeypatch.setattr(checks, "_first_failures", counted)
    return calls


def test_passing_forked_sweep_runs_no_shard_again(monkeypatch):
    _cpus(monkeypatch, 3)
    calls = _counting_first_failures(monkeypatch)
    assert all(r.ok for r in checks.sweep(8, 2))
    # one call, on no weight: the three children ran the box
    assert calls == [[]]
    _no_child_left()


def test_failing_child_shard_alone_runs_again(monkeypatch):
    shards = _8x2_shards()
    _failing_at(monkeypatch, checks, "x_I_member_closed", {(8, 1)})
    _cpus(monkeypatch, 1)
    alone = checks.sweep(8, 2)
    calls = _counting_first_failures(monkeypatch)
    _cpus(monkeypatch, 3)
    assert checks.sweep(8, 2) == alone
    _no_child_left()
    assert calls == [shards[1]]
    assert [r.name for r in alone if not r.ok] == ["lattice.membership-tables"]


@pytest.mark.parametrize("end", [lambda: os._exit(3),
                                 lambda: os.kill(os.getpid(), signal.SIGKILL)],
                         ids=["exit status 3", "signal 9"])
def test_child_that_dies_is_run_again_in_process(monkeypatch, capsys, end):
    # The death happens in a child only; in this process the patched
    # function returns a wrong value at (8, 0), as on one CPU.
    test_pid = os.getpid()

    def die_in_a_child(lam):
        if os.getpid() != test_pid:
            end()

    _failing_at(monkeypatch, checks, "x_I_member_closed", {(8, 0)}, die_in_a_child)
    _cpus(monkeypatch, 1)
    alone = _verify_8x1(capsys)
    assert alone[0] == 2 and "FAIL lattice.membership-tables" in alone[1]
    _cpus(monkeypatch, 2)
    assert (8, 0) in checks._shards(dominant_box(8, 1), 2)[0]
    assert _verify_8x1(capsys) == alone
    _no_child_left()


def test_children_are_killed_when_the_sweep_raises(monkeypatch):
    # kostka.two-paths, a box-level check, runs in the calling process only,
    # so it raises there while the children still run the 12x12 box
    _cpus(monkeypatch, 3)

    def exhausted(lam, mu):
        raise MemoryError

    monkeypatch.setattr(kostka, "kostka_foulkes", exhausted)
    with pytest.raises(MemoryError):
        checks.sweep(12, 12)
    _no_child_left()


def test_sweep_runs_in_one_process_while_another_thread_runs(monkeypatch):
    def no_fork():
        raise AssertionError("forked with another thread running")

    _cpus(monkeypatch, 3)
    monkeypatch.setattr(checks.os, "fork", no_fork)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert all(r.ok for r in checks.sweep(8, 1))
    finally:
        stop.set()
        thread.join()


def test_orphaned_child_exits_at_the_next_weight():
    pid = os.fork()
    if pid == 0:
        try:
            # a parent pid that is not this child's: the child is orphaned
            checks._first_failures([(0, 0), (0, 1)], [], set(), os.getpid())
        finally:
            os._exit(0)
    assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 1
