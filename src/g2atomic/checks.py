"""Invariant checks: one runner and two ordered registries.

A check is a (name, fn) pair; fn raises on failure and may return a detail
string, and run() turns it into a CheckResult: it is the one place where
a check's exception becomes a failed result, and every check body, each
per-weight step of the sweep included, runs under it.  The registries are
two pinned views: verify() runs WEIGHT_CHECKS on one weight, sweep() runs
BOX_CHECKS over a box, running every EachWeight at each weight in one
loop, weight by weight, so no check keeps anything from one weight to the
next.  Only the even column (over m) and the two Kostka-Foulkes paths
(over pairs) take the box.  Library functions are looked up on their
modules at call time, so a tracing wrapper bound there sees every call.

verify() checks the full atomic expansion at its weight; the sweep checks
each route's much smaller fold below the top link, in ints (g2atomic.graded).
Both top links send (a, b) to (a, b-1) with factor q, so atomic(a, b) is
that fold, with q put back, plus q*atomic(a, b-1), and by induction up each
column the sweep's checks of it state what verify()'s state of atomic (the
round trip with the level-5 definitional consistency).  Positivity reads
the ints, cross-approach compares the two routes' ints, and the round trip
straightens the ints and puts q back once, at the end (graded.in_canonical).
The adjusted route's level-2 identity is checked in the canonical basis,
by the definition of each atomic element, so no check folds a combination.
This module keeps no memo; each memo it reads keeps the weight asked for
last, so the checks at one weight share one fold per route, one column and
one Freudenthal table.

The sweep's loop is split across one process per CPU: forked children
each run every k-th weight of the box and report only whether every check
passed there, while the calling process runs the two box-level checks
(_shards).  A shard that did not pass runs again in the calling process,
so run() there forms every result.  The outcome of a check is its failure
at the least weight, (a, b) ordered as a tuple, so it is the same with one
CPU or many.  When the sweep forks, a tracing wrapper sees the box-level
checks only.
"""

from __future__ import annotations

import os
import signal
import threading
from functools import cache, partial

from . import adjusted, graded, kostka, precanonical
from .combo import (ATOMIC, CANONICAL, Combination, combo_add, pre_canonical,
                    single, substitute)
from .kostka import CheckResult
from .lattice import (INDEX_SUBSETS, PHI_GEQ, POSITIVE_ROOTS, Weight,
                      check_dominant, dominance_leq, dominant_box, height,
                      x_I_member, x_I_member_closed)
from .polyq import degree, eval_at_one, iadd_scaled, is_nonnegative, leading_coeff

# kostka.two-paths, the one quadratic check, runs on the part of the box with
# both coordinates at most this; the Freudenthal and shift-monotonicity checks
# stay on it too, because the sweep's pinned output names its size.
SMALL = 6

# The largest sweep bound, checked before the box is built; the 40x40 box
# takes about 3.1 s on two CPUs and 5.8 s on one (README, Limits).
MAX_BOX = 40


def run(name: str, fn) -> CheckResult:
    try:
        detail = fn()
    except MemoryError:
        raise
    except Exception as exc:  # noqa: BLE001 - a failed check is reported, not raised
        return CheckResult(name, False, str(exc))
    return CheckResult(name, True, detail or "")


class VerifyReport:
    """The results of the per-weight checks at one weight."""

    def __init__(self, lam: Weight, checks: list[CheckResult] | None = None):
        self.lam = lam
        self.checks = [] if checks is None else checks

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.lam, self.checks) == (other.lam, other.checks)

    def __repr__(self) -> str:
        return f"VerifyReport(lam={self.lam!r}, checks={self.checks!r})"

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


# Per-weight bodies.

def positivity(lam: Weight) -> str:
    # the production route checks positivity as it builds the expansion
    return f"{len(adjusted.atomic_second(lam).terms)} terms"


def cross_approach(lam: Weight) -> None:
    if adjusted.atomic_second(lam) != precanonical.atomic(lam):
        raise AssertionError(f"the two atomic routes disagree at {lam!r}")


def inverts_definitional(lam: Weight, x: Combination) -> bool:
    """Whether x, in the atomic basis, is the expansion of the canonical
    element at lam: substituting the definitional expansion of each atomic
    element must give back exactly the canonical element, which reads no
    link.

    Substitution and straightening are both linear, so the whole of x goes
    through precanonical.straightened once, the kernel that defines each
    atomic element, instead of one expansion per term."""
    back = precanonical.straightened(x.terms, PHI_GEQ[2])
    return back == precanonical.defn_precanonical(6, lam)


def definitional_roundtrip(lam: Weight) -> None:
    if not inverts_definitional(lam, adjusted.atomic_second(lam)):
        raise AssertionError(f"definitional expansion does not invert the "
                             f"pipeline at {lam!r}")


def at_one(lam: Weight) -> str:
    table = kostka.multiplicity_table(lam)  # every dominant weight below lam
    kf = kostka.canonical_to_standard(lam).terms
    for mu, want in table.items():
        got = eval_at_one(kf.get(mu, {}))
        if got != want:
            raise AssertionError(f"q=1 value {got} != multiplicity {want} "
                                 f"at {mu!r} below {lam!r}")
    return f"{len(table)} dominant weights"


def dimension(lam: Weight) -> str:
    wd = kostka.weyl_dimension(lam)
    ob = kostka.dimension_by_orbits(lam)
    if wd != ob:
        raise AssertionError(f"dimension mismatch at {lam!r}: product {wd}, "
                             f"orbits {ob}")
    return f"dim {wd}"


def monic(lam: Weight) -> None:
    for mu, p in kostka.canonical_to_standard(lam).terms.items():
        want = height(lam) - height(mu)
        if degree(p) != want or leading_coeff(p) != 1:
            raise AssertionError(f"coefficient at {mu!r} below {lam!r} is not "
                                 f"monic of degree {want}")


def monotone(lam: Weight) -> None:
    # pmu - q**s * pnu in N[q] for mu <= nu, s = height(nu) - height(mu), is
    # transitive (the shifts add along a chain), and the steps nu = mu + beta,
    # beta a positive root, generate dominance on the dominant weights below
    # lam (Stembridge, "The partial order of dominant weights", 1998; pinned
    # in test_lattice), so checking the steps decides every pair.
    kf = kostka.canonical_to_standard(lam).terms
    for mu, pmu in kf.items():
        for beta, _, s in POSITIVE_ROOTS:
            nu = (mu[0] + beta[0], mu[1] + beta[1])
            if nu in kf:
                diff = dict(pmu)
                iadd_scaled(diff, kf[nu], s, -1)
                if not is_nonnegative(diff):
                    raise AssertionError(f"monotonicity fails for {mu!r} <= {nu!r} "
                                         f"below {lam!r}")


WEIGHT_CHECKS = [
    ("atomic-positivity", positivity),
    ("cross-approach", cross_approach),
    ("definitional-roundtrip", definitional_roundtrip),
    ("kostka-at-one", at_one),
    ("dimension-by-orbits", dimension),
    ("monic-degree", monic),
    ("shift-monotonicity", monotone),
]


def verify(lam: Weight) -> VerifyReport:
    """Run every per-weight invariant: positivity and triangularity of the
    atomic expansion, agreement of the two expansion routes, the
    definitional round trip, the q=1 multiplicity oracle, dimension by
    orbits, monic top degrees, and the shift monotonicity of the
    Kostka-Foulkes array.  Failures are reported, not raised; running out
    of memory raises MemoryError."""
    check_dominant(lam)
    return VerifyReport(lam, [run(name, partial(fn, lam)) for name, fn in WEIGHT_CHECKS])


# Box checks take the box as a list of weights in dominant_box order.

def level5_positivity(lam: Weight) -> None:
    graded.check_positive(lam, graded.adjusted_level5(lam))


def level5_cross_approach(lam: Weight) -> None:
    # the walks along the two top links, which check that each descends
    if precanonical.step_up(5, lam).terms != adjusted.adjusted_expand_up(5, lam).terms:
        raise AssertionError(f"the two routes' top links disagree at {lam!r}")
    if graded.adjusted_level5(lam) != graded.precanonical_level5(lam):
        raise AssertionError(f"the two atomic routes disagree at {lam!r}")


def level5_roundtrip(lam: Weight) -> None:
    x = graded.in_canonical(lam, graded.adjusted_level5(lam))
    if x != precanonical.defn_precanonical(5, lam):
        raise AssertionError(f"definitional expansion does not invert the "
                             f"pipeline at {lam!r}")


def _small(box: list[Weight]) -> list[Weight]:
    return [w for w in box if w[0] <= SMALL and w[1] <= SMALL]


class EachWeight:
    """A box check that runs each per-weight body on every weight of the box,
    or of its small part; called, it runs them at one weight.  suffix ends
    its detail, as in " x 4 levels"."""

    def __init__(self, *bodies, small=False, suffix=""):
        self.bodies, self.small, self.suffix = bodies, small, suffix

    def __call__(self, lam: Weight) -> None:
        for body in self.bodies:
            body(lam)


def _step_roundtrip(lam, up, down) -> None:
    """up(i, .) and down(i, .) invert each other at levels 2..5."""
    for i in (2, 3, 4, 5):
        f = substitute(down(i, lam), lambda w: up(i, w))
        g = substitute(up(i, lam), lambda w: down(i, w))
        if f.terms != {lam: {0: 1}} or g.terms != {lam: {0: 1}}:
            raise AssertionError(f"level {i} round trip fails at {lam!r}")


def _canonical_consistency(lam, down, in_canonical) -> None:
    """Stepping down from level i+1 agrees with the canonical-basis
    expansion at level i, for i in 2..5.  Each expansion at lam is computed
    once, though two levels name it; the memo lives for this weight."""
    in_canonical = cache(in_canonical)
    for i in (2, 3, 4, 5):
        via = substitute(down(i, lam), lambda w: in_canonical(i + 1, w),
                         basis=CANONICAL)
        if via != in_canonical(i, lam):
            raise AssertionError(f"level {i} canonical expansion disagrees "
                                 f"at {lam!r}")


def closed_forms(lam: Weight) -> None:
    step_up = precanonical.step_up
    for which, fn, i in (("6to5", precanonical.closed_form_6to5, 5),
                         ("3to2", precanonical.closed_form_3to2, 2),
                         ("4to3", precanonical.closed_form_4to3, 3)):
        if fn(lam) != step_up(i, lam):
            raise AssertionError(f"{which} disagrees at {lam!r}")
    # the level-3 remainder, lifted into the level-4 basis
    p4, p3 = precanonical.closed_form_5to4(lam)
    lift = substitute(p3, lambda w: precanonical.inverse_step(3, w),
                      basis=pre_canonical(4))
    if combo_add(p4, lift) != step_up(4, lam):
        raise AssertionError(f"5to4 disagrees at {lam!r}")


def even_column_closed_form(box) -> str:
    step_up = precanonical.step_up
    top = min(max(b for _, b in box), 12) // 2
    for m in range(top + 1):
        want: dict = {(0, 2 * m - 2 * i): {4 * i: 1} for i in range(m + 1)}
        for i in range(1, m + 1):
            for j in range(1, 2 * m - 2 * i + 2):
                w = (j + 1, 2 * m - 2 * i - j + 1)
                iadd_scaled(want.setdefault(w, {}), {4 * i + j - 3: 1})
        got = substitute(step_up(4, (0, 2 * m)),
                         lambda u: substitute(step_up(3, u),
                                              lambda v: step_up(2, v),
                                              basis=pre_canonical(2)),
                         basis=pre_canonical(2))
        if got.terms != want:
            raise AssertionError(f"even-column closed form fails at m={m}")
    return f"m <= {top}"


def adjusted2_consistency(lam: Weight) -> None:
    # each atomic term of the level-2 adjusted element replaced by its definition
    via = precanonical.straightened(adjusted.adjusted2_in_atomic(lam).terms,
                                    PHI_GEQ[2])
    if via != adjusted.adjusted_in_canonical(2, lam):
        raise AssertionError(f"level-2 atomic expansion disagrees at {lam!r}")


def correction_identity(lam: Weight) -> None:
    # the level-2 adjusted element minus the atomic element, in the atomic
    # basis, case split on the indexing weight
    def shifted(w, k):
        return {u: {e + k: c for e, c in p.items()}
                for u, p in adjusted.adjusted2_in_atomic(w).terms.items()}

    a, b = lam
    diff = combo_add(adjusted.adjusted2_in_atomic(lam),
                     single(ATOMIC, lam, {0: -1})).terms
    if a >= 3 or a + b < 2:
        want: dict = {}
    elif a == 2:
        want = shifted((0, b), 2)
    elif a == 1:
        want = shifted((1, b - 1), 2)
        for k in range(1, b + 1):
            iadd_scaled(want.setdefault((1 + k, b - k), {}), {k: 1})
    else:
        want = shifted((0, b - 2), 4)
        for k in range(2, b + 1):
            iadd_scaled(want.setdefault((k, b - k), {}), {k: 1})
    if diff != want:
        raise AssertionError(f"correction identity fails at {lam!r}")


def membership_tables(lam: Weight) -> None:
    for I in INDEX_SUBSETS:
        if x_I_member(I, lam) != x_I_member_closed(I, lam):
            raise AssertionError(f"membership tables disagree for "
                                 f"{I!r} at {lam!r}")


def kf_two_paths(box) -> str:
    small = _small(box)
    for lam in small:
        table = kostka.canonical_to_standard(lam).terms
        for mu in small:
            got = kostka.kostka_foulkes(lam, mu)
            want = table.get(mu, {}) if dominance_leq(mu, lam) else {}
            if got != want:
                raise AssertionError(f"two KF paths disagree at {lam!r}, {mu!r}")
    return f"{len(small)}^2 pairs"


BOX_CHECKS = [
    ("precanonical.step-roundtrips", EachWeight(
        lambda lam: _step_roundtrip(lam, precanonical.step_up,
                                    precanonical.inverse_step),
        suffix=" x 4 levels")),
    ("precanonical.closed-forms", EachWeight(closed_forms)),
    ("precanonical.definitional-consistency", EachWeight(
        lambda lam: _canonical_consistency(lam, precanonical.inverse_step,
                                           precanonical.defn_precanonical),
        suffix=" x 4 levels")),
    ("precanonical.definitional-roundtrip", EachWeight(level5_roundtrip)),
    ("precanonical.positivity", EachWeight(level5_positivity)),
    ("precanonical.even-column-closed-form", even_column_closed_form),
    ("adjusted.step-roundtrips", EachWeight(
        lambda lam: _step_roundtrip(lam, adjusted.adjusted_expand_up,
                                    adjusted.adjusted_step_down),
        suffix=" x 4 levels")),
    ("adjusted.canonical-consistency", EachWeight(
        lambda lam: _canonical_consistency(lam, adjusted.adjusted_step_down,
                                           adjusted.adjusted_in_canonical),
        suffix=" x 4 levels")),
    ("adjusted.atomic-consistency", EachWeight(adjusted2_consistency)),
    ("adjusted.correction-identity", EachWeight(correction_identity)),
    ("adjusted.cross-approach", EachWeight(level5_cross_approach)),
    ("lattice.membership-tables",
     EachWeight(membership_tables, suffix=" x 16 subsets")),
    ("kostka.two-paths", kf_two_paths),
    ("kostka.at-one-vs-freudenthal", EachWeight(at_one, dimension, small=True)),
    ("kostka.monic-and-monotone", EachWeight(monic, monotone, small=True)),
]


def _shards(box: list[Weight], k: int) -> list[list[Weight]]:
    """The weights of the box dealt into at most k shards, every k-th
    weight in box order, none of them empty."""
    return [box[i::k] for i in range(min(k, len(box)))]


def _processes() -> int:
    """How many processes a sweep may run in: one per CPU this process may
    run on, or one where os.fork or os.sched_getaffinity is missing, or
    where another thread runs (a forked child copies only the caller's)."""
    if (not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
            or threading.active_count() > 1):
        return 1
    return len(os.sched_getaffinity(0))


def _first_failures(weights, each, small, parent=None) -> dict:
    """Each per-weight check's first failure on the weights, in order:
    name -> (weight, result).  A check that fails runs at no later weight.
    A child given its parent's pid exits at the next weight once that
    parent is gone."""
    first: dict = {}
    for lam in weights:
        if parent is not None and os.getppid() != parent:
            os._exit(1)
        for name, c in each:
            if name not in first and (not c.small or lam in small):
                result = run(name, partial(c, lam))
                if not result.ok:
                    first[name] = lam, result
    return first


def _child(shard) -> None:
    """Run shard() in a forked child and end the child with os._exit: status
    0 if every check passed there, 1 if one failed or anything raised.  It
    runs no exit hooks and flushes no buffer copied from the parent."""
    code = 1
    try:
        code = 1 if shard() else 0
    finally:
        os._exit(code)


def sweep(max_a: int, max_b: int) -> list[CheckResult]:
    """Run every box check over the dominant weights with a <= max_a and
    b <= max_b.  Raises ValueError unless both bounds are ints in
    0..MAX_BOX, and MemoryError if a check runs out of memory.

    With k > 1 processes, the per-weight checks run in k forked children,
    one per shard of _shards, each reporting only whether every check
    passed there, while the calling process runs the two box-level checks.
    A shard whose child reports otherwise, or dies, runs again in the
    calling process, so every result is formed there.  A check's outcome
    is its failure at the least weight, so the results are the one-process
    results, whatever a child did.  With one CPU, no os.fork or another
    thread running, the whole box runs in process.  No child outlives the
    call."""
    if type(max_a) is not int or type(max_b) is not int or max_a < 0 or max_b < 0:
        kind = "non-negative" if type(max_a) is type(max_b) is int else "ints"
        raise ValueError(f"sweep bounds must be {kind}")
    if max(max_a, max_b) > MAX_BOX:
        raise ValueError(f"sweep bounds must be at most {MAX_BOX}")
    box = dominant_box(max_a, max_b)
    small = set(_small(box))
    each = [(name, c) for name, c in BOX_CHECKS if isinstance(c, EachWeight)]
    # A per-weight check passes unless some weight fails it.
    outcome = {name: CheckResult(name, True, f"{len(small if c.small else box)}"
                                 f" weights{c.suffix}") for name, c in each}
    shards = _shards(box, _processes())
    forked = shards if len(shards) > 1 else []
    again = [] if forked else box  # the weights to run in process
    parent, pids = os.getpid(), []  # pids: children not yet reaped
    try:
        for weights in forked:
            pid = os.fork()
            if pid == 0:
                _child(partial(_first_failures, weights, each, small, parent))
            pids.append(pid)
        for name, c in BOX_CHECKS:
            if name not in outcome:
                outcome[name] = run(name, partial(c, box))
        for weights, pid in zip(forked, list(pids)):
            status = os.waitpid(pid, 0)[1]
            pids.remove(pid)
            if status != 0:
                again += weights
    finally:
        for pid in pids:  # still running only if the sweep raised
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    # in box order, so that each check's first failure is its least
    for name, (_, result) in _first_failures(sorted(again), each, small).items():
        outcome[name] = result
    return [outcome[name] for name, _ in BOX_CHECKS]
