"""Acceptance gate: one test per shipped guarantee, each printing a
single PASS/FAIL line with its runtime.

This file sorts first alphabetically, so the sweeps here run against
cold caches and the reported timings are honest.
"""

import json
import subprocess
import sys
import time

from g2atomic.adjusted import atomic_second
from g2atomic.combo import CANONICAL, substitute
from g2atomic.kostka import (dimension_by_orbits, freudenthal_multiplicity,
                             kostka_foulkes, weyl_dimension)
from g2atomic.lattice import (X_I_CLOSED, dominance_leq, dominant_below,
                              dominant_box, height, x_I_member,
                              x_I_member_closed)
from g2atomic.polyq import eval_at_one, degree, from_pairs, leading_coeff
from g2atomic.precanonical import (atomic, closed_form_3to2, closed_form_4to3,
                                   closed_form_5to4, closed_form_6to5,
                                   defn_precanonical, inverse_step, step_up)

from reference_data import REF_ATOMIC_24, REF_KF_69_32, REF_ORDER_24
from test_combo import validate
from test_polyq import poly_add, poly_sub


def _criterion(n, desc, budget, fn):
    start = time.perf_counter()
    try:
        fn()
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"FAIL criterion {n}: {desc} ({elapsed:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"PASS criterion {n}: {desc} ({elapsed:.2f}s)")
    assert elapsed < budget, f"criterion {n} exceeded {budget}s: {elapsed:.2f}s"


def _cli(*args):
    return subprocess.run([sys.executable, "-m", "g2atomic.cli"] + list(args),
                          capture_output=True, check=True)


def test_criterion_01_atomic_expansion_cli():
    def run():
        proc = _cli("atomic", "2", "4", "--format", "json")
        obj = json.loads(proc.stdout)
        got = {tuple(t["weight"]): from_pairs(t["poly"]) for t in obj["terms"]}
        assert got == REF_ATOMIC_24
        assert [tuple(t["weight"]) for t in obj["terms"]] == REF_ORDER_24
        assert got[(2, 2)] == {4: 2, 3: 1, 2: 1}
        assert got[(1, 0)] == {9: 1, 8: 1, 7: 1, 6: 1, 5: 1}
        assert got[(0, 0)] == {10: 1, 8: 1, 6: 1}
    _criterion(1, "atomic expansion of (2,4) via CLI, exact", 1.0, run)


def test_criterion_02_kostka_foulkes_cli():
    def run():
        proc = _cli("kf", "6", "9", "3", "2", "--format", "json")
        poly = from_pairs(json.loads(proc.stdout)["poly"])
        assert poly == REF_KF_69_32
        assert poly[44] == 1 and poly[38] == 9
        assert poly[20] == 51 and poly[9] == 1
    _criterion(2, "Kostka-Foulkes value at ((6,9),(3,2)) via CLI, exact",
               5.0, run)


def test_criterion_03_positivity_sweep():
    def run():
        for lam in dominant_box(12, 12):
            x = atomic(lam)
            assert x.terms[lam] == {0: 1}
            for w, p in x.terms.items():
                assert dominance_leq(w, lam)
                assert all(c > 0 for c in p.values()), (lam, w)
            validate(x)
    _criterion(3, "atomic coefficients non-negative for a,b <= 12", 60.0, run)


def test_criterion_04_cross_approach():
    def run():
        for lam in dominant_box(12, 12):
            assert atomic_second(lam) == atomic(lam), lam
    _criterion(4, "both pipelines agree termwise for a,b <= 12", 120.0, run)


def test_criterion_05_definitional_roundtrip():
    def run():
        for lam in dominant_box(10, 10):
            back = substitute(atomic(lam), lambda w: defn_precanonical(2, w))
            assert back.terms == {lam: {0: 1}}, lam
            assert back.basis == CANONICAL, lam
    _criterion(5, "definitional expansion inverts atomic for a,b <= 10",
               120.0, run)


def test_criterion_06_closed_form_oracles():
    def run():
        from g2atomic.combo import pre_canonical
        for lam in dominant_box(10, 10):
            assert closed_form_6to5(lam) == step_up(5, lam)
            assert closed_form_3to2(lam) == step_up(2, lam)
            assert closed_form_4to3(lam) == step_up(3, lam)
            part4, part3 = closed_form_5to4(lam)
            lift = substitute(part3, lambda w: inverse_step(3, w),
                              basis=pre_canonical(4))
            merged = {w: dict(p) for w, p in part4.terms.items()}
            for w, p in lift.terms.items():
                cur = poly_add(merged.get(w, {}), p)
                if cur:
                    merged[w] = cur
                else:
                    merged.pop(w, None)
            assert step_up(4, lam).terms == merged, lam
            for i in (2, 3, 4, 5):
                rt = substitute(inverse_step(i, lam),
                                lambda w: step_up(i, w))
                assert rt.terms == {lam: {0: 1}}, (i, lam)
    _criterion(6, "closed forms match recursive steps for a,b <= 10",
               60.0, run)


def test_criterion_07_membership_table():
    def run():
        subsets = sorted(X_I_CLOSED, key=lambda s: (len(s), sorted(s)))
        assert len(subsets) == 16
        for lam in dominant_box(10, 10):
            for I in subsets:
                assert x_I_member(I, lam) == x_I_member_closed(I, lam), (I, lam)
    _criterion(7, "recursive membership equals all 16 closed rows, a,b <= 10",
               60.0, run)


def test_criterion_08_independent_multiplicity_oracle():
    def run():
        assert weyl_dimension((1, 0)) == dimension_by_orbits((1, 0)) == 7
        assert weyl_dimension((0, 1)) == dimension_by_orbits((0, 1)) == 14
        assert weyl_dimension((2, 0)) == dimension_by_orbits((2, 0)) == 27
        for lam in dominant_box(6, 6):
            for mu in dominant_below(lam):
                kf1 = eval_at_one(kostka_foulkes(lam, mu))
                assert kf1 == freudenthal_multiplicity(lam, mu), (lam, mu)
    _criterion(8, "Kostka-Foulkes at q=1 equals Freudenthal for a,b <= 6",
               60.0, run)


def test_criterion_09_monic_degree_and_monotonicity():
    def run():
        for lam in dominant_box(6, 6):
            below = dominant_below(lam)
            for mu in below:
                p = kostka_foulkes(lam, mu)
                d = (lam[0] - mu[0], lam[1] - mu[1])
                assert degree(p) == height(d), (lam, mu)
                assert leading_coeff(p) == 1, (lam, mu)
                for nu in below:
                    if not dominance_leq(mu, nu):
                        continue
                    h = height((nu[0] - mu[0], nu[1] - mu[1]))
                    shifted = {e + h: c
                               for e, c in kostka_foulkes(lam, nu).items()}
                    diff = poly_sub(p, shifted)
                    assert all(c > 0 for c in diff.values()), (lam, mu, nu)
    _criterion(9, "monic degrees and shift monotonicity for a,b <= 6",
               60.0, run)


def test_criterion_10_determinism_and_roundtrip():
    def run():
        cmds = [
            ["atomic", "2", "4", "--format", "json"],
            ["atomic", "2", "4", "--format", "latex"],
            ["atomic", "2", "4"],
            ["kf", "6", "9", "3", "2"],
            ["standard", "1", "1", "--format", "json"],
            ["expand", "--level", "3", "2", "2", "--format", "json"],
            ["verify", "--max-a", "1", "--max-b", "1", "--format", "json"],
        ]
        for cmd in cmds:
            a, b = _cli(*cmd), _cli(*cmd)
            assert a.stdout == b.stdout and a.stdout, cmd
        from g2atomic.render import combination_from_json, render_combination
        for cmd in cmds[:1] + cmds[4:6]:
            out = _cli(*cmd).stdout.decode()
            obj = json.loads(out)
            x, lam = combination_from_json(obj)
            again = render_combination(x, CANONICAL, lam, "json")
            assert again == out.rstrip("\n"), cmd
    _criterion(10, "byte-identical CLI reruns and lossless JSON round trip",
               30.0, run)
