"""Kostka-Foulkes polynomials and the classical multiplicity oracle.

The atomic element at a dominant weight expands into the standard basis with
pure q-power coefficients, one for every dominant weight below it, with
exponent the height of the difference.  Composing with the atomic expansion
of the canonical basis gives the full triangular array of generalized
Kostka-Foulkes polynomials.  Specializing q to 1 must reproduce dominant
weight multiplicities of the irreducible representation, which an
independent Freudenthal recursion computes from nothing but the root data;
verify() bundles that check with the structural invariants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

from .lattice import (Weight, POSITIVE_ROOTS, check_dominant, dominance_leq,
                      dominant_below, height, linear_dominant, orbit_size)
from .polyq import (Poly, poly_sub, poly_scale_qpow, eval_at_one,
                    is_nonnegative, degree, leading_coeff)
from .combo import Combination, STANDARD, substitute
from . import precanonical
# The positive adjusted route serves every expansion here; the pre-canonical
# route is the cross-approach oracle.
from .adjusted import atomic_second as atomic


def atomic_to_standard(lam: Weight) -> Combination:
    """Atomic element in the standard basis: every dominant weight below
    lam appears once, with coefficient q to the height of the difference."""
    check_dominant(lam)
    h = height(lam)
    terms = {mu: {h - height(mu): 1} for mu in dominant_below(lam)}
    return Combination(STANDARD, terms)


@cache
def canonical_to_standard(lam: Weight) -> Combination:
    """Canonical element in the standard basis.  The coefficient at mu is
    the generalized Kostka-Foulkes polynomial for (lam, mu)."""
    out = substitute(atomic(lam), atomic_to_standard, basis=STANDARD)
    if out.terms.get(lam) != {0: 1}:
        raise RuntimeError(f"standard expansion at {lam!r} is not unitriangular")
    return out


def kostka_foulkes(lam: Weight, mu: Weight) -> Poly:
    """Generalized Kostka-Foulkes polynomial: the sum, over atomic support
    weights nu >= mu, of q**height(nu - mu) times the atomic coefficient."""
    check_dominant(lam)
    check_dominant(mu)
    if not dominance_leq(mu, lam):
        return {}
    acc: Poly = {}
    for nu, p in atomic(lam).terms.items():
        if not dominance_leq(mu, nu):
            continue
        k = height(nu) - height(mu)
        for e, c in p.items():
            e2 = e + k
            s = acc.get(e2, 0) + c
            if s:
                acc[e2] = s
            else:
                del acc[e2]
    return acc


# Freudenthal oracle.  The symmetric form is normalized so that the short
# simple root has square length 2; in (fundamental-weight, root) pairing
# this is <(a, b), (c1, c2)> = a*c1 + 3*b*c2, an integer.

def _pair(w: Weight, rc) -> int:
    return w[0] * rc[0] + 3 * w[1] * rc[1]


def _norm_shifted(w: Weight) -> int:
    # <w + rho, w + rho> with both slots converted consistently
    a, b = w[0] + 1, w[1] + 1
    # root coords of (a, b) are (2a + 3b, a + 2b)
    return _pair((a, b), (2 * a + 3 * b, a + 2 * b))


@cache
def multiplicity_table(lam: Weight) -> dict[Weight, int]:
    """Multiplicities of all dominant weights of the irreducible highest
    weight module, by the Freudenthal recursion, filled top down in height.
    Entirely independent of the q-analogue machinery."""
    check_dominant(lam)
    order = sorted(dominant_below(lam), key=height, reverse=True)
    allowed = set(order)
    norm_top = _norm_shifted(lam)
    table: dict[Weight, int] = {}
    for nu in order:
        if nu == lam:
            table[nu] = 1
            continue
        num = 0
        for wcoords, rc, _h in POSITIVE_ROOTS:
            k = 1
            while True:
                w = (nu[0] + k * wcoords[0], nu[1] + k * wcoords[1])
                wd = linear_dominant(w)
                if wd not in allowed:
                    break  # the root string through nu has left the weights
                num += table[wd] * _pair(w, rc)
                k += 1
        den = norm_top - _norm_shifted(nu)
        if den <= 0:
            raise RuntimeError(f"norm gap is not positive at {nu!r} below {lam!r}")
        mult, rem = divmod(2 * num, den)
        if rem:
            raise RuntimeError(f"Freudenthal division is not exact at {nu!r} "
                               f"below {lam!r}")
        table[nu] = mult
    return table


def freudenthal_multiplicity(lam: Weight, mu: Weight) -> int:
    """Multiplicity of the weight mu in the irreducible module of highest
    weight lam.  mu may be any weight; it is reflected to dominance first."""
    check_dominant(lam)
    nu = linear_dominant(mu)
    return multiplicity_table(lam).get(nu, 0)


def weyl_dimension(lam: Weight) -> int:
    """Dimension of the irreducible module, by the product formula."""
    check_dominant(lam)
    shifted = (lam[0] + 1, lam[1] + 1)
    num = den = 1
    for _w, rc, _h in POSITIVE_ROOTS:
        num *= _pair(shifted, rc)
        den *= _pair((1, 1), rc)
    dim, rem = divmod(num, den)
    if rem:
        raise RuntimeError(f"Weyl dimension is not integral at {lam!r}")
    return dim


def dimension_by_orbits(lam: Weight) -> int:
    """Dimension recovered from the multiplicity table and orbit sizes;
    must equal weyl_dimension."""
    return sum(m * orbit_size(nu) for nu, m in multiplicity_table(lam).items())


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class VerifyReport:
    lam: Weight
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def _run(report: VerifyReport, name: str, fn) -> None:
    try:
        detail = fn()
        report.checks.append(CheckResult(name, True, detail or ""))
    except Exception as exc:  # noqa: BLE001 - verification reports, never raises
        report.checks.append(CheckResult(name, False, str(exc)))


def verify(lam: Weight) -> VerifyReport:
    """Run every invariant for one weight: positivity and triangularity of
    the atomic expansion, agreement of the two expansion routes, the
    definitional round trip, the q=1 multiplicity oracle, dimension by
    orbits, monic top degrees, and the shift monotonicity of the
    Kostka-Foulkes array."""
    check_dominant(lam)
    report = VerifyReport(lam)

    def positivity():
        atomic(lam)  # raises internally on any violation
        return f"{len(atomic(lam).terms)} terms"

    def cross():
        if atomic(lam) != precanonical.atomic(lam):
            raise AssertionError("the two atomic routes disagree")

    def roundtrip():
        back = substitute(atomic(lam), lambda w: precanonical.defn_precanonical(2, w))
        if back.terms != {lam: {0: 1}}:
            raise AssertionError("definitional expansion does not invert the pipeline")

    def at_one():
        table = multiplicity_table(lam)
        kf = canonical_to_standard(lam).terms
        for mu in dominant_below(lam):
            got = eval_at_one(kf.get(mu, {}))
            want = table.get(mu, 0)
            if got != want:
                raise AssertionError(f"q=1 value {got} != multiplicity {want} at {mu!r}")
        return f"{len(table)} dominant weights"

    def dims():
        wd = weyl_dimension(lam)
        ob = dimension_by_orbits(lam)
        if wd != ob:
            raise AssertionError(f"dimension mismatch: product {wd}, orbits {ob}")
        return f"dim {wd}"

    def monic():
        for mu, p in canonical_to_standard(lam).terms.items():
            want = height(lam) - height(mu)
            if degree(p) != want or leading_coeff(p) != 1:
                raise AssertionError(f"coefficient at {mu!r} is not monic of "
                                     f"degree {want}")

    def monotone():
        kf = canonical_to_standard(lam).terms
        support = list(kf)
        for mu in support:
            pmu = kf[mu]
            for nu in support:
                if nu == mu or not dominance_leq(mu, nu):
                    continue
                shift = height(nu) - height(mu)
                diff = poly_sub(pmu, poly_scale_qpow(kf[nu], shift))
                if not is_nonnegative(diff):
                    raise AssertionError(f"monotonicity fails for {mu!r} <= {nu!r}")

    _run(report, "atomic-positivity", positivity)
    _run(report, "cross-approach", cross)
    _run(report, "definitional-roundtrip", roundtrip)
    _run(report, "kostka-at-one", at_one)
    _run(report, "dimension-by-orbits", dims)
    _run(report, "monic-degree", monic)
    _run(report, "shift-monotonicity", monotone)
    return report
