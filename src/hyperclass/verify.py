"""Verification suites for the identity catalogs.

Every suite returns a :class:`SuiteReport` whose checks are either

* ``symbolic`` — an exact operator identity checked in the in-house CAS
  (equality of :class:`~hyperclass.exactalg.DiffOperator` with rational
  coefficients in the parameter symbols), or
* ``numeric`` — an analytic identity checked by evaluating both sides at
  sample points through independent routes (series, asymptotics,
  contour quadrature), with an explicit relative tolerance.

Checks that would hit a genuine degeneracy (for instance a gamma pole at
the chosen parameters) are reported as ``skipped`` with a reason rather
than silently passed.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
import random
from dataclasses import dataclass
from typing import Optional

from . import families as fam
from . import numerics as N
from .exactalg import (
    DiffOperator,
    MultiPoly,
    RatFun,
    jet_apply,
    op_compose,
    op_conjugate,
    op_substitute,
)
from .jet import Jet
from .numerics import jexp, jpow, jsqrt

SUITES = (
    "transmutations",
    "factorizations",
    "symmetries",
    "quadratic",
    "recurrences",
    "kummer",
    "connection",
    "integrals",
    "residuals",
)

ALL_FAMILIES = ("2f1", "gegenbauer", "1f1", "hermite", "0f1")

# Generic parameter values: rationals with coprime denominators so that no
# integer degeneracy (gamma pole, logarithmic case, integer mu/alpha) can
# occur in any shifted or sign-flipped combination.
NUMERIC_PARAMS = {
    "2f1": (2 / 7, 3 / 11, 1 / 13),
    "gegenbauer": (2 / 7, 1 / 11),
    "1f1": (1 / 7, 2 / 11),
    "hermite": (2 / 7,),
    "0f1": (2 / 7,),
}

# Sample points per family, chosen off every branch cut that any of the
# family's normalized functions carries.
RECURRENCE_POINTS = {
    "2f1": (0.3 + 0.4j, -0.6 + 0.5j, 0.5 - 0.7j, 1.4 + 0.9j, -1.5 - 0.8j),
    "gegenbauer": (0.3 + 0.4j, -0.5 + 0.6j, 0.7 - 0.5j, 1.6 + 1.1j,
                   -2.0 + 1.5j),
    "1f1": (0.3 + 0.4j, -0.6 + 0.5j, 0.5 - 0.7j, 1.4 + 0.9j, -1.5 - 0.8j),
    "hermite": (0.8 + 0.5j, 1.5 - 0.6j, 2.2 + 1.0j, 0.5 - 1.2j, 3.0 + 0.3j),
    "0f1": (0.3 + 0.4j, -0.6 + 0.5j, 0.5 - 0.7j, 1.4 + 0.9j, -1.5 - 0.8j),
}

KUMMER_POINTS = (0.3 + 0.4j, -0.7 + 0.5j, 1.6 + 0.8j, 0.5 + 1.2j,
                 -1.2 + 0.9j)

CONNECTION_POINTS_2F1 = (-1 + 0.5j, -0.5 + 1j, 0.5 + 1.5j, -2 + 0.3j,
                         0.3 - 1.2j, -1 - 0.8j, 2 + 2j, -0.2 + 0.2j,
                         1.5 - 1j, -3 - 2j)

# |w| in 5..8: left side by quadrature (~1e-12), right side by series
# (cancellation ~e^|w| * eps, still below 1e-12 here).
CONNECTION_POINTS_1F1 = tuple(
    r * cmath.exp(1j * math.pi * t)
    for r, t in ((6.0, 0.5), (5.0, 0.3), (7.0, 0.7), (6.0, 0.12), (8.0, 0.55)))

CONNECTION_POINTS_0F1 = (0.5, 0.8 + 0.3j, 1.2 - 0.4j)

SYMMETRY_TEST_EXPONENTS = (0.3, 1 + 0.2j, -0.7)

SYMMETRY_POINTS_GEG = (1.5 + 0.2j, 1.8 - 0.3j, 2.2 + 0.5j, 1.3 + 0.6j,
                       2.5 - 0.4j, 1.7 + 0.15j, 2.0 + 0.8j, 3.0 - 0.6j,
                       1.4 - 0.5j, 2.8 + 0.25j)

TRANSMUTATION_POINT = {
    "2f1": 0.4 + 0.3j,
    "gegenbauer": 0.4 + 0.3j,
    "1f1": 0.7 + 0.4j,
    "hermite": 0.8 + 0.5j,
    "0f1": 0.6 + 0.4j,
}


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------

@dataclass
class CheckResult:
    id: str
    paper_ref: str
    kind: str                 # "symbolic" | "numeric"
    status: str               # "pass" | "fail" | "skipped"
    error: Optional[float] = None
    reason: Optional[str] = None

    def to_dict(self) -> dict:
        status = self.status
        if self.status == "skipped" and self.reason:
            status = f"skipped({self.reason})"
        return {
            "id": self.id,
            "paper_ref": self.paper_ref,
            "kind": self.kind,
            "status": status,
            "error": self.error,
        }


@dataclass
class SuiteReport:
    suite: str
    family: str
    seed: int
    checks: list

    @property
    def passed(self) -> int:
        return sum(1 for c in self.checks if c.status == "pass")

    @property
    def failed(self) -> int:
        return sum(1 for c in self.checks if c.status == "fail")

    @property
    def skipped(self) -> int:
        return sum(1 for c in self.checks if c.status == "skipped")

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "family": self.family,
            "seed": self.seed,
            "checks": [c.to_dict() for c in self.checks],
            "passed": self.passed,
            "failed": self.failed,
            "skipped": self.skipped,
        }


def _families(family: Optional[str]) -> tuple:
    if family is None or family == "all":
        return ALL_FAMILIES
    if family not in ALL_FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    return (family,)


def _numeric_check(cid, ref, fn, tol) -> CheckResult:
    """Run fn() -> worst relative error, with degeneracy skipping."""
    try:
        err = fn()
    except N.NumericsError as exc:
        return CheckResult(cid, ref, "numeric", "skipped",
                           reason=f"{type(exc).__name__}: {exc}")
    status = "pass" if err <= tol else "fail"
    return CheckResult(cid, ref, "numeric", status, error=err)


def _once(shared, key, compute):
    """compute() once per key of the dict `shared`, which one suite call
    makes and drops when it returns; with `shared` None, compute() fresh.
    A compute() that raises stores nothing, so it runs and raises again."""
    if shared is None:
        return compute()
    if key not in shared:
        shared[key] = compute()
    return shared[key]


# ---------------------------------------------------------------------------
# Symbolic building blocks
# ---------------------------------------------------------------------------

def transmutation_sides(family: str, row) -> tuple:
    """(A o weight*F_source, weight*F_target o A) of a transmutation row."""
    Fsym = fam.make_operator_expr(family, "w", fam.symbolic_params(family))
    Ftgt = fam.make_operator_expr(family, "w", row.target)
    weight = RatFun(row.weight)
    return (op_compose(row.A, Fsym.scale(weight)),
            op_compose(Ftgt.scale(weight), row.A))


def check_transmutation_symbolic(family: str, row) -> bool:
    lhs, rhs = transmutation_sides(family, row)
    return lhs == rhs


def check_factorization_symbolic(family: str, row) -> bool:
    Fsym = fam.make_operator_expr(family, "w", fam.symbolic_params(family))
    comp = op_compose(row.left, row.right) \
        + DiffOperator("w", [RatFun(row.constant)])
    return Fsym.scale(RatFun(row.weight)) == comp


def check_darboux_pair(family: str, row, partner) -> bool:
    """The partner's factors at shifted parameters swap into this row's."""
    pid, pexprs = row.pair
    pl = fam.subs_params(partner.left, family, pexprs)
    pr = fam.subs_params(partner.right, family, pexprs)
    return pl == row.right and pr == row.left


def check_symmetry_symbolic(family: str, row, shared=None) -> bool:
    """substitute(F) == sign*prefactor * m F_target m^{-1} for a symbolic
    symmetry row.  `shared` (see `_once`) holds F at symbolic parameters
    per family and its substitution per value of `row.sub` across rows."""
    Fsym = _once(shared, ("F", family), lambda: fam.make_operator_expr(
        family, "w", fam.symbolic_params(family)))
    lhs = _once(shared, ("F", family, row.sub),
                lambda: op_substitute(Fsym, row.sub))
    Ftgt = fam.make_operator_expr(family, "v", row.target)
    pref = row.prefactor * RatFun(MultiPoly.const(row.sign))
    rhs = op_conjugate(Ftgt, row.mult.inverse()).scale(pref)
    return lhs == rhs


def check_quadratic_link_symbolic(link) -> bool:
    Fsrc = fam.make_operator_expr(link.source_family, "w", link.source_params)
    lhs = op_substitute(
        Fsrc.scale(RatFun(MultiPoly.const(link.scale))), link.sub)
    Ftgt = fam.make_operator_expr(link.target_family, "v", link.target_params)
    rhs = op_conjugate(Ftgt, link.mult).scale(link.prefactor)
    return lhs == rhs


# ---------------------------------------------------------------------------
# Numeric building blocks
# ---------------------------------------------------------------------------

def _param_assign(family: str) -> dict:
    return dict(zip(fam.PARAM_NAMES[family], NUMERIC_PARAMS[family]))


def transmutation_kernel_residual(family: str, C: DiffOperator,
                                  shared=None) -> float:
    """|C f| / scale for f in the kernel of F_source, where C is the
    composition (weight*F_target) o A of a transmutation row, the second
    of :func:`transmutation_sides`.

    By the intertwining identity C annihilates every kernel element of
    the source operator; the residual measures how well the numerically
    evaluated solution satisfies that.  `shared` (see `_once`) holds the
    solution's jet per (family, order) across rows.
    """
    w0 = TRANSMUTATION_POINT[family]
    assign = _param_assign(family)
    pvals = tuple(assign[n] for n in fam.PARAM_NAMES[family])
    order = C.order() + 1
    f = _once(shared, (family, order), lambda: N.evaluate(
        family, pvals, Jet.variable(w0, order))[0])
    assign["w"] = w0
    total, scale = jet_apply(C, f, assign)
    return abs(total) / scale


def recurrence_residual(family: str, row, shared=None) -> float:
    """Worst relative error of  A f_norm = coeff * f_norm(shifted).
    `shared` (see `_once`) holds the solution jets per (family, point,
    order, normalization) across rows."""
    assign0 = _param_assign(family)
    pvals = tuple(assign0[n] for n in fam.PARAM_NAMES[family])
    tvals = tuple(t.eval_numeric(assign0) for t in row.target)
    coeff = row.coeff.eval_numeric(assign0)
    order = max(2, row.A.order() + 1)
    norm = row.normalization
    worst = 0.0
    for w0 in RECURRENCE_POINTS[family]:
        f = _once(shared, (family, w0, order, norm), lambda: N.evaluate(
            family, pvals, Jet.variable(w0, order), norm)[0])
        assign = dict(assign0, w=w0)
        lhs, scale = jet_apply(row.A, f, assign)
        rhs = coeff * N.evaluate(family, tvals, w0, norm)[0]
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), scale * 1e-4,
                                                1e-300))
    return worst


def symmetry_algebraic_residual(family: str, row) -> float:
    """Numeric check of the algebraic (square-root) symmetries.

    The substitution is w = s*v/sqrt(v^2-1) (s = row.algebraic_sign),
    which is an involution: its local inverse is v = s*w/sqrt(w^2-1)
    with the branch fixed by matching the base point.  Both sides of the
    operator identity are applied to test functions e^{c v} through
    jets.
    """
    if family != "gegenbauer":
        raise ValueError("algebraic symmetry rows exist only for gegenbauer")
    assign0 = _param_assign(family)
    sgn = row.algebraic_sign
    Fsrc = fam.make_operator_expr(family, "w", fam.symbolic_params(family))
    Ftgt = fam.make_operator_expr(family, "v", row.target)
    worst = 0.0
    for v0 in SYMMETRY_POINTS_GEG:
        s0 = cmath.sqrt(v0 * v0 - 1)
        w0 = sgn * v0 / s0
        # local inverse branch: v = sgn*w/(eps*sqrt(w^2-1)) with
        # eps chosen so the base point maps back exactly
        wjet = Jet.variable(w0, 4)
        root = jsqrt(wjet * wjet - 1)
        eps = 1 if abs(sgn * w0 / root.value() - v0) < \
            abs(-sgn * w0 / root.value() - v0) else -1
        vjet_of_w = wjet * (sgn * eps) / root
        vjet = Jet.variable(v0, 4)
        # multiplier of the row evaluated as a jet at v0
        mjet = 1.0 + 0j
        for lf in row.mult.factors:
            base = vjet * complex(lf.a) + complex(lf.b)
            mjet = mjet * jpow(base, lf.gamma.eval_numeric(assign0))
        q0, q1, q2 = (complex(c) for c in row.mult.exp_part)
        if q0 or q1 or q2:
            mjet = mjet * jexp(q0 + vjet * q1 + vjet * vjet * q2)
        pref = row.prefactor.eval_numeric(dict(assign0, v=v0)) * row.sign
        assign_w = dict(assign0, w=w0)
        assign_v = dict(assign0, v=v0)
        for c in SYMMETRY_TEST_EXPONENTS:
            ghat = jexp(vjet_of_w * c)          # (g o phi^{-1})(w)
            lhs, scale_l = jet_apply(Fsrc, ghat, assign_w)
            # rows encode substitute(F) = sign*pref * m F_target m^{-1}
            sandwich = jexp(vjet * c) / mjet    # m^{-1}(v) g(v)
            inner, scale_r = jet_apply(Ftgt, sandwich, assign_v)
            rhs = pref * inner * mjet.value()
            denom = max(abs(lhs), abs(rhs), scale_l * 1e-4, 1e-300)
            worst = max(worst, abs(lhs - rhs) / denom)
    return worst


def kummer_pair_residual(al, be, mu, sol_key: str, r1: int, r2: int,
                         points=KUMMER_POINTS, shared=None) -> float:
    """Worst relative difference of expressions r1 and r2 of Kummer's
    solution `sol_key` over `points`.  `shared` (see `_once`) holds each
    expression's value per (parameters, solution, row, point) across
    pairs."""
    def value(r, w):
        return _once(shared, (al, be, mu, sol_key, r, w),
                     lambda: N.eval_kummer_expression(sol_key, r, al, be,
                                                      mu, w))

    worst = 0.0
    for w in points:
        v1 = value(r1, w)
        v2 = value(r2, w)
        worst = max(worst, abs(v1 - v2) / max(abs(v1), abs(v2), 1e-300))
    return worst


# --- connection formulas ---------------------------------------------------

def _mat_vec(A, x):
    return [A[0][0] * x[0] + A[0][1] * x[1],
            A[1][0] * x[0] + A[1][1] * x[1]]


def _det2(A):
    return A[0][0] * A[1][1] - A[0][1] * A[1][0]


def _inv2(A):
    d = _det2(A)
    return [[A[1][1] / d, -A[0][1] / d], [-A[1][0] / d, A[0][0] / d]]


def connection_residual_2f1(al, be, mu, w) -> float:
    """Basis at 0 versus connection matrix times basis at infinity."""
    A = N.connection_matrix_2f1(al, be, mu)
    u = [N.bold_F_2f1(al, be, mu, w),
         jpow(-w, -al) * N.bold_F_2f1(-al, be, -mu, w)]
    x = [jpow(-w, (-1 - al - be - mu) / 2) * N.bold_F_2f1(mu, be, al, 1 / w),
         jpow(-w, (-1 - al - be + mu) / 2) * N.bold_F_2f1(-mu, be, -al, 1 / w)]
    pred = _mat_vec(A, x)
    scale = max(abs(u[0]), abs(u[1]), 1e-300)
    return max(abs(u[0] - pred[0]), abs(u[1] - pred[1])) / scale


def connection_residual_1f1(th, al, w) -> float:
    """Recessive solutions at +-infinity versus the matrix times the
    basis at 0 (second member with the (-iw)^-alpha branch, Im w > 0).
    Both come from the Tricomi Laplace integral (at -infinity by
    1f1:sym:03): the evaluators' series route is this very connection."""
    from . import quadrature
    A = N.connection_matrix_1f1(th, al)
    u = [quadrature.tricomi_solution(th, al, w, 1e-12),
         jexp(w) * quadrature.tricomi_solution(-th, al, -w, 1e-12)]
    x = [N.bold_F_1f1(th, al, w),
         jpow(-1j * w, -al) * N.bold_F_1f1(th, -al, w)]
    pred = _mat_vec(A, x)
    scale = max(abs(u[0]), abs(u[1]), 1e-300)
    return max(abs(u[0] - pred[0]), abs(u[1] - pred[1])) / scale


def connection_residual_0f1(al, w) -> float:
    """The decaying solution from its Laplace integral versus the
    two-term connection (as `connection_residual_1f1`)."""
    from . import quadrature
    cp, cm = N.connection_coeffs_0f1(al)
    lhs = quadrature.bessel_tilde_solution(al, w, 1e-12)
    rhs = cp * N.bold_F_0f1(al, w) + cm * jpow(w, -al) * N.bold_F_0f1(-al, w)
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

def _counts_check(family: str, section: str, actual: int) -> CheckResult:
    expected = fam.EXPECTED_COUNTS[family][section]
    ok = actual == expected
    return CheckResult(f"counts:{family}:{section}",
                       f"catalog has {expected} {section} rows",
                       "symbolic", "pass" if ok else "fail",
                       error=None if ok else float(abs(actual - expected)))


def suite_transmutations(family=None, seed=0, tol=1e-8) -> SuiteReport:
    checks = []
    shared = {}
    for f in _families(family):
        cat = fam.catalog(f)
        checks.append(_counts_check(f, "transmutations",
                                    len(cat.transmutations)))
        for row in cat.transmutations:
            lhs, rhs = transmutation_sides(f, row)
            checks.append(CheckResult(row.id, row.location, "symbolic",
                                      "pass" if lhs == rhs else "fail"))
            checks.append(_numeric_check(
                row.id + ":kernel", row.location,
                lambda f=f, rhs=rhs:
                transmutation_kernel_residual(f, rhs, shared),
                tol))
    return SuiteReport("transmutations", family or "all", seed, checks)


def suite_factorizations(family=None, seed=0, tol=None) -> SuiteReport:
    checks = []
    for f in _families(family):
        cat = fam.catalog(f)
        checks.append(_counts_check(f, "factorizations",
                                    len(cat.factorizations)))
        by_id = {r.id: r for r in cat.factorizations}
        for row in cat.factorizations:
            ok = check_factorization_symbolic(f, row)
            checks.append(CheckResult(row.id, row.location, "symbolic",
                                      "pass" if ok else "fail"))
            if row.pair is not None:
                ok = check_darboux_pair(f, row, by_id[row.pair[0]])
                checks.append(CheckResult(
                    row.id + ":darboux", f"factor swap with {row.pair[0]}",
                    "symbolic", "pass" if ok else "fail"))
    return SuiteReport("factorizations", family or "all", seed, checks)


def suite_symmetries(family=None, seed=0, tol=1e-9) -> SuiteReport:
    checks = []
    shared = {}
    for f in _families(family):
        cat = fam.catalog(f)
        checks.append(_counts_check(f, "symmetries", len(cat.symmetries)))
        for row in cat.symmetries:
            if row.mode == "symbolic":
                ok = check_symmetry_symbolic(f, row, shared)
                checks.append(CheckResult(row.id, row.location, "symbolic",
                                          "pass" if ok else "fail"))
            else:
                checks.append(_numeric_check(
                    row.id, row.location,
                    lambda f=f, row=row: symmetry_algebraic_residual(f, row),
                    tol))
    return SuiteReport("symmetries", family or "all", seed, checks)


def suite_quadratic(family=None, seed=0, tol=None) -> SuiteReport:
    checks = []
    wanted = _families(family)
    for link in fam.quadratic_links():
        if link.source_family not in wanted \
                and link.target_family not in wanted:
            continue
        ok = check_quadratic_link_symbolic(link)
        checks.append(CheckResult(link.id, link.location, "symbolic",
                                  "pass" if ok else "fail"))
    return SuiteReport("quadratic", family or "all", seed, checks)


def suite_recurrences(family=None, seed=0, tol=1e-10) -> SuiteReport:
    checks = []
    shared = {}
    for f in _families(family):
        cat = fam.catalog(f)
        checks.append(_counts_check(f, "recurrences", len(cat.recurrences)))
        for row in cat.recurrences:
            checks.append(_numeric_check(
                row.id, row.location,
                lambda f=f, row=row: recurrence_residual(f, row, shared),
                tol))
    return SuiteReport("recurrences", family or "all", seed, checks)


def suite_kummer(family=None, seed=0, tol=1e-10, params=None,
                 points=KUMMER_POINTS) -> SuiteReport:
    """The 36 pairwise checks of Kummer's table at the 2F1 parameters
    `params` (default NUMERIC_PARAMS["2f1"]) and the sample `points`."""
    checks = []
    shared = {}
    if family in (None, "all", "2f1"):
        al, be, mu = NUMERIC_PARAMS["2f1"] if params is None else params
        for key in N._W_D3:
            for r1 in range(4):
                for r2 in range(r1 + 1, 4):
                    checks.append(_numeric_check(
                        f"kummer:{key}:{r1}{r2}",
                        f"expressions {r1} and {r2} of the solution {key}",
                        lambda key=key, r1=r1, r2=r2:
                        kummer_pair_residual(al, be, mu, key, r1, r2,
                                             points, shared),
                        tol))
    return SuiteReport("kummer", family or "all", seed, checks)


def suite_connection(family=None, seed=0, tol=1e-9) -> SuiteReport:
    checks = []
    wanted = _families(family)
    if "2f1" in wanted:
        al, be, mu = NUMERIC_PARAMS["2f1"]
        for i, w in enumerate(CONNECTION_POINTS_2F1, 1):
            checks.append(_numeric_check(
                f"conn:2f1:id:{i:02d}",
                f"basis-at-0 = A * basis-at-infinity at w={w}",
                lambda w=w: connection_residual_2f1(al, be, mu, w), tol))

        def det_2f1():
            A = N.connection_matrix_2f1(al, be, mu)
            return abs(_det2(A) - N.connection_det_2f1(al, be, mu))

        checks.append(_numeric_check(
            "conn:2f1:det", "det A = -sin(pi a)/sin(pi m)", det_2f1, 1e-12))

        def inv_2f1():
            Ai = _inv2(N.connection_matrix_2f1(al, be, mu))
            B = N.connection_matrix_2f1(mu, be, al)
            return max(abs(Ai[i][j] - B[i][j])
                       for i in range(2) for j in range(2))

        checks.append(_numeric_check(
            "conn:2f1:inverse", "A^-1 equals A with (a <-> m)", inv_2f1,
            1e-10))
    if "1f1" in wanted:
        th, al = NUMERIC_PARAMS["1f1"]
        for i, w in enumerate(CONNECTION_POINTS_1F1, 1):
            checks.append(_numeric_check(
                f"conn:1f1:id:{i:02d}",
                f"recessive solutions = A * basis-at-0 at w={w}",
                lambda w=w: connection_residual_1f1(th, al, w), tol))

        def inv_1f1():
            A = N.connection_matrix_1f1(th, al)
            B = N.connection_matrix_1f1_inverse(th, al)
            P = [[sum(A[i][k] * B[k][j] for k in range(2)) for j in range(2)]
                 for i in range(2)]
            return max(abs(P[i][j] - (1 if i == j else 0))
                       for i in range(2) for j in range(2))

        checks.append(_numeric_check(
            "conn:1f1:inverse", "closed-form inverse times A is identity",
            inv_1f1, tol))

        def det_1f1():
            A = N.connection_matrix_1f1(th, al)
            return abs(_det2(A) - N.connection_det_1f1(th, al))

        checks.append(_numeric_check(
            "conn:1f1:det", "det A closed form", det_1f1, tol))
    if "0f1" in wanted:
        (al0,) = NUMERIC_PARAMS["0f1"]
        for i, w in enumerate(CONNECTION_POINTS_0F1, 1):
            checks.append(_numeric_check(
                f"conn:0f1:id:{i:02d}",
                f"decaying solution via the two-term connection at w={w}",
                lambda w=w: connection_residual_0f1(al0, w), tol))
    return SuiteReport("connection", family or "all", seed, checks)


def _rep_row_residual(row, tol_quad=1e-11) -> float:
    worst = 0.0
    used = 0
    for ps, w in row.samples:
        w = complex(w)
        if not row.constraint(ps) or not row.domain(w):
            continue
        got, _est = row.evaluate(ps, w, tol_quad)
        exp = row.expected(ps, w)
        rel = abs(got - exp) / max(abs(exp), 1e-300)
        if rel != rel:          # NaN guard
            rel = float("inf")
        worst = max(worst, rel)
        used += 1
    if used < 3:
        return float("inf")
    return worst


def suite_integrals(family=None, seed=0, tol=1e-7) -> SuiteReport:
    from . import quadrature
    checks = []
    for f in _families(family):
        for row in quadrature.integral_rep_rows(f):
            checks.append(_numeric_check(
                row.id, row.location,
                lambda row=row: _rep_row_residual(row), tol))
    return SuiteReport("integrals", family or "all", seed, checks)


# --- ODE residuals ---------------------------------------------------------

def _residual_point_sampler(family: str, key: str, rng: random.Random):
    """Random sample points in the evaluation domain of a solution."""
    def draw(rlo, rhi, phis):
        r = rlo + (rhi - rlo) * rng.random()
        lo, hi = phis[rng.randrange(len(phis))]
        return r * cmath.exp(1j * (lo + (hi - lo) * rng.random()))

    upper_lower = ((0.15 * math.pi, 0.85 * math.pi),
                   (-0.85 * math.pi, -0.15 * math.pi))
    right = ((-0.35 * math.pi, 0.35 * math.pi),)
    if family == "gegenbauer" and key.startswith("atinf"):
        return lambda: draw(1.3, 2.5, upper_lower)
    if family == "0f1" and key == "atinf":
        return lambda: draw(0.5, 2.5, right)
    if family == "hermite":
        return lambda: draw(0.6, 2.5, right)
    return lambda: draw(0.4, 2.0, upper_lower)


def solution_residual(family: str, F: DiffOperator, d, w0,
                      tol: float = 1e-11) -> float:
    """Relative ODE residual of a standard solution at one point; F is the
    family operator with symbolic parameters."""
    assign = dict(zip(fam.PARAM_NAMES[family], d.params))
    assign["w"] = w0
    f = N.eval_solution(d, Jet.variable(w0, 2), tol=tol)
    total, scale = jet_apply(F, f, assign)
    return abs(total) / scale


def suite_residuals(family=None, seed=0, tol=1e-9,
                    points_per_solution=20) -> SuiteReport:
    checks = []
    for f in _families(family):
        sols = N.standard_solutions(f, NUMERIC_PARAMS[f])
        for d in sols:
            rng = random.Random((seed, f, d.key).__repr__())
            sampler = _residual_point_sampler(f, d.key, rng)

            def run(f=f, d=d, sampler=sampler):
                F = fam.make_operator_expr(f, "w", fam.symbolic_params(f))
                worst = 0.0
                for _ in range(points_per_solution):
                    w0 = sampler()
                    worst = max(worst, solution_residual(f, F, d, w0))
                return worst

            checks.append(_numeric_check(
                f"res:{f}:{d.key}", f"ODE residual of the solution {d.behavior}",
                run, tol))
    return SuiteReport("residuals", family or "all", seed, checks)


# ---------------------------------------------------------------------------
# Suite registry / runner
# ---------------------------------------------------------------------------

_SUITE_FUNCS = {
    "transmutations": suite_transmutations,
    "factorizations": suite_factorizations,
    "symmetries": suite_symmetries,
    "quadratic": suite_quadratic,
    "recurrences": suite_recurrences,
    "kummer": suite_kummer,
    "connection": suite_connection,
    "integrals": suite_integrals,
    "residuals": suite_residuals,
}


# Default tolerance of the numeric checks of each suite (symbolic-only
# suites have None; their checks are exact).
DEFAULT_TOLS = {
    "transmutations": 1e-8,
    "factorizations": None,
    "symmetries": 1e-9,
    "quadratic": None,
    "recurrences": 1e-10,
    "kummer": 1e-10,
    "connection": 1e-9,
    "integrals": 1e-7,
    "residuals": 1e-9,
}


def run_suite(suite: str, family: Optional[str] = None, seed: int = 0,
              tol: Optional[float] = None,
              tol_scale: float = 1.0) -> SuiteReport:
    """Run one named suite (or "all") and return its report.

    `tol` overrides the suite's default numeric tolerance outright;
    `tol_scale` multiplies the per-suite defaults (used by the CLI's
    global tolerance scaling).
    """
    if suite == "all":
        checks = []
        for name in SUITES:
            sub = run_suite(name, family, seed, tol, tol_scale)
            checks.extend(sub.checks)
        return SuiteReport("all", family or "all", seed, checks)
    if suite not in _SUITE_FUNCS:
        raise ValueError(f"unknown suite {suite!r}")
    fn = _SUITE_FUNCS[suite]
    default = DEFAULT_TOLS[suite]
    if tol is None and default is not None:
        tol = default * tol_scale
    if tol is None:
        return fn(family=family, seed=seed)
    return fn(family=family, seed=seed, tol=tol)


# ---------------------------------------------------------------------------
# Mutation sensitivity
# ---------------------------------------------------------------------------

def _mutation_candidates():
    """(label, run) pairs; run() must return True iff the deliberately
    corrupted identity is detected as failing."""
    out = []
    one = MultiPoly.const(1)
    for f in ALL_FAMILIES:
        cat = fam.catalog(f)
        for row in cat.transmutations:
            def run(f=f, row=row):
                bad = dataclasses.replace(
                    row, A=row.A + DiffOperator("w", [RatFun(one)]))
                return not check_transmutation_symbolic(f, bad)
            out.append((f"mut:{row.id}:A+1", run))
        for row in cat.factorizations:
            def run(f=f, row=row):
                bad = dataclasses.replace(row, constant=row.constant + one)
                return not check_factorization_symbolic(f, bad)
            out.append((f"mut:{row.id}:const+1", run))
        for row in cat.symmetries:
            if row.mode != "symbolic":
                continue

            def run(f=f, row=row):
                bad = dataclasses.replace(
                    row, prefactor=row.prefactor
                    * RatFun(MultiPoly.const(2)))
                return not check_symmetry_symbolic(f, bad)
            out.append((f"mut:{row.id}:pref*2", run))
        for row in cat.recurrences:
            def run(f=f, row=row):
                bad = dataclasses.replace(row, coeff=row.coeff + one)
                return recurrence_residual(f, bad) > 1e-10
            out.append((f"mut:{row.id}:coeff+1", run))
    for link in fam.quadratic_links():
        def run(link=link):
            bad = dataclasses.replace(
                link, prefactor=link.prefactor * RatFun(MultiPoly.const(2)))
            return not check_quadratic_link_symbolic(bad)
        out.append((f"mut:{link.id}:pref*2", run))
    return out


def run_mutation_checks(seed: int = 0, n: int = 20) -> SuiteReport:
    """Corrupt n randomly chosen catalog rows; each check passes iff the
    corruption flips the corresponding verification to FAIL."""
    rng = random.Random(seed)
    cands = _mutation_candidates()
    picks = rng.sample(cands, n)
    checks = []
    for label, run in picks:
        detected = run()
        checks.append(CheckResult(label, "mutated identity must fail",
                                  "symbolic", "pass" if detected else "fail"))
    return SuiteReport("mutation", "all", seed, checks)
