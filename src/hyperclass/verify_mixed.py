"""The suites of `verify` that check the exact catalog rows numerically,
and so load both layers: transmutation kernels, algebraic symmetries,
recurrences and ODE residuals, and the mutation candidates."""

from __future__ import annotations

import cmath
import random

from . import families as fam
from . import numerics as N
from .exactalg import DiffOperator, MultiPoly, RatFun, jet_apply
from .jet import Jet
from .numerics import jexp, jpow, jsqrt
from .tables import PARAMS
from .verify import (ALL_FAMILIES, NUMERIC_PARAMS, RECURRENCE_POINTS,
                     RESIDUAL_POINTS, SYMMETRY_POINTS_GEG,
                     SYMMETRY_TEST_EXPONENTS, TRANSMUTATION_POINT,
                     _numeric_check, _once, _residual_point_sampler,
                     _symbolic)
from .verify_exact import (_counts_check, check_factorization_symbolic,
                           check_quadratic_link_symbolic,
                           check_symmetry_symbolic,
                           check_transmutation_symbolic, transmutation_sides)


def _param_assign(family: str) -> dict:
    return dict(zip(PARAMS[family].lie, NUMERIC_PARAMS[family]))


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
    pvals = tuple(assign[n] for n in PARAMS[family].lie)
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
    pvals = tuple(assign0[n] for n in PARAMS[family].lie)
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


def suite_transmutations(families, seed, tol, shared):
    for f in families:
        cat = fam.catalog(f)
        yield _counts_check(f, "transmutations", len(cat.transmutations))
        for row in cat.transmutations:
            lhs, rhs = transmutation_sides(f, row)
            yield _symbolic(row.id, row.location, lhs == rhs)
            yield _numeric_check(
                row.id + ":kernel", row.location,
                lambda: transmutation_kernel_residual(f, rhs, shared), tol)


def suite_symmetries(families, seed, tol, shared):
    for f in families:
        cat = fam.catalog(f)
        yield _counts_check(f, "symmetries", len(cat.symmetries))
        for row in cat.symmetries:
            if row.mode == "symbolic":
                yield _symbolic(row.id, row.location,
                                check_symmetry_symbolic(f, row, shared))
            else:
                yield _numeric_check(
                    row.id, row.location,
                    lambda: symmetry_algebraic_residual(f, row), tol)


def suite_recurrences(families, seed, tol, shared):
    for f in families:
        cat = fam.catalog(f)
        yield _counts_check(f, "recurrences", len(cat.recurrences))
        for row in cat.recurrences:
            yield _numeric_check(
                row.id, row.location,
                lambda: recurrence_residual(f, row, shared), tol)


# --- ODE residuals ---------------------------------------------------------

def solution_residual(family: str, F: DiffOperator, d, w0) -> float:
    """Relative ODE residual of a standard solution at one point; F is the
    family operator with symbolic parameters."""
    assign = dict(zip(PARAMS[family].lie, d.params))
    assign["w"] = w0
    f = N.eval_solution(d, Jet.variable(w0, 2))
    total, scale = jet_apply(F, f, assign)
    return abs(total) / scale


def suite_residuals(families, seed, tol, shared):
    for f in families:
        F = fam.make_operator_expr(f, "w", fam.symbolic_params(f))
        for d in N.standard_solutions(f, NUMERIC_PARAMS[f]):
            rng = random.Random((seed, f, d.key).__repr__())
            sampler = _residual_point_sampler(f, d.key, rng)

            def run():
                worst = 0.0
                for _ in range(RESIDUAL_POINTS):
                    worst = max(worst, solution_residual(f, F, d, sampler()))
                return worst

            yield _numeric_check(
                f"res:{f}:{d.key}", f"ODE residual of the solution {d.behavior}",
                run, tol)


def mutation_candidates():
    """(label, run) pairs; run() must return True iff the deliberately
    corrupted identity is detected as failing."""
    out = []
    one = MultiPoly.const(1)
    for f in ALL_FAMILIES:
        cat = fam.catalog(f)
        for row in cat.transmutations:
            def run(f=f, row=row):
                bad = row._replace(A=row.A + DiffOperator("w", [RatFun(one)]))
                return not check_transmutation_symbolic(f, bad)
            out.append((f"mut:{row.id}:A+1", run))
        for row in cat.factorizations:
            def run(f=f, row=row):
                bad = row._replace(constant=row.constant + one)
                return not check_factorization_symbolic(f, bad)
            out.append((f"mut:{row.id}:const+1", run))
        for row in cat.symmetries:
            if row.mode != "symbolic":
                continue

            def run(f=f, row=row):
                bad = row._replace(
                    prefactor=row.prefactor * RatFun(MultiPoly.const(2)))
                return not check_symmetry_symbolic(f, bad)
            out.append((f"mut:{row.id}:pref*2", run))
        for row in cat.recurrences:
            def run(f=f, row=row):
                bad = row._replace(coeff=row.coeff + one)
                return recurrence_residual(f, bad) > 1e-10
            out.append((f"mut:{row.id}:coeff+1", run))
    for link in fam.quadratic_links():
        def run(link=link):
            bad = link._replace(
                prefactor=link.prefactor * RatFun(MultiPoly.const(2)))
            return not check_quadratic_link_symbolic(bad)
        out.append((f"mut:{link.id}:pref*2", run))
    return out
