"""The numeric suites of `verify`: Kummer's 24 solutions, the connection
formulas and the integral representations, checked by `numerics` (and
`quadrature`) alone, so that they load no exact algebra."""

from __future__ import annotations

from . import numerics as N
from .numerics import jexp, jpow
from .verify import (CONNECTION_POINTS_0F1, CONNECTION_POINTS_1F1,
                     CONNECTION_POINTS_2F1, KUMMER_POINTS, NUMERIC_PARAMS,
                     _numeric_check, _once)


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


def suite_kummer(families, seed, tol, shared, params=None,
                 points=KUMMER_POINTS):
    """The 36 pairwise checks of Kummer's table at the 2F1 parameters
    `params` (default NUMERIC_PARAMS["2f1"]) and the sample `points`."""
    if "2f1" not in families:
        return
    al, be, mu = NUMERIC_PARAMS["2f1"] if params is None else params
    for key in N._W_D3:
        for r1 in range(4):
            for r2 in range(r1 + 1, 4):
                yield _numeric_check(
                    f"kummer:{key}:{r1}{r2}",
                    f"expressions {r1} and {r2} of the solution {key}",
                    lambda: kummer_pair_residual(al, be, mu, key, r1, r2,
                                                 points, shared),
                    tol)


def suite_connection(families, seed, tol, shared):
    if "2f1" in families:
        al, be, mu = NUMERIC_PARAMS["2f1"]
        for i, w in enumerate(CONNECTION_POINTS_2F1, 1):
            yield _numeric_check(
                f"conn:2f1:id:{i:02d}",
                f"basis-at-0 = A * basis-at-infinity at w={w}",
                lambda: connection_residual_2f1(al, be, mu, w), tol)

        def det_2f1():
            A = N.connection_matrix_2f1(al, be, mu)
            return abs(_det2(A) - N.connection_det_2f1(al, be, mu))

        yield _numeric_check(
            "conn:2f1:det", "det A = -sin(pi a)/sin(pi m)", det_2f1,
            tol / 1000)

        def inv_2f1():
            Ai = _inv2(N.connection_matrix_2f1(al, be, mu))
            B = N.connection_matrix_2f1(mu, be, al)
            return max(abs(Ai[i][j] - B[i][j])
                       for i in range(2) for j in range(2))

        yield _numeric_check(
            "conn:2f1:inverse", "A^-1 equals A with (a <-> m)", inv_2f1,
            tol / 10)
    if "1f1" in families:
        th, al = NUMERIC_PARAMS["1f1"]
        for i, w in enumerate(CONNECTION_POINTS_1F1, 1):
            yield _numeric_check(
                f"conn:1f1:id:{i:02d}",
                f"recessive solutions = A * basis-at-0 at w={w}",
                lambda: connection_residual_1f1(th, al, w), tol)

        def inv_1f1():
            A = N.connection_matrix_1f1(th, al)
            B = N.connection_matrix_1f1_inverse(th, al)
            P = [[sum(A[i][k] * B[k][j] for k in range(2)) for j in range(2)]
                 for i in range(2)]
            return max(abs(P[i][j] - (1 if i == j else 0))
                       for i in range(2) for j in range(2))

        yield _numeric_check(
            "conn:1f1:inverse", "closed-form inverse times A is identity",
            inv_1f1, tol)

        def det_1f1():
            A = N.connection_matrix_1f1(th, al)
            return abs(_det2(A) - N.connection_det_1f1(th, al))

        yield _numeric_check(
            "conn:1f1:det", "det A closed form", det_1f1, tol)
    if "0f1" in families:
        (al0,) = NUMERIC_PARAMS["0f1"]
        for i, w in enumerate(CONNECTION_POINTS_0F1, 1):
            yield _numeric_check(
                f"conn:0f1:id:{i:02d}",
                f"decaying solution via the two-term connection at w={w}",
                lambda: connection_residual_0f1(al0, w), tol)


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


def suite_integrals(families, seed, tol, shared):
    from . import quadrature
    for f in families:
        for row in quadrature.integral_rep_rows(f):
            yield _numeric_check(row.id, row.location,
                                 lambda: _rep_row_residual(row), tol)
