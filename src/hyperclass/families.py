"""The five equation families and their machine-readable identity catalogs.

Families (working in the Lie-algebraic parameters, named in
`tables.PARAMS`):

* ``2f1``        — Gauss hypergeometric operator  F_{alpha,beta,mu}
* ``gegenbauer`` — Gegenbauer operator            S_{alpha,lam}
* ``1f1``        — confluent (Kummer) operator    F_{theta,alpha}
* ``hermite``    — Hermite operator               S_{lam}
* ``0f1``        — 0F1 (Bessel-class) operator    F_{alpha}

The companion 2F0 operator Ft_{theta,alpha} has no catalog of its own; it
is the target of the 1F1 quadratic link.

Catalogs are data: every transmutation, factorization, discrete symmetry,
recurrence and quadratic link is a record with a self-describing location
string, interpreted (and checked) by the verify module.  The records are
transcribed, except the 24 2F1 symmetry rows: those are generated from the
W(D3) table of `tables`, which also drives Kummer's 24 solutions in
`numerics`.  Each root r of a family's symmetry algebra acts by one
first-order operator A_r, and the transmutation rows are the one
transcription of it (operator, weight and target p + r).  The recurrence
and factorization rows are built from them and transcribe only their own
coefficient or constant.  The integral representations are listed by
their ids and locations in `tables`, so a catalog loads no numeric code;
the rows of `rep_rows` evaluate them by `quadrature`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .exactalg import (
    DiffOperator,
    GaussRational,
    LinFactor,
    MultiPoly,
    Multiplier,
    RatFun,
    Substitution,
)
from .tables import _KUMMER, INTEGRAL_REPS, PARAMS

# symbol shorthands used throughout the catalogs
AL = MultiPoly.var("alpha")
BE = MultiPoly.var("beta")
MU = MultiPoly.var("mu")
TH = MultiPoly.var("theta")
LA = MultiPoly.var("lam")
V = MultiPoly.var("v")
HALF = Fraction(1, 2)


def C(x) -> MultiPoly:
    return MultiPoly.const(Fraction(x) if not isinstance(x, GaussRational) else x)


def _op(var: str, c0, c1=None, c2=None) -> DiffOperator:
    coeffs = [RatFun.of(MultiPoly.of(c0))]
    if c1 is not None:
        coeffs.append(RatFun.of(MultiPoly.of(c1)))
    if c2 is not None:
        coeffs.append(RatFun.of(MultiPoly.of(c2)))
    return DiffOperator(var, coeffs)


def _first(var: str, c1, c0) -> DiffOperator:
    """First-order operator c1*d + c0."""
    return _op(var, c0, c1)


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------

def make_operator_expr(family: str, var: str, params: tuple[MultiPoly, ...]) -> DiffOperator:
    """Family operator with arbitrary polynomial parameter expressions."""
    x = MultiPoly.var(var)
    one = MultiPoly.const(1)
    if family == "2f1":
        al, be, mu = params
        sigma = x * (one - x)
        tau = (one + al) * (one - x) - (one + be) * x
        eta = (al + be + one) * (al + be + one).scale(Fraction(-1, 4)) \
            + (mu * mu).scale(Fraction(1, 4))
        return _op(var, eta, tau, sigma)
    if family == "gegenbauer":
        al, la = params
        sigma = one - x * x
        tau = (one + al).scale(-2) * x
        eta = la * la - (al + C(HALF)) * (al + C(HALF))
        return _op(var, eta, tau, sigma)
    if family == "1f1":
        th, al = params
        return _op(var, (one + th + al).scale(Fraction(-1, 2)), one + al - x, x)
    if family == "2f0":
        th, al = params
        eta = ((one + th) * (one + th) - al * al).scale(Fraction(1, 4))
        return _op(var, eta, -one + (C(2) + th) * x, x * x)
    if family == "hermite":
        (la,) = params
        return _op(var, la.scale(-2) - one, x.scale(-2), one)
    if family == "0f1":
        (al,) = params
        return _op(var, -one, one + al, x)
    raise ValueError(f"unknown family {family!r}")


def symbolic_params(family: str) -> tuple[MultiPoly, ...]:
    return tuple(MultiPoly.var(n) for n in PARAMS[family].lie)


# ---------------------------------------------------------------------------
# Catalog row types
# ---------------------------------------------------------------------------

class TransmutationRow(NamedTuple):
    """A * (weight * F_source) = (weight * F_target) * A."""
    id: str
    location: str
    A: DiffOperator
    weight: MultiPoly
    target: tuple[MultiPoly, ...]


class FactorizationRow(NamedTuple):
    """weight * F = left o right + constant.

    Built from the transmutation row j of the right factor, with root r:
    weight and right are row j's weight and A, left is the A of the row
    with root -r at row j's target, and the Darboux partner's parameters
    are row j's target.  The constant and the partner id are the row's own.
    """
    id: str
    location: str
    weight: MultiPoly
    left: DiffOperator
    right: DiffOperator
    constant: MultiPoly
    # Darboux partner: (row id, parameter expressions of the partner member)
    pair: Optional[tuple[str, tuple[MultiPoly, ...]]] = None


class SymmetryRow(NamedTuple):
    """substitute(F_source, sub) = sign * prefactor * m^{-1} F_target m.

    Rational rows are checked symbolically.  The Gegenbauer rows with
    w = +-v/sqrt(v^2-1) carry sub=None, mode='numeric' and algebraic_sign.
    """
    id: str
    location: str
    sub: Optional[Substitution]
    target: tuple[MultiPoly, ...]
    mult: Multiplier
    prefactor: RatFun
    sign: int = 1
    mode: str = "symbolic"
    algebraic_sign: int = 0


class RecurrenceRow(NamedTuple):
    """A applied to the normalized function = coeff * shifted function.

    A and target are those of the transmutation row with the same number;
    coeff is the row's own.  `normalization` is "plain", "bold" or "I", as
    `numerics.evaluate` takes it."""
    id: str
    location: str
    A: DiffOperator
    coeff: MultiPoly
    target: tuple[MultiPoly, ...]
    normalization: str


class QuadraticLink(NamedTuple):
    """substitute(scale * F_source(w), sub) = prefactor * m^{-1} F_target(v) m."""
    id: str
    location: str
    source_family: str
    source_params: tuple[MultiPoly, ...]
    scale: Fraction
    sub: Substitution
    target_family: str
    target_params: tuple[MultiPoly, ...]
    mult: Multiplier
    prefactor: RatFun


class IdentityCatalog(NamedTuple):
    family: str
    transmutations: tuple[TransmutationRow, ...]
    factorizations: tuple[FactorizationRow, ...]
    symmetries: tuple[SymmetryRow, ...]
    recurrences: tuple[RecurrenceRow, ...]

    @property
    def integral_reps(self) -> tuple:
        """The (id, location) rows of the family's integral
        representations, in the order of `quadrature.integral_rep_rows`."""
        return INTEGRAL_REPS[self.family]


# Expected row counts (an invariant of the transcription).
EXPECTED_COUNTS = {
    "2f1": {"transmutations": 12, "factorizations": 12, "symmetries": 24,
            "recurrences": 12},
    "gegenbauer": {"transmutations": 8, "factorizations": 8, "symmetries": 8,
                   "recurrences": 8},
    "1f1": {"transmutations": 6, "factorizations": 6, "symmetries": 4,
            "recurrences": 6},
    "hermite": {"transmutations": 4, "factorizations": 4, "symmetries": 4,
                "recurrences": 4},
    "0f1": {"transmutations": 2, "factorizations": 2, "symmetries": 1,
            "recurrences": 2},
}


# ---------------------------------------------------------------------------
# Rows built from the transmutation rows
# ---------------------------------------------------------------------------

def subs_params(op: DiffOperator, family: str,
                exprs: Sequence[MultiPoly]) -> DiffOperator:
    """op at the parameters exprs, a shift of the family's parameters.

    The symbols are replaced one after another, which for shifts is the
    simultaneous substitution; a symbol mapped to itself is skipped."""
    subs = [(n, e) for n, e in zip(PARAMS[family].lie, exprs)
            if e != MultiPoly.var(n)]

    def sub_poly(p):
        for n, e in subs:
            p = p.subs_poly(n, e)
        return p

    return DiffOperator(op.var,
                        [RatFun(sub_poly(c.num), sub_poly(c.den))
                         for c in op.coeffs])


def _recurrences(trans, normalization: str, rows) -> tuple[RecurrenceRow, ...]:
    """Recurrence row i applies transmutation row i's operator and target;
    rows holds each row's own (coeff, location)."""
    prefix = trans[0].id.split(":")[0]
    return tuple(
        RecurrenceRow(f"{prefix}:rec:{i:02d}", loc, t.A, coeff, t.target,
                      normalization)
        for i, (t, (coeff, loc)) in enumerate(zip(trans, rows, strict=True), 1))


def _factorizations(family: str, trans, rows) -> tuple[FactorizationRow, ...]:
    """Factorization rows from rows of (j, constant, partner, location).

    With r the root of transmutation row j (its target minus the
    parameters p), the row reads

        weight_j F_p = A_{-r}(p + r) o A_j(p) + constant,

    where A_{-r} is the operator of the one transmutation row whose root is
    -r.  The Darboux partner is factorization row `partner` (or None) at
    the parameters p + r.
    """
    prefix = trans[0].id.split(":")[0]
    params = symbolic_params(family)
    roots = [tuple(x - p for x, p in zip(t.target, params)) for t in trans]
    out = []
    for i, (j, constant, partner, loc) in enumerate(rows, 1):
        t = trans[j - 1]
        neg = tuple(-x for x in roots[j - 1])
        left = [u.A for u, r in zip(trans, roots) if r == neg]
        if len(left) != 1:
            raise ValueError(
                f"{prefix}: {len(left)} transmutation rows have the root "
                f"({', '.join(map(repr, neg))}), the negative of row {j}'s")
        pair = None if partner is None \
            else (f"{prefix}:fact:{partner:02d}", t.target)
        out.append(FactorizationRow(
            f"{prefix}:fact:{i:02d}", loc, t.weight,
            subs_params(left[0], family, t.target), t.A, constant, pair))
    return tuple(out)


# ---------------------------------------------------------------------------
# 2F1 catalog
# ---------------------------------------------------------------------------

def _w() -> MultiPoly:
    return MultiPoly.var("w")


# The symmetry rows are the 24 W(D3) elements of tables._KUMMER: the
# substitutions w = v, 1-v, 1/v, (v-1)/v, 1/(1-v), v/(v-1), named by the
# permutation pi of their elements, each with the even sign patterns.
_PERMS_2F1 = ((0, 1, 2), (1, 0, 2), (2, 1, 0), (2, 0, 1), (1, 2, 0), (0, 2, 1))
_SIGNS_2F1 = ((1, 1, 1), (-1, -1, 1), (1, -1, -1), (-1, 1, -1))
# the linear forms a*v + b in those maps, keyed by (a, b)
_LINEAR_TEXT = {(1, 0): "v", (0, 1): "1", (-1, 1): "1-v", (1, -1): "v-1"}


def _moebius_text(p, q, r, s) -> str:
    """(p*v + q)/(r*v + s) as text, for an anharmonic map."""
    num, den = _LINEAR_TEXT[p, q], _LINEAR_TEXT[r, s]
    if den == "1":
        return num
    return "/".join(t if len(t) == 1 else f"({t})" for t in (num, den))


def _symmetries_2f1() -> tuple[SymmetryRow, ...]:
    """F_p(w = sub(v)) = prefactor * m F_{p'}(v) m^{-1} for each element
    F_p(w) = w^x (1-w)^y F_{p'}(z(w)) of the table.

    sub inverts z: it sends v = 0, 1, infinity to pi(0), pi(1), pi(2).
    With e(0) = x, e(1) = y and e(infinity) = -(x + y), the multiplier m is
    (-v)^e(pi(0)) (v-1)^e(pi(1)); the prefactor w(1-w) (dv/dw)^2 / (v(1-v))
    is -v, v-1 or 1 as w = infinity comes from v = 0, 1 or infinity."""
    factors = {el[0]: el[2] for els in _KUMMER.values() for el in els}
    signed = (C(1), AL, BE, MU, -MU, -BE, -AL)    # signed[k] for a slot k
    names = ("", "a", "b", "m", "-m", "-b", "-a")
    points = ((0, 1), (1, 1), (1, 0))             # 0, 1, infinity as [x:y]
    prefactors = (RatFun(-V), RatFun(V - C(1)), RatFun(C(1)))
    rows = []
    for pi in _PERMS_2F1:
        # sub's columns, the images [p:r] of v = infinity and [q:s] of
        # v = 0, add up to its image of v = 1, as [0:1] + [1:0] = [1:1]
        c_inf, c_0 = (1 if 1 in (pi[i], pi[1]) else -1 for i in (2, 0))
        (p, r), (q, s) = points[pi[2]], points[pi[0]]
        data = (c_inf * p, c_0 * q, c_inf * r, c_0 * s)
        sub, text = Substitution.moebius("w", "v", *data), _moebius_text(*data)
        for signs in _SIGNS_2F1:
            slots = tuple(sg * (k + 1) for sg, k in zip(signs, pi))
            e = [MultiPoly(), MultiPoly(), None]
            for j, _, d0, ks in factors[slots]:
                e[j] = sum((signed[k] for k in ks), C(d0)).scale(HALF)
            e[2] = -(e[0] + e[1])
            mult = Multiplier("v", [
                LinFactor(GaussRational(a), GaussRational(b), e[point])
                for (a, b), point in zip(((-1, 0), (1, -1)), pi)
                if not e[point].is_zero()])
            rows.append(SymmetryRow(
                f"2f1:sym:{len(rows) + 1:02d}",
                f"w={text}, ({','.join(names[k] for k in slots)})", sub,
                tuple(signed[k] for k in slots), mult,
                prefactors[pi.index(2)]))
    return tuple(rows)


def _build_2f1() -> IdentityCatalog:
    w = _w()
    one = MultiPoly.const(1)
    s1 = (AL + BE + MU + one).scale(HALF)    # (alpha+beta+mu+1)/2
    s2 = (AL + BE - MU + one).scale(HALF)    # (alpha+beta-mu+1)/2

    def t(i, A, weight, tgt, desc):
        return TransmutationRow(f"2f1:trans:{i:02d}", desc, A, weight, tgt)

    trans = (
        t(1, _first("w", one, MultiPoly()), one, (AL + 1, BE + 1, MU),
          "d_w intertwines (a,b,m)->(a+1,b+1,m)"),
        t(2, _first("w", w * (one - w), (one - w) * AL - w * BE), one,
          (AL - 1, BE - 1, MU),
          "w(1-w)d_w+(1-w)a-wb intertwines (a,b,m)->(a-1,b-1,m)"),
        t(3, _first("w", one - w, -BE), one, (AL + 1, BE - 1, MU),
          "(1-w)d_w-b intertwines (a,b,m)->(a+1,b-1,m)"),
        t(4, _first("w", w, AL), one, (AL - 1, BE + 1, MU),
          "w d_w+a intertwines (a,b,m)->(a-1,b+1,m)"),
        t(5, _first("w", w, s1), w, (AL, BE + 1, MU + 1),
          "w d_w+(a+b+m+1)/2 intertwines w-weighted (a,b,m)->(a,b+1,m+1)"),
        # Rows 6 and 8 are the negatives of their location strings, so
        # that every factorization below has the sign +1.
        t(6, _first("w", w * (one - w), -((w - one) * s2 + BE)), w,
          (AL, BE - 1, MU - 1),
          "w(w-1)d_w+(w-1)(a+b-m+1)/2+b intertwines w-weighted (a,b,m)->(a,b-1,m-1)"),
        t(7, _first("w", w, s2), w, (AL, BE + 1, MU - 1),
          "w d_w+(a+b-m+1)/2 intertwines w-weighted (a,b,m)->(a,b+1,m-1)"),
        t(8, _first("w", w * (one - w), (one - w) * s1 - BE), w,
          (AL, BE - 1, MU + 1),
          "w(w-1)d_w-(1-w)(a+b+m+1)/2+b intertwines w-weighted (a,b,m)->(a,b-1,m+1)"),
        t(9, _first("w", w - one, s1), one - w, (AL + 1, BE, MU + 1),
          "(w-1)d_w+(a+b+m+1)/2 intertwines (1-w)-weighted (a,b,m)->(a+1,b,m+1)"),
        t(10, _first("w", w * (w - one), w * s2 - AL), one - w,
          (AL - 1, BE, MU - 1),
          "w(w-1)d_w+w(a+b-m+1)/2-a intertwines (1-w)-weighted (a,b,m)->(a-1,b,m-1)"),
        t(11, _first("w", w - one, s2), one - w, (AL + 1, BE, MU - 1),
          "(w-1)d_w+(a+b-m+1)/2 intertwines (1-w)-weighted (a,b,m)->(a+1,b,m-1)"),
        t(12, _first("w", w * (w - one), w * s1 - AL), one - w,
          (AL - 1, BE, MU + 1),
          "w(w-1)d_w+w(a+b+m+1)/2-a intertwines (1-w)-weighted (a,b,m)->(a-1,b,m+1)"),
    )

    def q(u, v_):
        """-(1/4) * u * v_."""
        return (u * v_).scale(Fraction(-1, 4))

    apm = AL + BE + MU   # a+b+m
    amm = AL + BE - MU
    dpm = AL - BE + MU
    dmm = AL - BE - MU

    # (transmutation row of the right factor, constant, Darboux partner
    # row, location); see _factorizations.
    fact = (
        (1, q(apm + 1, amm + 1), None,
         "F = (w(1-w)d+(1+a)(1-w)-(1+b)w) o d - (a+b+m+1)(a+b-m+1)/4"),
        (2, q(apm - 1, amm - 1), 1,
         "F = d o (w(1-w)d+a(1-w)-bw) - (a+b+m-1)(a+b-m-1)/4"),
        (3, q(dpm + 1, dmm + 1), 4,
         "F = (w d+a+1) o ((1-w)d-b) - (a-b+m+1)(a-b-m+1)/4"),
        (4, q(dpm - 1, dmm - 1), None,
         "F = ((1-w)d-b-1) o (w d+a) - (a-b+m-1)(a-b-m-1)/4"),
        (6, q(apm - 1, dmm + 1), 6,
         "wF = (w d+(a+b+m-1)/2) o (w(1-w)d+(1-w)(a+b-m+1)/2-b) + c"),
        (5, q(apm + 1, dmm - 1), None,
         "wF = (w(1-w)d+(1-w)(a+b-m+1)/2-b-1) o (w d+(a+b+m+1)/2) + c"),
        (8, q(amm - 1, dpm + 1), 8,
         "wF = (w d+(a+b-m-1)/2) o (w(1-w)d+(1-w)(a+b+m+1)/2-b) + c"),
        (7, q(amm + 1, dpm - 1), None,
         "wF = (w(1-w)d+(1-w)(a+b+m+1)/2-b-1) o (w d+(a+b-m+1)/2) + c"),
        (9, ((apm + 1) * (dpm + 1)).scale(Fraction(1, 4)), None,
         "(1-w)F = (w(w-1)d+w(a+b-m+1)/2-a-1) o ((w-1)d+(a+b+m+1)/2) + (a+b+m+1)(a-b+m+1)/4"),
        (10, ((apm - 1) * (dpm - 1)).scale(Fraction(1, 4)), 9,
         "(1-w)F = ((w-1)d+(a+b+m-1)/2) o (w(w-1)d+w(a+b-m+1)/2-a) + (a+b+m-1)(a-b+m-1)/4"),
        (11, ((amm + 1) * (dmm + 1)).scale(Fraction(1, 4)), None,
         "(1-w)F = (w(w-1)d+w(a+b+m+1)/2-a-1) o ((w-1)d+(a+b-m+1)/2) + (a+b-m+1)(a-b-m+1)/4"),
        (12, ((amm - 1) * (dmm - 1)).scale(Fraction(1, 4)), 11,
         "(1-w)F = ((w-1)d+(a+b-m-1)/2) o (w(w-1)d+w(a+b+m+1)/2-a) + (a+b-m-1)(a-b-m-1)/4"),
    )

    # (coeff, location); A and target are the transmutation row's.  Rows 2,
    # 4, 7 and 8 apply minus the operator of their location strings, so
    # their coefficients are negated.
    mmp = (one - AL - BE + MU).scale(HALF)    # (1-a-b+m)/2
    pmm = (one + AL - BE - MU).scale(HALF)    # (1+a-b-m)/2
    mpm = (one - AL + BE - MU).scale(HALF)    # (1-a+b-m)/2

    rec = (
        (s1, "d_w FI -> ((1+a+b+m)/2) FI(a+1,b+1,m)"),
        (-mmp, "-(w(1-w)d+a(1-w)-bw) FI -> ((1-a-b+m)/2) FI(a-1,b-1,m)"),
        (pmm, "((1-w)d-b) FI -> ((1+a-b-m)/2) FI(a+1,b-1,m)"),
        (-mpm, "-(w d+a) FI -> ((1-a+b-m)/2) FI(a-1,b+1,m)"),
        (s1, "(w d+(1+a+b+m)/2) FI -> ((1+a+b+m)/2) FI(a,b+1,m+1)"),
        (pmm, "-(w(w-1)d+b+(w-1)(1+a+b-m)/2) FI -> ((1+a-b-m)/2) FI(a,b-1,m-1)"),
        (-mpm, "-(w d+(1+a+b-m)/2) FI -> ((1-a+b-m)/2) FI(a,b+1,m-1)"),
        (-mmp, "(w(w-1)d+b+(w-1)(1+a+b+m)/2) FI -> ((1-a-b+m)/2) FI(a,b-1,m+1)"),
        (s1, "((w-1)d+(1+a+b+m)/2) FI -> ((1+a+b+m)/2) FI(a+1,b,m+1)"),
        (mpm, "(w(w-1)d-a+w(1+a+b-m)/2) FI -> ((1-a+b-m)/2) FI(a-1,b,m-1)"),
        (pmm, "((w-1)d+(1+a+b-m)/2) FI -> ((1+a-b-m)/2) FI(a+1,b,m-1)"),
        (mmp, "(w(w-1)d-a+w(1+a+b+m)/2) FI -> ((1-a-b+m)/2) FI(a-1,b,m+1)"),
    )

    return IdentityCatalog("2f1", trans, _factorizations("2f1", trans, fact),
                           _symmetries_2f1(), _recurrences(trans, "I", rec))


# ---------------------------------------------------------------------------
# Gegenbauer catalog
# ---------------------------------------------------------------------------

def _pow_v2m1(gamma) -> Multiplier:
    """(v^2-1)^gamma as (v-1)^gamma (v+1)^gamma."""
    g = MultiPoly.of(gamma)
    return Multiplier("v", [LinFactor(GaussRational(1), GaussRational(-1), g),
                            LinFactor(GaussRational(1), GaussRational(1), g)])


def _build_gegenbauer() -> IdentityCatalog:
    w = _w()
    one = MultiPoly.const(1)
    w2 = w * w
    omw2 = one - w2

    def t(i, A, weight, tgt, desc):
        return TransmutationRow(f"geg:trans:{i:02d}", desc, A, weight, tgt)

    ap_l = AL + LA + C(HALF)       # alpha+lam+1/2
    am_l = AL - LA + C(HALF)       # alpha-lam+1/2

    trans = (
        t(1, _first("w", one, MultiPoly()), one, (AL + 1, LA),
          "d_w intertwines (a,l)->(a+1,l)"),
        t(2, _first("w", omw2, AL.scale(-2) * w), one, (AL - 1, LA),
          "((1-w^2)d-2aw) intertwines (a,l)->(a-1,l)"),
        t(3, _first("w", omw2, -ap_l * w), omw2, (AL, LA + 1),
          "((1-w^2)d-(a+l+1/2)w) intertwines (1-w^2)-weighted (a,l)->(a,l+1)"),
        t(4, _first("w", omw2, -am_l * w), omw2, (AL, LA - 1),
          "((1-w^2)d-(a-l+1/2)w) intertwines (1-w^2)-weighted (a,l)->(a,l-1)"),
        t(5, _first("w", w, am_l), w2, (AL + 1, LA - 1),
          "(w d+a-l+1/2) intertwines w^2-weighted (a,l)->(a+1,l-1)"),
        t(6, _first("w", w * omw2, -AL + LA + C(HALF) - ap_l * w2), w2,
          (AL - 1, LA + 1),
          "(w(1-w^2)d-a+l+1/2-(a+l+1/2)w^2) intertwines w^2-weighted (a,l)->(a-1,l+1)"),
        t(7, _first("w", w, ap_l), w2, (AL + 1, LA + 1),
          "(w d+a+l+1/2) intertwines w^2-weighted (a,l)->(a+1,l+1)"),
        t(8, _first("w", w * omw2, -AL - LA + C(HALF) - am_l * w2), w2,
          (AL - 1, LA - 1),
          "(w(1-w^2)d-a-l+1/2-(a-l+1/2)w^2) intertwines w^2-weighted (a,l)->(a-1,l-1)"),
    )

    fact = (
        (2, (AL + LA - C(HALF)) * (-AL + LA + C(HALF)), 2,
         "S = d o ((1-w^2)d-2aw) + (a+l-1/2)(-a+l+1/2)"),
        (1, (AL + LA + C(HALF)) * (-AL + LA - C(HALF)), None,
         "S = ((1-w^2)d-2(1+a)w) o d + (a+l+1/2)(-a+l-1/2)"),
        (4, -(AL + LA - C(HALF)) * am_l, 4,
         "(1-w^2)S = ((1-w^2)d-(a+l-1/2)w) o ((1-w^2)d-(a-l+1/2)w) - (a+l-1/2)(a-l+1/2)"),
        (3, -ap_l * (AL - LA - C(HALF)), None,
         "(1-w^2)S = ((1-w^2)d-(a-l-1/2)w) o ((1-w^2)d-(a+l+1/2)w) - (a+l+1/2)(a-l-1/2)"),
        (7, ap_l * (AL + LA + C(Fraction(3, 2))), None,
         "w^2 S = (w(1-w^2)d-a-l-3/2+(-a+l-1/2)w^2) o (w d+a+l+1/2) + c"),
        (8, (AL + LA - C(HALF)) * (AL + LA - C(Fraction(3, 2))), 5,
         "w^2 S = (w d+a+l-3/2) o (w(1-w^2)d-a-l+1/2+(-a+l-1/2)w^2) + c"),
        (5, am_l * (AL - LA + C(Fraction(3, 2))), None,
         "w^2 S = (w(1-w^2)d-a+l-3/2+(-a-l-1/2)w^2) o (w d+a-l+1/2) + c"),
        (6, (AL - LA - C(HALF)) * (AL - LA - C(Fraction(3, 2))), 7,
         "w^2 S = (w d+a-l-3/2) o (w(1-w^2)d-a+l+1/2+(-a-l-1/2)w^2) + c"),
    )

    ident = Substitution.moebius("w", "v", 1, 0, 0, 1)
    neg = Substitution.moebius("w", "v", -1, 0, 0, 1)
    rf1 = RatFun(MultiPoly.const(1))
    m1 = Multiplier.one("v")
    v2m1 = RatFun(V * V - MultiPoly.const(1))

    sym = (
        SymmetryRow("geg:sym:01", "w=v identity", ident, (AL, LA), m1, rf1),
        SymmetryRow("geg:sym:02", "w=-v, (a,-l)", neg, (AL, -LA), m1, rf1),
        SymmetryRow("geg:sym:03", "w=v, (v^2-1)^-a sandwich, (-a,-l)", ident,
                    (-AL, -LA), _pow_v2m1(-AL), rf1),
        SymmetryRow("geg:sym:04", "w=-v, (v^2-1)^-a sandwich, (-a,l)", neg,
                    (-AL, LA), _pow_v2m1(-AL), rf1),
        SymmetryRow("geg:sym:05",
                    "w=v/sqrt(v^2-1), (v^2-1)^((a+l+5/2)/2) sandwich, (l,a)",
                    None, (LA, AL), _pow_v2m1((AL + LA + C(HALF)).scale(HALF)),
                    v2m1, mode="numeric", algebraic_sign=1),
        SymmetryRow("geg:sym:06",
                    "w=-v/sqrt(v^2-1), (l,-a)",
                    None, (LA, -AL), _pow_v2m1((AL + LA + C(HALF)).scale(HALF)),
                    v2m1, mode="numeric", algebraic_sign=-1),
        SymmetryRow("geg:sym:07",
                    "w=v/sqrt(v^2-1), (v^2-1)^((a-l+5/2)/2) sandwich, (-l,-a)",
                    None, (-LA, -AL), _pow_v2m1((AL - LA + C(HALF)).scale(HALF)),
                    v2m1, mode="numeric", algebraic_sign=1),
        SymmetryRow("geg:sym:08",
                    "w=-v/sqrt(v^2-1), (-l,a)",
                    None, (-LA, AL), _pow_v2m1((AL - LA + C(HALF)).scale(HALF)),
                    v2m1, mode="numeric", algebraic_sign=-1),
    )

    rec = (
        ((am_l * ap_l).scale(Fraction(-1, 2)),
         "d_w S -> -(1/2)(1/2+a-l)(1/2+a+l) S(a+1,l)"),
        (C(-2), "((1-w^2)d-2aw) S -> -2 S(a-1,l)"),
        (-ap_l, "((1-w^2)d-(1/2+a+l)w) S -> -(1/2+a+l) S(a,l+1)"),
        (-am_l, "((1-w^2)d-(1/2+a-l)w) S -> -(1/2+a-l) S(a,l-1)"),
        ((am_l * (am_l + 1)).scale(HALF),
         "(w d+1/2+a-l) S -> (1/2)(1/2+a-l)(3/2+a-l) S(a+1,l-1)"),
        (C(-2), "(w(1-w^2)d+(1/2-a+l)(1-w^2)-2aw^2) S -> -2 S(a-1,l+1)"),
        ((ap_l * (ap_l + 1)).scale(HALF),
         "(w d+1/2+a+l) S -> (1/2)(1/2+a+l)(3/2+a+l) S(a+1,l+1)"),
        (C(-2), "(w(1-w^2)d+(1/2-a-l)(1-w^2)-2aw^2) S -> -2 S(a-1,l-1)"),
    )

    return IdentityCatalog("gegenbauer", trans,
                           _factorizations("gegenbauer", trans, fact), sym,
                           _recurrences(trans, "bold", rec))


# ---------------------------------------------------------------------------
# Confluent (1F1) catalog
# ---------------------------------------------------------------------------

def _build_1f1() -> IdentityCatalog:
    w = _w()
    one = MultiPoly.const(1)

    def t(i, A, weight, tgt, desc):
        return TransmutationRow(f"1f1:trans:{i:02d}", desc, A, weight, tgt)

    trans = (
        t(1, _first("w", one, MultiPoly()), one, (TH + 1, AL + 1),
          "d_w intertwines (t,a)->(t+1,a+1)"),
        t(2, _first("w", w, AL - w), one, (TH - 1, AL - 1),
          "(w d+a-w) intertwines (t,a)->(t-1,a-1)"),
        t(3, _first("w", w, AL), one, (TH + 1, AL - 1),
          "(w d+a) intertwines (t,a)->(t+1,a-1)"),
        t(4, _first("w", one, C(-1)), one, (TH - 1, AL + 1),
          "(d-1) intertwines (t,a)->(t-1,a+1)"),
        t(5, _first("w", w, (TH + AL + 1).scale(HALF)), w, (TH + 2, AL),
          "(w d+(t+a+1)/2) intertwines w-weighted (t,a)->(t+2,a)"),
        t(6, _first("w", w, (-TH + AL + 1).scale(HALF) - w), w, (TH - 2, AL),
          "(w d+(-t+a+1)/2-w) intertwines w-weighted (t,a)->(t-2,a)"),
    )

    fact = (
        (3, (TH - AL + 1).scale(Fraction(-1, 2)), 2,
         "F = (d-1) o (w d+a) - (t-a+1)/2"),
        (4, (TH - AL - 1).scale(Fraction(-1, 2)), None,
         "F = (w d+1+a) o (d-1) - (t-a-1)/2"),
        (2, (TH + AL - 1).scale(Fraction(-1, 2)), 4,
         "F = d o (w d+a-w) - (t+a-1)/2"),
        (1, (TH + AL + 1).scale(Fraction(-1, 2)), None,
         "F = (w d+1+a-w) o d - (t+a+1)/2"),
        (5, ((-TH + AL - 1) * (TH + AL + 1)).scale(Fraction(-1, 4)), 6,
         "wF = (w d+(-t+a-1)/2-w) o (w d+(t+a+1)/2) - (-t+a-1)(t+a+1)/4"),
        (6, ((-TH + AL + 1) * (TH + AL - 1)).scale(Fraction(-1, 4)), None,
         "wF = (w d+(t+a-1)/2) o (w d+(-t+a+1)/2-w) - (-t+a+1)(t+a-1)/4"),
    )

    ident = Substitution.moebius("w", "v", 1, 0, 0, 1)
    neg = Substitution.moebius("w", "v", -1, 0, 0, 1)
    rf1 = RatFun(MultiPoly.const(1))
    m1 = Multiplier.one("v")
    pow_v = Multiplier.power("v", 1, 0, -AL)    # v^-a
    e_neg = Multiplier.exp("v", 0, -1, 0)       # e^-v

    sym = (
        SymmetryRow("1f1:sym:01", "w=v identity", ident, (TH, AL), m1, rf1),
        SymmetryRow("1f1:sym:02", "w=v, v^-a sandwich, (t,-a)", ident,
                    (TH, -AL), pow_v, rf1),
        SymmetryRow("1f1:sym:03",
                    "w=-v, -e^-v sandwich, (-t,a) (1st Kummer transformation)",
                    neg, (-TH, AL), e_neg, rf1, sign=-1),
        SymmetryRow("1f1:sym:04", "w=-v, -e^-v v^-a sandwich, (-t,-a)", neg,
                    (-TH, -AL), e_neg * pow_v, rf1, sign=-1),
    )

    rec = (
        ((TH + AL + 1).scale(HALF), "d_w bF -> ((1+t+a)/2) bF(t+1,a+1)"),
        (one, "(w d+a-w) bF -> bF(t-1,a-1)"),
        (one, "(w d+a) bF -> bF(t+1,a-1)"),
        ((TH - AL - 1).scale(HALF), "(d-1) bF -> ((-1+t-a)/2) bF(t-1,a+1)"),
        ((TH + AL + 1).scale(HALF),
         "(w d+(1+t+a)/2) bF -> ((1+t+a)/2) bF(t+2,a)"),
        ((-TH + AL + 1).scale(HALF),
         "(w d+(1-t+a)/2-w) bF -> ((1-t+a)/2) bF(t-2,a)"),
    )

    return IdentityCatalog("1f1", trans, _factorizations("1f1", trans, fact),
                           sym, _recurrences(trans, "bold", rec))


# ---------------------------------------------------------------------------
# Hermite catalog
# ---------------------------------------------------------------------------

def _build_hermite() -> IdentityCatalog:
    w = _w()
    one = MultiPoly.const(1)
    w2 = w * w

    def t(i, A, weight, tgt, desc):
        return TransmutationRow(f"herm:trans:{i:02d}", desc, A, weight, tgt)

    trans = (
        t(1, _first("w", one, MultiPoly()), one, (LA + 1,),
          "d_w intertwines l->l+1"),
        t(2, _first("w", one, w.scale(-2)), one, (LA - 1,),
          "(d-2w) intertwines l->l-1"),
        t(3, _first("w", w, LA + C(HALF)), w2, (LA + 2,),
          "(w d+l+1/2) intertwines w^2-weighted l->l+2"),
        t(4, _first("w", w, -LA + C(HALF) - w2.scale(2)), w2, (LA - 2,),
          "(w d-l+1/2-2w^2) intertwines w^2-weighted l->l-2"),
    )

    fact = (
        (1, LA.scale(-2) - one, 2, "S = (d-2w) o d - 2l - 1"),
        (2, LA.scale(-2) + one, None, "S = d o (d-2w) - 2l + 1"),
        (4, (LA - C(Fraction(3, 2))) * (LA - C(HALF)), None,
         "w^2 S = (w d+l-3/2) o (w d-l+1/2-2w^2) + (l-3/2)(l-1/2)"),
        (3, (LA + C(Fraction(3, 2))) * (LA + C(HALF)), 3,
         "w^2 S = (w d-l-3/2-2w^2) o (w d+l+1/2) + (l+3/2)(l+1/2)"),
    )

    ident = Substitution.moebius("w", "v", 1, 0, 0, 1)
    neg = Substitution.moebius("w", "v", -1, 0, 0, 1)
    i_pos = Substitution.moebius("w", "v", GaussRational(0, 1), 0, 0, 1)
    i_neg = Substitution.moebius("w", "v", GaussRational(0, -1), 0, 0, 1)
    rf1 = RatFun(MultiPoly.const(1))
    m1 = Multiplier.one("v")
    e_nv2 = Multiplier.exp("v", 0, 0, -1)    # e^{-v^2}

    sym = (
        SymmetryRow("herm:sym:01", "w=v identity", ident, (LA,), m1, rf1),
        SymmetryRow("herm:sym:02", "w=-v invariance", neg, (LA,), m1, rf1),
        SymmetryRow("herm:sym:03", "w=iv, -e^{-v^2} sandwich, -l", i_pos,
                    (-LA,), e_nv2, rf1, sign=-1),
        SymmetryRow("herm:sym:04", "w=-iv, -e^{-v^2} sandwich, -l", i_neg,
                    (-LA,), e_nv2, rf1, sign=-1),
    )

    rec = (
        (-(C(HALF) + LA), "d_w S -> -(1/2+l) S(l+1)"),
        (C(-2), "(d-2w) S -> -2 S(l-1)"),
        (((C(HALF) + LA) * (C(Fraction(3, 2)) + LA)).scale(HALF),
         "(w d+1/2+l) S -> (1/2)(1/2+l)(3/2+l) S(l+2)"),
        (C(-2), "(w d+1/2-l-2w^2) S -> -2 S(l-2)"),
    )

    return IdentityCatalog("hermite", trans,
                           _factorizations("hermite", trans, fact), sym,
                           _recurrences(trans, "plain", rec))


# ---------------------------------------------------------------------------
# 0F1 catalog
# ---------------------------------------------------------------------------

def _build_0f1() -> IdentityCatalog:
    w = _w()
    one = MultiPoly.const(1)

    trans = (
        TransmutationRow("0f1:trans:01", "d_w intertwines a->a+1",
                         _first("w", one, MultiPoly()), one, (AL + 1,)),
        TransmutationRow("0f1:trans:02", "(w d+a) intertwines a->a-1",
                         _first("w", w, AL), one, (AL - 1,)),
    )

    fact = (
        (1, C(-1), 2, "F = (w d+a+1) o d - 1"),
        (2, C(-1), None, "F = d o (w d+a) - 1"),
    )

    ident = Substitution.moebius("w", "v", 1, 0, 0, 1)
    sym = (
        SymmetryRow("0f1:sym:01", "w^-a sandwich, -a", ident, (-AL,),
                    Multiplier.power("v", 1, 0, -AL), RatFun(MultiPoly.const(1))),
    )

    rec = (
        (one, "d_w bF -> bF(a+1)"),
        (one, "(w d+a) bF -> bF(a-1)"),
    )

    return IdentityCatalog("0f1", trans, _factorizations("0f1", trans, fact),
                           sym, _recurrences(trans, "bold", rec))


_CATALOGS: dict[str, IdentityCatalog] = {}


def catalog(family: str) -> IdentityCatalog:
    """The full transcribed identity catalog of a family (cached singleton)."""
    if family == "2f0":
        raise ValueError("the 2f0 family is covered via its links to 1f1")
    if family not in _CATALOGS:
        builder = {
            "2f1": _build_2f1,
            "gegenbauer": _build_gegenbauer,
            "1f1": _build_1f1,
            "hermite": _build_hermite,
            "0f1": _build_0f1,
        }[family]
        _CATALOGS[family] = builder()
    return _CATALOGS[family]


# ---------------------------------------------------------------------------
# Quadratic links
# ---------------------------------------------------------------------------

def quadratic_links() -> tuple[QuadraticLink, ...]:
    """The six exact quadratic/Moebius links between families."""
    one = MultiPoly.const(1)
    rf1 = RatFun(one)
    m1 = Multiplier.one("v")
    sq = Substitution.quadratic("w", "v", 1, 0)          # w = v^2
    return (
        QuadraticLink(
            "link:geg-2f1:plain",
            "S(a,l) in v equals 4 F(-1/2,a,l) in w=v^2",
            "2f1", (C(Fraction(-1, 2)), AL, LA), Fraction(4), sq,
            "gegenbauer", (AL, LA), m1, rf1),
        QuadraticLink(
            "link:geg-2f1:conj",
            "v^-1 S(a,l) v equals 4 F(1/2,a,l) in w=v^2",
            "2f1", (C(HALF), AL, LA), Fraction(4), sq,
            "gegenbauer", (AL, LA), Multiplier.power("v", 1, 0, one), rf1),
        QuadraticLink(
            "link:herm-1f1:plain",
            "S(l) in v equals 4 F(l,-1/2) in w=v^2",
            "1f1", (LA, C(Fraction(-1, 2))), Fraction(4), sq,
            "hermite", (LA,), m1, rf1),
        QuadraticLink(
            "link:herm-1f1:conj",
            "v^-1 S(l) v equals 4 F(l,1/2) in w=v^2",
            "1f1", (LA, C(HALF)), Fraction(4), sq,
            "hermite", (LA,), Multiplier.power("v", 1, 0, one), rf1),
        QuadraticLink(
            "link:1f1-2f0",
            "(-z)^((3+a+t)/2) Ft(t,a) (-z)^(-(1+a+t)/2) equals F(t,a), z=-1/w",
            "1f1", (TH, AL), Fraction(1),
            Substitution.moebius("w", "v", 0, -1, 1, 0),   # w = -1/v
            "2f0", (TH, AL),
            Multiplier.power("v", -1, 0, -(TH + AL + one).scale(HALF)),
            RatFun(-V)),
        QuadraticLink(
            "link:0f1-1f1",
            "F0F1(a) in w equals (4/v) e^{-v/2} F1F1(0,2a) e^{v/2}, w=(v/4)^2",
            "0f1", (AL,), Fraction(1),
            Substitution.quadratic("w", "v", Fraction(1, 16), 0),
            "1f1", (MultiPoly(), AL.scale(2)),
            Multiplier.exp("v", 0, HALF, 0),
            RatFun(MultiPoly.const(4), V)),
    )
