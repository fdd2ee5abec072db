"""Numerical evaluation of the five equation families.

Double-precision evaluation of the hypergeometric-class functions in
Lie-algebraic parameters: power series with compensated summation,
asymptotic series with optimal truncation, analytic continuation of the
Gauss function, the standard solutions of each family (with their
alternative expressions for cross-checking), the gamma-matrix connection
coefficients, and normalized variants whose recurrence coefficients are
polynomial.

The argument of an evaluator may be a complex number or a `jet.Jet`.  The
derivative d/dw is a root operator of each family (its first transmutation
row), so the k-th Taylor coefficient of a function is a value at parameters
shifted k times by that root.  Every evaluator has a `_Root` and takes a
Jet's coefficients from its scalar route steps at shifted parameters
(`_root_jet`): no route step, series or quadrature sees a Jet.

The typed errors (`NumericsError` and its subclasses) are defined in
`errors` and re-exported here.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable, NamedTuple, Optional, Sequence, Union

from .errors import (ConvergenceError, DegeneracyError, DomainError,
                     GammaPoleError, NumericsError)
from .jet import Jet, taylor_compose
from .tables import _KUMMER, _W_D3, classical_to_lie

Number = Union[int, float, complex]


# ---------------------------------------------------------------------------
# Gamma function: math.gamma on the real axis, Lanczos (g = 607/128, 15
# coefficients) with the reflection formula off it
# ---------------------------------------------------------------------------

_LANCZOS_G = 607.0 / 128.0

_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)

_SQRT_2PI = math.sqrt(2.0 * math.pi)

# the smallest normal double
_TINY = 2.0 ** -1022


def _as_complex(z: Number) -> complex:
    if type(z) is complex:
        return z
    return complex(z)


def is_nonpositive_integer(z: Number) -> bool:
    z = _as_complex(z)
    if abs(z.imag) > 1e-12:
        return False
    r = round(z.real)
    return r <= 0 and abs(z.real - r) <= 1e-12


def _real_gamma(x: float) -> float:
    """math.gamma(x) at a real x off the poles, a normal double; raises
    OverflowError where Gamma(x) lies outside the normal range (x past
    171.6, or below about -170.5 where it underflows)."""
    g = math.gamma(x)
    if abs(g) < _TINY:
        raise OverflowError(f"gamma({x}) is not a normal double")
    return g


def _real_rgamma_reflected(x: float) -> float:
    """1/Gamma(x) at a negative x where Gamma(x) is not a normal double,
    as (-x)*Gamma(-x)*sin(pi x)/pi: the sine at x - round(x), which is
    exact, and the product taken so that only its last factor can
    overflow.  Raises OverflowError where |1/Gamma(x)| passes the double
    range (x below about -171.6)."""
    n = round(x)
    s = math.sin(math.pi * (x - n)) / math.pi
    try:
        r = math.gamma(-x) * (-s if n % 2 else s) * -x
    except OverflowError:
        r = math.inf
    if math.isinf(r):
        raise OverflowError(f"1/gamma({x}) is not a normal double")
    return r


def _complex_gamma(z: complex) -> complex:
    """The Lanczos sum at Re z >= 1/2, the reflection formula below; z is
    not a pole."""
    if z.real < 0.5:
        return math.pi / (cmath.sin(math.pi * z) * _complex_gamma(1.0 - z))
    z -= 1.0
    s = _LANCZOS_C[0]
    for k in range(1, len(_LANCZOS_C)):
        s += _LANCZOS_C[k] / (z + k)
    t = z + _LANCZOS_G + 0.5
    return _SQRT_2PI * t ** (z + 0.5) * cmath.exp(-t) * s


def gamma(z: Number) -> complex:
    """Complex gamma function; raises GammaPoleError at the poles and
    OverflowError where a real Gamma(z) is not a normal double."""
    z = _as_complex(z)
    if is_nonpositive_integer(z):
        raise GammaPoleError(f"gamma pole at {z}")
    if z.imag == 0:
        return complex(_real_gamma(z.real))
    return _complex_gamma(z)


def rgamma(z: Number) -> complex:
    """1/gamma; entire, returns 0 at the poles of gamma and raises
    OverflowError where a real 1/Gamma(z) is not a normal double."""
    z = _as_complex(z)
    if is_nonpositive_integer(z):
        return 0.0 + 0.0j
    if z.imag == 0:
        try:
            r = 1.0 / _real_gamma(z.real)
        except OverflowError:
            if z.real > 0:
                raise
            return complex(_real_rgamma_reflected(z.real))
        if abs(r) < _TINY:
            raise OverflowError(f"1/gamma({z.real}) is not a normal double")
        return complex(r)
    return 1.0 / _complex_gamma(z)


def sinpi(z: Number) -> complex:
    return cmath.sin(math.pi * _as_complex(z))


# ---------------------------------------------------------------------------
# Jet-polymorphic scalar helpers
# ---------------------------------------------------------------------------

# `type(x) is Jet` and `type(x) is complex` are tested inline: these run
# once or more per quadrature node and series term.

def jexp(x):
    t = type(x)
    if t is Jet:
        return x.exp()
    return cmath.exp(x if t is complex else _as_complex(x))


def jpow(x, e):
    """x**e for complex or Jet base and complex exponent (principal branch)."""
    if type(e) is not complex:
        e = _as_complex(e)
    t = type(x)
    if t is Jet:
        return x.pow(e)
    if t is not complex:
        x = _as_complex(x)
    if x == 0:
        return 0.0j if e.real > 0 else cmath.inf
    return cmath.exp(e * cmath.log(x))


def jsqrt(x):
    return x.sqrt() if type(x) is Jet else cmath.sqrt(_as_complex(x))


def jvalue(x) -> complex:
    t = type(x)
    if t is Jet:
        return x.coeffs[0]
    return x if t is complex else _as_complex(x)


def require_finite(*args) -> None:
    """DomainError unless every argument, and every coefficient of a Jet
    argument, is finite.  The solution evaluators guard with it: their
    quadrature drops a NaN node as a failed one and would return 0 or NaN
    without an error."""
    for x in args:
        if type(x) is not Jet:
            if not cmath.isfinite(x):
                raise DomainError(f"non-finite argument {x}")
            continue
        for c in x.coeffs:
            if not cmath.isfinite(c):
                raise DomainError(f"non-finite argument {c}")


class _Step(NamedTuple):
    """A route of a routed evaluator; `fn(*args, tol)` returns (value,
    relative estimate or None)."""
    route: str
    fn: Callable
    guard: Optional[Callable] = None


class _Root(NamedTuple):
    """The root of a family whose shift is its derivative: f_p' =
    factor(*p) f_{shift(*p)} for the Lie parameters p."""
    shift: Callable
    factor: Callable


def _ladder(steps, args, tol, method="auto", check=None, root=None):
    """(value, route, relative estimate) at `args` (w last) by the first
    of `steps` that accepts them, once they are finite and `check(*args)`
    has passed.  Auto skips a step whose guard(*args, tol) is false, and
    rejects one that raises NumericsError or ArithmeticError or whose
    estimate exceeds tol; the last failure propagates, an ArithmeticError
    (a Gamma overflow) as DomainError.  Another `method` runs the first
    step of that name, without guard or gate: a ConvergenceError with an
    `estimate` gives its `best`, an ArithmeticError raises DomainError.
    With a `root`, a Jet w takes `_root_jet`, so that no step sees a Jet."""
    require_finite(*args)
    if root is not None and type(args[-1]) is Jet:
        return _root_jet(steps, args, tol, method, check, root)
    if check is not None:
        check(*args)
    if method != "auto":
        fn = next((s.fn for s in steps if s.route == method), None)
        if fn is None:
            raise ValueError(f"no route {method!r} among the steps")
        try:
            value, est = fn(*args, tol)
        except ConvergenceError as exc:
            if exc.estimate is None:
                raise
            value, est = exc.best, exc.estimate
        except ArithmeticError as exc:
            raise DomainError(f"{method}: {exc}") from exc
        return value, method, est
    failure = None
    call = args + (tol,)
    for route, fn, guard in steps:
        if guard is not None and not guard(*call):
            continue
        try:
            value, est = fn(*call)
        except (NumericsError, ArithmeticError) as exc:
            failure = exc
            continue
        if est is None or est <= tol:
            return value, route, est
        failure = ConvergenceError(f"{route} estimate {est:.2e} misses tol",
                                   best=value, estimate=est)
    if isinstance(failure, ArithmeticError):
        raise DomainError(f"no route applies: {failure}") from failure
    raise failure or DomainError("no route applies")


def _root_jet(steps, args, tol, method, check, root):
    """`_ladder` at a Jet w = args[-1] of order K from the root shifts of
    the parameters p = args[:-1]: the k-th Taylor coefficient at w0 is
    f_{p_k}(w0) times root.factor(p_j) over j < k, over k!, where p_k is p
    shifted k times by the root and f_{p_k}(w0) comes from the scalar
    ladder; `taylor_compose` composes the coefficients with w, which may
    itself be a composed Jet such as 4 sqrt(w).  The route is that of the
    value, the estimate the largest of the coefficients', None if one of
    them is None; a zero factor (a polynomial solution) makes every later
    coefficient 0.  A composed Jet with a non-finite coefficient, as a
    large coefficient of w can give, raises DomainError."""
    *params, w = args
    w0 = w.coeffs[0]
    cs = []
    pref = 1.0 + 0.0j
    route = None
    ests = []
    for k in range(len(w.coeffs)):
        if k:
            pref = pref * root.factor(*params) / k
            params = root.shift(*params)
        if pref == 0:
            cs.append(0j)
            continue
        value, got, est = _ladder(steps, (*params, w0), tol, method, check)
        route = route or got
        ests.append(est)
        cs.append(pref * value)
    value = taylor_compose(cs, w)
    if not all(map(cmath.isfinite, value.coeffs)):
        raise DomainError(f"non-finite Taylor coefficient at {w!r}")
    return value, route, None if None in ests else max(ests)


# ---------------------------------------------------------------------------
# Power series
# ---------------------------------------------------------------------------

MAX_SERIES_TERMS = 10000


def pfq_series(num: Sequence[Number], den: Sequence[Number], z: Number):
    """Generalized hypergeometric series sum_k prod(num)_k / prod(den)_k z^k/k!
    at a scalar z.

    Sums use compensated (Kahan) summation.  Raises ConvergenceError if
    MAX_SERIES_TERMS terms pass before three consecutive terms fall below
    1e-17 |sum|.  A Jet reaches it only as scalar values at parameters
    shifted by a root (`_root_jet`).
    """
    num = [_as_complex(p) for p in num]
    den = [_as_complex(q) for q in den]
    for q in den:
        if is_nonpositive_integer(q):
            raise GammaPoleError(f"series denominator parameter {q}")
    total, converged = _pfq_sum(num, den, _as_complex(z), 1e-17,
                                MAX_SERIES_TERMS)
    if not converged:
        raise ConvergenceError("series did not converge", best=total)
    return total


def _pfq_sum(num, den, z: complex, tol: float, max_terms: int):
    """The scalar series of `pfq_series`: (compensated sum, converged).

    The shapes of 2F1, 1F1 and 0F1 run a loop written out for them
    (`_WRITTEN_OUT`), any other shape the generic loop."""
    written = _WRITTEN_OUT.get((len(num), len(den)))
    if written is not None:
        return written(*num, *den, z, tol, max_terms)[:2]
    return _pfq_sum_generic(num, den, z, tol, max_terms)


def _pfq_sum_generic(num, den, z: complex, tol: float, max_terms: int):
    """`_pfq_sum` for parameter lists of any length."""
    term = 1.0 + 0.0j
    total = 1.0 + 0.0j
    comp = 0.0j
    small = 0
    for k in range(max_terms):
        fac = 1.0 + 0.0j
        for p in num:
            fac *= p + k
        for q in den:
            fac /= q + k
        term = term * z * fac / (k + 1)
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        # max(abs(total), 1e-300) without the call, NaN included
        a = abs(total)
        if abs(term) < tol * (1e-300 if a < 1e-300 else a):
            small += 1
            if small >= 3:
                return total, True
        else:
            small = 0
    return total, False


# The loops below are `_pfq_sum_generic` for one shape each, with its
# operations in its order (fac starts at 1.0 + 0.0j), so each sum is
# bitwise the generic one.  The 1F1 and 0F1 loops also return the largest
# |term|, the first term 1 included, for the estimates of the connection
# routes (`_series_rounded`).

def _sum_2f1(a, b, c, z, tol, max_terms):
    term = 1.0 + 0.0j
    total = 1.0 + 0.0j
    comp = 0.0j
    small = 0
    for k in range(max_terms):
        term = term * z * ((1.0 + 0.0j) * (a + k) * (b + k) / (c + k)) \
            / (k + 1)
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        m = abs(total)
        if abs(term) < tol * (1e-300 if m < 1e-300 else m):
            small += 1
            if small >= 3:
                return total, True
        else:
            small = 0
    return total, False


def _sum_1f1(a, c, z, tol, max_terms):
    term = 1.0 + 0.0j
    total = 1.0 + 0.0j
    comp = 0.0j
    small = 0
    big = 1.0
    for k in range(max_terms):
        term = term * z * ((1.0 + 0.0j) * (a + k) / (c + k)) / (k + 1)
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        m = abs(total)
        at = abs(term)
        if at > big:
            big = at
        if at < tol * (1e-300 if m < 1e-300 else m):
            small += 1
            if small >= 3:
                return total, True, big
        else:
            small = 0
    return total, False, big


def _sum_0f1(c, z, tol, max_terms):
    term = 1.0 + 0.0j
    total = 1.0 + 0.0j
    comp = 0.0j
    small = 0
    big = 1.0
    for k in range(max_terms):
        term = term * z * ((1.0 + 0.0j) / (c + k)) / (k + 1)
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        m = abs(total)
        at = abs(term)
        if at > big:
            big = at
        if at < tol * (1e-300 if m < 1e-300 else m):
            small += 1
            if small >= 3:
                return total, True, big
        else:
            small = 0
    return total, False, big


_WRITTEN_OUT = {(2, 1): _sum_2f1, (1, 1): _sum_1f1, (0, 1): _sum_0f1}


def hyp2f1_series(a, b, c, z):
    return pfq_series((a, b), (c,), z)


def hyp1f1_series(a, c, z):
    return pfq_series((a,), (c,), z)


def hyp0f1_series(c, z):
    return pfq_series((), (c,), z)


def eval_2F0_asymptotic(a, b, z, tol: float = 1e-15):
    """Optimally truncated asymptotic sum of 2F0(a,b;-;z).

    Returns (value, error_estimate); the estimate is the magnitude of the
    first omitted term.
    """
    a = _as_complex(a)
    b = _as_complex(b)
    z = _as_complex(z)
    term = 1.0 + 0.0j
    total = term
    prev = 1.0
    best_err = None
    for k in range(400):
        nxt = term * z * ((a + k) * (b + k) / (k + 1))
        mag = abs(nxt)
        if mag < tol * max(abs(total), 1e-300):
            return total + nxt, mag
        if mag > prev and k >= 1:
            # divergence onset: stop before adding the growing term
            return total, mag
        term = nxt
        total = total + term
        prev = mag
        best_err = mag
    return total, best_err if best_err is not None else float("inf")


# ---------------------------------------------------------------------------
# Gauss 2F1: analytic continuation in Lie-algebraic parameters
# ---------------------------------------------------------------------------
#
# Lie parameters (alpha, beta, mu) correspond to the classical
#   a = (1+alpha+beta+mu)/2, b = (1+alpha+beta-mu)/2, c = 1+alpha.

def _lie_abc(al, be, mu):
    al = _as_complex(al)
    be = _as_complex(be)
    mu = _as_complex(mu)
    return ((1 + al + be + mu) / 2, (1 + al + be - mu) / 2, 1 + al)


def _kummer_term(key, row, al, be, mu, w, inner, lead=None):
    """lead * prefactor * inner(*p', z) for the element _KUMMER[key][row]
    of the W(D3) table in `tables`, F_p(w) = prefactor * F_{p'}(z); a lead
    of None is 1."""
    slots, moebius, factors = _KUMMER[key][row]
    al, be, mu = _as_complex(al), _as_complex(be), _as_complex(mu)
    p = (None, al, be, mu, -mu, -be, -al)    # p[k] for a signed slot k
    for _, base, e, ks in factors:
        for k in ks:
            e = e + p[k]
        f = jpow(base(w), e / 2)
        lead = f if lead is None else lead * f
    a, b, c = slots
    value = inner(p[a], p[b], p[c], moebius(w))
    return value if lead is None else lead * value


SERIES_RADIUS = 0.6
INNER_RADIUS = 0.75
_DEGENERACY_EPS = 1e-6
_TAYLOR_ORDER = 48      # Taylor coefficients per step of the 2F1 continuation


def _near_integer(z: complex) -> bool:
    z = _as_complex(z)
    return abs(z.imag) < _DEGENERACY_EPS \
        and abs(z.real - round(z.real)) < _DEGENERACY_EPS


def _series_2f1(al, be, mu, w):
    return hyp2f1_series(*_lie_abc(al, be, mu), w)


def _series_or_pfaff(al, be, mu, z):
    """2F1 via direct series or Pfaff, requiring one of the two arguments
    to have modulus <= INNER_RADIUS."""
    r_direct = abs(z)
    r_pfaff = abs(z / (z - 1)) if z != 1 else float("inf")
    if r_direct <= min(r_pfaff, INNER_RADIUS):
        return _series_2f1(al, be, mu, z)
    if r_pfaff <= INNER_RADIUS:
        # Pfaff: F_{al,be,mu}(z) = (1-z)^{(-1-al-be-mu)/2} F_{al,mu,be}(z/(z-1))
        return _kummer_term("at0_1", 3, al, be, mu, z, _series_2f1)
    raise DomainError(f"inner 2F1 argument {z} out of range")


def _eval_2f1_inf_route(al, be, mu, w):
    """Continuation via the basis at infinity (valid off [0, +inf))."""
    if _near_integer(mu):
        raise DegeneracyError("mu is (close to) an integer")
    # the first row of the connection identity, on the bold basis at
    # infinity, gives bold-F_{al,be,mu}(w)
    a0, a1 = _connection_row_2f1(_as_complex(al), _as_complex(be),
                                 _as_complex(mu))
    f1 = _kummer_term("atinf_1", 0, al, be, mu, w, _series_or_pfaff) \
        * rgamma(1 + mu)
    f2 = _kummer_term("atinf_2", 0, al, be, mu, w, _series_or_pfaff) \
        * rgamma(1 - mu)
    return (a0 * f1 + a1 * f2) * gamma(1 + al)


def _eval_2f1_one_route(al, be, mu, w):
    """Continuation via the basis at 1 (classical Gauss connection)."""
    al, be, mu = _as_complex(al), _as_complex(be), _as_complex(mu)
    if _near_integer(be):
        raise DegeneracyError("beta is (close to) an integer")
    a, b, c = _lie_abc(al, be, mu)
    gc = gamma(c)
    c1 = gc * gamma(-be) * rgamma((1 + al - be - mu) / 2) \
        * rgamma((1 + al - be + mu) / 2)
    c2 = gc * gamma(be) * rgamma(a) * rgamma(b)
    return _kummer_term("at1_1", 0, al, be, mu, w, _series_or_pfaff, c1) \
        + _kummer_term("at1_2", 0, al, be, mu, w, _series_or_pfaff, c2)


def _taylor_coeffs_2f1(a, b, c, z0, f0, f1, order):
    """Taylor coefficients of the Gauss function at z0 from the ODE
    z(1-z) f'' + (c - (a+b+1) z) f' - a b f = 0, seeded by (f0, f1)."""
    s0 = z0 * (1 - z0)
    s1 = 1 - 2 * z0
    t0 = c - (a + b + 1) * z0
    t1 = -(a + b + 1)
    cs = [f0, f1] + [0j] * (order - 1)
    for n in range(order - 1):
        cs[n + 2] = -((s1 * n + t0) * (n + 1) * cs[n + 1]
                      + (-n * (n - 1) + t1 * n - a * b) * cs[n]) \
            / (s0 * (n + 2) * (n + 1))
    return cs


def _sum_lopez_temme(a, b, c, z, tol, max_terms):
    """(2F1(a, b; c; z), converged) at Re z < 1 by the series of López and
    Temme (Adv. Comput. Math. 39 (2013) 349-365),

        (1 - z/2)^-a sum_n (a)_n / n! phi_n zeta^n,  zeta = z / (z - 2),

    which converges wherever |zeta| < 1, that is Re z < 1.  phi_n =
    2F1(-n, b; c; 2) comes from the contiguous relation in the first
    parameter at 2, (c+n-1) phi_n = (n-1) phi_{n-2} - (2b-c) phi_{n-1}
    from phi_0 = 1; the sum is compensated and stops as `_sum_2f1`'s."""
    zeta = z / (z - 2)
    d = 2 * b - c
    u = 1.0 + 0.0j              # (a)_n / n! zeta^n
    prev, phi = 0.0j, 1.0 + 0.0j
    total = 1.0 + 0.0j
    comp = 0.0j
    small = 0
    converged = False
    for n in range(1, max_terms + 1):
        u = u * zeta * (a + (n - 1)) / n
        prev, phi = phi, ((n - 1) * prev - d * phi) / (c + (n - 1))
        term = u * phi
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        m = abs(total)
        if abs(term) < tol * (1e-300 if m < 1e-300 else m):
            small += 1
            if small >= 3:
                converged = True
                break
        else:
            small = 0
    return jpow(1 - z / 2, -a) * total, converged


def _eval_2f1_lopez_temme(al, be, mu, w):
    """Gauss 2F1 at Re w < 1 by `_sum_lopez_temme`."""
    value, converged = _sum_lopez_temme(*_lie_abc(al, be, mu), w, 1e-17,
                                        MAX_SERIES_TERMS)
    if not converged:
        raise ConvergenceError("López-Temme series did not converge",
                               best=value)
    return value


def _cut_distance(z: complex) -> float:
    """Distance from z to the cut [1, +infinity)."""
    if z.real >= 1:
        return abs(z.imag)
    return abs(z - 1)


def _eval_2f1_taylor_fallback(al, be, mu, w):
    """Analytic continuation by Taylor stepping along a straight path.

    Works for any parameters (no gamma factors involved) and any w off
    the cut [1, +infinity), which `_2f1_check` refuses.  Auto reaches it
    only where no other route answers: where the connection at infinity
    or at 1 degenerates at an integer mu or beta, and w lies outside the
    guard of `lopez_temme` (Re w >= 1 or |w/(w-2)| > INNER_RADIUS).
    """
    a, b, c = _lie_abc(al, be, mu)
    z = 0.45 * w / max(abs(w), 1e-300)
    f0 = hyp2f1_series(a, b, c, z)
    f1 = a * b / c * hyp2f1_series(a + 1, b + 1, c + 1, z)  # DLMF 15.5.1
    for _ in range(300):
        dist = _cut_distance(z)
        remaining = w - z
        max_step = 0.38 * dist
        cs = _taylor_coeffs_2f1(a, b, c, z, f0, f1, _TAYLOR_ORDER)
        if abs(remaining) <= max_step:
            h = remaining
            total = 0.0j
            power = 1.0 + 0.0j
            for k in range(_TAYLOR_ORDER + 1):
                total += cs[k] * power
                power *= h
            return total
        h = remaining / abs(remaining) * max_step
        nf0 = 0.0j
        nf1 = 0.0j
        power = 1.0 + 0.0j
        for k in range(_TAYLOR_ORDER + 1):
            nf0 += cs[k] * power
            if k + 1 <= _TAYLOR_ORDER:
                nf1 += (k + 1) * cs[k + 1] * power
            power *= h
        z = z + h
        f0, f1 = nf0, nf1
    raise ConvergenceError("Taylor continuation did not reach the target")


def _far_bounds_2f1(w0):
    """min(1/|w|, 1/|1-w|) and min(|1-w|, |1-w|/|w|), the moduli of the
    inner arguments at infinity and at 1, without a division by zero."""
    return 1 / max(abs(w0), abs(1 - w0)), abs(1 - w0) / max(abs(w0), 1)


def _2f1_checker(point: str, cut: str):
    """A `_ladder` check of the 2F1 arguments that no route takes: the
    pole of Gamma(c), and an argument at 1 or real past 1.  Its errors
    name that point and cut as `point` and `cut`, so that Gegenbauer's S,
    whose 2F1 argument is (1 - w)/2, names its own -1 and (-inf, -1]."""
    def check(al, be, mu, w):
        if is_nonpositive_integer(1 + _as_complex(al)):
            raise GammaPoleError("lower parameter c is a non-positive "
                                 "integer")
        if abs(w - 1) < 1e-13:
            raise DomainError(f"argument at the singular point {point}")
        if w.imag == 0 and w.real > 1:
            raise DomainError(f"argument on the cut {cut}")
    return check


_2f1_check = _2f1_checker("1", "[1, inf)")
_geg_check = _2f1_checker("-1", "(-inf, -1]")


def _one_step(first):
    """The route at 1 where its inner argument is within INNER_RADIUS:
    before inf (`first`) where its bound is the smaller, else after it."""
    def guard(*a):
        b_inf, b_one = _far_bounds_2f1(a[3])
        return b_one <= INNER_RADIUS and (b_one < b_inf) == first
    return _Step("one", lambda *a: (_eval_2f1_one_route(*a[:4]), None), guard)


# a = (al, be, mu, w, tol), w complex; inf where its inner argument is
# within INNER_RADIUS, off [0, inf).  The bounds are computed only in the
# guards that auto reaches, past series and pfaff.
_2F1_STEPS = (
    _Step("series", lambda *a: (_series_2f1(*a[:4]), None),
          lambda *a: abs(a[3]) <= SERIES_RADIUS),
    _Step("pfaff", lambda *a: (_series_or_pfaff(*a[:4]), None),
          lambda *a: abs(a[3] / (a[3] - 1)) <= SERIES_RADIUS),
    _one_step(True),
    _Step("inf", lambda *a: (_eval_2f1_inf_route(*a[:4]), None),
          lambda *a: _far_bounds_2f1(a[3])[0] <= INNER_RADIUS
          and not a[3].imag == 0 <= a[3].real),
    _one_step(False),
    _Step("lopez_temme", lambda *a: (_eval_2f1_lopez_temme(*a[:4]), None),
          lambda *a: a[3].real < 1 and abs(a[3] / (a[3] - 2)) <= INNER_RADIUS),
    _Step("taylor", lambda *a: (_eval_2f1_taylor_fallback(*a[:4]), None)))

# F_{al,be,mu}' = ab/c F_{al+1,be+1,mu}, (a, b, c) -> (a+1, b+1, c+1)
# (DLMF 15.5.1; the row 2f1:trans:01)
_2F1_ROOT = _Root(lambda al, be, mu: (al + 1, be + 1, mu),
                  lambda *p: (lambda a, b, c: a * b / c)(*_lie_abc(*p)))


def _eval_2F1_routed(al, be, mu, w, method="auto", check=_2f1_check):
    """`eval_2F1` with its route and estimate (None) by `_ladder`; a scalar
    w is taken as complex."""
    if type(w) is not Jet:
        w = _as_complex(w)
    return _ladder(_2F1_STEPS, (al, be, mu, w), None, method, check,
                   _2F1_ROOT)


def eval_2F1(al, be, mu, w):
    """Gauss 2F1 in Lie parameters, continued over the cut plane.

    `w` may be complex or a Jet; the cut is [1, +inf) (principal branch).
    """
    return _eval_2F1_routed(al, be, mu, w)[0]


def hyp2f1(a, b, c, z):
    """Gauss function in classical parameters (wrapper over eval_2F1)."""
    return eval_2F1(*classical_to_lie(
        "2f1", [_as_complex(a), _as_complex(b), _as_complex(c)]), z)


# ---------------------------------------------------------------------------
# Confluent / 0F1 evaluators (Lie parameters)
# ---------------------------------------------------------------------------

def _kummer_1f1(th, al, w):
    """F_{th,al}(w) at a scalar w by its series, after the first Kummer
    transformation at Re w < 0, which avoids its cancellation there."""
    a = (1 + al + th) / 2
    c = 1 + al
    if w.real < 0:
        return cmath.exp(w) * hyp1f1_series(c - a, c, -w)
    return hyp1f1_series(a, c, w)


_1F1_STEPS = (_Step("series", lambda th, al, w, tol:
                    (_kummer_1f1(th, al, w), None)),)
_1F1_SERIES_STEPS = (_Step("series", lambda th, al, w, tol: (
    hyp1f1_series((1 + al + th) / 2, 1 + al, w), None)),)
_0F1_STEPS = (_Step("series", lambda al, w, tol:
                    (hyp0f1_series(1 + al, w), None)),)

# F_{th,al}' = a/c F_{th+1,al+1}, (a, c) -> (a+1, c+1) (DLMF 13.3.15; the
# row 1f1:trans:01)
_1F1_ROOT = _Root(lambda th, al: (th + 1, al + 1),
                  lambda th, al: (1 + al + th) / (2 * (1 + al)))
# 0F1(1+al; w)' = 0F1(2+al; w) / (1+al) (DLMF 16.3.1; the row 0f1:trans:01)
_0F1_ROOT = _Root(lambda al: (al + 1,), lambda al: 1 / (1 + al))


def _eval_1F1_routed(th, al, w, method="auto"):
    """`eval_1F1` with its route and estimate (None) by `_ladder`."""
    return _ladder(_1F1_STEPS, (_as_complex(th), _as_complex(al), w), None,
                   method, root=_1F1_ROOT)


def eval_1F1(th, al, w):
    """Kummer's function F_{theta,alpha}(w) = 1F1((1+al+th)/2; 1+al; w)."""
    return _eval_1F1_routed(th, al, w)[0]


def _1f1_series(th, al, w):
    """F_{th,al}(w) by its series alone, without the Kummer transformation
    of `eval_1F1`: the expressions of the 1F1 solutions at 0."""
    return _ladder(_1F1_SERIES_STEPS, (th, al, w), None, root=_1F1_ROOT)[0]


def _eval_0F1_routed(al, w, method="auto"):
    """`eval_0F1` with its route and estimate (None) by `_ladder`."""
    return _ladder(_0F1_STEPS, (_as_complex(al), w), None, method,
                   root=_0F1_ROOT)


def eval_0F1(al, w):
    """0F1(1+al; w)."""
    return _eval_0F1_routed(al, w)[0]


def tilde_F_2f0(th, al, z, tol: float = 1e-15):
    """Asymptotic 2F0-type function tilde-F_{theta,alpha}(z).

    Returns (value, error_estimate); accurate only for small |z|.
    """
    th = _as_complex(th)
    al = _as_complex(al)
    a = (1 + al + th) / 2
    b = (1 - al + th) / 2
    return eval_2F0_asymptotic(a, b, z, tol)


# ---------------------------------------------------------------------------
# Gegenbauer (Lie parameters)
# ---------------------------------------------------------------------------

def _geg_2f1_args(al, la, w):
    """S_{al,la}(w) = F_{al,al,2la}((1-w)/2): the arguments of that F."""
    al = _as_complex(al)
    la = _as_complex(la)
    return al, al, 2 * la, (1 - w) / 2


def eval_geg_S(al, la, w):
    """Gegenbauer solution S_{al,la}(w) = F_{al,al,2la}((1-w)/2); the cut
    is (-inf, -1]."""
    return _eval_2F1_routed(*_geg_2f1_args(al, la, w), check=_geg_check)[0]


# ---------------------------------------------------------------------------
# Solutions at infinity: asymptotic sum, connection series, continued
# fraction or quadrature (Tricomi, -infinity, Hermite, 0F1-tilde)
# ---------------------------------------------------------------------------

ASYMPTOTIC_CROSSOVER = 4.0
_EPS = 2.0 ** -52


def _asymptotic(power, sum_err, tol):
    """power times a 2F0 sum with the sum's estimate, if that meets tol
    relative to the sum; else a ConvergenceError that carries both."""
    total, err = sum_err
    value = power * total
    if err <= tol * max(abs(total), 1e-300):
        return value, err
    raise ConvergenceError("asymptotic sum misses tol", best=value,
                           estimate=err)


def _quadrature(name):
    """The step that integrates by `quadrature.<name>(*args, tol)`, with
    tol as its estimate; the module is imported only where it runs."""
    def fn(*args):
        from . import quadrature
        return getattr(quadrature, name)(*args), args[-1]
    return _Step("quadrature", fn)


def _off_the_cut(*args):
    """A `_ladder` check: DomainError where w lies on the cut (-inf, 0]."""
    w = args[-1]
    if w.imag == 0 and w.real <= 0:
        raise DomainError("solution evaluated on its cut")


def _sinpi_rounding(z) -> float:
    """A bound, in units of _EPS, on the relative rounding of sinpi(z):
    the rounding of pi z, magnified by |pi z cot(pi z)|."""
    x = math.pi * z
    return 1 + abs(x * cmath.cos(x) / cmath.sin(x))


def _gamma_rounding(z: complex, dz: float) -> float:
    """A bound, in units of _EPS, on the relative rounding of gamma(z) and
    rgamma(z) at a z that carries a rounding of dz units itself: 8 + 4|z|
    for the Lanczos sum, power and exponential (no more than 0.8 of it
    against mpmath over |z| <= 100), the sine of the reflection, and dz
    times a bound on |digamma(z)|, log(1 + |z|) + 4 at Re z >= 1/2 and
    by the reflection digamma(z) = digamma(1-z) - pi cot(pi z) elsewhere.

    At a real z both come from math.gamma, with no reflection, so the
    bound is loose there: against mpmath over |x| <= 100 (20000 seeded
    points, and x = -k +- 1e-11, 1e-6 and 1e-3 for k = 0..100) the worst
    relative error was 3.5 units (7.7e-16, at x = 3.1), and no error
    reached more than 0.2 of the bound."""
    if z.real < 0.5:
        x = math.pi * z
        cot = cmath.cos(x) / cmath.sin(x)
        return 1 + abs(x * cot) + abs(math.pi * cot) * dz \
            + _gamma_rounding(1 - z, dz)
    return 8 + 4 * abs(z) + (math.log1p(abs(z)) + 4) * dz


def _pow_rounding(x, e) -> float:
    """A bound, in units of _EPS, on the relative rounding of jpow(x, e) =
    exp(e log x) for a scalar x != 0."""
    return 2 + 2 * abs(e * cmath.log(x))


def _series_rounded(num, den, z: complex):
    """The scalar 1F1 or 0F1 series of `pfq_series`, as (sum, a bound on
    its rounding in units of _EPS).

    The bound is 2 (1 + k)^1.5 times the largest |term|, k = |z| for 1F1
    and sqrt|z| for 0F1: the rounding of a term grows by a few units with
    each step of its recurrence, and the about sqrt(k) largest terms sit
    near step k.  Against mpmath, from the rounded parameters of the
    confluent routes, it held by a factor of 1.5 or more for |z| <= 20
    (1F1) and |z| <= 400 (0F1)."""
    for q in den:
        if is_nonpositive_integer(q):
            raise GammaPoleError(f"series denominator parameter {q}")
    total, converged, big = _WRITTEN_OUT[len(num), 1](
        *num, *den, z, 1e-17, MAX_SERIES_TERMS)
    if not converged:
        raise ConvergenceError("series did not converge", best=total)
    k = abs(z) if num else math.sqrt(abs(z))
    return total, 2 * (1 + k) ** 1.5 * big


def _bold_1f1_rounded(th, al, w):
    """bold_F_1f1(th, al, w) at a scalar w, bitwise, and a bound on its
    rounding in units of _EPS: that of its series (times |e^w| after the
    Kummer transformation of `eval_1F1`), scaled by |rgamma(1+al)|, plus
    the rounding of rgamma and e^w."""
    th = _as_complex(th)
    al = _as_complex(al)
    a = (1 + al + th) / 2
    c = 1 + al
    r = rgamma(c)
    if w.real < 0:
        e = cmath.exp(w)
        total, bound = _series_rounded((c - a,), (c,), _as_complex(-w))
        value = r * (e * total)
        return value, abs(r * e) * bound \
            + abs(value) * (_gamma_rounding(c, abs(c)) + 1 + abs(w))
    total, bound = _series_rounded((a,), (c,), _as_complex(w))
    value = r * total
    return value, abs(r) * bound + abs(value) * _gamma_rounding(c, abs(c))


def _bold_0f1_rounded(al, w):
    """bold_F_0f1(al, w) at a scalar w, bitwise, and a bound on its
    rounding in units of _EPS, as `_bold_1f1_rounded`."""
    c = 1 + _as_complex(al)
    r = rgamma(c)
    total, bound = _series_rounded((), (c,), _as_complex(w))
    value = r * total
    return value, abs(r) * bound + abs(value) * _gamma_rounding(c, abs(c))


def _estimate(value, err: float, al) -> float:
    """The relative estimate of a connection sum: its rounding `err`, in
    units of _EPS, over |value|, plus the rounding of the sinpi(al) that
    divides every term."""
    if not value:
        return math.inf
    return _EPS * (err / abs(value) + _sinpi_rounding(al))


def _tricomi_series(th, al, w, power=None):
    """`eval_tricomi` by its connection formula (DLMF 13.2.42),
    pi bold-F_{th,al}(w) / (sin(-pi al) Gamma((1+th-al)/2))
    + pi w^-al bold-F_{th,-al}(w) / (sin(pi al) Gamma((1+th+al)/2)),
    at a scalar w, with its relative estimate.  Both bold-F are entire,
    so a `power` given for w^-al, exact and on any branch, gives the
    solution on that branch (Hermite's S_lambda at w = v^2, power v).

    The estimate sums, in units of _EPS, each sum's rounding bound times
    the |coefficient| it is multiplied by, and each term times the
    rounding of its gamma, power and the arithmetic, over |value|
    (Johansson, arXiv:1606.06977), plus the rounding of sinpi(al)."""
    th = _as_complex(th)
    al = _as_complex(al)
    s = sinpi(al)
    if abs(s) < 1e-300:
        raise DegeneracyError("sin(pi alpha) = 0")
    f1, e1 = _bold_1f1_rounded(th, al, w)
    f2, e2 = _bold_1f1_rounded(th, -al, w)
    x1 = (1 + th - al) / 2
    x2 = (1 + th + al) / 2
    g1 = gamma(x1)
    g2 = gamma(x2)
    if power is None:
        p = jpow(w, -al)
        dp = _pow_rounding(w, -al)
    else:
        p, dp = power, 0
    t1 = math.pi * f1 / (sinpi(-al) * g1)
    t2 = math.pi * p * f2 / (s * g2)
    value = t1 + t2
    # x1 and x2 carry the rounding of two additions
    d = abs(1 + th) / 2
    err = abs(math.pi / (s * g1)) * e1 + abs(math.pi * p / (s * g2)) * e2 \
        + abs(t1) * (_gamma_rounding(x1, d + abs(x1)) + 4) \
        + abs(t2) * (_gamma_rounding(x2, d + abs(x2)) + dp + 5)
    return value, _estimate(value, err, al)


def _0f1_tilde_series(al, w):
    """`eval_0f1_tilde` by its connection formula (DLMF 10.27.4),
    c+ bold-F_al(w) + c- w^-al bold-F_{-al}(w) with (c+, c-) =
    connection_coeffs_0f1(al), at a scalar w, with its relative estimate
    (as `_tricomi_series`)."""
    cp, cm = connection_coeffs_0f1(al)
    f1, e1 = _bold_0f1_rounded(al, w)
    f2, e2 = _bold_0f1_rounded(-al, w)
    p = jpow(w, -al)
    t1 = cp * f1
    t2 = cm * p * f2
    value = t1 + t2
    err = abs(cp) * e1 + abs(cm * p) * e2 + abs(t1) * 3 \
        + abs(t2) * (_pow_rounding(w, -al) + 4)
    return value, _estimate(value, err, al)


_CF_MAX_TERMS = 200
# Re sqrt z below which e^{-2 Re sqrt(z) sqrt(n)}, the decay of the steps
# for large n, cannot reach _EPS within _CF_MAX_TERMS steps (about 1.27)
_CF_MIN_RE_SQRT = -math.log(_EPS) / (2 * math.sqrt(_CF_MAX_TERMS))


def _tricomi_cf(th, al, z):
    """`eval_tricomi` at a scalar z by Steed's continued fraction, with its
    relative estimate.

    U(a+n, b, z), a = (1+th+al)/2 and b = 1+al, is the minimal solution of
    the recurrence DLMF 13.3.7, and sum_n (a)_n (a-b+1)_n / n! U(a+n, b, z)
    = z^-a (Temme, Numer. Math. 41, 1983).  The loop is CF2 of Numerical
    Recipes' `bessik` (its K_nu is the case th = 0, al = 2 nu at z = 2x)
    with the coefficient -(a+i-1)(a-b+i) at step i: it sums s, that series
    over U(a, b, z), so U = z^-a / s.  It stops once a step moves s by
    less than _EPS |s|, and raises ConvergenceError where s stops being
    finite first (the coefficients grow like n!, so at small |z| or near
    the cut, about 170 steps in) or after _CF_MAX_TERMS steps.

    For large n the steps fall like e^{-2 x sqrt n}, x = Re sqrt z, but
    before that they can dip below _EPS |s| and rise again: it raises at
    once where x < _CF_MIN_RE_SQRT.  The estimate, in units of _EPS, is
    (8 + steps) times the sum of the |step| over |s|, plus |step| sqrt(i)
    / x, a bound on the tail after a stop at step i, and the rounding of
    z^-a."""
    z = _as_complex(z)
    x = cmath.sqrt(z).real
    if x < _CF_MIN_RE_SQRT:
        raise ConvergenceError(
            f"continued fraction cannot converge in {_CF_MAX_TERMS} steps "
            f"at Re sqrt z = {x:.3g}")
    al = _as_complex(al)
    a = (1 + al + th) / 2
    b = 1 + al
    shift = 2 * a - b
    bi = z + shift + 2
    d = 1 / bi
    dh = d
    q1 = 0j
    q2 = 1 + 0j
    q = c = a * (a - b + 1)
    ai = -q
    step = q * dh
    s = 1 + step
    moved = 1 + abs(step)
    for i in range(2, _CF_MAX_TERMS + 1):
        ai -= 2 * (i - 1) + shift
        c = -ai * c / i
        q1, q2 = q2, (q1 - bi * q2) / ai
        q += c * q2
        bi += 2
        d = 1 / (bi + ai * d)
        dh = (bi * d - 1) * dh
        step = q * dh
        s += step
        m = abs(s)
        t = abs(step)
        moved += t
        if not m < math.inf:
            raise ConvergenceError(
                f"continued fraction overflowed after {i} steps")
        if t < _EPS * m:
            return jpow(z, -a) / s, _EPS * (
                (8 + i) * moved / m + math.sqrt(i) / x
                + _pow_rounding(z, -a))
    raise ConvergenceError(
        f"continued fraction did not converge in {_CF_MAX_TERMS} steps")


def _0f1_tilde_cf(al, w):
    """`eval_0f1_tilde` at a scalar w off the cut by `_tricomi_cf` under
    link:0f1-1f1, 2^{1+2 al} e^{-2 sqrt w} U_{0,2 al}(4 sqrt w) (DLMF
    13.6.10), with its relative estimate: that of the U, plus the rounding
    of the power, of the exponential at a rounded argument and of the two
    products."""
    x = -2 * cmath.sqrt(w)
    u, est = _tricomi_cf(0, 2 * al, -2 * x)
    e = 1 + 2 * al
    return jpow(2, e) * cmath.exp(x) * u, est + _EPS * (
        _pow_rounding(2, e) + abs(x) + 3)


_TRICOMI_STEPS = (
    _Step("asymptotic", lambda th, al, w, tol: _asymptotic(
        jpow(w, (-1 - th - al) / 2), tilde_F_2f0(th, al, -1 / w, tol), tol),
        lambda th, al, w, tol: abs(w) >= ASYMPTOTIC_CROSSOVER),
    _Step("series", lambda th, al, w, tol: _tricomi_series(th, al, w)),
    _Step("cf", lambda th, al, w, tol: _tricomi_cf(th, al, w)),
    _quadrature("tricomi_solution"))

# U_{th,al}' = -a U_{th+1,al+1}, a = (1+th+al)/2 (DLMF 13.3.22)
_TRICOMI_ROOT = _Root(lambda th, al: (th + 1, al + 1),
                      lambda th, al: -(1 + th + al) / 2)


def _tricomi(th, al, w, tol):
    """`eval_tricomi` with its route and relative estimate."""
    return _ladder(_TRICOMI_STEPS, (_as_complex(th), _as_complex(al), w), tol,
                   check=_off_the_cut, root=_TRICOMI_ROOT)


def eval_tricomi(th, al, w, tol: float = 1e-11):
    """Solution ~ w^{-a} at +infinity of the confluent equation:
    w^{(-1-th-al)/2} tilde-F_{th,al}(-1/w).   Cut: (-inf, 0]."""
    return _tricomi(th, al, w, tol)[0]


def _conf_minus_inf(th, al, w, tol):
    """`eval_conf_minus_inf` with its route and relative estimate: the
    image e^w U_{-th,al}(-w) of `_tricomi` under the sign symmetry
    1f1:sym:03 (w = -v, target (-th, al), multiplier e^-v), whose cut
    [0, inf) is the image of the Tricomi solution's."""
    value, route, est = _tricomi(-th, al, -w, tol)
    return jexp(w) * value, route, est


def eval_conf_minus_inf(th, al, w, tol: float = 1e-11):
    """Solution ~ (-w)^{b-1} e^w at -infinity of the confluent equation:
    e^w (-w)^{(-1+th-al)/2} tilde-F_{-th,al}(1/w)
    = e^w eval_tricomi(-th, al, -w).  Cut: [0, +inf)."""
    return _conf_minus_inf(th, al, w, tol)[0]


def _hermite_series_fits(la, z) -> bool:
    """Whether the largest term of the 1F1 series of `_tricomi_series` at
    (la, -1/2, z) fits a double.  Its log is about |z| + (s Re la/2 - 1/4)
    log|z|, s the sign of Re z (e^x x^{p-c} for 1F1(p; c; x), on the
    Kummer-transformed side at Re z < 0); past 715 the series would run to
    MAX_SERIES_TERMS and could not certify.  Over 14 values of la in
    [-9.5, 20] and 72 arguments at |w| = 24 to 31, that log was at most
    713.4 at a certified point (la = 20, w = -25.5)."""
    x = abs(z)
    s = 0.5 if z.real >= 0 else -0.5
    return x <= 1.0 or x + (s * la.real - 0.25) * math.log(x) <= 715.0


def _hermite_asymptotic(la, w, tol):
    if w.imag == 0 and w.real <= 0:
        raise DomainError("asymptotic sum of S_lambda evaluated on "
                          "(-inf, 0]")
    return _asymptotic(jpow(w, -la - 0.5), eval_2F0_asymptotic(
        la / 2 + 0.75, la / 2 + 0.25, -1 / (w * w), tol), tol)


def _hermite_cf(first):
    """The continued fraction at z = w^2, where Re sqrt z = |Re w|: before
    the series (`first`) at Re w >= 2 and |w| < 4, after the asymptotic
    sum at every other Re w >= _CF_MIN_RE_SQRT (below it cf cannot
    converge)."""
    def guard(la, w, tol):
        early = w.real >= 2.0 and abs(w) < ASYMPTOTIC_CROSSOVER
        return early if first else not early and w.real >= _CF_MIN_RE_SQRT

    return _Step("cf", lambda la, w, tol: _tricomi_cf(la, -0.5, w * w), guard)


# cf takes about (18.4 / Re w)^2 steps, at most about 85 where it is tried
# first; the series cannot certify at |w| >= 4 and |arg w| <= pi/4
_HERMITE_STEPS = (
    _hermite_cf(True),
    _Step("series", lambda la, w, tol: _tricomi_series(la, -0.5, w * w, w),
          lambda la, w, tol: not (abs(w) >= ASYMPTOTIC_CROSSOVER
                                  and w.real >= abs(w.imag))
          and _hermite_series_fits(la, w * w)),
    _Step("asymptotic", _hermite_asymptotic,
          lambda la, w, tol: abs(w) >= ASYMPTOTIC_CROSSOVER),
    _hermite_cf(False),
    _quadrature("hermite_S_solution"))

# S_la' = -(la + 1/2) S_{la+1}, from the Laplace integral
_HERMITE_ROOT = _Root(lambda la: (la + 1,), lambda la: -(la + 0.5))


def _hermite_S(la, w, tol, method="auto"):
    """S_lambda(w) with its route and relative estimate; `method` forces a
    step.  S_lambda is entire, and under link:herm-1f1 it is the Tricomi
    solution at (lambda, -1/2) and z = w^2: the connection series holds on
    the whole plane, with w for (w^2)^{1/2}, and the continued fraction at
    Re w > 0.  The asymptotic sum holds off (-inf, 0] only, forced or not.
    The quadrature returns tol as its estimate (ROADMAP item 1(a))."""
    return _ladder(_HERMITE_STEPS, (_as_complex(la), w), tol, method,
                   root=_HERMITE_ROOT)


def eval_hermite_S(la, w, tol: float = 1e-11):
    """Hermite solution S_lambda(w) ~ w^{-la-1/2} at +infinity; entire
    (on (-inf, 0] by the connection series or quadrature)."""
    return _hermite_S(la, w, tol)[0]


def _0f1_tilde_asymptotic(al, w, tol):
    sq = cmath.sqrt(w)
    return _asymptotic(cmath.exp(-2 * sq) * jpow(w, -al / 2 - 0.25),
                       tilde_F_2f0(0, 2 * al, -1 / (4 * sq), tol), tol)


# At Re w > 0 the series' two terms cancel by about e^{4 Re sqrt w} (its
# estimate was e^{3.2} to e^{4.7} times _EPS e^{4 Re sqrt w} over the
# perfbench box): it cannot certify where _EPS e^{4 Re sqrt w + 3} misses
# tol (capped below overflow).  cf needs |w| >= 0.17 to 0.66.
_0F1_TILDE_STEPS = (
    _Step("asymptotic", _0f1_tilde_asymptotic,
          lambda al, w, tol: 4 * abs(cmath.sqrt(w)) >= 25.0),
    _Step("series", lambda al, w, tol: _0f1_tilde_series(al, w),
          lambda al, w, tol: w.real <= 0 or _EPS * math.exp(
              min(4 * cmath.sqrt(w).real + 3, 700.0)) <= tol),
    _Step("cf", lambda al, w, tol: _0f1_tilde_cf(al, w)),
    _quadrature("bessel_tilde_solution"))

# T_al' = -T_{al+1} (DLMF 10.29.4)
_0F1_TILDE_ROOT = _Root(lambda al: (al + 1,), lambda al: -1.0)


def _0f1_tilde(al, w, tol):
    """`eval_0f1_tilde` with its route and relative estimate."""
    return _ladder(_0F1_TILDE_STEPS, (_as_complex(al), w), tol,
                   check=_off_the_cut, root=_0F1_TILDE_ROOT)


def eval_0f1_tilde(al, w, tol: float = 1e-11):
    """0F1-class solution ~ e^{-2 sqrt(w)} w^{-al/2-1/4} at +infinity.
    Cut: (-inf, 0]."""
    return _0f1_tilde(al, w, tol)[0]


# ---------------------------------------------------------------------------
# Evaluators by family: the routes that can be run, and the normalizations
# ---------------------------------------------------------------------------

# family -> (fn(Lie parameters, w, tol, method) -> (value, route, relative
# estimate or None), its methods: auto and the steps that can be forced,
# the nominal relative error of a route without an estimate)
EVALUATORS = {
    "2f1": (lambda p, w, tol, m: _eval_2F1_routed(*p, w, m),
            ("auto", "series"), 1e-13),
    "gegenbauer": (lambda p, w, tol, m:
                   _eval_2F1_routed(*_geg_2f1_args(*p, w), m, _geg_check),
                   ("auto", "series"), 1e-13),
    "1f1": (lambda p, w, tol, m: _eval_1F1_routed(*p, w, m),
            ("auto", "series"), 1e-14),
    "hermite": (lambda p, w, tol, m: _hermite_S(*p, w, tol, m),
                ("auto", "asymptotic", "quadrature"), None),
    "0f1": (lambda p, w, tol, m: _eval_0F1_routed(*p, w, m),
            ("auto", "series"), 1e-15),
}

# (family, normalization) -> (prefactor(*Lie parameters, as complex numbers),
# the normalization it multiplies): "bold" divides the family's function by
# Gamma(1+alpha); "I", and for Gegenbauer "II" and "0", are the paper's
# superscript normalizations, and 2F1's "I" multiplies bold.
NORMALIZED = {
    ("2f1", "bold"): (lambda al, be, mu: rgamma(1 + al), "plain"),
    ("2f1", "I"): (lambda al, be, mu: gamma((1 + al + be - mu) / 2)
                   * gamma((1 + al - be + mu) / 2), "bold"),
    ("gegenbauer", "bold"): (lambda al, la: rgamma(1 + al), "plain"),
    ("gegenbauer", "I"): (lambda al, la: 2 ** complex(-0.5 - al - la)
                          * gamma(0.5 + al + la) * gamma(0.5 - la)
                          * rgamma(1 + al), "plain"),
    ("gegenbauer", "II"): (lambda al, la: gamma(0.5 + al - la)
                           * gamma(0.5 + al + la) * rgamma(1 + 2 * al),
                           "plain"),
    ("gegenbauer", "0"): (lambda al, la: math.sqrt(math.pi)
                          * gamma(0.5 + al) * rgamma(1 + al), "plain"),
    ("1f1", "bold"): (lambda th, al: rgamma(1 + al), "plain"),
    ("1f1", "I"): (lambda th, al: gamma((1 + al + th) / 2)
                   * gamma((1 + al - th) / 2) * rgamma(1 + al), "plain"),
    ("hermite", "I"): (lambda la: 2 ** (-la - 0.5) * gamma(la + 0.5),
                       "plain"),
    ("0f1", "bold"): (lambda al: rgamma(1 + al), "plain"),
}


def evaluate(family, params, w, norm="plain", tol=1e-11, method="auto"):
    """(value, route, relative estimate or None) of the family's function
    at (params, w) by `EVALUATORS[family]`, in normalization `norm`: the
    value times the prefactors of `NORMALIZED`, which are computed first;
    one that overflows raises DomainError.  The estimate is relative, so a
    prefactor leaves it as it is."""
    factors = []
    while norm != "plain":
        prefactor, norm = NORMALIZED[family, norm]
        try:
            factors.append(prefactor(*map(_as_complex, params)))
        except ArithmeticError as exc:
            raise DomainError(f"{family} prefactor: {exc}") from exc
    value, route, est = EVALUATORS[family][0](params, w, tol, method)
    for factor in reversed(factors):
        value = factor * value
    return value, route, est


def _in_norm(family, norm):
    """The family's function in normalization `norm`, fn(*params, w)."""
    return lambda *args: evaluate(family, args[:-1], args[-1], norm)[0]


bold_F_2f1 = _in_norm("2f1", "bold")
FI_2f1 = _in_norm("2f1", "I")
bold_S_geg = _in_norm("gegenbauer", "bold")
SI_geg = _in_norm("gegenbauer", "I")
SII_geg = _in_norm("gegenbauer", "II")
S0_geg = _in_norm("gegenbauer", "0")
bold_F_1f1 = _in_norm("1f1", "bold")
FI_1f1 = _in_norm("1f1", "I")
SI_hermite = _in_norm("hermite", "I")
bold_F_0f1 = _in_norm("0f1", "bold")


# ---------------------------------------------------------------------------
# Connection matrices
# ---------------------------------------------------------------------------

def _connection_row_2f1(al, be, mu):
    """Row 0 of connection_matrix_2f1(al, be, mu), complex parameters; row
    1 is the row at (-al, -be, mu)."""
    s = sinpi(mu)
    if abs(s) < 1e-300:
        raise DegeneracyError("sin(pi mu) = 0")
    f = math.pi / s
    return [
        -f * rgamma((1 + al + be - mu) / 2) * rgamma((1 + al - be - mu) / 2),
        f * rgamma((1 + al + be + mu) / 2) * rgamma((1 + al - be + mu) / 2)]


def connection_matrix_2f1(al, be, mu):
    """2x2 matrix A_{al,be,mu} relating the basis at 0 to the basis at inf."""
    al = _as_complex(al)
    be = _as_complex(be)
    mu = _as_complex(mu)
    return [_connection_row_2f1(al, be, mu), _connection_row_2f1(-al, -be, mu)]


def connection_det_2f1(al, be, mu):
    """Closed form of det A_{al,be,mu}."""
    return -sinpi(al) / sinpi(mu)


def connection_matrix_1f1(th, al):
    th = _as_complex(th)
    al = _as_complex(al)
    s = sinpi(al)
    if abs(s) < 1e-300:
        raise DegeneracyError("sin(pi alpha) = 0")
    f = math.pi / s
    e = cmath.exp(-0.5j * math.pi * al)
    return [
        [-f * rgamma((1 + th - al) / 2), f * e * rgamma((1 + th + al) / 2)],
        [-f * rgamma((1 - th - al) / 2), f / e * rgamma((1 - th + al) / 2)],
    ]


def connection_matrix_1f1_inverse(th, al):
    """The printed closed form of A_{th,al}^{-1}."""
    th = _as_complex(th)
    al = _as_complex(al)
    f = 1j * cmath.exp(0.5j * math.pi * th)
    e = cmath.exp(0.5j * math.pi * al)
    return [
        [f * e * rgamma((1 - th + al) / 2), -f / e * rgamma((1 + th + al) / 2)],
        [f * rgamma((1 - th - al) / 2), -f * rgamma((1 + th - al) / 2)],
    ]


def connection_det_1f1(th, al):
    th = _as_complex(th)
    al = _as_complex(al)
    return -1j * math.pi * cmath.exp(-0.5j * math.pi * th) / sinpi(al)


def connection_coeffs_0f1(al):
    """(c_plus, c_minus) with tilde-F_al = c_plus bold-F_al
    + c_minus w^{-al} bold-F_{-al}."""
    al = _as_complex(al)
    s = sinpi(al)
    if abs(s) < 1e-300:
        raise DegeneracyError("sin(pi alpha) = 0")
    rp = math.sqrt(math.pi)
    return (rp / sinpi(-al), rp / s)


# ---------------------------------------------------------------------------
# Standard solutions and their alternative expressions
# ---------------------------------------------------------------------------

class SolutionDescriptor(NamedTuple):
    """One standard solution with its alternative expressions.

    `expressions` is a tuple of callables w -> value;
    expression 0 is the primary evaluation route.
    """
    family: str
    key: str
    behavior: str
    params: tuple
    expressions: tuple
    domain: str

    def __repr__(self):
        return (f"SolutionDescriptor({self.family}:{self.key}, "
                f"{self.behavior!r}, {len(self.expressions)} expressions)")


# --- Kummer's table for 2F1: the W(D3) elements of _KUMMER -----------------

_BEHAVIOR_2F1 = {
    "at0_1": "~1 at 0",
    "at0_2": "~w^-alpha at 0",
    "at1_1": "~1 at 1",
    "at1_2": "~(1-w)^-beta at 1",
    "atinf_1": "~w^-a at infinity",
    "atinf_2": "~w^-b at infinity",
}


def eval_kummer_expression(sol_key: str, row: int, al, be, mu, w):
    """Evaluate row `row` (0-3) of Kummer's table for the given solution:
    the W(D3) element _W_D3[sol_key][row] applied to eval_2F1."""
    return _kummer_term(sol_key, row, al, be, mu, w, eval_2F1)


def _one_minus_square(w):
    """1 - w^2, the argument of the Gegenbauer expressions that are even in
    w: they equal the solution at 1 only at Re w > 0, and Re w = 0 puts
    1 - w^2 on the cut [1, inf)."""
    if jvalue(w).real <= 0:
        raise DomainError("the expression in 1 - w^2 needs Re w > 0")
    return 1 - w * w


def standard_solutions(family: str, params) -> tuple:
    """Standard solutions of a family with their alternative expressions.

    `params` is the tuple of Lie-parameter values.
    """
    params = tuple(_as_complex(p) for p in params)
    out = []
    if family == "2f1":
        al, be, mu = params
        for key in _W_D3:
            exprs = tuple(
                (lambda k, r: lambda w:
                 eval_kummer_expression(k, r, al, be, mu, w))(key, r)
                for r in range(4))
            out.append(SolutionDescriptor(
                "2f1", key, _BEHAVIOR_2F1[key], params, exprs,
                "off the cuts (-inf,0] and [1,inf) as applicable"))
        return tuple(out)
    if family == "gegenbauer":
        al, la = params
        domain = ("w off (-inf,-1] and [1,inf); the expression in 1-w^2 "
                  "needs Re w > 0")
        out.append(SolutionDescriptor(
            "gegenbauer", "at1_1", "~1 at 1", params,
            (lambda w: eval_2F1(al, al, 2 * la, (1 - w) / 2),
             lambda w:
             eval_2F1(al, -0.5, la, _one_minus_square(w))),
            domain))
        out.append(SolutionDescriptor(
            "gegenbauer", "at1_2", "~2^-alpha (1-w)^-alpha at 1", params,
            (lambda w: jpow(2, -al) * jpow(1 - w, -al)
             * eval_2F1(-al, al, -2 * la, (1 - w) / 2),
             lambda w: jpow(_one_minus_square(w), -al)
             * eval_2F1(-al, -0.5, -la, 1 - w * w)),
            domain))
        out.append(SolutionDescriptor(
            "gegenbauer", "atinf_1", "~w^-a at infinity", params,
            (lambda w: jpow(1 + w, -0.5 - al + la)
             * eval_2F1(-2 * la, al, -al, 2 / (1 + w)),
             lambda w: jpow(w, -0.5 - al + la)
             * eval_2F1(-la, al, 0.5, 1 / (w * w))),
            "w off (-inf, 1]"))
        out.append(SolutionDescriptor(
            "gegenbauer", "atinf_2", "~w^-b at infinity", params,
            (lambda w: jpow(1 + w, -0.5 - al - la)
             * eval_2F1(2 * la, al, al, 2 / (1 + w)),
             lambda w: jpow(w, -0.5 - al - la)
             * eval_2F1(la, al, 0.5, 1 / (w * w))),
            "w off (-inf, 1]"))
        return tuple(out)
    if family == "1f1":
        th, al = params
        out.append(SolutionDescriptor(
            "1f1", "at0_1", "~1 at 0", params,
            (lambda w: _1f1_series(th, al, w),
             lambda w: jexp(w) * _1f1_series(-th, al, -w)),
            "entire"))
        out.append(SolutionDescriptor(
            "1f1", "at0_2", "~w^-alpha at 0", params,
            (lambda w: jpow(w, -al) * _1f1_series(th, -al, w),
             lambda w: jpow(w, -al) * jexp(w)
             * _1f1_series(-th, -al, -w)),
            "w off (-inf, 0]"))
        out.append(SolutionDescriptor(
            "1f1", "atinf", "~w^-a at +infinity", params,
            (lambda w: eval_tricomi(th, al, w),
             lambda w: eval_tricomi(th, -al, w)
             * jpow(w, -al)),
            "w off (-inf, 0]"))
        out.append(SolutionDescriptor(
            "1f1", "atminf", "~(-w)^{b-1} e^w at -infinity", params,
            (lambda w: eval_conf_minus_inf(th, al, w),
             lambda w: eval_conf_minus_inf(th, -al, w)
             * jpow(-w, -al)),
            "w off [0, inf)"))
        return tuple(out)
    if family == "hermite":
        (la,) = params
        out.append(SolutionDescriptor(
            "hermite", "atinf", "~w^{-lambda-1/2} at +infinity", params,
            (lambda w: eval_hermite_S(la, w),),
            "w off (-inf, 0]"))
        out.append(SolutionDescriptor(
            "hermite", "atiinf", "~(-iw)^{lambda-1/2} e^{w^2} at +i inf",
            params,
            (lambda w: jexp(w * w)
             * eval_hermite_S(-la, w * complex(0, -1)),),
            "w off i*[0, inf)"))
        return tuple(out)
    if family == "0f1":
        (al,) = params
        out.append(SolutionDescriptor(
            "0f1", "at0_1", "~1 at 0", params,
            (lambda w: eval_0F1(al, w),
             lambda w: jexp(-2 * jsqrt(w))
             * eval_1F1(0, 2 * al, 4 * jsqrt(w)),
             lambda w: jexp(2 * jsqrt(w))
             * eval_1F1(0, 2 * al, -4 * jsqrt(w))),
            "entire (composed expressions need w off (-inf,0])"))
        out.append(SolutionDescriptor(
            "0f1", "at0_2", "~w^-alpha at 0", params,
            (lambda w: jpow(w, -al) * eval_0F1(-al, w),
             lambda w: jpow(w, -al) * jexp(-2 * jsqrt(w))
             * eval_1F1(0, -2 * al, 4 * jsqrt(w))),
            "w off (-inf, 0]"))
        out.append(SolutionDescriptor(
            "0f1", "atinf", "~e^{-2 sqrt w} w^{-alpha/2-1/4} at +infinity",
            params,
            (lambda w: eval_0f1_tilde(al, w),),
            "w off (-inf, 0]"))
        return tuple(out)
    raise ValueError(f"no standard solutions catalogued for {family!r}")


def eval_solution(d: SolutionDescriptor, w, expr: int = 0):
    """Evaluate a standard solution (or one of its alternative expressions)."""
    return d.expressions[expr](w)
