"""Verification suites for the identity catalogs.

A suite is a generator ``suite_<name>(families, seed, tol, shared,
**options)`` that yields its checks, and :func:`run_suite` collects them
into a :class:`SuiteReport`.  The checks are either

* ``symbolic`` — an exact operator identity checked in the in-house CAS
  (equality of :class:`~hyperclass.exactalg.DiffOperator` with rational
  coefficients in the parameter symbols), or
* ``numeric`` — an analytic identity checked by evaluating both sides at
  sample points through independent routes (series, asymptotics,
  contour quadrature), with an explicit relative tolerance.

Checks that would hit a genuine degeneracy (for instance a gamma pole at
the chosen parameters) are reported as ``skipped`` with a reason rather
than silently passed.

This module loads neither layer.  Each suite lives in the module of the
layers it checks with, `verify_exact`, `verify_numeric` or `verify_mixed`
(both), which `run_suite` imports on the suite's first run.
"""

from __future__ import annotations

import cmath
import importlib
import math
import random
from typing import NamedTuple, Optional

from .errors import NumericsError
from .tables import FAMILIES

ALL_FAMILIES = FAMILIES

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

# random sample points per standard solution in the residuals suite
RESIDUAL_POINTS = 20

TRANSMUTATION_POINT = {
    "2f1": 0.4 + 0.3j,
    "gegenbauer": 0.4 + 0.3j,
    "1f1": 0.7 + 0.4j,
    "hermite": 0.8 + 0.5j,
    "0f1": 0.6 + 0.4j,
}


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


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------

class CheckResult(NamedTuple):
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


class SuiteReport(NamedTuple):
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


def _symbolic(cid, ref, ok, error=None) -> CheckResult:
    """An exact check: it passes iff ok."""
    return CheckResult(cid, ref, "symbolic", "pass" if ok else "fail",
                       error=error)


def _numeric_check(cid, ref, fn, tol) -> CheckResult:
    """Run fn() -> worst relative error, with degeneracy skipping."""
    try:
        err = fn()
    except NumericsError as exc:
        return CheckResult(cid, ref, "numeric", "skipped",
                           reason=f"{type(exc).__name__}: {exc}")
    status = "pass" if err <= tol else "fail"
    return CheckResult(cid, ref, "numeric", status, error=err)


def _once(shared, key, compute):
    """compute() once per key of the dict `shared`, which `run_suite`
    makes per suite run and drops when it returns; with `shared` None,
    compute() fresh.
    A compute() that raises stores nothing, so it runs and raises again."""
    if shared is None:
        return compute()
    if key not in shared:
        shared[key] = compute()
    return shared[key]


# ---------------------------------------------------------------------------
# Suite registry / runner
# ---------------------------------------------------------------------------

# name -> (module of `suite_<name>`, default tolerance of its numeric
# checks, None for the exact suites), in the order "all" runs them
SUITE_TABLE = {
    "transmutations": ("verify_mixed", 1e-8),
    "factorizations": ("verify_exact", None),
    "symmetries": ("verify_mixed", 1e-9),
    "quadratic": ("verify_exact", None),
    "recurrences": ("verify_mixed", 1e-10),
    "kummer": ("verify_numeric", 1e-10),
    "connection": ("verify_numeric", 1e-9),
    "integrals": ("verify_numeric", 1e-7),
    "residuals": ("verify_mixed", 1e-9),
}

SUITES = tuple(SUITE_TABLE)


def run_suite(suite: str, family: Optional[str] = None, seed: int = 0,
              tol: Optional[float] = None, tol_scale: float = 1.0,
              **options) -> SuiteReport:
    """Run one named suite (or "all") and return its report.

    `tol` overrides the suite's default numeric tolerance outright;
    `tol_scale` multiplies the per-suite defaults (used by the CLI's
    global tolerance scaling).  `options` go to the suite itself; only
    kummer takes any (`params`, `points`).
    """
    if suite == "all":
        checks = []
        for name in SUITES:
            sub = run_suite(name, family, seed, tol, tol_scale, **options)
            checks.extend(sub.checks)
        return SuiteReport("all", family or "all", seed, checks)
    if suite not in SUITE_TABLE:
        raise ValueError(f"unknown suite {suite!r}")
    module, default = SUITE_TABLE[suite]
    if tol is None and default is not None:
        tol = default * tol_scale
    run = getattr(importlib.import_module(f".{module}", __package__),
                  f"suite_{suite}")
    checks = list(run(_families(family), seed, tol, {}, **options))
    return SuiteReport(suite, family or "all", seed, checks)


# ---------------------------------------------------------------------------
# Mutation sensitivity
# ---------------------------------------------------------------------------

def _mutation_candidates():
    from .verify_mixed import mutation_candidates
    return mutation_candidates()


def run_mutation_checks(seed: int = 0, n: int = 20) -> SuiteReport:
    """Corrupt n randomly chosen catalog rows; each check passes iff the
    corruption flips the corresponding verification to FAIL."""
    rng = random.Random(seed)
    cands = _mutation_candidates()
    picks = rng.sample(cands, n)
    checks = [_symbolic(label, "mutated identity must fail", run())
              for label, run in picks]
    return SuiteReport("mutation", "all", seed, checks)
