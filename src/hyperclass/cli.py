"""Command-line surface: evaluate, verify, dump catalogs, emit plot data.

Exit codes: 0 success (all checks passed for `verify`), 1 verification
failures, 2 usage errors, 3 domain/degeneracy/convergence errors.

Number format: complex CLI literals are "re" or "re,im"; output uses 15
significant digits as "re", "re+imi" or "re-imi", all of which re-parse,
inf and nan parts included.  Input may also drop the 1 of a unit
imaginary part ("1-i").
The environment variable HYPERCLASS_TOL scales every default numeric
tolerance (default 1.0; it must be finite and positive).  `verify` takes
parameter flags and --w only for the kummer suite (all three 2F1
parameters); elsewhere they are a usage error rather than being ignored.

`eval` prints the value, `method:`, the route the evaluator took (series,
pfaff, inf, one, lopez_temme, taylor, asymptotic, cf or quadrature), and
`error:`, a nominal multiple of |value| outside the asymptotic, Hermite
series, cf (continued fraction) and quadrature routes.  --norm bold|I
multiplies the value by its prefactor in the parameters and prints the
same route and relative error.  A --method other than auto runs that
route wherever w lies; it is a usage error where the family has no such
route.

Each command imports only the modules it runs.  Every command loads
`tables`, the family table with the parameter names and the map from
classical to Lie parameters, and `errors`, whose typed errors exit 3.
`eval` and `plotdata` load `numerics` and `jet` (and `quadrature` where a
route integrates), and never the exact layer (`families`, `exactalg`),
with classical parameters too; `verify` loads `verify` and the module of
each suite it runs, which loads only the layers that suite checks with:
the exact layer for factorizations and quadratic, the numeric layer for
kummer, connection and integrals, both for the others; `catalog` loads
`families` with `exactalg` (and from `tables` the W(D3) table and the
integral representations' ids), and no numeric code.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

from .errors import NumericsError
from .tables import FAMILIES, PARAMS, classical_to_lie

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# Number parsing / formatting
# ---------------------------------------------------------------------------

_NUMBER = r"(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|inf|nan)"
_IMAG_RE = re.compile(rf"^(?P<re>[+-]?{_NUMBER})(?P<im>[+-]{_NUMBER}?)i$")


def parse_complex(s: str) -> complex:
    """Accepts "a", "a,b" (= a+bi) and the printed "a+bi" / "a-bi" forms,
    where b may be left out for a unit imaginary part ("1-i") and a part
    may be inf or nan."""
    s = s.strip()
    try:
        if "," in s:
            re_s, im_s = s.split(",", 1)
            return complex(float(re_s), float(im_s))
        if s.endswith("i"):
            m = _IMAG_RE.match(s)
            if m:
                im = m.group("im")
                return complex(float(m.group("re")),
                               float(im + "1" if len(im) == 1 else im))
            body = s[:-1]
            if body in ("", "+"):
                return 1j
            if body == "-":
                return -1j
            return complex(0.0, float(body))
        return complex(float(s), 0.0)
    except ValueError as exc:
        raise UsageError(f"cannot parse number {s!r}") from exc


def fmt_complex(z: complex) -> str:
    z = complex(z)
    if z.imag == 0:
        return f"{z.real:.15g}"
    sign = "-" if math.copysign(1.0, z.imag) < 0 else "+"
    return f"{z.real:.15g}{sign}{abs(z.imag):.15g}i"


# ---------------------------------------------------------------------------
# Parameter handling
# ---------------------------------------------------------------------------

# every parameter flag, classical and Lie, each once
_PARAM_NAMES = tuple(dict.fromkeys(
    n for p in PARAMS.values() for n in p.classical + p.lie))


def _add_param_flags(p: argparse.ArgumentParser) -> None:
    for name in _PARAM_NAMES:
        flags = ("--lam", "--lambda") if name == "lam" else (f"--{name}",)
        p.add_argument(*flags, dest=name, type=str, default=None)


def lie_params_from_args(family: str, args) -> tuple:
    """Resolve the Lie parameters from either flag set (complex values)."""
    lie, classical = PARAMS[family].lie, PARAMS[family].classical
    given = {n for n in _PARAM_NAMES if getattr(args, n, None) is not None}
    c_given = given & set(classical)
    l_given = given & set(lie)
    # flags shared by both conventions (e.g. --alpha for 1f1) count once
    if c_given and l_given - c_given and l_given != c_given:
        if not (set(classical) <= given or set(lie) <= given):
            raise UsageError(
                f"mix of classical {sorted(c_given)} and Lie "
                f"{sorted(l_given)} parameters for family {family}")
    if set(lie) <= given:
        return tuple(parse_complex(getattr(args, n)) for n in lie)
    if set(classical) <= given:
        return classical_to_lie(
            family, [parse_complex(getattr(args, n)) for n in classical])
    raise UsageError(
        f"family {family} needs parameters {classical} (classical) "
        f"or {lie} (Lie)")


def _tol_scale() -> float:
    raw = os.environ.get("HYPERCLASS_TOL", "1.0")
    try:
        scale = float(raw)
    except ValueError:
        scale = math.nan
    if not 0 < scale < math.inf:
        raise UsageError("HYPERCLASS_TOL must be a finite number > 0, "
                         f"got {raw!r}")
    return scale


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def cmd_eval(args) -> int:
    from . import numerics as N
    family = args.family
    lie = lie_params_from_args(family, args)
    if args.w is None:
        raise UsageError("eval needs --w")
    w = parse_complex(args.w)
    if args.norm != "plain" and (family, args.norm) not in N.NORMALIZED:
        raise UsageError(
            f"normalization {args.norm!r} is not defined for {family}")
    _, methods, nominal = N.EVALUATORS[family]
    if args.method not in methods:
        raise UsageError(
            f"method {args.method!r} is not available for {family}")
    v, route, est = N.evaluate(family, lie, w, args.norm,
                               1e-11 * _tol_scale(), args.method)
    print(fmt_complex(v))
    print(f"method: {route}")
    print(f"error: {(nominal if est is None else est) * abs(v):.2e}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _report_text(report) -> str:
    lines = []
    for c in report.checks:
        d = c.to_dict()
        err = "" if d["error"] is None else f"  err={d['error']:.2e}"
        lines.append(f"{d['status']:>8}  {d['kind']:8}  {d['id']}{err}")
    lines.append(f"suite={report.suite} family={report.family} "
                 f"seed={report.seed} passed={report.passed} "
                 f"failed={report.failed} skipped={report.skipped}")
    return "\n".join(lines)


def cmd_verify(args) -> int:
    from . import verify as V
    if args.suite not in V.SUITES + ("all",):
        raise UsageError(f"unknown suite {args.suite!r}; the suites are "
                         f"{', '.join(V.SUITES)} and all")
    scale = _tol_scale()
    custom = any(getattr(args, n) is not None for n in _PARAM_NAMES)
    options = {}
    if args.suite == "kummer":
        # Kummer's table is a 2F1 table: custom parameters are 2F1 ones
        if custom:
            options["params"] = lie_params_from_args("2f1", args)
        elif args.w is not None:
            raise UsageError("kummer --w needs the 2f1 parameters as well")
        if custom and args.family not in (None, "all", "2f1"):
            raise UsageError("kummer parameters are 2f1 parameters, "
                             f"not {args.family} ones")
        if args.w is not None:
            options["points"] = (parse_complex(args.w),)
    elif custom or args.w is not None:
        raise UsageError("parameter flags and --w apply only to the "
                         "kummer suite")
    report = V.run_suite(args.suite, family=args.family, seed=args.seed,
                         tol=args.tol, tol_scale=scale, **options)
    if not report.checks and args.suite != "all":
        covered = [f for f in V.ALL_FAMILIES
                   if V.run_suite(args.suite, family=f, seed=args.seed).checks]
        raise UsageError(f"suite {args.suite} has no checks for family "
                         f"{args.family}; it has checks for "
                         f"{', '.join(covered)}")
    if args.format == "json":
        print(json.dumps(report.to_dict()))
    else:
        print(_report_text(report))
    return EXIT_OK if report.failed == 0 else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def _catalog_sections(family: str) -> dict:
    from . import families as fam
    cat = fam.catalog(family)
    sections = {
        "transmutations": cat.transmutations,
        "factorizations": cat.factorizations,
        "symmetries": cat.symmetries,
        "recurrences": cat.recurrences,
        "integral_representations": cat.integral_reps,
    }
    return {
        name: [{"id": r.id, "paper_ref": r.location} for r in rows]
        for name, rows in sections.items()
    }


def cmd_catalog(args) -> int:
    sections = _catalog_sections(args.family)
    if args.format == "json":
        out = {
            "family": args.family,
            "sections": sections,
            "counts": {k: len(v) for k, v in sections.items()},
        }
        print(json.dumps(out))
    else:
        for name, rows in sections.items():
            print(f"[{name}] ({len(rows)})")
            for r in rows:
                print(f"  {r['id']:16s} {r['paper_ref']}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# plotdata
# ---------------------------------------------------------------------------

def cmd_plotdata(args) -> int:
    from . import numerics as N
    family = args.family
    lie = lie_params_from_args(family, args)
    z0 = parse_complex(args.from_)
    z1 = parse_complex(args.to)
    n = args.n
    if n < 1:
        raise UsageError("--n must be at least 1")
    tol = 1e-11 * _tol_scale()
    for k in range(n):
        t = 0 if n == 1 else k / (n - 1)
        w = z0 + (z1 - z0) * t
        v = complex(N.evaluate(family, lie, w, tol=tol)[0])
        print(f"{w.real:.15g},{w.imag:.15g},{v.real:.15g},{v.imag:.15g}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hyperclass",
        description="Five hypergeometric-class equations and their "
                    "identity web: evaluation, verification, catalogs.")
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="evaluate a family's function")
    pe.add_argument("family", choices=FAMILIES)
    _add_param_flags(pe)
    pe.add_argument("--w", type=str, default=None)
    pe.add_argument("--method", default="auto",
                    choices=("auto", "series", "quadrature", "asymptotic"))
    pe.add_argument("--norm", default="plain", choices=("plain", "bold", "I"))
    pe.set_defaults(fn=cmd_eval)

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("suite", help="a verification suite, or all")
    pv.add_argument("--family", default=None,
                    choices=FAMILIES + ("all",))
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--tol", type=float, default=None)
    pv.add_argument("--format", default="json", choices=("json", "text"))
    _add_param_flags(pv)
    pv.add_argument("--w", type=str, default=None)
    pv.set_defaults(fn=cmd_verify)

    pc = sub.add_parser("catalog", help="dump a family's identity catalog")
    pc.add_argument("family", choices=FAMILIES)
    pc.add_argument("--format", default="text", choices=("json", "text"))
    pc.set_defaults(fn=cmd_catalog)

    pp = sub.add_parser("plotdata",
                        help="CSV samples of a function on a segment")
    pp.add_argument("family", choices=FAMILIES)
    _add_param_flags(pp)
    pp.add_argument("--from", dest="from_", type=str, required=True)
    pp.add_argument("--to", type=str, required=True)
    pp.add_argument("--n", type=int, default=50)
    pp.set_defaults(fn=cmd_plotdata)
    return p


# Options whose value is a number literal, which may begin with "-".
_NUMBER_OPTIONS = frozenset(
    [f"--{n}" for n in _PARAM_NAMES] + ["--lambda", "--w", "--from", "--to"])
_NEGATIVE_LITERAL = re.compile(r"-[0-9.i]")


def _attach_negative_values(argv: list) -> list:
    """Join "--w -0.5,1" into "--w=-0.5,1".

    argparse takes a separate value that starts with "-" for an option
    unless it is a plain negative number, so "re,im" and "a-bi" literals
    would be refused.
    """
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _NUMBER_OPTIONS and i + 1 < len(argv) \
                and _NEGATIVE_LITERAL.match(argv[i + 1]):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(_attach_negative_values(argv))
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericsError as exc:
        print(f"numeric error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
