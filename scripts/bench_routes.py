"""Compare the routed evaluators of two revisions in one process, per route.

    python3 scripts/bench_routes.py [--parent HEAD~] [--change REV]
        [--seeds 1 2 701 702 703] [--suite NAME] [--out FILE]

The parent's ``src/`` is unpacked with ``git archive`` into a scratch
directory; the change is the working tree's ``src/``, or REV's unpacked the
same way (``--change HEAD~`` against ``--parent HEAD~`` is an A/A run).
Both packages are loaded in this process under their own names, so that a
per-route timing does not carry the noise of two processes.  Each side is
loaded COPIES times: in A/A runs with one copy per side, two copies of
the same source read a route up to 2% apart, and the interval below takes
that spread in.

Every ``perfbench/inputs.eval_points(seed)`` point whose evaluator is a
routed function (``_eval_2F1_routed``, also under ``eval_geg_S``;
``_tricomi``, ``_conf_minus_inf``, ``_hermite_S`` and ``_0f1_tilde`` at
tol 1e-11, the public evaluators' default) runs on both sides.  Its
outcome, the (value, route, estimate) triple or the raised exception's
type and message, must be bitwise the same: a parent's 2F1 pair (value,
route) counts as (value, route, None).  Then each point runs on every
pair of copies, twice on each side in the order ABBA or BAAB, and its
ratio is the geometric mean over the pairs of the change's time over the
parent's.

At every point of a family's evaluator, ``eval_1F1`` and ``eval_0F1``
included, each named normalized function of that family (``bold_F_2f1``,
``FI_2f1``, ...) must also give a bitwise equal value or the same
exception on both sides; these calls are not timed.

The report groups the points by the function and the route the change
took, e.g. ``tricomi/series``: the point count, the number of outcomes
that are not bitwise equal, the largest relative difference of the two
sides' values over those (infinite where one side raises), the routes the
parent took where they differ from the change's (e.g. ``taylor`` under
``2f1/lopez_temme``) with their counts, each side's median time, the
median ratio and a 95% bootstrap interval of that median, which resamples
the copy pairs and the points.  The normalized functions report their
unequal count and largest relative difference the same way.  Standard
library only; it reads ``perfbench/`` and changes nothing there.

With ``--suite NAME`` each point is instead one run of that verify suite,
``verify.run_suite(NAME, family, seed)``, for every family that yields
checks and every seed, timed on the same copies in the same ABBA order and
grouped as ``NAME/family``.  The two sides must give the same check ids and
statuses in the same order (else the outcome counts as unequal); the report
gives the largest move of a check's ``error`` field, |change - parent|
(infinite where one side has none), and each side's median time in ms.

The ``--out`` report names each side by its commit hash (``git
rev-parse``), the working tree as ``working tree on <hash of HEAD>``.
Exits 1 if any outcome differs.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import json
import math
import os
import random
import statistics
import struct
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOL = 1e-11
BOOTSTRAP = 2000
COPIES = 4


def unpack_src(rev: str, dest: str) -> str:
    """``git archive`` of REV's ``src/`` into ``dest``; returns the src
    directory."""
    archive = subprocess.run(["git", "-C", ROOT, "archive", rev, "src"],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)
    return os.path.join(dest, "src")


def revisions(parent: str, change) -> dict:
    """The commit hashes of the two sides for the report: ``git rev-parse``
    of each revision, and ``working tree on <hash of HEAD>`` where the
    change is the working tree (``change`` None)."""
    def resolve(rev):
        return subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--verify", rev + "^{commit}"],
            check=True, capture_output=True, text=True).stdout.strip()
    return {"parent": resolve(parent),
            "change": resolve(change) if change is not None
            else f"working tree on {resolve('HEAD')}"}


def load_package(alias: str, src: str, module: str = "numerics"):
    """The ``hyperclass`` package under ``src`` imported as ``alias``, with
    its ``module`` (numerics by default): its relative imports resolve
    inside it."""
    pkg = os.path.join(src, "hyperclass")
    spec = importlib.util.spec_from_file_location(
        alias, os.path.join(pkg, "__init__.py"),
        submodule_search_locations=[pkg])
    mod = importlib.util.module_from_spec(spec)
    sys.modules[alias] = mod
    spec.loader.exec_module(mod)
    return importlib.import_module(f"{alias}.{module}")


def load_inputs():
    path = os.path.join(ROOT, "perfbench", "inputs.py")
    spec = importlib.util.spec_from_file_location("_bench_inputs", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


# public evaluator -> (name, routed call on a numerics module)
ROUTED = {
    "eval_2F1": ("2f1", lambda N, p, w: N._eval_2F1_routed(*p, w)),
    "eval_geg_S": ("geg", lambda N, p, w:
                   N._eval_2F1_routed(*N._geg_2f1_args(*p, w))),
    "eval_tricomi": ("tricomi", lambda N, p, w: N._tricomi(*p, w, TOL)),
    "eval_conf_minus_inf": ("conf_minus_inf",
                            lambda N, p, w: N._conf_minus_inf(*p, w, TOL)),
    "eval_hermite_S": ("hermite", lambda N, p, w: N._hermite_S(*p, w, TOL)),
    "eval_0f1_tilde": ("0f1_tilde", lambda N, p, w: N._0f1_tilde(*p, w, TOL)),
}


# public evaluator -> the named normalized functions of its family
NORMALIZED = {
    "eval_2F1": ("bold_F_2f1", "FI_2f1"),
    "eval_geg_S": ("bold_S_geg", "SI_geg"),
    "eval_1F1": ("bold_F_1f1", "FI_1f1"),
    "eval_hermite_S": ("SI_hermite",),
    "eval_0F1": ("bold_F_0f1",),
}


def _bits(x):
    """A key that is equal only for bitwise equal values: floats and
    complex numbers by their IEEE bytes, so -0.0 and NaN count."""
    if isinstance(x, complex):
        return struct.pack("<dd", x.real, x.imag)
    if isinstance(x, float):
        return struct.pack("<d", x)
    return x


def outcome(call, N, params, w):
    """(route, bitwise key, value) of one routed call; a raised
    NumericsError or ArithmeticError is the route "error", its type and
    message, and the value None."""
    try:
        got = tuple(call(N, params, w))
    except (N.NumericsError, ArithmeticError) as exc:
        return "error", (type(exc).__name__, str(exc)), None
    if len(got) == 2:
        got += (None,)
    return got[1], tuple(map(_bits, got)), got[0]


def value_outcome(N, name, params, w):
    """(bitwise key, value) of ``N.<name>(*params, w)``, or the type and
    message of the NumericsError or ArithmeticError it raises and None."""
    try:
        value = getattr(N, name)(*params, w)
    except (N.NumericsError, ArithmeticError) as exc:
        return (type(exc).__name__, str(exc)), None
    return _bits(value), value


def relative_difference(want, got) -> float:
    """|got - want| / |want| of two values, 0 where they are equal, and
    infinite where either is None (a raised exception)."""
    if want is None or got is None:
        return math.inf
    if got == want:
        return 0.0
    return abs(got - want) / abs(want) if want else math.inf


def _unequal(report: dict, want, got) -> None:
    """Count an unequal outcome in ``report`` and keep its largest
    relative difference."""
    report["not_bitwise_equal"] += 1
    report["max_rel_diff"] = max(report["max_rel_diff"] or 0.0,
                                 relative_difference(want, got))


def _time(call, N, args) -> float:
    t0 = time.perf_counter()
    try:
        call(N, *args)
    except (N.NumericsError, ArithmeticError):
        pass
    return time.perf_counter() - t0


def points(inputs, seeds):
    """(group name, call, params, w) of every routed eval point."""
    out = []
    for seed in seeds:
        for pt in inputs.eval_points(seed):
            if pt["fn"] in ROUTED:
                name, call = ROUTED[pt["fn"]]
                out.append((name, call, [inputs.cval(p) for p in pt["params"]],
                            inputs.cval(pt["w"])))
    return out


def normalized_points(inputs, seeds):
    """(function name, params, w) at every eval point of a family's
    evaluator, once for each named normalized function of that family."""
    return [(name, [inputs.cval(p) for p in pt["params"]],
             inputs.cval(pt["w"]))
            for seed in seeds for pt in inputs.eval_points(seed)
            for name in NORMALIZED.get(pt["fn"], ())]


def compare_normalized(parent, change, pts) -> dict:
    """Per named function: its points and the outcomes that are not
    bitwise equal between the two numerics modules."""
    report = {}
    for name, params, w in pts:
        r = report.setdefault(name, {"points": 0, "not_bitwise_equal": 0,
                                     "max_rel_diff": None})
        r["points"] += 1
        want, want_value = value_outcome(parent, name, params, w)
        got, got_value = value_outcome(change, name, params, w)
        if got != want:
            _unequal(r, want_value, got_value)
    return dict(sorted(report.items()))


def bootstrap(logs, rng, n=BOOTSTRAP):
    """The 2.5% and 97.5% quantiles of the median ratio when the copy
    pairs and then the points are resampled with replacement ``n`` times;
    ``logs[i][k]`` is the log ratio of point i on copy pair k."""
    copies = len(logs[0])
    means = {}
    meds = []
    for _ in range(n):
        pick = tuple(sorted(rng.choices(range(copies), k=copies)))
        if pick not in means:
            means[pick] = [sum(row[k] for k in pick) / copies for row in logs]
        meds.append(statistics.median(
            rng.choices(means[pick], k=len(logs))))
    meds.sort()
    return math.exp(meds[int(0.025 * n)]), math.exp(meds[int(0.975 * n) - 1])


def timed(parents, changes, groups: dict, outcomes: dict,
          seed: int = 0) -> dict:
    """The report of each group of ``groups``, name -> [(call, args)], in
    name order: its point count, its ``outcomes`` entry, each side's
    median time and the median ratio with its bootstrap interval.  Each
    point runs on every pair of copies, twice on each side in the order
    ABBA or BAAB.  The cyclic garbage collector runs before each group and
    is off while the group is timed."""
    rng = random.Random(seed)
    report = {}
    for key in sorted(groups):
        logs, spent = [], ([], [])
        gc.collect()
        gc.disable()
        try:
            for i, (call, args) in enumerate(groups[key]):
                row, total = [], [0.0, 0.0]
                for k, pair in enumerate(zip(parents, changes)):
                    t = [0.0, 0.0]
                    for side in ((0, 1, 1, 0), (1, 0, 0, 1))[(i + k) % 2]:
                        t[side] += _time(call, pair[side], args)
                    row.append(math.log(t[1] / t[0]))
                    total = [total[0] + t[0], total[1] + t[1]]
                logs.append(row)
                for side in (0, 1):
                    spent[side].append(total[side] / (2 * len(row)))
        finally:
            gc.enable()
        lo, hi = bootstrap(logs, rng)
        report[key] = {
            "points": len(logs),
            **outcomes[key],
            "parent_us": 1e6 * statistics.median(spent[0]),
            "change_us": 1e6 * statistics.median(spent[1]),
            "median_ratio": math.exp(statistics.median(
                sum(row) / len(row) for row in logs)),
            "interval": [lo, hi]}
    return report


def compare(parents, changes, pts, seed: int = 0) -> dict:
    """The per-route report over ``pts`` of two sides, each a list of
    numerics modules loaded from one source."""
    groups = {}
    outcomes = {}
    for name, call, params, w in pts:
        was, want, want_value = outcome(call, parents[0], params, w)
        route, got, got_value = outcome(call, changes[0], params, w)
        key = f"{name}/{route}"
        groups.setdefault(key, []).append((call, (params, w)))
        r = outcomes.setdefault(key, {"not_bitwise_equal": 0,
                                      "max_rel_diff": None,
                                      "parent_routes": {}})
        if got != want:
            _unequal(r, want_value, got_value)
        if was != route:
            r["parent_routes"][was] = r["parent_routes"].get(was, 0) + 1
    return timed(parents, changes, groups, outcomes, seed)


def run_suite(V, suite, family, seed):
    return V.run_suite(suite, family, seed=seed)


def suite_points(V, suite, seeds):
    """(group name, suite, family, seed) at each seed for every family
    whose run of ``suite`` in the verify module ``V`` yields checks."""
    return [(f"{suite}/{family}", suite, family, seed)
            for family in V.ALL_FAMILIES
            if V.run_suite(suite, family, seed=seeds[0]).checks
            for seed in seeds]


def error_move(want, got) -> float:
    """|got - want| of two checks' error fields, 0 where both are None and
    infinite where only one is."""
    if want is None or got is None:
        return 0.0 if want is got else math.inf
    return abs(got - want)


def compare_suites(parents, changes, pts, seed: int = 0) -> dict:
    """The per-(suite, family) report over ``pts`` of two sides, each a
    list of verify modules loaded from one source: an outcome is unequal
    where the check ids or statuses differ."""
    groups = {}
    outcomes = {}
    for name, suite, family, s in pts:
        want, got = (run_suite(side[0], suite, family, s).checks
                     for side in (parents, changes))
        r = outcomes.setdefault(name, {"unequal": 0, "max_error_move": 0.0})
        if [(c.id, c.status) for c in want] \
                != [(c.id, c.status) for c in got]:
            r["unequal"] += 1
        else:
            r["max_error_move"] = max(
                r["max_error_move"],
                *(error_move(a.error, b.error) for a, b in zip(want, got)))
        groups.setdefault(name, []).append((run_suite, (suite, family, s)))
    return timed(parents, changes, groups, outcomes, seed)


def _max_rel(r: dict) -> str:
    return "-" if r["max_rel_diff"] is None else f"{r['max_rel_diff']:.1e}"


def table(report: dict) -> str:
    lines = [f"{'route':26s} {'points':>6s} {'unequal':>7s} {'max rel':>7s} "
             f"{'parent':>7s} {'change':>7s} {'ratio':>6s}  95% interval"
             f"      parent routes"]
    for key, r in report.items():
        lo, hi = r["interval"]
        was = " ".join(f"{route}:{n}" for route, n in
                       sorted(r["parent_routes"].items()))
        lines.append(f"{key:26s} {r['points']:6d} "
                     f"{r['not_bitwise_equal']:7d} {_max_rel(r):>7s} "
                     f"{r['parent_us']:5.1f}us {r['change_us']:5.1f}us "
                     f"{r['median_ratio']:6.3f}  [{lo:.3f}, {hi:.3f}]"
                     f"  {was}".rstrip())
    return "\n".join(lines)


def suite_table(report: dict) -> str:
    lines = [f"{'suite/family':26s} {'points':>6s} {'unequal':>7s} "
             f"{'max error move':>14s} {'parent':>8s} {'change':>8s} "
             f"{'ratio':>6s}  95% interval"]
    for key, r in report.items():
        lo, hi = r["interval"]
        lines.append(f"{key:26s} {r['points']:6d} {r['unequal']:7d} "
                     f"{r['max_error_move']:14.1e} "
                     f"{r['parent_us'] / 1e3:6.2f}ms "
                     f"{r['change_us'] / 1e3:6.2f}ms "
                     f"{r['median_ratio']:6.3f}  [{lo:.3f}, {hi:.3f}]")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", default="HEAD~")
    ap.add_argument("--change", default=None,
                    help="a revision; the working tree's src/ if omitted")
    ap.add_argument("--seeds", type=int, nargs="+",
                    default=[1, 2, 701, 702, 703])
    ap.add_argument("--suite", default=None,
                    help="time this verify suite instead of the routes")
    ap.add_argument("--out", default=None, help="JSON file for the report")
    args = ap.parse_args(argv)
    revs = revisions(args.parent, args.change)
    with tempfile.TemporaryDirectory() as scratch:
        sources = []
        for side, rev in (("parent", args.parent), ("change", args.change)):
            os.mkdir(os.path.join(scratch, side))
            sources.append(os.path.join(ROOT, "src") if rev is None
                           else unpack_src(rev, os.path.join(scratch, side)))
        # the two sides' copies load in turn, so neither sits in one block
        module = "numerics" if args.suite is None else "verify"
        sides = ([], [])
        for k in range(COPIES):
            for side, name in enumerate(("parent", "change")):
                sides[side].append(load_package(f"hyperclass_{name}_{k}",
                                                sources[side], module))
        if args.suite is not None:
            report = compare_suites(*sides, suite_points(
                sides[0][0], args.suite, args.seeds))
        else:
            inputs = load_inputs()
            report = compare(*sides, points(inputs, args.seeds))
            normalized = compare_normalized(
                sides[0][0], sides[1][0],
                normalized_points(inputs, args.seeds))
    if args.suite is not None:
        print(suite_table(report))
        if args.out:
            with open(args.out, "w") as fh:
                json.dump({**revs, "seeds": args.seeds, "copies": COPIES,
                           "suites": report}, fh, indent=1)
                fh.write("\n")
        return 1 if any(r["unequal"] for r in report.values()) else 0
    print(table(report))
    print(f"\n{'normalized':26s} {'points':>6s} {'unequal':>7s} "
          f"{'max rel':>7s}")
    for name, r in normalized.items():
        print(f"{name:26s} {r['points']:6d} {r['not_bitwise_equal']:7d} "
              f"{_max_rel(r):>7s}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({**revs, "seeds": args.seeds, "copies": COPIES,
                       "routes": report, "normalized": normalized},
                      fh, indent=1)
            fh.write("\n")
    return 1 if any(r["not_bitwise_equal"] for r in
                    [*report.values(), *normalized.values()]) else 0


if __name__ == "__main__":
    sys.exit(main())
