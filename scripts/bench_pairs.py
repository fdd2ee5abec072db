"""Run perfbench from two source checkouts in alternating pairs.

    python3 scripts/bench_pairs.py PARENT CHANGE --first-seed 3601 \\
        --out BENCH_8.json [--workload cli eval verify] [--routes FILE]

PARENT and CHANGE are directories that each hold a full checkout (``src``
and ``perfbench``).  For each workload W (by default every workload in
BENCHMARK.json), pair i of ten runs ``perfbench/run.py --workload W --seed
FIRST+i --seconds S --trace 0`` once from each checkout, one run at a time,
with S the ``run_seconds`` of BENCHMARK.json; the parent goes first in even
pairs and the change first in odd ones, so a drift of the host's speed
falls on both sides alike.  Each side runs its own copy of perfbench, which
must therefore be the same code on both.  The verify workload also takes
its operations from the library: ``verify.SUITES`` x ``verify.ALL_FAMILIES``
and the checks of ``verify._mutation_candidates()``.  So the script hashes
each side's ``perfbench/``, ``BENCHMARK.json`` and those two tuples with the
ordered mutation labels, read from the side's ``src`` in a child process
(the workload version), and exits with status 2, before any run, if the two
differ.

The result file holds, per workload and side, every run of each metric
that BENCHMARK.json bounds with its median and quartiles, the operations
attempted and failed, and for each metric the number of pairs in which the
change read better.

The script takes no traced runs: on a 2-core host their per-layer
metrics could not resolve a change (``BENCH_20.json``).
``scripts/bench_routes.py`` times each route, verify suite and cli
command A/B in one process instead.

With ``--routes FILE``, the report that ``scripts/bench_routes.py --out
FILE`` wrote, per route, with ``--suite`` per verify suite or with
``--cli`` per command of the cli mix, goes under ``routes`` in the result
file as it is.  It is read before any run, and the script exits with
status 2 if it is not such a report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys

RUN_TIMEOUT_S = 1800
PAIRS = 10


# the verify workload's operations, as the library of a checkout defines them
_VERIFY_OPERATIONS = (
    "import json; from hyperclass import verify; "
    "print(json.dumps([verify.SUITES, verify.ALL_FAMILIES, "
    "[label for label, _ in verify._mutation_candidates()]]))")


def _digest(base: str, paths, extra: bytes = b"") -> str:
    """sha256 over each relative path and the bytes of its file, in the
    order given, then ``extra``."""
    h = hashlib.sha256()
    for rel in paths:
        h.update(rel.encode() + b"\0")
        with open(os.path.join(base, rel), "rb") as fh:
            h.update(fh.read())
    h.update(extra)
    return h.hexdigest()


def src_digest(root: str) -> str:
    """sha256 over the relative paths and bytes of every .py file under
    src/, in sorted order."""
    src = os.path.join(root, "src")
    return _digest(src, sorted(
        os.path.relpath(os.path.join(d, f), src)
        for d, _, files in os.walk(src) for f in files if f.endswith(".py")))


def verify_operations(root: str) -> bytes:
    """JSON of [SUITES, ALL_FAMILIES, mutation labels in order] from the
    ``hyperclass.verify`` of checkout ``root``, read by a child process
    with PYTHONPATH=src."""
    proc = subprocess.run([sys.executable, "-c", _VERIFY_OPERATIONS],
                          cwd=root, env=dict(os.environ, PYTHONPATH="src"),
                          capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"{root}: cannot read the verify operations\n"
                         f"{proc.stderr[-2000:]}")
    return proc.stdout.encode()


def workload_digest(root: str) -> str:
    """sha256 over BENCHMARK.json and every file under perfbench/ (not its
    out/ and __pycache__/ folders), by path relative to the checkout, then
    the verify operations."""
    paths = ["BENCHMARK.json"]
    for d, dirs, files in os.walk(os.path.join(root, "perfbench")):
        dirs[:] = [x for x in dirs if x not in ("out", "__pycache__")]
        paths += (os.path.relpath(os.path.join(d, f), root) for f in files)
    return _digest(root, sorted(paths),
                   b"verify operations\0" + verify_operations(root))


# the keys of every scripts/bench_routes.py report, and those of its three
# shapes: per route, per verify suite (--suite) and per command (--cli)
_ROUTES_KEYS = ("parent", "change", "seeds", "copies")
_ROUTES_SHAPES = (("routes", "normalized"), ("suites",), ("cli",))


def routes_report(path: str):
    """The bench_routes.py report in the JSON file ``path``, or None if the
    file cannot be read or lacks one of its keys."""
    try:
        with open(path) as fh:
            report = json.load(fh)
    except (OSError, ValueError):
        return None
    if not isinstance(report, dict) or any(k not in report
                                           for k in _ROUTES_KEYS):
        return None
    if not any(all(k in report for k in shape) for shape in _ROUTES_SHAPES):
        return None
    return report


def git_commit(root: str):
    proc = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_once(root: str, workload: str, seed: int, seconds: float) -> dict:
    """The JSON result line of one untraced perfbench run from checkout
    ``root``: its end-to-end metrics."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"{root}: {' '.join(cmd)} exited "
                         f"{proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def side_record(results: list, names: list) -> dict:
    return {
        "metrics": {n: summary([r["metrics"][n]["value"] for r in results])
                    for n in names},
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "correct": all(r["correct"] for r in results),
    }


def better_pairs(parent: list, change: list, bounds: dict) -> dict:
    """Per metric, the pairs in which the change read better (ties count
    for neither side)."""
    out = {}
    for name, spec in bounds.items():
        sign = 1 if spec["better"] == "higher" else -1
        out[name] = sum(
            1 for p, c in zip(parent, change)
            if sign * (c["metrics"][name]["value"]
                       - p["metrics"][name]["value"]) > 0)
    return out


def alternating(i: int) -> tuple:
    """The order of the two sides in pair ``i``: the parent first in even
    pairs."""
    return ("parent", "change") if i % 2 == 0 else ("change", "parent")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--first-seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--workload", nargs="+",
                    help="workloads to run (default: every workload in "
                         "BENCHMARK.json)")
    ap.add_argument("--routes", metavar="FILE",
                    help="a scripts/bench_routes.py --out report to store "
                         "under routes")
    args = ap.parse_args(argv)

    workload = {side: workload_digest(root)
                for side, root in (("parent", args.parent),
                                   ("change", args.change))}
    if workload["parent"] != workload["change"]:
        print(f"perfbench/, BENCHMARK.json or the verify operations "
              f"differ between {args.parent} and {args.change}: {workload}",
              file=sys.stderr)
        return 2
    routes = None
    if args.routes is not None:
        routes = routes_report(args.routes)
        if routes is None:
            print(f"{args.routes} is not a scripts/bench_routes.py report",
                  file=sys.stderr)
            return 2
    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + PAIRS))
    record = {
        "parent_commit": git_commit(args.parent),
        "parent_src_sha256": src_digest(args.parent),
        "change": {"src_sha256": src_digest(args.change),
                   "note": "sha256 over the relative paths and bytes of "
                           "src/**/*.py, sorted by path"},
        "workload_sha256": workload["change"],
        "workload_note": "sha256 over the relative paths and bytes of "
                         "BENCHMARK.json and perfbench/** (not out/ or "
                         "__pycache__/), sorted by path, then the JSON of "
                         "verify.SUITES, verify.ALL_FAMILIES and the "
                         "ordered labels of verify._mutation_candidates(); "
                         "equal on both sides",
        "python": platform.python_version(),
        "command": f"python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {seconds} --trace 0",
        "method": "alternating parent/change pairs, the parent first in "
                  "even pairs, one run at a time, each side from its own "
                  "checkout; quartiles by statistics.quantiles(n=4, "
                  "method='inclusive')",
        "workloads": {},
    }
    for workload in workloads:
        runs = {"parent": [], "change": []}
        for i, seed in enumerate(seeds):
            for side in alternating(i):
                root = args.parent if side == "parent" else args.change
                res = run_once(root, workload, seed, seconds)
                runs[side].append(res)
                line = "  ".join(f"{n}={res['metrics'][n]['value']:.6g}"
                                 for n in bounds)
                print(f"{workload} pair {i + 1}/{PAIRS} seed {seed} {side}: "
                      f"{line} failed={res['failed']}/{res['attempted']}",
                      flush=True)
        record["workloads"][workload] = {
            "seeds": seeds,
            "pairs": PAIRS,
            "parent": side_record(runs["parent"], list(bounds)),
            "change": side_record(runs["change"], list(bounds)),
            "change_better_pairs": better_pairs(runs["parent"],
                                                runs["change"], bounds),
        }
    if routes is not None:
        record["routes"] = routes
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
