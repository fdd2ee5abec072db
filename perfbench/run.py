"""hyperclass benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {verify,eval,cli} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout (the library is imported from
``src``).  Prints every metric by name and unit, then, as the last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0`` and the per-layer metrics with
``--trace 1``.  Exits non-zero, printing no result, when the library or the
mpmath oracle is missing or a worker fails.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import subprocess
import sys
import time

import inputs
import measure

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("verify", "eval", "cli")
# Whole rounds every run makes, whatever its length; the tail percentile is
# fixed from them (see measure.tail_percentile).
MIN_ROUNDS = {"verify": 3, "eval": 2, "cli": 12}
SETUP_SAMPLES = 7             # fresh set-up processes per run
PROBE_SAMPLES = 3
CHILD_TIMEOUT_S = 170

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("op_ms", "ms"),
    ("op_ms_tail", "ms"),
    ("op_ref", "ref"),
    ("op_ref_tail", "ref"),
    ("ops_per_ref", "1/ref"),
)
# The end-to-end metrics that BENCHMARK.json bounds and the JSON line
# carries.  The raw-time metrics follow the host's drift, and the tails
# depend on a few operations; they are printed but not compared (README).
GATED = ("setup_s", "peak_rss_mb", "op_ref", "ops_per_ref")


def per_layer_names() -> list:
    names = [f"verify.{s}_ms" for s in (
        "transmutations", "factorizations", "symmetries", "quadratic",
        "recurrences", "kummer", "connection", "integrals", "residuals",
        "mutation")]
    names += ["exactalg.op_compose_calls", "exactalg.op_compose_repeats",
              "exactalg.op_compose_ms", "exactalg.op_conjugate_ms",
              "exactalg.op_substitute_ms", "families.catalog_build_ms"]
    names += [f"numerics.{r}_us" for r, _ in inputs.SERIES_REGIONS]
    names += ["numerics.asymptotic_us", "numerics.pfq_series_calls",
              "numerics.pfq_series_ms"]
    names += [f"quadrature.{r}_us" for r, _ in inputs.QUADRATURE_REGIONS]
    names += ["quadrature.rule_calls", "quadrature.rule_ms",
              "quadrature.import_ms", "cli.import_ms", "cli.eval_ms",
              "cli.eval_quadrature_ms", "cli.verify_ms", "cli.catalog_ms"]
    return names


def unit_of(name: str) -> str:
    for suffix, unit in (("_ms", "ms"), ("_us", "us"), ("_calls", "count"),
                         ("_repeats", "count")):
        if name.endswith(suffix):
            return unit
    raise ValueError(name)


class BenchError(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + old if old else "")
    return env


def _worker(job: dict, pass_fds=()):
    """Start worker.py with ``job`` on its stdin."""
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, cwd=ROOT, env=_env(), pass_fds=pass_fds)
    proc.stdin.write(json.dumps(job))
    proc.stdin.close()
    proc.stdin = None
    return proc


def _finish(proc, what: str) -> str:
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{what}: timed out")
    if proc.returncode != 0:
        raise BenchError(f"{what}: exit {proc.returncode}\n{err[-2000:]}")
    return out


def start_worker(job: dict):
    """Start a worker and wait until it has set up.  Returns (process,
    (wall seconds from launch to ready, the worker's CPU seconds by then)).
    The worker says ``ready`` on a pipe of its own, so that stdout carries
    only its result."""
    r, w = os.pipe()
    try:
        t0 = time.perf_counter()
        proc = _worker(dict(job, ready_fd=w), pass_fds=(w,))
        os.close(w)
        w = -1
        ready, _, _ = select.select([r], [], [], CHILD_TIMEOUT_S)
        signal = os.read(r, 64).decode() if ready else ""
        t1 = time.perf_counter()
    finally:
        os.close(r)
        if w >= 0:
            os.close(w)
    if not signal.startswith("ready "):
        _finish(proc, f"{job['workload']} set-up")
        raise BenchError(f"{job['workload']} set-up: not ready")
    return proc, (t1 - t0, float(signal.split()[1]))


def run_worker(job: dict) -> tuple:
    """The result of a worker in ``run`` mode."""
    proc, _setup = start_worker(job)
    out = _finish(proc, f"{job['workload']} run")
    return json.loads(out.strip().splitlines()[-1])


def setup_time(job: dict) -> tuple:
    """(CPU seconds, wall seconds): medians over fresh set-up processes.

    The CPU seconds (user + system, all threads, from exec to ready) are
    the metric: on a shared host the wall time of a short process swings by
    up to 2x within seconds, as other work takes the processor, while its
    CPU time holds within about 10%."""
    cpu = []
    wall = []
    for _ in range(SETUP_SAMPLES):
        proc, (w, c) = start_worker(dict(job, mode="setup"))
        _finish(proc, f"{job['workload']} set-up")
        wall.append(w)
        cpu.append(c)
    return measure.median(cpu), measure.median(wall)


def fresh_probe(what: str) -> float:
    """Median milliseconds of a layer timing taken in fresh processes."""
    vals = []
    for _ in range(PROBE_SAMPLES):
        proc = _worker({"mode": "probe", "what": what})
        vals.append(json.loads(_finish(proc, what))["ms"])
    return measure.median(vals)


def oracle(points: list) -> list:
    """mpmath reference values, computed in a process of its own."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "oracle.py")],
        input=json.dumps(points), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise BenchError(f"oracle: exit {proc.returncode}\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def make_job(workload: str, seed: int, seconds: float, trace: bool,
             min_rounds: int) -> dict:
    job = {"mode": "run", "workload": workload, "seed": seed,
           "seconds": seconds, "trace": trace, "min_rounds": min_rounds}
    if workload == "eval":
        job["points"] = inputs.eval_points(seed)
        job["refs"] = oracle(job["points"])
    elif workload == "cli":
        job["commands"] = inputs.cli_commands(seed)
        pts = [c["point"] for c in job["commands"] if c["point"]]
        refs = iter(oracle(pts))
        job["refs"] = [next(refs) if c["point"] else None
                       for c in job["commands"]]
    return job


def traced_layers(workload: str, seed: int, main: dict) -> dict:
    """Per-layer metrics: the named workload traced, one traced round of
    each other workload for the layers it does not reach, and the
    fresh-process timings."""
    layer = {}
    for w in WORKLOADS:
        if w == workload:
            got = main["layer"]
        else:
            os.makedirs(OUT, exist_ok=True)
            job = make_job(w, seed, 0, True, 1)
            job["trace_file"] = os.path.join(OUT, f"trace-{workload}-"
                                             f"{seed}-probe-{w}.json")
            got = run_worker(job)["layer"]
        for k, v in got.items():
            home = _home(k, workload)
            if home == w:
                layer[k] = v
    layer["families.catalog_build_ms"] = fresh_probe("catalog_build")
    layer["quadrature.import_ms"] = fresh_probe("quadrature_import")
    layer["cli.import_ms"] = fresh_probe("cli_import")
    return layer


def _home(name: str, workload: str) -> str:
    """The workload whose traced run a layer metric is taken from."""
    if name.startswith(("verify.", "exactalg.")):
        return "verify"
    if name.startswith("cli."):
        return "cli"
    if name in ("numerics.pfq_series_calls", "numerics.pfq_series_ms",
                "quadrature.rule_calls", "quadrature.rule_ms"):
        return workload if workload != "cli" else "eval"
    return "eval"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hyperclass", "__init__.py")):
        print(f"no hyperclass sources under {SRC}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    try:
        job = make_job(args.workload, args.seed, args.seconds, trace,
                       MIN_ROUNDS[args.workload])
        setup_s, setup_wall = setup_time(job)
        if trace:
            os.makedirs(OUT, exist_ok=True)
            job["trace_file"] = os.path.join(
                OUT, f"trace-{args.workload}-{args.seed}.json")
        result = run_worker(job)
        layer = traced_layers(args.workload, args.seed,
                              result) if trace else None
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    e2e = dict(result["metrics"], setup_s=setup_s)
    print(f"workload={args.workload} seed={args.seed} "
          f"rounds={result['rounds']} ops/round={result['ops_per_round']} "
          f"attempted={result['attempted']} failed={result['failed']} "
          f"tail=p{result['p_tail']}")
    for msg in result["unexpected"]:
        print(f"UNEXPECTED FAILURE: {msg}")
    for name, unit in END_TO_END:
        mark = "" if name in GATED else "  (not compared)"
        print(f"  {name:12s} {e2e[name]:14.6g} {unit}{mark}")
    print(f"  (set-up wall time {setup_wall:.6g} s; reference loop "
          f"{1e3 * result['ref_s']:.4g} ms)")
    if trace:
        names = per_layer_names()
        missing = [n for n in names if n not in layer]
        if missing:
            print(f"benchmark failed: no figure for {missing}",
                  file=sys.stderr)
            return 1
        for n in names:
            print(f"  {n:32s} {layer[n]:14.6g} {unit_of(n)}")
        if result["absent"]:
            print(f"  absent spans: {result['absent']}")
        metrics = {n: {"value": layer[n], "unit": unit_of(n)} for n in names}
    else:
        metrics = {n: {"value": e2e[n], "unit": u} for n, u in END_TO_END
                   if n in GATED}
    print(json.dumps({"correct": not result["unexpected"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
