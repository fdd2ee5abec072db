"""The process that runs one workload's operations and times them.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the library's
``src``.  It reads one JSON job on stdin, sets up (imports, catalog build,
warm-up), writes ``ready`` to the job's ``ready_fd`` and, unless the job is
set-up only, runs the workload as a closed loop with one caller and prints
one JSON result line.

Modes:

* ``setup`` -- set up and exit (one ``setup_s`` sample);
* ``run`` -- set up, then run whole rounds of the workload until both
  ``seconds`` have passed and ``min_rounds`` rounds are done;
* ``probe`` -- a fresh-process layer timing (catalog build or an import).
"""

from __future__ import annotations

import bisect
import json
import os
import re
import resource
import subprocess
import sys
import time
from array import array

import inputs
import measure
import tracing

# The reference loop is timed after at least TICK_EVERY_S of operations,
# repeated to cost about TICK_SHARE of the time since the last timing (at
# most TICK_MAX_REPS times), and the median is kept.  An operation is
# divided by the median of those timings within REF_WINDOW_S of it.  The
# host's drift takes tens of seconds, so the window follows it, while the
# medians discard loops that a burst of contention slowed.
TICK_EVERY_S = 0.05
TICK_SHARE = 0.05
TICK_MAX_REPS = 25
REF_WINDOW_S = 2.0
CHECK_RTOL = 1e-9
CLI_TIMEOUT_S = 60

# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def setup(job):
    """Everything before the first operation: imports, catalogs, warm-up.
    Returns the workload's state (modules and operation list)."""
    w = job["workload"]
    if w == "verify":
        from hyperclass import families, quadrature, verify
        for f in verify.ALL_FAMILIES:
            families.catalog(f)
            quadrature.integral_rep_rows(f)
        ops = [(s, f) for s in verify.SUITES for f in verify.ALL_FAMILIES]
        return {"verify": verify, "families": families,
                "ops": ops + [("mutation", None)]}
    if w == "eval":
        from hyperclass import numerics, quadrature  # noqa: F401
        points = job["points"]
        seen = set()
        for pt in points:          # one call of each evaluator and region
            key = (pt["region"], pt["fn"])
            if key not in seen and pt["region"] != "known_bad":
                seen.add(key)
                _eval_call(numerics, pt)
        return {"numerics": numerics, "ops": points}
    if w == "cli":
        from hyperclass import cli
        cli.build_parser()
        return {"ops": job["commands"]}
    raise ValueError(f"unknown workload {w!r}")


# ---------------------------------------------------------------------------
# Operations and their checks
# ---------------------------------------------------------------------------

def _eval_call(numerics, pt):
    args = [inputs.cval(x) for x in pt["params"]]
    return getattr(numerics, pt["fn"])(*args, inputs.cval(pt["w"]))


def _rel_err(got, ref) -> float:
    return abs(complex(got) - ref) / abs(ref)


def check_eval(pt, result, ref, numerics_error) -> str:
    """"ok", "failed" (a known-bad point answered wrongly) or a message
    for an unexpected failure."""
    known_bad = pt["region"] == "known_bad"
    if isinstance(result, BaseException):
        if known_bad and isinstance(result, numerics_error):
            return "ok"           # a typed refusal is a correct outcome
        return f"{pt['fn']}{pt['params']} at {pt['w']}: " \
               f"{type(result).__name__}: {result}"
    err = _rel_err(result, ref)
    if err <= CHECK_RTOL:
        return "ok"
    if known_bad:
        return "failed"
    return f"{pt['fn']}{pt['params']} at {pt['w']}: relative error {err:.3g}"


def _suite_rows(report) -> int:
    """Catalog rows checked by a report: ids ``family:section:NN``."""
    return sum(1 for c in report.checks
               if not c.id.startswith("counts:") and c.id.count(":") == 2)


ROW_SECTIONS = ("transmutations", "factorizations", "symmetries",
                "recurrences")


def check_verify(state, op, report) -> str:
    suite, family = op
    if isinstance(report, BaseException):
        return f"{suite}/{family}: {type(report).__name__}: {report}"
    if report.failed:
        bad = [c.id for c in report.checks if c.status == "fail"][:3]
        return f"{suite}/{family}: {report.failed} failed, e.g. {bad}"
    if suite == "mutation":
        if len(report.checks) != state["mutations"]:
            return f"mutation: {len(report.checks)} checks"
        return "ok"
    if suite in ROW_SECTIONS:
        want = state["families"].EXPECTED_COUNTS[family][suite]
        got = _suite_rows(report)
        if got != want:
            return f"{suite}/{family}: {got} rows, expected {want}"
    return "ok"


_CPLX = re.compile(r"^([+-]?[0-9.]+(?:e[+-]?[0-9]+)?)"
                   r"(?:([+-][0-9.]+(?:e[+-]?[0-9]+)?)i)?$")


def parse_printed(s: str) -> complex:
    """The ``eval`` command's printed value, "a", "a+bi" or "a-bi"."""
    m = _CPLX.match(s.strip())
    if not m:
        raise ValueError(f"unparsable value {s!r}")
    return complex(float(m.group(1)), float(m.group(2) or 0.0))


def check_cli(cmd, proc, ref, expected_counts) -> str:
    name = " ".join(cmd["argv"][:2])
    if isinstance(proc, BaseException):
        return f"{name}: {type(proc).__name__}: {proc}"
    if proc.returncode != 0:
        return f"{name}: exit {proc.returncode}: {proc.stderr.strip()[-200:]}"
    out = proc.stdout
    try:
        if cmd["kind"].startswith("eval"):
            err = _rel_err(parse_printed(out.splitlines()[0]), ref)
            return "ok" if err <= CHECK_RTOL else \
                f"{name}: relative error {err:.3g}"
        doc = json.loads(out)
    except (ValueError, IndexError) as exc:
        return f"{name}: {exc}"
    if cmd["kind"] == "catalog":
        for sec, want in expected_counts.items():
            if doc["counts"].get(sec) != want:
                return f"{name}: {sec} has {doc['counts'].get(sec)} rows"
        return "ok"
    checks = doc["checks"]
    if doc["failed"] or not checks \
            or doc["passed"] + doc["skipped"] != len(checks):
        return f"{name}: passed {doc['passed']} of {len(checks)}"
    if cmd["kind"] == "verify_kummer" and len(checks) != 36:
        return f"{name}: {len(checks)} checks, expected 36"
    return "ok"


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------

class Samples:
    """Per-operation records in flat arrays, so that the benchmark's own
    bookkeeping adds little to the measured process's memory."""

    def __init__(self):
        self.op = array("i")       # index into the round's operations
        self.rnd = array("i")      # round number
        self.sec = array("d")      # wall seconds
        self.ref = array("d")      # the same in reference-loop units
        self.status = {}           # sample index -> status other than "ok"
        self.ref_s = 0.0           # median reference-loop time of the run

    def __len__(self):
        return len(self.sec)


def run_loop(ops, call, check, seconds, min_rounds, tracer=None):
    """Run whole rounds of ``ops``; time each call and the reference loop
    between them.  An op whose check says "empty" did no work: it is left
    out of the samples and of later rounds.  Returns (Samples, rounds)."""
    perf = time.perf_counter
    ticks = array("d", [measure.time_ref()])
    tick_at = array("d", [perf()])
    tick_of = array("i")
    out = Samples()
    empty = set()
    last_tick = perf()
    start = last_tick
    rounds = 0
    while rounds < min_rounds or perf() - start < seconds:
        if tracer is not None:
            tracer.new_pass()
        for i, op in enumerate(ops):
            if i in empty:
                continue
            if tracer is not None:
                tracer.op = i
            t0 = perf()
            try:
                res = call(op)
            except Exception as exc:       # recorded as this op's outcome
                res = exc
            dt = perf() - t0
            status = check(i, op, res)
            if status == "empty":
                empty.add(i)
                continue
            if status != "ok":
                out.status[len(out)] = status
            out.op.append(i)
            out.rnd.append(rounds)
            out.sec.append(dt)
            tick_of.append(len(ticks) - 1)
            since = perf() - last_tick
            if since >= TICK_EVERY_S:
                reps = int(TICK_SHARE * since / ticks[-1])
                ticks.append(measure.time_ref(min(max(reps, 1),
                                                  TICK_MAX_REPS)))
                last_tick = perf()
                tick_at.append(last_tick)
        rounds += 1
    ticks.append(measure.time_ref())
    tick_at.append(perf())
    scale = local_medians(ticks, tick_at, REF_WINDOW_S)
    out.ref = array("d", (dt / scale[k] for dt, k in zip(out.sec, tick_of)))
    out.ref_s = measure.median(ticks)
    return out, rounds


def local_medians(ticks, tick_at, window) -> list:
    """For the stretch between tick k and tick k+1: the median of the ticks
    taken from ``window`` seconds before the first to ``window`` seconds
    after the second."""
    out = []
    for k in range(len(ticks) - 1):
        lo = bisect.bisect_left(tick_at, tick_at[k] - window)
        hi = bisect.bisect_right(tick_at, tick_at[k + 1] + window)
        out.append(measure.median(ticks[lo:hi]))
    return out


def _median_ms(xs, scale=1e3):
    return scale * measure.median(xs)


def run(job, state):
    w = job["workload"]
    seed = job["seed"]
    tracer = None
    if job["trace"]:
        tracer = tracing.Tracer()
        tracer.install()
    ops = state["ops"]
    if w == "verify":
        verify = state["verify"]
        state["mutations"] = 20

        def call(op):
            suite, family = op
            if suite == "mutation":
                return verify.run_mutation_checks(seed, state["mutations"])
            return verify.run_suite(suite, family=family, seed=seed)

        def check(i, op, res):
            # a (suite, family) pair that yields no checks is no operation
            if not isinstance(res, BaseException) and not res.checks:
                return "empty"
            return check_verify(state, op, res)
    elif w == "eval":
        numerics = state["numerics"]
        refs = [complex(*r) for r in job["refs"]]

        def call(pt):
            return _eval_call(numerics, pt)

        def check(i, pt, res):
            return check_eval(pt, res, refs[i], numerics.NumericsError)
    else:
        refs = job["refs"]
        from hyperclass import families
        counts = {s: families.EXPECTED_COUNTS["gegenbauer"][s]
                  for s in ROW_SECTIONS}

        def call(cmd):
            return subprocess.run(
                [sys.executable, "-m", "hyperclass.cli", *cmd["argv"]],
                capture_output=True, text=True,
                timeout=CLI_TIMEOUT_S)

        def check(i, cmd, proc):
            ref = complex(*refs[i]) if refs[i] is not None else None
            return check_cli(cmd, proc, ref, counts)

    min_rounds = job["min_rounds"]
    samples, rounds = run_loop(ops, call, check, job["seconds"], min_rounds,
                               tracer)
    if tracer is not None:
        tracer.uninstall()
    usage = resource.RUSAGE_CHILDREN if w == "cli" else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(usage).ru_maxrss / 1024.0
    per_round = len(samples) // rounds
    p_tail = measure.tail_percentile(min_rounds * per_round)
    metrics = measure.summarize(samples.op, samples.sec, samples.ref, p_tail)
    metrics["peak_rss_mb"] = peak_mb
    unexpected = [st for st in samples.status.values() if st != "failed"]
    result = {
        "attempted": len(samples),
        "failed": len(samples.status),
        "unexpected": sorted(set(unexpected))[:10],
        "rounds": rounds,
        "ops_per_round": per_round,
        "p_tail": p_tail,
        "ref_s": samples.ref_s,
        "absent": tracer.absent if tracer is not None else [],
        "metrics": metrics,
        "layer": layer_metrics(w, ops, samples, rounds, tracer),
    }
    if tracer is not None and job.get("trace_file"):
        tracer.write(job["trace_file"])
    return result


# ---------------------------------------------------------------------------
# Per-layer figures
# ---------------------------------------------------------------------------

def layer_metrics(w, ops, samples, rounds, tracer) -> dict:
    out = {}
    if w == "verify":
        per_pass = {}
        for i, rnd, dt in zip(samples.op, samples.rnd, samples.sec):
            suite = ops[i][0]
            per_pass.setdefault(suite, [0.0] * rounds)[rnd] += dt
        for suite, sums in per_pass.items():
            out[f"verify.{suite}_ms"] = _median_ms(sums)
    elif w == "eval":
        by_region = {}
        for i, dt in zip(samples.op, samples.sec):
            by_region.setdefault(ops[i]["region"], []).append(dt)
        for region, fn in inputs.QUADRATURE_REGIONS:
            out[f"quadrature.{region}_us"] = _median_ms(by_region[region],
                                                        1e6)
        for region in inputs.REGIONS:
            key = f"numerics.{region}_us"
            if f"quadrature.{region}_us" not in out:
                out[key] = _median_ms(by_region[region], 1e6)
    else:
        by_kind = {}
        for i, dt in zip(samples.op, samples.sec):
            by_kind.setdefault(ops[i]["kind"], []).append(dt)
        for kind in ("eval", "eval_quadrature", "catalog"):
            if kind in by_kind:
                out[f"cli.{kind}_ms"] = _median_ms(by_kind[kind])
        # the mean of the two verify launches of a round
        pairs = [0.5 * (a + b) for a, b in zip(
            by_kind.get("verify_quadratic", ()),
            by_kind.get("verify_kummer", ()))]
        if pairs:
            out["cli.verify_ms"] = _median_ms(pairs)
    if tracer is not None:
        r = float(rounds)
        calls, secs = tracer.group(["pfq_series"])
        out["numerics.pfq_series_calls"] = calls / r
        out["numerics.pfq_series_ms"] = 1e3 * secs / r
        calls, secs = tracer.group(tracing.RULES)
        out["quadrature.rule_calls"] = calls / r
        out["quadrature.rule_ms"] = 1e3 * secs / r
        calls, secs = tracer.group(["op_compose"])
        out["exactalg.op_compose_calls"] = calls / r
        out["exactalg.op_compose_repeats"] = tracer.compose_repeats / r
        out["exactalg.op_compose_ms"] = 1e3 * secs / r
        for name in ("op_conjugate", "op_substitute"):
            out[f"exactalg.{name}_ms"] = 1e3 * tracer.group([name])[1] / r
    return out


# ---------------------------------------------------------------------------
# Fresh-process probes
# ---------------------------------------------------------------------------

def probe(what: str) -> float:
    """Milliseconds of one fresh-process layer timing."""
    perf = time.perf_counter
    if what == "catalog_build":
        from hyperclass import families
        t0 = perf()
        for f in ("2f1", "gegenbauer", "1f1", "hermite", "0f1"):
            families.catalog(f)
        return 1e3 * (perf() - t0)
    t0 = perf()
    if what == "quadrature_import":
        import hyperclass.quadrature  # noqa: F401
    elif what == "cli_import":
        import hyperclass.cli  # noqa: F401
    else:
        raise ValueError(f"unknown probe {what!r}")
    return 1e3 * (perf() - t0)


def main() -> int:
    job = json.load(sys.stdin)
    if job["mode"] == "probe":
        print(json.dumps({"ms": probe(job["what"])}), flush=True)
        return 0
    state = setup(job)
    use = resource.getrusage(resource.RUSAGE_SELF)
    os.write(job["ready_fd"], f"ready {use.ru_utime + use.ru_stime!r}".encode())
    os.close(job["ready_fd"])
    if job["mode"] == "setup":
        return 0
    result = run(job, state)
    print(json.dumps(result, allow_nan=False), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
