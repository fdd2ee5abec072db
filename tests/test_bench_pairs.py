"""scripts/bench_pairs.py: both checkouts must run the same perfbench."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_SCRIPT = _ROOT / "scripts" / "bench_pairs.py"


@pytest.fixture
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", _SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


_SPEC = {"run_seconds": 1, "workloads": [{"name": "eval"}],
         "end_to_end": [{"name": "ops_per_ref", "better": "higher"}]}


_LABELS = ("mut:a:A+1", "mut:b:coeff+1")


def _checkout(root: Path, run_py: str, spec=_SPEC, labels=_LABELS) -> str:
    (root / "src" / "pkg").mkdir(parents=True)
    (root / "src" / "pkg" / "mod.py").write_text("x = 1\n")
    # the verify workload's operations come from the library
    (root / "src" / "hyperclass").mkdir()
    (root / "src" / "hyperclass" / "__init__.py").write_text("")
    (root / "src" / "hyperclass" / "verify.py").write_text(
        'SUITES = ("kummer", "connection")\n'
        'ALL_FAMILIES = ("2f1", "1f1")\n\n\n'
        'def _mutation_candidates():\n'
        f'    return [(label, None) for label in {labels!r}]\n')
    (root / "perfbench" / "out").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(run_py)
    (root / "BENCHMARK.json").write_text(json.dumps(spec))
    return str(root)


def test_differing_perfbench_exits_before_any_run(bench_pairs, tmp_path,
                                                  monkeypatch):
    def no_run(*args):
        raise AssertionError("perfbench must not run")
    monkeypatch.setattr(bench_pairs, "run_once", no_run)
    parent = _checkout(tmp_path / "parent", "print(1)\n")
    out = tmp_path / "bench.json"
    for name, change in [
            ("run.py", _checkout(tmp_path / "a", "print(2)\n")),
            ("BENCHMARK.json", _checkout(tmp_path / "b", "print(1)\n",
                                         dict(_SPEC, run_seconds=2))),
            ("mutation label", _checkout(
                tmp_path / "c", "print(1)\n",
                labels=(_LABELS[0], "mut:b:const+1"))),
            ("mutation order", _checkout(
                tmp_path / "d", "print(1)\n", labels=_LABELS[::-1]))]:
        assert bench_pairs.main([parent, change, "--first-seed", "1",
                                 "--out", str(out)]) == 2, name
    assert not out.exists()


def _fake_run(calls):
    """A stand-in for run_once: ops_per_ref, 1 from the parent and 2 from
    the change."""
    def fake_run(root, workload, seed, seconds):
        calls.append((root, workload, seed, seconds))
        value = 2.0 if root.endswith("change") else 1.0
        return {"metrics": {"ops_per_ref": {"value": value + seed / 100,
                                            "unit": "1/ref"}},
                "attempted": 10, "failed": 0, "correct": True}
    return fake_run


def test_same_perfbench_records_its_digest(bench_pairs, tmp_path,
                                           monkeypatch):
    calls = []

    monkeypatch.setattr(bench_pairs, "run_once", _fake_run(calls))
    parent = _checkout(tmp_path / "parent", "print(1)\n")
    change = _checkout(tmp_path / "change", "print(1)\n")
    # what a run leaves behind is not part of the workload
    (Path(change) / "perfbench" / "out" / "trace.json").write_text("{}")
    (Path(change) / "src" / "pkg" / "mod.py").write_text("x = 2\n")
    out = tmp_path / "bench.json"
    assert bench_pairs.main([parent, change, "--first-seed", "5",
                             "--out", str(out)]) == 0
    assert len(calls) == 2 * bench_pairs.PAIRS
    record = json.loads(out.read_text())
    assert record["workload_sha256"] == bench_pairs.workload_digest(parent)
    assert json.loads(bench_pairs.verify_operations(change)) == [
        ["kummer", "connection"], ["2f1", "1f1"], list(_LABELS)]
    assert record["parent_src_sha256"] != record["change"]["src_sha256"]
    result = record["workloads"]["eval"]
    assert result["change_better_pairs"] == {"ops_per_ref": bench_pairs.PAIRS}
    assert result["seeds"] == list(range(5, 5 + bench_pairs.PAIRS))


_ROUTES = {"parent": "abc", "change": "working tree on abc", "seeds": [1],
           "copies": 4, "routes": {"2f1/series": {"points": 3}},
           "normalized": {}}


# a bench_routes.py --suite report
_SUITES = {"parent": "abc", "change": "working tree on abc", "seeds": [1],
           "copies": 4, "suites": {"residuals/1f1": {"points": 1}}}

# a bench_routes.py --cli report
_CLI = {"parent": "abc", "change": "working tree on abc", "seeds": [1],
        "copies": 4, "cli": {"catalog": {"points": 1}}}


def test_routes_report_goes_under_routes(bench_pairs, tmp_path, monkeypatch):
    monkeypatch.setattr(bench_pairs, "run_once", _fake_run([]))
    parent = _checkout(tmp_path / "parent", "print(1)\n")
    change = _checkout(tmp_path / "change", "print(1)\n")
    routes = tmp_path / "routes.json"
    out = tmp_path / "bench.json"
    for report in (_ROUTES, _SUITES, _CLI):
        routes.write_text(json.dumps(report))
        assert bench_pairs.main([parent, change, "--first-seed", "5",
                                 "--out", str(out), "--routes",
                                 str(routes)]) == 0
        assert json.loads(out.read_text())["routes"] == report
    assert bench_pairs.main([parent, change, "--first-seed", "5",
                             "--out", str(out)]) == 0
    assert "routes" not in json.loads(out.read_text())


def test_a_bad_routes_report_exits_before_any_run(bench_pairs, tmp_path,
                                                  monkeypatch):
    def no_run(*args):
        raise AssertionError("perfbench must not run")
    monkeypatch.setattr(bench_pairs, "run_once", no_run)
    parent = _checkout(tmp_path / "parent", "print(1)\n")
    change = _checkout(tmp_path / "change", "print(1)\n")
    out = tmp_path / "bench.json"
    bad = {"missing": tmp_path / "none.json",
           "not json": tmp_path / "text.json",
           "a list": tmp_path / "list.json",
           "no normalized": tmp_path / "part.json",
           "no suites": tmp_path / "nosuites.json"}
    bad["not json"].write_text("routes\n")
    bad["a list"].write_text("[]\n")
    bad["no normalized"].write_text(json.dumps(
        {k: v for k, v in _ROUTES.items() if k != "normalized"}))
    bad["no suites"].write_text(json.dumps(
        {k: v for k, v in _SUITES.items() if k != "suites"}))
    for name, path in bad.items():
        assert bench_pairs.main([parent, change, "--first-seed", "1",
                                 "--out", str(out), "--routes",
                                 str(path)]) == 2, name
    assert not out.exists()


def test_the_benchmark_reads_names_this_library_has(bench_pairs):
    # bench_pairs hashes each side's verify operations, and perfbench's
    # worker calls the library and the tracer's targets by name: a module
    # move that breaks either fails here, not in a benchmark run
    ops = json.loads(bench_pairs.verify_operations(str(_ROOT)))
    assert [len(x) for x in ops] == [9, 5, 139]
    r, w = os.pipe()
    job = {"mode": "run", "workload": "verify", "seed": 1, "seconds": 0,
           "trace": True, "min_rounds": 1, "ready_fd": w}
    try:
        proc = subprocess.run(
            [sys.executable, str(_ROOT / "perfbench" / "worker.py")],
            input=json.dumps(job), capture_output=True, text=True,
            cwd=_ROOT, env=dict(os.environ, PYTHONPATH=str(_ROOT / "src")),
            pass_fds=(w,), timeout=300)
    finally:
        os.close(w)
        os.close(r)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout)
    # the tracer still names quadrature.path_integral, long deleted
    # (ROADMAP item 7); any other absent name is a broken target
    assert (result["failed"], result["absent"]) == (0, ["path_integral"])
    layer = result["layer"]
    assert [s for s in ops[0] + ["mutation"]
            if f"verify.{s}_ms" not in layer] == []
    for name in ("exactalg.op_compose_calls", "numerics.pfq_series_calls",
                 "quadrature.rule_calls"):
        assert layer[name] > 0, name
