"""scripts/bench_pairs.py: both checkouts must run the same perfbench."""

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


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
    """A stand-in for run_once: ops_per_ref, or with trace a per-layer
    metric, 1 from the parent and 2 from the change."""
    def fake_run(root, workload, seed, seconds, trace=0):
        calls.append((root, workload, seed, seconds, trace))
        value = 2.0 if root.endswith("change") else 1.0
        name = "quadrature.tricomi_us" if trace else "ops_per_ref"
        return {"metrics": {name: {"value": value + seed / 100,
                                   "unit": "us" if trace else "1/ref"}},
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
    assert len(calls) == 2 * (bench_pairs.PAIRS + bench_pairs.TRACED_RUNS)
    record = json.loads(out.read_text())
    assert record["workload_sha256"] == bench_pairs.workload_digest(parent)
    assert json.loads(bench_pairs.verify_operations(change)) == [
        ["kummer", "connection"], ["2f1", "1f1"], list(_LABELS)]
    assert record["parent_src_sha256"] != record["change"]["src_sha256"]
    result = record["workloads"]["eval"]
    assert result["change_better_pairs"] == {"ops_per_ref": bench_pairs.PAIRS}
    assert result["seeds"] == list(range(5, 5 + bench_pairs.PAIRS))


def test_traced_eval_runs_follow_the_eval_pairs(bench_pairs, tmp_path,
                                                monkeypatch):
    calls = []
    monkeypatch.setattr(bench_pairs, "run_once", _fake_run(calls))
    parent = _checkout(tmp_path / "parent", "print(1)\n")
    change = _checkout(tmp_path / "change", "print(1)\n")
    out = tmp_path / "bench.json"
    assert bench_pairs.main([parent, change, "--first-seed", "5",
                             "--out", str(out)]) == 0
    traced = [(root, seed) for root, workload, seed, _, trace in calls
              if trace]
    assert all(c[4] == 0 for c in calls[:2 * bench_pairs.PAIRS])
    first = 5 + bench_pairs.PAIRS
    # alternating after the pairs, the parent first in even runs
    assert traced == [(parent, first), (change, first),
                      (change, first + 1), (parent, first + 1),
                      (parent, first + 2), (change, first + 2)]
    record = json.loads(out.read_text())["traced_eval"]
    assert record["seeds"] == [first, first + 1, first + 2]
    assert "--trace 1" in record["command"]
    got = record["metrics"]["quadrature.tricomi_us"]
    assert got["unit"] == "us"
    assert got["parent"] == [1.0 + s / 100 for s in record["seeds"]]
    assert got["change"] == [2.0 + s / 100 for s in record["seeds"]]
    assert got["parent_median"] == 1.0 + (first + 1) / 100
    assert got["change_median"] == 2.0 + (first + 1) / 100


def test_every_workload_gets_its_traced_runs(bench_pairs, tmp_path,
                                             monkeypatch):
    calls = []
    monkeypatch.setattr(bench_pairs, "run_once", _fake_run(calls))
    spec = dict(_SPEC, workloads=[{"name": "verify"}, {"name": "eval"}])
    parent = _checkout(tmp_path / "parent", "print(1)\n", spec)
    change = _checkout(tmp_path / "change", "print(1)\n", spec)
    out = tmp_path / "bench.json"
    assert bench_pairs.main([parent, change, "--first-seed", "5",
                             "--out", str(out)]) == 0
    # each workload's pairs, then its own traced runs
    per_workload = 2 * (bench_pairs.PAIRS + bench_pairs.TRACED_RUNS)
    assert len(calls) == 2 * per_workload
    for k, workload in enumerate(("verify", "eval")):
        block = calls[k * per_workload:(k + 1) * per_workload]
        assert {c[1] for c in block} == {workload}
        assert [c[4] for c in block] == [0] * (2 * bench_pairs.PAIRS) \
            + [1] * (2 * bench_pairs.TRACED_RUNS)
    record = json.loads(out.read_text())
    first = 5 + bench_pairs.PAIRS
    for workload in ("verify", "eval"):
        got = record[f"traced_{workload}"]
        assert got["seeds"] == [first, first + 1, first + 2]
        assert f"--workload {workload} " in got["command"]
        assert got["metrics"]["quadrature.tricomi_us"]["change_median"] \
            == 2.0 + (first + 1) / 100


_ROUTES = {"parent": "abc", "change": "working tree on abc", "seeds": [1],
           "copies": 4, "routes": {"2f1/series": {"points": 3}},
           "normalized": {}}


# a bench_routes.py --suite report
_SUITES = {"parent": "abc", "change": "working tree on abc", "seeds": [1],
           "copies": 4, "suites": {"residuals/1f1": {"points": 1}}}


def test_routes_report_goes_under_routes(bench_pairs, tmp_path, monkeypatch):
    monkeypatch.setattr(bench_pairs, "run_once", _fake_run([]))
    parent = _checkout(tmp_path / "parent", "print(1)\n")
    change = _checkout(tmp_path / "change", "print(1)\n")
    routes = tmp_path / "routes.json"
    out = tmp_path / "bench.json"
    for report in (_ROUTES, _SUITES):
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
