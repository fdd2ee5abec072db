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


def _checkout(root: Path, run_py: str, spec=_SPEC) -> str:
    (root / "src" / "pkg").mkdir(parents=True)
    (root / "src" / "pkg" / "mod.py").write_text("x = 1\n")
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
                                         dict(_SPEC, run_seconds=2)))]:
        assert bench_pairs.main([parent, change, "--first-seed", "1",
                                 "--out", str(out)]) == 2, name
    assert not out.exists()


def test_same_perfbench_records_its_digest(bench_pairs, tmp_path,
                                           monkeypatch):
    calls = []

    def fake_run(root, workload, seed, seconds):
        calls.append((root, workload, seed, seconds))
        value = 2.0 if root.endswith("change") else 1.0
        return {"metrics": {"ops_per_ref": {"value": value}},
                "attempted": 10, "failed": 0, "correct": True}
    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
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
    assert record["parent_src_sha256"] != record["change"]["src_sha256"]
    result = record["workloads"]["eval"]
    assert result["change_better_pairs"] == {"ops_per_ref": bench_pairs.PAIRS}
    assert result["seeds"] == list(range(5, 5 + bench_pairs.PAIRS))
