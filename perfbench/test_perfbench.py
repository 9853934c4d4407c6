"""Self-tests of the benchmark harness.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import sys
import types
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import bench, stats, tracer  # noqa: E402


# --- percentile helper ----------------------------------------------------

def test_tail_percentile_needs_ten_samples_beyond():
    assert stats.tail_percentile(list(range(99))) is None
    assert stats.tail_percentile(list(range(100))) == (90.0, 89)
    assert stats.tail_percentile(list(range(999)))[0] == 90.0
    assert stats.tail_percentile(list(range(1000)))[0] == 99.0
    assert stats.tail_percentile(list(range(10000)))[0] == 99.9


def test_describe_reports_count_median_and_supported_tail():
    assert stats.describe([3.0, 1.0, 2.0]) == {"n": 3, "median": 2.0}
    d = stats.describe([float(v) for v in range(200)])
    assert d["n"] == 200 and d["median"] == 99.5 and d["p90"] == 179.0
    assert stats.describe([]) == {"n": 0}


# --- self time ------------------------------------------------------------

def _span(name, start, end, parent=-1):
    return tracer.Span(name, start, end, parent)


def test_self_time_subtracts_children_only_once():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("a.x", 2.0, 3.0, parent=1),
        _span("b", 5.0, 6.5, parent=0),
    ]
    assert tracer.self_times(spans) == pytest.approx([5.5, 2.0, 1.0, 1.5])


def test_covered_time_merges_overlaps_and_clips_to_parent():
    assert tracer.covered_time((0.0, 10.0), [(1.0, 3.0), (2.0, 4.0)]) == 3.0
    assert tracer.covered_time((0.0, 10.0), [(8.0, 12.0), (-1.0, 1.0)]) == 3.0
    assert tracer.covered_time((0.0, 10.0), []) == 0.0


def test_tracer_records_nesting_and_summarizes():
    ticks = iter(range(100))
    tr = tracer.Tracer(clock=lambda: float(next(ticks)))
    inner = tr.wrap("inner", lambda x: x + 1)
    outer = tr.wrap("outer", lambda x: inner(inner(x)))
    assert outer(1) == 3
    assert [(s.name, s.parent) for s in tr.spans] == [
        ("outer", -1), ("inner", 0), ("inner", 0)]
    summary = tracer.summarize(tr.spans)
    assert summary["inner"].calls == 2
    assert summary["outer"].ms == pytest.approx(5e3)
    assert summary["outer"].self_ms == pytest.approx(3e3)


# --- wrapper binding ------------------------------------------------------

def _fake_package():
    """pkg.lib defines f; pkg.user imported it by name and maps a command to it."""
    lib = types.ModuleType("pkg.lib")
    lib.f = lambda: "f"
    user = types.ModuleType("pkg.user")
    user.f = lib.f
    user.COMMANDS = {"go": lib.f}
    return lib, user


def test_install_rebinds_every_name_a_caller_resolves():
    lib, user = _fake_package()
    spaces = [vars(lib), vars(user), user.COMMANDS]
    tr = tracer.Tracer()
    installed = tracer.Installed(tr, {"lib.f": lib.f}, spaces)
    assert tracer.unwrapped_bindings(installed.originals, spaces) == []
    user.f(), user.COMMANDS["go"](), lib.f()
    assert [s.name for s in tr.spans] == ["lib.f"] * 3
    installed.restore()
    assert user.f is lib.f is user.COMMANDS["go"]
    user.f()
    assert len(tr.spans) == 3


def test_coverage_check_finds_a_binding_made_after_install():
    lib, user = _fake_package()
    installed = tracer.Installed(tracer.Tracer(), {"lib.f": lib.f}, [vars(lib)])
    late = {"f": installed.originals["lib.f"]}
    assert tracer.unwrapped_bindings(installed.originals, [vars(lib), late]) == ["lib.f"]
    installed.restore()


def test_traced_pass_flags_a_binding_made_during_the_pass(tmp_path, monkeypatch):
    import dermfeat.metrics
    original = dermfeat.metrics.auroc

    def late_binding_pass(w, seed, root, checks):
        late = types.ModuleType("dermfeat._late")
        late.auroc = original
        monkeypatch.setitem(sys.modules, "dermfeat._late", late)
        return None

    monkeypatch.setattr(bench, "run_pass", late_binding_pass)
    checks = bench.Checks()
    assert bench.traced_pass(bench.WORKLOADS["train-64"], 0, tmp_path, checks) is None
    assert checks.failures == ["traced functions left unwrapped: ['metrics.auroc']"]
    assert dermfeat.metrics.auroc is original


def test_every_traced_function_is_bound_in_dermfeat():
    import dermfeat.cli  # noqa: F401  (loads every pipeline module)
    installed = tracer.install(tracer.Tracer())
    try:
        assert set(installed.originals) == {
            f"{m}.{f}" for m, fs in tracer.TRACED.items() for f in fs}
        assert tracer.unwrapped_bindings(installed.originals,
                                         tracer.package_namespaces()) == []
        # The CLI dispatches through its command table, not the global.
        assert dermfeat.cli._COMMANDS["predict"] is not installed.originals["cli.cmd_predict"]
    finally:
        installed.restore()
    assert dermfeat.cli._COMMANDS["predict"] is installed.originals["cli.cmd_predict"]


def test_metric_tables_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    layer_units = {m: unit for m, (unit, _, _) in bench.PER_LAYER.items()}
    layer_units.update(bench.EXTRA_LAYER)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layer_units
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    traced = {f"{m}.{f}" for m, fs in tracer.TRACED.items() for f in fs}
    assert {s for _, _, spans in bench.PER_LAYER.values() for s in spans} <= traced


# --- output checks --------------------------------------------------------

def _write_run(root, macro, positives, aurocs):
    (root / "held_out").mkdir(parents=True)
    (root / "run").mkdir()
    files = {
        "held_out/manifest.json": {"samples": [{"image": "a.ppm"}]},
        "run/predictions.json": [{"image": "a.ppm", "scores": [[0.5] * 4] * 4}],
        "run/train_report.json": {"epochs": [{"epoch": 1, "mean_batch_loss": 0.8}]},
        "run/eval_report.json": {
            "per_class": [{"class": str(c), "auroc": a, "positives": positives,
                           "negatives": 4 - positives} for c, a in enumerate(aurocs)],
            "macro_average": macro},
    }
    for name, doc in files.items():
        (root / name).write_text(json.dumps(doc))


@pytest.mark.parametrize("macro, positives, aurocs, c6, ok", [
    (None, 0, [None] * 4, False, True),   # no class has both labels
    (None, 0, [None] * 4, True, False),   # the C6 bar needs a macro AUROC
    (0.9, 1, [0.9] * 4, True, True),      # meets the C6 bar
    (0.6, 1, [0.6] * 4, False, True),     # only the C6 workload is gated
    (0.6, 1, [0.6] * 4, True, False),     # below the C6 bar
    (None, 1, [None] * 4, False, False),  # scored classes but no macro
    (0.6, 0, [None] * 4, False, False),   # a macro with no scored class
    (0.6, 1, [float("nan")] * 4, False, False),
])
def test_eval_report_checks(tmp_path, macro, positives, aurocs, c6, ok):
    w = replace(bench.WORKLOADS["train-64"], held_out=bench.Dataset(1, 16, 8),
                epochs=1, c6=c6)
    _write_run(tmp_path, macro, positives, aurocs)
    checks = bench.Checks()
    assert bench.check_outputs(w, tmp_path, checks) == (macro, 0.8)
    assert (checks.failures == []) == ok


# --- smoke runs -----------------------------------------------------------

def _tiny(name):
    w = bench.WORKLOADS[name]
    return replace(w, train=bench.Dataset(4, 16, 8),
                   held_out=bench.Dataset(3, 32 if w.train_in_setup else 16, 4),
                   epochs=1, batch=2, c6=False)


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run(name, trace, tmp_path, monkeypatch):
    w = _tiny(name)
    monkeypatch.setitem(bench.WORKLOADS, name, w)
    line, detail = bench.run_workload(w, seed=3, seconds=0.0, trace=trace,
                                      work=tmp_path)
    assert detail["failures"] == [] and line["failed"] == 0
    assert line["correct"] and line["attempted"] > 0
    expected = (set(bench.PER_LAYER) | set(bench.EXTRA_LAYER) if trace
                else set(bench.END_TO_END))
    assert set(line["metrics"]) == expected
    assert all(isinstance(m["value"], float) for m in line["metrics"].values())
    if trace:
        assert line["metrics"]["ops.conv2d.gflop"]["value"] > 0
        assert detail["per_call_ms"]["model.forward"]["calls"] > 0
