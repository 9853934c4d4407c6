"""The dermfeat benchmark: the real CLI pipeline, driven in-process.

Each workload is a closed loop with one caller. A pass generates its
datasets with `gen-data` (set-up), then runs the timed commands through
`dermfeat.cli.main`; passes repeat until the run's time is used, and
every figure is the median over passes. The program only ever sees the
generated files; the seed reaches it through the `--seed` flags. train-64
is the C6 acceptance protocol and always runs that protocol's seeds.

With tracing on, passes alternate untraced and traced. A traced pass
wraps the public functions of every layer (see tracer.py); each per-layer
figure is a total over one traced pass, set-up included, and the median
over traced passes is reported. End-to-end figures come only from
untraced passes.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from dermfeat import cli, model
from dermfeat.model import EncoderConfig

from . import tracer
from .stats import describe

ROOT = Path(__file__).resolve().parents[1]
WORK_DIR = ROOT / ".bench_work"
HELD_OUT_SEED_OFFSET = 1000  # as C6 pairs train seed 7 with held-out 1007
# The C6 acceptance protocol's seeds (gen 7, held-out 1007, train 7) and the
# macro AUROC bar it must reach on them.
C6_SEED, C6_BAR = 7, 0.85
# The gen-data set-up is short and jittery, so each pass runs it this many
# times and keeps the median.
SETUP_REPEATS = 3
ARTIFACTS = ("weights.hfcn", "train_report.json", "predictions.json",
             "eval_report.json")


@dataclass(frozen=True)
class Dataset:
    count: int
    size: int
    cell: int

    @property
    def superpixels(self) -> int:
        return math.ceil(self.size / self.cell) ** 2


@dataclass(frozen=True)
class Workload:
    name: str
    train: Dataset
    held_out: Dataset
    epochs: int
    batch: int
    # The weight-producing train is set-up, so only predict and eval are timed.
    train_in_setup: bool = False
    # Run the C6 protocol's seeds whatever --seed is, and gate its bar.
    c6: bool = False


WORKLOADS = {w.name: w for w in (
    # The C6 acceptance protocol (64 px, cell 8, batch 8, its seeds) at a
    # length that fits the run: many small tensors, so conv and per-sample
    # Python overhead in train matter as much as the resize backward.
    Workload("train-64", train=Dataset(32, 64, 8), held_out=Dataset(100, 64, 8),
             epochs=3, batch=8, c6=True),
    # Few large images: hypercolumn resize/concat traffic and the retained
    # forward caches dominate; per-sample Python overhead is negligible.
    Workload("train-256", train=Dataset(4, 256, 8), held_out=Dataset(4, 256, 8),
             epochs=1, batch=4),
    # Forward only on ~45k pooled superpixels: predict, mask_to_scores, the
    # pooled AUROC ranking and the predictions JSON.
    Workload("infer-128", train=Dataset(16, 64, 8), held_out=Dataset(44, 128, 4),
             epochs=2, batch=8, train_in_setup=True),
)}

# End-to-end metric -> unit, in the order BENCHMARK.json lists them.
END_TO_END = {
    "setup_s": "s",
    "pipeline_s": "s",
    "train_images_per_s": "1/s",
    "predict_images_per_s": "1/s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}


# Per-layer metric -> (unit, field, traced span names summed into it).
PER_LAYER = {
    "ops.bilinear_resize.ms": ("ms", "ms", ("ops.bilinear_resize",)),
    "ops.bilinear_resize_backward.ms": ("ms", "ms", ("ops.bilinear_resize_backward",)),
    "ops.concat_channels.ms": ("ms", "ms", ("ops.concat_channels",)),
    "ops.split_channels.ms": ("ms", "ms", ("ops.split_channels",)),
    "ops.bilinear_resize.mb_moved": ("MB", "mb_moved", ("ops.bilinear_resize",)),
    "ops.bilinear_resize_backward.mb_moved": ("MB", "mb_moved", ("ops.bilinear_resize_backward",)),
    "ops.concat_channels.mb_moved": ("MB", "mb_moved", ("ops.concat_channels",)),
    "ops.split_channels.mb_moved": ("MB", "mb_moved", ("ops.split_channels",)),
    "ops.conv2d.ms": ("ms", "ms", ("ops.conv2d",)),
    "ops.conv2d_backward.ms": ("ms", "ms", ("ops.conv2d_backward",)),
    "ops.conv2d.gflop": ("GFLOP", "gflop", ("ops.conv2d",)),
    "ops.conv2d_backward.gflop": ("GFLOP", "gflop", ("ops.conv2d_backward",)),
    "ops.maxpool2d.ms": ("ms", "ms", ("ops.maxpool2d",)),
    "ops.maxpool2d_backward.ms": ("ms", "ms", ("ops.maxpool2d_backward",)),
    "ops.relu.ms": ("ms", "ms", ("ops.relu",)),
    "ops.relu_backward.ms": ("ms", "ms", ("ops.relu_backward",)),
    "ops.sigmoid.ms": ("ms", "ms", ("ops.sigmoid",)),
    "ops.sigmoid_backward.ms": ("ms", "ms", ("ops.sigmoid_backward",)),
    "model.forward.ms": ("ms", "ms", ("model.forward",)),
    "model.forward.self_ms": ("ms", "self_ms", ("model.forward",)),
    "model.backward.ms": ("ms", "ms", ("model.backward",)),
    "model.backward.self_ms": ("ms", "self_ms", ("model.backward",)),
    "model.cache_mb": ("MB", "cache_mb", ("model.forward",)),
    "model.save_params.ms": ("ms", "ms", ("model.save_params",)),
    "model.load_params.ms": ("ms", "ms", ("model.load_params",)),
    "train.train.self_ms": ("ms", "self_ms", ("train.train",)),
    "loss.f1_loss.ms": ("ms", "ms", ("loss.f1_loss",)),
    "loss.f1_loss_grad.ms": ("ms", "ms", ("loss.f1_loss_grad",)),
    "superpixels.mask_to_scores.ms": ("ms", "ms", ("superpixels.mask_to_scores",)),
    "superpixels.labels_to_mask.ms": ("ms", "ms", ("superpixels.labels_to_mask",)),
    "metrics.evaluate.ms": ("ms", "ms", ("metrics.evaluate",)),
    "metrics.auroc.ms": ("ms", "ms", ("metrics.auroc",)),
    "metrics.auroc.calls": ("count", "calls", ("metrics.auroc",)),
    "data.generate.ms": ("ms", "ms", ("data.generate",)),
    "data.load.ms": ("ms", "ms", ("data.load",)),
    "netpbm.read.ms": ("ms", "ms", ("netpbm.read_ppm8", "netpbm.read_pgm16")),
    "netpbm.write.ms": ("ms", "ms", ("netpbm.write_ppm8", "netpbm.write_pgm16")),
    "cli.cmd_predict.self_ms": ("ms", "self_ms", ("cli.cmd_predict",)),
    "cli.cmd_eval.self_ms": ("ms", "self_ms", ("cli.cmd_eval",)),
}
# Per-layer metrics not read from spans: the trace overhead, and the final
# training loss, which varies too much across seeds to bound end to end.
EXTRA_LAYER = {
    "train.final_loss": "loss",
    "trace.overhead_ratio": "ratio",
}


class Checks:
    """Counts attempted operations and output checks, and names failures."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


@dataclass
class PassResult:
    stage_s: dict[str, float]  # stage -> wall seconds (gen-data: median repeat)
    setup: tuple[str, ...]     # the stages that are set-up
    digests: dict[str, str]
    macro_auroc: float | None  # None when no class has both labels
    final_loss: float
    layers: dict = field(default_factory=dict)

    @property
    def setup_s(self) -> float:
        return sum(self.stage_s[s] for s in self.setup)

    @property
    def pipeline_s(self) -> float:
        return sum(v for s, v in self.stage_s.items() if s not in self.setup)


def run_cli(argv: list[str]) -> tuple[int, float, str]:
    """(exit code, wall seconds, captured output) of one CLI command."""
    captured = io.StringIO()
    gc.collect()  # garbage left by earlier commands is not this one's cost
    with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad flags this way
            code = exc.code if isinstance(exc.code, int) else 2
        elapsed = time.perf_counter() - t0
    return code, elapsed, captured.getvalue()


def _commands(w: Workload, seed: int, root: Path) -> list[tuple[str, list[str]]]:
    tr, ho, run = root / "train", root / "held_out", root / "run"

    def gen(d: Dataset, out: Path, gen_seed: int, split: str) -> list[str]:
        return ["gen-data", "--out", str(out), "--count", str(d.count),
                "--size", str(d.size), "--cell", str(d.cell),
                "--seed", str(gen_seed), "--split", split]

    return [
        ("gen-data", gen(w.train, tr, seed, "train")),
        ("gen-data", gen(w.held_out, ho, seed + HELD_OUT_SEED_OFFSET, "test")),
        ("train", ["train", "--data", str(tr / "manifest.json"), "--out", str(run),
                   "--epochs", str(w.epochs), "--batch", str(w.batch),
                   "--seed", str(seed)]),
        ("predict", ["predict", "--weights", str(run / "weights.hfcn"),
                     "--data", str(ho / "manifest.json"), "--out", str(run)]),
        ("eval", ["eval", "--pred", str(run / "predictions.json"),
                  "--data", str(ho / "manifest.json"), "--out", str(run)]),
    ]


def run_pass(w: Workload, seed: int, root: Path, checks: Checks
             ) -> PassResult | None:
    """Set-up plus timed pipeline in `root`; None if a command failed.

    The gen-data commands run SETUP_REPEATS times over the same directories;
    their stage time is the median of the repeats' totals."""
    def run(name: str, argv: list[str]) -> float | None:
        code, elapsed, output = run_cli(argv)
        tail = output.strip().splitlines()[-1:] or [""]
        return elapsed if checks.check(code == 0, f"{name} exited {code}: "
                                       f"{tail[0]}") else None

    commands = _commands(w, seed, root)
    gens = [argv for name, argv in commands if name == "gen-data"]
    gen_s: list[float] = []
    for _ in range(SETUP_REPEATS):
        times = [run("gen-data", argv) for argv in gens]
        if None in times:
            return None
        gen_s.append(sum(times))
    stage_s = {"gen-data": statistics.median(gen_s)}
    for name, argv in commands:
        if name != "gen-data":
            elapsed = run(name, argv)
            if elapsed is None:
                return None
            stage_s[name] = elapsed
    macro, loss = check_outputs(w, root, checks)
    digests = {name: hashlib.sha256((root / "run" / name).read_bytes()).hexdigest()
               for name in ARTIFACTS}
    setup = ("gen-data",) + (("train",) if w.train_in_setup else ())
    return PassResult(stage_s=stage_s, setup=setup, digests=digests,
                      macro_auroc=macro, final_loss=loss)


def _read_json(path: Path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def check_outputs(w: Workload, root: Path, checks: Checks
                  ) -> tuple[float | None, float]:
    """Validate the pass's reports; returns (macro AUROC, last epoch loss)."""
    run = root / "run"
    manifest = _read_json(root / "held_out" / "manifest.json")
    expected = sorted(s["image"] for s in manifest["samples"])
    entries = _read_json(run / "predictions.json")
    checks.check(sorted(e["image"] for e in entries) == expected,
                 "predictions.json does not list every held-out image once")
    scores = [np.asarray(e["scores"], dtype=np.float64) for e in entries]
    shape = (w.held_out.superpixels, 4)
    checks.check(all(s.shape == shape for s in scores),
                 f"a predictions.json score table is not {shape}")
    checks.check(all(np.isfinite(s).all() and s.min() >= 0.0 and s.max() <= 1.0
                     for s in scores),
                 "a score in predictions.json is non-finite or outside [0,1]")

    losses = [e["mean_batch_loss"] for e in _read_json(run / "train_report.json")["epochs"]]
    checks.check(len(losses) == w.epochs and all(math.isfinite(v) for v in losses),
                 f"train_report.json losses are not {w.epochs} finite values: {losses}")

    # A class is scored only when the held-out pool has both labels for it,
    # and the macro average exists only when some class is scored.
    report = _read_json(run / "eval_report.json")
    scored = [c["auroc"] for c in report["per_class"]
              if c["positives"] > 0 and c["negatives"] > 0]
    unscored = [c["auroc"] for c in report["per_class"]
                if not (c["positives"] > 0 and c["negatives"] > 0)]
    macro = report["macro_average"]
    checks.check(all(v is not None and 0.0 <= v <= 1.0 for v in scored)
                 and all(v is None for v in unscored)
                 and (macro is None) == (not scored)
                 and (macro is None or 0.0 <= macro <= 1.0),
                 f"eval_report.json AUROCs are inconsistent: {report}")
    if w.c6:
        checks.check(macro is not None and macro >= C6_BAR,
                     f"macro AUROC {macro} below the C6 bar {C6_BAR}")
    return macro, (losses[-1] if losses else math.nan)


def warm_up(w: Workload, root: Path) -> None:
    """Untimed and unchecked: one tiny pipeline through every CLI path, then
    one forward+backward at each image size the workload uses."""
    tiny = replace(w, train=Dataset(2, 16, 8), held_out=Dataset(2, 16, 8),
                   epochs=1, batch=2, c6=False)
    run_pass(tiny, 0, root, Checks())
    cfg = EncoderConfig()
    params = model.init_params(cfg, 0)
    rng = np.random.default_rng(0)
    for size in sorted({w.train.size, w.held_out.size}):
        probs, cache = model.forward(params, cfg, rng.random((3, size, size)))
        model.backward(params, cfg, cache, np.ones_like(probs))


def layer_metrics(summary: dict[str, tracer.LayerStats]) -> dict[str, float]:
    out = {}
    for metric, (_, field_name, spans) in PER_LAYER.items():
        stats = [summary.get(s, tracer.LayerStats()) for s in spans]
        if field_name in ("ms", "self_ms", "calls"):
            value = sum(getattr(st, field_name) for st in stats)
        elif field_name == "cache_mb":
            value = max(st.work_max.get(field_name, 0.0) for st in stats)
        else:
            value = sum(st.work_sum.get(field_name, 0.0) for st in stats)
        out[metric] = float(value)
    return out


def traced_pass(w: Workload, seed: int, root: Path, checks: Checks
                ) -> PassResult | None:
    tr = tracer.Tracer()
    installed = tracer.install(tr)
    try:
        result = run_pass(w, seed, root, checks)
        # A module loaded during the pass may have bound a traced function by
        # name after install(); calls through that binding went untraced.
        stale = tracer.unwrapped_bindings(installed.originals,
                                          tracer.package_namespaces())
        checks.check(not stale, f"traced functions left unwrapped: {stale}")
    finally:
        installed.restore()
    if result is not None:
        summary = tracer.summarize(tr.spans)
        silent = sorted(n for n in installed.originals if n not in summary)
        checks.check(not silent, f"traced functions recorded no calls: {silent}")
        result.layers = summary
    return result


def run_workload(w: Workload, seed: int, seconds: float, trace: bool,
                 work: Path) -> tuple[dict, dict]:
    """Run passes for `seconds`; returns (result line, detail record)."""
    checks = Checks()
    if w.c6:
        seed = C6_SEED
    warm_up(w, work / "warm-up")
    passes: list[PassResult] = []
    traced: list[PassResult] = []
    start = time.perf_counter()
    k = 0
    while True:
        root = work / f"pass{k}"
        t0 = time.perf_counter()
        is_traced = trace and k % 2 == 1
        result = (traced_pass if is_traced else run_pass)(w, seed, root, checks)
        shutil.rmtree(root, ignore_errors=True)
        if result is None:
            break
        if passes or traced:
            first = (passes or traced)[0]
            checks.check(result.digests == first.digests,
                         f"pass {k} ({'traced' if is_traced else 'untraced'}) "
                         f"outputs differ from pass 0")
        (traced if is_traced else passes).append(result)
        k += 1
        last = time.perf_counter() - t0
        if k >= 2 and time.perf_counter() - start + last > seconds:
            break

    detail = {"workload": w.name, "data_seed": seed, "passes": k,
              "untraced_samples": {
                  "setup_s": describe([p.setup_s for p in passes]),
                  "pipeline_s": describe([p.pipeline_s for p in passes]),
                  **{f"{s}_s": describe([p.stage_s[s] for p in passes])
                     for s in ("gen-data", "train", "predict", "eval")}},
              "pipeline_s_by_pass": [round(p.pipeline_s, 4) for p in passes],
              "failures": checks.failures}
    done = passes or traced
    if done:
        detail["macro_auroc"] = done[0].macro_auroc
        detail["final_loss"] = done[0].final_loss
        if w.c6:
            detail["c6_bar"] = C6_BAR
    metrics: dict = {}
    if passes and not trace:
        metrics = end_to_end(w, passes, checks)
    if traced and passes:
        metrics, detail["per_call_ms"] = per_layer(passes, traced)
    correct = not checks.failures and bool(metrics)
    line = {"correct": correct, "attempted": checks.attempted,
            "failed": len(checks.failures), "metrics": metrics}
    return line, detail


def end_to_end(w: Workload, passes: list[PassResult], checks: Checks) -> dict:
    med = statistics.median
    values = {
        "setup_s": med(p.setup_s for p in passes),
        "pipeline_s": med(p.pipeline_s for p in passes),
        "train_images_per_s": w.train.count * w.epochs / med(p.stage_s["train"]
                                                             for p in passes),
        "predict_images_per_s": w.held_out.count / med(p.stage_s["predict"]
                                                       for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_rate": 1.0 - len(checks.failures) / max(checks.attempted, 1),
    }
    return {k: {"value": float(values[k]), "unit": u} for k, u in END_TO_END.items()}


def per_layer(passes: list[PassResult], traced: list[PassResult]
              ) -> tuple[dict, dict]:
    per_pass = [layer_metrics(t.layers) for t in traced]
    metrics = {m: {"value": statistics.median(p[m] for p in per_pass), "unit": unit}
               for m, (unit, _, _) in PER_LAYER.items()}
    untraced = statistics.median(p.pipeline_s for p in passes)
    extra = {
        "train.final_loss": traced[0].final_loss,
        "trace.overhead_ratio":
            statistics.median(t.pipeline_s for t in traced) / untraced - 1.0,
    }
    metrics.update({m: {"value": float(extra[m]), "unit": unit}
                    for m, unit in EXTRA_LAYER.items()})
    per_call = {name: {"calls": st.calls, **describe(st.call_ms)}
                for name, st in sorted(traced[0].layers.items())}
    return metrics, per_call


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        blas = {"name": "unknown", "version": "unknown"}
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "timing": ("in-process time.perf_counter only; no hardware perf "
                   "counters or system tracing are available, so FLOPs and "
                   "bytes moved are computed from array shapes"),
        "loop": "closed loop, 1 caller",
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    work = WORK_DIR / f"{args.workload}-s{args.seed}-{os.getpid()}"
    try:
        line, detail = run_workload(WORKLOADS[args.workload], args.seed,
                                    args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()  # only once no other run is using it
    print(json.dumps({"environment": environment()}))
    print(json.dumps({"detail": detail}))
    print(json.dumps(line))
    return 0
