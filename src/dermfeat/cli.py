"""Command-line pipeline: gen-data, train, predict, eval, gradcheck.

Flag values override config-file values, which override defaults; every
subcommand echoes its effective configuration as one JSON line before
doing any work. Exit codes: 0 success, 1 runtime failure, 2 usage or
configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import checks, data, metrics, model
from .model import EncoderConfig
from .superpixels import CLASS_NAMES, mask_to_scores
from .train import TrainConfig, predict, train


class ConfigError(Exception):
    """Invalid configuration or missing input file (exit code 2)."""


_DEFAULTS = {
    "gen-data": {
        "out": None, "count": 200, "size": 64, "cell": 8, "seed": 0,
        "split": "train", "max_regions": 3,
        "prevalence": [0.5, 0.5, 0.5, 0.5],
        "region_radius_frac": [0.12, 0.30],
    },
    "train": {
        "data": None, "out": None, "epochs": 5, "batch": 12, "lr": 0.06,
        "momentum": 0.9, "seed": 0, "eps": 1.0,
        "channels": [8, 16, 32, 64, 64],
    },
    # predict/eval accept --seed for interface uniformity; inference is
    # deterministic and never draws from it.
    "predict": {"weights": None, "data": None, "out": None, "seed": 0},
    "eval": {"pred": None, "data": None, "out": None, "seed": 0},
    "gradcheck": {
        "tolerance": 1e-5, "step": 1e-5, "instances": 5, "seed": 0,
        "out": None,
    },
}


def _comma_floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",")]


def _comma_ints(text: str) -> list[int]:
    return [int(v) for v in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dermfeat",
        description="Clinical dermoscopic feature detection pipeline")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file; flags override it")

    p = sub.add_parser("gen-data", help="generate a synthetic dataset")
    p.add_argument("--out", help="output directory")
    p.add_argument("--count", type=int, help="number of samples")
    p.add_argument("--size", type=int, help="image extent (square)")
    p.add_argument("--cell", type=int, help="grid superpixel cell size")
    p.add_argument("--seed", type=int)
    p.add_argument("--split", help="split tag recorded in the manifest")
    p.add_argument("--max-regions", dest="max_regions", type=int)
    p.add_argument("--prevalence", type=_comma_floats,
                   help="four comma-separated per-class prevalences")
    add_common(p)

    p = sub.add_parser("train", help="train on a dataset manifest")
    p.add_argument("--data", help="manifest path")
    p.add_argument("--out", help="output directory")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--momentum", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--eps", type=float)
    p.add_argument("--channels", type=_comma_ints,
                   help="encoder channels per block, comma-separated")
    add_common(p)

    p = sub.add_parser("predict", help="write superpixel scores per image")
    p.add_argument("--weights", help="weights file")
    p.add_argument("--data", help="manifest path")
    p.add_argument("--out", help="output directory")
    p.add_argument("--seed", type=int)
    add_common(p)

    p = sub.add_parser("eval", help="superpixel-level AUROC per class")
    p.add_argument("--pred", help="predictions JSON from the predict command")
    p.add_argument("--data", help="manifest path with ground-truth labels")
    p.add_argument("--out", help="output directory")
    p.add_argument("--seed", type=int)
    add_common(p)

    p = sub.add_parser("gradcheck", help="finite-difference gradient checks")
    p.add_argument("--tolerance", type=float)
    p.add_argument("--step", type=float)
    p.add_argument("--instances", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="optional directory for the JSON report")
    add_common(p)
    return parser


def _effective_config(name: str, args: argparse.Namespace) -> dict:
    cfg = dict(_DEFAULTS[name])
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        with open(path, "r", encoding="utf-8") as fh:
            try:
                file_cfg = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config file {path} is not valid JSON: {exc}")
        for key, value in file_cfg.items():
            if key == "subcommand":  # echoed configs carry this; ignore it
                continue
            if key not in cfg:
                raise ConfigError(f"config file {path} has unknown key {key!r} "
                                  f"for {name}")
            cfg[key] = value
    for key in cfg:
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = flag
    return cfg


def _require(cfg: dict, key: str, name: str) -> str:
    if not cfg.get(key):
        raise ConfigError(f"{name} requires --{key}")
    return str(cfg[key])


def _require_file(path_str: str, what: str) -> Path:
    path = Path(path_str)
    if not path.exists():
        raise ConfigError(f"{what} not found: {path}")
    return path


def _write_report(path: Path, payload) -> None:
    """Stream payload to path as indented JSON. NaN or infinity is an error
    naming the path, and the partly written file is removed."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, allow_nan=False)
            fh.write("\n")
    except ValueError as exc:
        path.unlink()
        raise ValueError(f"{path}: {exc}") from None


def cmd_gen_data(cfg: dict) -> int:
    out = _require(cfg, "out", "gen-data")
    spec = data.SynthSpec(
        image_size=int(cfg["size"]), cell=int(cfg["cell"]),
        prevalence=tuple(float(p) for p in cfg["prevalence"]),
        seed=int(cfg["seed"]), max_regions=int(cfg["max_regions"]),
        region_radius_frac=tuple(float(r) for r in cfg["region_radius_frac"]))
    try:
        spec.validate()
        if int(cfg["count"]) < 1:
            raise ValueError(f"count must be >= 1, got {cfg['count']}")
    except ValueError as exc:
        raise ConfigError(str(exc))

    manifest = data.generate(spec, int(cfg["count"]), out, split=str(cfg["split"]))
    samples = data.load(Path(out) / "manifest.json")
    positives = np.zeros(4, dtype=np.int64)
    total = 0
    for s in samples:
        positives += s.labels.astype(np.int64).sum(axis=0)
        total += s.labels.shape[0]
    print(f"wrote {len(manifest.samples)} samples to {out}")
    print(f"{'class':<18} {'positive superpixels':>20} {'of':>8}")
    for c, name in enumerate(CLASS_NAMES):
        print(f"{name:<18} {int(positives[c]):>20} {total:>8}")
    return 0


def _load_dataset(cfg: dict, name: str) -> tuple[Path, list[data.Sample]]:
    manifest_path = _require_file(_require(cfg, "data", name), "manifest")
    return manifest_path, data.load(manifest_path)


def cmd_train(cfg: dict) -> int:
    manifest_path, samples = _load_dataset(cfg, "train")
    manifest = data.read_manifest(manifest_path)
    out = Path(_require(cfg, "out", "train"))

    encoder = EncoderConfig(channels=tuple(int(c) for c in cfg["channels"]),
                            in_channels=samples[0].image.shape[0])
    tcfg = TrainConfig(batch_size=int(cfg["batch"]), epochs=int(cfg["epochs"]),
                       image_size=manifest.image_size,
                       learning_rate=float(cfg["lr"]),
                       momentum=float(cfg["momentum"]), seed=int(cfg["seed"]),
                       eps=float(cfg["eps"]), encoder=encoder)
    try:
        tcfg.validate()
    except ValueError as exc:
        raise ConfigError(str(exc))

    params, report = train(samples, tcfg)
    out.mkdir(parents=True, exist_ok=True)
    model.save_params(params, encoder, out / "weights.hfcn")
    _write_report(out / "train_report.json", report.to_json_dict())
    for e in report.epoch_stats:
        print(f"epoch {e.epoch}: mean batch loss {e.mean_batch_loss:.6f} "
              f"({e.wall_time_s:.2f}s)")
    print(f"wrote {out / 'weights.hfcn'}")
    return 0


def cmd_predict(cfg: dict) -> int:
    weights_path = _require_file(_require(cfg, "weights", "predict"), "weights file")
    _, samples = _load_dataset(cfg, "predict")
    out = Path(_require(cfg, "out", "predict"))

    params, encoder = model.load_params(weights_path)
    for s in samples:
        try:
            encoder.check_image(s.image)
        except ValueError as exc:
            raise ValueError(f"image {s.name!r} does not fit weights "
                             f"{weights_path}: {exc}") from None
    entries = []
    for s in samples:
        probs = predict(params, encoder, s.image)
        scores = mask_to_scores(s.smap, probs)
        entries.append({"image": s.name, "scores": [list(map(float, row))
                                                    for row in scores]})
    out.mkdir(parents=True, exist_ok=True)
    _write_report(out / "predictions.json", entries)
    print(f"wrote scores for {len(entries)} images to {out / 'predictions.json'}")
    return 0


def cmd_eval(cfg: dict) -> int:
    pred_path = _require_file(_require(cfg, "pred", "eval"), "predictions file")
    _, samples = _load_dataset(cfg, "eval")
    out = Path(_require(cfg, "out", "eval"))

    with open(pred_path, "r", encoding="utf-8") as fh:
        entries = json.load(fh)
    by_image = {e["image"]: np.asarray(e["scores"], dtype=np.float64)
                for e in entries}
    predictions, truths, ids = [], [], []
    for s in samples:
        if s.name not in by_image:
            raise RuntimeError(f"prediction missing for image {s.name}")
        predictions.append(by_image[s.name])
        truths.append(s.labels)
        ids.append(s.name)
    result = metrics.evaluate(predictions, truths, sample_ids=ids)

    out.mkdir(parents=True, exist_ok=True)
    _write_report(out / "eval_report.json", result.to_json_dict())
    print(f"{'class':<18} {'auroc':>8} {'positives':>10} {'negatives':>10}")
    for c in result.per_class:
        shown = "n/a" if c.auroc is None else f"{c.auroc:.4f}"
        print(f"{c.name:<18} {shown:>8} {c.positives:>10} {c.negatives:>10}")
    macro = "n/a" if result.macro_average is None else f"{result.macro_average:.4f}"
    print(f"{'macro':<18} {macro:>8}")
    return 0


def cmd_gradcheck(cfg: dict) -> int:
    try:
        if int(cfg["instances"]) < 1:
            raise ValueError(f"instances must be >= 1, got {cfg['instances']}")
        if float(cfg["step"]) <= 0:
            raise ValueError(f"step must be positive, got {cfg['step']}")
    except ValueError as exc:
        raise ConfigError(str(exc))

    results = checks.run_suite(int(cfg["instances"]), seed=int(cfg["seed"]),
                               step=float(cfg["step"]),
                               tolerance=float(cfg["tolerance"]))
    print(f"{'check':<18} {'max rel error':>14} {'worst index':>16} {'status':>8}")
    all_passed = True
    for name, report in results:
        status = "pass" if report.passed else "FAIL"
        all_passed &= report.passed
        print(f"{name:<18} {report.max_rel_error:>14.3e} "
              f"{str(report.worst_index):>16} {status:>8}")
    if cfg["out"]:
        out = Path(cfg["out"])
        out.mkdir(parents=True, exist_ok=True)
        payload = {
            "tolerance": float(cfg["tolerance"]), "step": float(cfg["step"]),
            "checks": [
                {"name": name, "max_rel_error": r.max_rel_error,
                 "worst_index": list(r.worst_index), "passed": r.passed}
                for name, r in results
            ],
        }
        _write_report(out / "gradcheck_report.json", payload)
    if not all_passed:
        print("gradient check FAILED", file=sys.stderr)
        return 1
    return 0


_COMMANDS = {
    "gen-data": cmd_gen_data,
    "train": cmd_train,
    "predict": cmd_predict,
    "eval": cmd_eval,
    "gradcheck": cmd_gradcheck,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _effective_config(args.subcommand, args)
        print(json.dumps({"subcommand": args.subcommand, **cfg}, sort_keys=True))
        return _COMMANDS[args.subcommand](cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
