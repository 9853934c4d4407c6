"""Command-line pipeline: gen-data, train, predict, eval, gradcheck.

Flag values override config-file values, which override defaults; every
subcommand echoes its effective configuration as one JSON line before
doing any work. Exit codes: 0 success, 1 runtime failure, 2 usage or
configuration error.

Each command reads only the files it uses: train loads every sample,
predict reads each image and superpixel map as it predicts that image
and opens no label file, and eval reads the labels and predictions and
opens no image or map.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import checks, data, metrics, model
from .jsonio import by_key, json_table, read_json, write_json
from .model import EncoderConfig
from .superpixels import CLASS_NAMES, mask_to_scores, read_labels
from .train import TrainConfig, image_map, predict, train


class ConfigError(Exception):
    """Invalid configuration or missing input file (exit code 2)."""


def finite_float(text: str) -> float:
    """float() that rejects nan and +-inf, so none reaches a config echo."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def _comma_list(item):
    """Parser for comma-separated item values, returned as a tuple."""
    def parse(text: str) -> tuple:
        return tuple(item(v) for v in text.split(","))
    parse.__name__ = f"comma-separated {item.__name__}"  # argparse's message
    return parse


def _config_value(path: Path, key: str, value, default, parse):
    """Parse a config value as its flag text: str(value) for a scalar, the
    items joined by commas for a list. null only where the default is None."""
    if value is None and default is None:
        return None
    is_list = isinstance(default, tuple)
    try:
        if not isinstance(value, list if is_list else (str, int, float)):
            raise ValueError("expected a list" if is_list else "expected one value")
        return parse(",".join(map(str, value)) if is_list else str(value))
    except ValueError as exc:
        raise ConfigError(f"config file {path}: bad {key!r} value "
                          f"{json.dumps(value)}: {exc}") from None


# subcommand -> (help, {key: (default, parser, help)}). Each key is the
# config-file key and, with "_" as "-", the flag; config values go through
# the same parser as flag text, and a tuple default marks a list option.
# A default that a config dataclass holds is read from that class.
_OPTIONS = {
    "gen-data": ("generate a synthetic dataset", {
        "out": (None, str, "output directory"),
        "count": (200, int, "number of samples"),
        "size": (data.SynthSpec.image_size, int, "image extent (square)"),
        "cell": (data.SynthSpec.cell, int, "grid superpixel cell size"),
        "seed": (data.SynthSpec.seed, int, None),
        "split": ("train", str, "split tag recorded in the manifest"),
        "max_regions": (data.SynthSpec.max_regions, int, None),
        "prevalence": (data.SynthSpec.prevalence, _comma_list(finite_float),
                       "four comma-separated per-class prevalences"),
        "region_radius_frac": (data.SynthSpec.region_radius_frac,
                               _comma_list(finite_float),
                               "smallest and largest region radius as "
                               "fractions of the image size"),
    }),
    "train": ("train on a dataset manifest", {
        "data": (None, str, "manifest path"),
        "out": (None, str, "output directory"),
        "epochs": (TrainConfig.epochs, int, None),
        "batch": (TrainConfig.batch_size, int, None),
        "lr": (TrainConfig.learning_rate, finite_float, None),
        "momentum": (TrainConfig.momentum, finite_float, None),
        "seed": (TrainConfig.seed, int, None),
        "eps": (TrainConfig.eps, finite_float, None),
        "channels": (EncoderConfig.channels, _comma_list(int),
                     "encoder channels per block, comma-separated"),
    }),
    "predict": ("write superpixel scores per image", {
        "weights": (None, str, "weights file"),
        "data": (None, str, "manifest path"),
        "out": (None, str, "output directory"),
    }),
    "eval": ("superpixel-level AUROC per class", {
        "pred": (None, str, "predictions JSON from the predict command"),
        "data": (None, str, "manifest path with ground-truth labels"),
        "out": (None, str, "output directory"),
    }),
    "gradcheck": ("finite-difference gradient checks", {
        "tolerance": (1e-5, finite_float, None),
        "step": (1e-5, finite_float, None),
        "instances": (5, int, None),
        "seed": (0, int, None),
        "out": (None, str, "optional directory for the JSON report"),
    }),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dermfeat",
        description="Clinical dermoscopic feature detection pipeline")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_text, options) in _OPTIONS.items():
        p = sub.add_parser(name, help=help_text)
        for key, (_, parse, help_opt) in options.items():
            p.add_argument("--" + key.replace("_", "-"), type=parse, help=help_opt)
        p.add_argument("--config", help="JSON config file; flags override it")
    return parser


def _effective_config(name: str, args: argparse.Namespace) -> dict:
    options = _OPTIONS[name][1]
    cfg = {key: default for key, (default, _, _) in options.items()}
    if args.config:
        path = _require_file(args.config, "config file")
        try:
            # {**doc} is the object check: TypeError "not a mapping".
            file_cfg = read_json(path, "config file", lambda doc: {**doc})
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        for key, value in file_cfg.items():
            if key == "subcommand":  # echoed configs carry this; ignore it
                continue
            if key not in cfg:
                raise ConfigError(f"config file {path} has unknown key {key!r} "
                                  f"for {name}")
            cfg[key] = _config_value(path, key, value, *options[key][:2])
    cfg.update((k, v) for k, v in vars(args).items() if k in cfg and v is not None)
    return cfg


def _require(cfg: dict, key: str, name: str) -> str:
    if not cfg.get(key):
        raise ConfigError(f"{name} requires --{key}")
    return cfg[key]


def _require_file(path_str: str, what: str) -> Path:
    path = Path(path_str)
    if not path.exists():
        raise ConfigError(f"{what} not found: {path}")
    if path.is_dir():
        raise ConfigError(f"{what} is a directory: {path}")
    return path


def _out_dir(out: str) -> Path:
    """Check an --out path before any work: it and its nearest existing
    ancestor must be directories. It is created only when written."""
    path = Path(out)
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"output directory {path}: {existing} is not a directory")
    return path


def cmd_gen_data(cfg: dict) -> int:
    out = _out_dir(_require(cfg, "out", "gen-data"))
    try:
        spec = data.SynthSpec(
            image_size=cfg["size"], cell=cfg["cell"], seed=cfg["seed"],
            prevalence=cfg["prevalence"], max_regions=cfg["max_regions"],
            region_radius_frac=cfg["region_radius_frac"])
        if cfg["count"] < 1:
            raise ValueError(f"count must be >= 1, got {cfg['count']}")
    except ValueError as exc:
        raise ConfigError(str(exc))

    manifest, sample_labels = data.generate(spec, cfg["count"], out,
                                            split=cfg["split"])
    labels = np.concatenate(sample_labels)
    positives, total = labels.sum(axis=0), labels.shape[0]
    print(f"wrote {len(manifest.samples)} samples to {out}")
    print(f"{'class':<18} {'positive superpixels':>20} {'of':>8}")
    for c, name in enumerate(CLASS_NAMES):
        print(f"{name:<18} {int(positives[c]):>20} {total:>8}")
    return 0


def _manifest_path(cfg: dict, name: str) -> Path:
    return _require_file(_require(cfg, "data", name), "manifest")


def cmd_train(cfg: dict) -> int:
    manifest_path = _manifest_path(cfg, "train")
    out = _out_dir(_require(cfg, "out", "train"))

    try:
        # data.load reads every image as 3 channels, EncoderConfig's default.
        encoder = EncoderConfig(channels=cfg["channels"])
        tcfg = TrainConfig(batch_size=cfg["batch"], epochs=cfg["epochs"],
                           learning_rate=cfg["lr"], momentum=cfg["momentum"],
                           seed=cfg["seed"], eps=cfg["eps"], encoder=encoder)
    except ValueError as exc:
        raise ConfigError(str(exc))

    params, report = train(data.load(manifest_path), tcfg)
    out.mkdir(parents=True, exist_ok=True)
    model.save_params(params, encoder, out / "weights.hfcn")
    write_json(out / "train_report.json", report.to_json_dict())
    for e in report.epoch_stats:
        print(f"epoch {e.epoch}: mean batch loss {e.mean_batch_loss:.6f} "
              f"({e.wall_time_s:.2f}s)")
    print(f"wrote {out / 'weights.hfcn'}")
    return 0


def cmd_predict(cfg: dict) -> int:
    weights_path = _require_file(_require(cfg, "weights", "predict"), "weights file")
    manifest_path = _manifest_path(cfg, "predict")
    out = _out_dir(_require(cfg, "out", "predict"))
    manifest = data.read_manifest(manifest_path)

    params, encoder = model.load_params(weights_path)

    def entry(sample: data.ManifestEntry) -> dict:
        # Each image is read here, so only a round of them is ever held.
        image, smap = data.read_sample(manifest_path.parent, sample,
                                       manifest.image_size)
        try:
            encoder.check_image(image)
        except ValueError as exc:
            raise ValueError(f"image {sample.image!r} does not fit weights "
                             f"{weights_path}: {exc}") from None
        probs = predict(params, encoder, image)
        if not np.isfinite(probs).all():
            raise ValueError(f"weights {weights_path} give non-finite "
                             f"probabilities for image {sample.image!r}")
        return {"image": sample.image,
                "scores": mask_to_scores(smap, probs).tolist()}

    # read_sample holds every image to the manifest's square extent.
    # Finite but huge weights overflow inside the ops; the check in entry
    # names the image and weights instead of numpy's warnings.
    with np.errstate(over="ignore", invalid="ignore"), \
            image_map(manifest.image_size ** 2) as each:
        entries = list(each(entry, manifest.samples))
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "predictions.json", entries)
    print(f"wrote scores for {len(entries)} images to {out / 'predictions.json'}")
    return 0


def _parse_predictions(entries: list) -> dict[str, np.ndarray]:
    """Image name -> [K,4] scores; an image listed twice is an error."""
    return {name: json_table(e, "scores")
            for name, e in by_key(entries, "image").items()}


def cmd_eval(cfg: dict) -> int:
    pred_path = _require_file(_require(cfg, "pred", "eval"), "predictions file")
    manifest_path = _manifest_path(cfg, "eval")
    out = _out_dir(_require(cfg, "out", "eval"))
    manifest = data.read_manifest(manifest_path)

    # Only the labels: eval opens no image or superpixel map.
    names = [s.image for s in manifest.samples]
    labels = [read_labels(manifest_path.parent / s.labels)
              for s in manifest.samples]
    by_image = read_json(pred_path, "predictions", _parse_predictions)
    listed = set(names)
    for name in by_image:
        if name not in listed:
            raise RuntimeError(f"{pred_path}: prediction for image '{name}' "
                               f"is not in manifest {cfg['data']}")
    for name in names:
        if name not in by_image:
            raise RuntimeError(f"{pred_path}: prediction missing for image {name}")
    result = metrics.evaluate([by_image[name] for name in names], labels,
                              sample_ids=names)

    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "eval_report.json", result.to_json_dict())
    print(f"{'class':<18} {'auroc':>8} {'positives':>10} {'negatives':>10}")
    for c in result.per_class:
        shown = "n/a" if c.auroc is None else f"{c.auroc:.4f}"
        print(f"{c.name:<18} {shown:>8} {c.positives:>10} {c.negatives:>10}")
    macro = "n/a" if result.macro_average is None else f"{result.macro_average:.4f}"
    print(f"{'macro':<18} {macro:>8}")
    return 0


def cmd_gradcheck(cfg: dict) -> int:
    if cfg["instances"] < 1:
        raise ConfigError(f"instances must be >= 1, got {cfg['instances']}")
    if cfg["seed"] < 0:
        raise ConfigError(f"seed must be >= 0, got {cfg['seed']}")
    for key in ("step", "tolerance"):
        if cfg[key] <= 0:
            raise ConfigError(f"{key} must be positive, got {cfg[key]}")
    out = _out_dir(cfg["out"]) if cfg["out"] else None

    results = checks.run_suite(cfg["instances"], seed=cfg["seed"],
                               step=cfg["step"], tolerance=cfg["tolerance"])
    print(f"{'check':<18} {'max rel error':>14} {'worst index':>16} {'status':>8}")
    for name, report in results:
        status = "pass" if report.passed else "FAIL"
        print(f"{name:<18} {report.max_rel_error:>14.3e} "
              f"{str(report.worst_index):>16} {status:>8}")
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        payload = {
            "tolerance": cfg["tolerance"], "step": cfg["step"],
            "checks": [
                {"name": name, "max_rel_error": r.max_rel_error,
                 "worst_index": list(r.worst_index), "passed": r.passed}
                for name, r in results
            ],
        }
        write_json(out / "gradcheck_report.json", payload)
    if not all(r.passed for _, r in results):
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
