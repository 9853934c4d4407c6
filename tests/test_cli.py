"""CLI behavior: config precedence, exit codes, reports, determinism."""

import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import dermfeat
from dermfeat import cli, model
from dermfeat.cli import _OPTIONS, main
from dermfeat.jsonio import write_json
from dermfeat.superpixels import grid_superpixels, write_superpixel_map
from faults import fill_disk


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_tree(root):
    return {p.name: p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_ds")
    code = main(["gen-data", "--out", str(root), "--count", "8", "--size", "32",
                 "--cell", "8", "--seed", "3"])
    assert code == 0
    return root


TRAIN_FLAGS = ["--epochs", "1", "--batch", "4", "--channels", "4,8", "--seed", "1"]


@pytest.fixture(scope="module")
def trained(tmp_path_factory, small_dataset):
    out = tmp_path_factory.mktemp("cli_run")
    code = main(["train", "--data", str(small_dataset / "manifest.json"),
                 "--out", str(out), *TRAIN_FLAGS])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def predicted(tmp_path_factory, small_dataset, trained):
    out = tmp_path_factory.mktemp("cli_pred")
    code = main(["predict", "--weights", str(trained / "weights.hfcn"),
                 "--data", str(small_dataset / "manifest.json"),
                 "--out", str(out)])
    assert code == 0
    return out


class TestGenData:
    def test_writes_manifest_and_echoes_config(self, capsys, tmp_path):
        code, out, _ = run(capsys, "gen-data", "--out", str(tmp_path / "ds"),
                           "--count", "3", "--size", "16", "--cell", "4",
                           "--seed", "7")
        assert code == 0
        echo = json.loads(out.splitlines()[0])
        assert echo["subcommand"] == "gen-data"
        assert echo["count"] == 3 and echo["seed"] == 7
        manifest = json.loads((tmp_path / "ds" / "manifest.json").read_text())
        assert len(manifest["samples"]) == 3

    def test_prints_per_class_positive_counts(self, capsys, tmp_path):
        code, out, _ = run(capsys, "gen-data", "--out", str(tmp_path / "ds"),
                           "--count", "6", "--size", "16", "--cell", "4",
                           "--seed", "7")
        assert code == 0
        assert out.splitlines()[1:] == [
            f"wrote 6 samples to {tmp_path / 'ds'}",
            "class              positive superpixels       of",
            "pigment_network                       9       96",
            "negative_network                      9       96",
            "milia_like_cyst                      16       96",
            "streaks                              11       96",
        ]

    def test_rerun_is_byte_identical(self, capsys, tmp_path):
        args = ["gen-data", "--count", "3", "--size", "16", "--cell", "4",
                "--seed", "9"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        assert read_tree(tmp_path / "a") == read_tree(tmp_path / "b")

    def test_indivisible_size_fails_before_writing(self, capsys, tmp_path):
        out_dir = tmp_path / "ds"
        code, _, err = run(capsys, "gen-data", "--out", str(out_dir),
                           "--count", "2", "--size", "60")
        assert code == 2
        assert "divisible" in err
        assert not out_dir.exists()

    def test_grid_beyond_map_id_range_fails_before_writing(self, capsys,
                                                           tmp_path):
        out_dir = tmp_path / "ds"
        code, _, err = run(capsys, "gen-data", "--out", str(out_dir),
                           "--count", "2", "--size", "512", "--cell", "1")
        assert code == 2
        assert "262144" in err and "65536" in err
        assert not out_dir.exists()

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"count": 2, "size": 16, "cell": 4, "seed": 5}))
        code, out, _ = run(capsys, "gen-data", "--config", str(cfg),
                           "--out", str(tmp_path / "ds"), "--count", "4")
        assert code == 0
        echo = json.loads(out.splitlines()[0])
        assert echo["count"] == 4  # flag wins
        assert echo["size"] == 16  # file wins over default

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sizes": 16}))
        code, _, err = run(capsys, "gen-data", "--config", str(cfg),
                           "--out", str(tmp_path / "ds"))
        assert code == 2
        assert "sizes" in err

    def test_echoed_config_reproduces_run(self, capsys, tmp_path):
        code, out, _ = run(capsys, "gen-data", "--out", str(tmp_path / "a"),
                           "--count", "2", "--size", "16", "--cell", "4",
                           "--seed", "11")
        assert code == 0
        echoed = tmp_path / "echoed.json"
        echoed.write_text(out.splitlines()[0])
        code, _, _ = run(capsys, "gen-data", "--config", str(echoed),
                         "--out", str(tmp_path / "b"))
        assert code == 0
        a = read_tree(tmp_path / "a")
        b = read_tree(tmp_path / "b")
        assert a == b


class TestTrain:
    def test_missing_manifest_exits_2_naming_path(self, capsys, tmp_path):
        code, _, err = run(capsys, "train", "--data",
                           str(tmp_path / "nope.json"), "--out", str(tmp_path))
        assert code == 2
        assert "nope.json" in err

    def test_writes_weights_and_report(self, trained):
        assert (trained / "weights.hfcn").exists()
        report = json.loads((trained / "train_report.json").read_text())
        assert len(report["epochs"]) == 1
        assert "wall_time_s" not in report["epochs"][0]

    def test_zero_lr_reports_identical_epoch_losses(self, capsys, small_dataset,
                                                    tmp_path):
        code, out, _ = run(capsys, "train", "--data",
                           str(small_dataset / "manifest.json"),
                           "--out", str(tmp_path), "--epochs", "3",
                           "--batch", "4", "--lr", "0", "--channels", "2,4")
        assert code == 0
        report = json.loads((tmp_path / "train_report.json").read_text())
        losses = {rec["mean_batch_loss"] for rec in report["epochs"]}
        assert len(losses) == 1

    def test_rerun_is_byte_identical(self, capsys, small_dataset, tmp_path):
        args = ["train", "--data", str(small_dataset / "manifest.json"),
                "--epochs", "1", "--batch", "4", "--channels", "2,4",
                "--seed", "5"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        assert read_tree(tmp_path / "a") == read_tree(tmp_path / "b")

    def test_divergence_names_epoch_and_batch_without_numpy_warning(
            self, tmp_path):
        # A child process shows stderr as a user sees it, with numpy's
        # default warning filters rather than the test suite's.
        src = str(Path(dermfeat.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        cli = [sys.executable, "-m", "dermfeat.cli"]
        ds = tmp_path / "ds"
        subprocess.run(cli + ["gen-data", "--out", str(ds), "--count", "6",
                              "--size", "16", "--cell", "4", "--seed", "1"],
                       env=env, check=True, capture_output=True)
        done = subprocess.run(
            cli + ["train", "--data", str(ds / "manifest.json"),
                   "--out", str(tmp_path / "run"), "--lr", "1e300",
                   "--channels", "4,8", "--batch", "3"],
            env=env, capture_output=True, text=True)
        assert done.returncode == 1
        assert done.stderr == ("error: training diverged at epoch 1, batch 2: "
                               "prediction for 'sample_00004.ppm' is not "
                               "finite\n")


class TestPredict:
    def test_scores_shape_and_range(self, capsys, small_dataset, trained,
                                    tmp_path):
        code, _, _ = run(capsys, "predict", "--weights",
                         str(trained / "weights.hfcn"), "--data",
                         str(small_dataset / "manifest.json"),
                         "--out", str(tmp_path))
        assert code == 0
        entries = json.loads((tmp_path / "predictions.json").read_text())
        assert len(entries) == 8
        for e in entries:
            scores = np.asarray(e["scores"])
            assert scores.shape == (16, 4)  # 32/8 grid -> 16 superpixels
            assert (scores >= 0).all() and (scores <= 1).all()

    def test_missing_weights_exits_2(self, capsys, small_dataset, tmp_path):
        code, _, err = run(capsys, "predict", "--weights",
                           str(tmp_path / "w.hfcn"), "--data",
                           str(small_dataset / "manifest.json"),
                           "--out", str(tmp_path))
        assert code == 2
        assert "w.hfcn" in err

    def test_seed_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["predict", "--seed", "1"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    def test_malformed_weights_exit_1_naming_path(self, capsys, small_dataset,
                                                   trained, tmp_path):
        weights = tmp_path / "w.hfcn"
        weights.write_bytes((trained / "weights.hfcn").read_bytes() + bytes(8))
        code, _, err = run(capsys, "predict", "--weights", str(weights),
                           "--data", str(small_dataset / "manifest.json"),
                           "--out", str(tmp_path))
        assert code == 1
        assert str(weights) in err and "trailing bytes" in err

    def test_image_too_small_for_weights_exits_1_naming_both(self, capsys,
                                                             tmp_path):
        # Six 2x2 pools need extents divisible by 32: train at 32 px,
        # then predict on 16 px images.
        big, small = tmp_path / "big", tmp_path / "small"
        for root, size in ((big, "32"), (small, "16")):
            assert main(["gen-data", "--out", str(root), "--count", "2",
                         "--size", size, "--cell", "4", "--seed", "2"]) == 0
        assert main(["train", "--data", str(big / "manifest.json"),
                     "--out", str(tmp_path / "run"), "--epochs", "1",
                     "--batch", "2", "--channels", "1,1,1,1,1,1"]) == 0
        weights = tmp_path / "run" / "weights.hfcn"
        code, _, err = run(capsys, "predict", "--weights", str(weights),
                           "--data", str(small / "manifest.json"),
                           "--out", str(tmp_path / "pred"))
        assert code == 1
        assert "sample_00000" in err and str(weights) in err
        assert "divisible by 32" in err
        assert not (tmp_path / "pred").exists()

    def test_overflowing_weights_exit_1_naming_both(self, capsys, small_dataset,
                                                    trained, tmp_path, workers):
        # Finite weights load, but the forward overflows to inf - inf = nan.
        # Every image fails, and the first is named, as a serial run names
        # it. numpy warnings are recorded from every thread rather than
        # raised: a pool thread's would otherwise lose to image 0's error.
        params, encoder = model.load_params(trained / "weights.hfcn")
        for a in params.values():
            a[...] = 1e300
        weights = tmp_path / "w.hfcn"
        model.save_params(params, encoder, weights)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run(capsys, "predict", "--weights", str(weights),
                               "--data", str(small_dataset / "manifest.json"),
                               "--out", str(tmp_path / "pred"))
        assert code == 1
        assert str(weights) in err and "sample_00000.ppm" in err
        assert not caught
        assert "RuntimeWarning" not in err and "encountered" not in err
        assert not (tmp_path / "pred").exists()

    def test_worker_count_keeps_output_bytes(self, small_dataset, trained,
                                             predicted, tmp_path, workers):
        # The fixtures ran serially: 32 px lies below PARALLEL_MIN_PIXELS.
        manifest = str(small_dataset / "manifest.json")
        assert main(["train", "--data", manifest, "--out", str(tmp_path),
                     *TRAIN_FLAGS]) == 0
        assert main(["predict", "--weights", str(tmp_path / "weights.hfcn"),
                     "--data", manifest, "--out", str(tmp_path)]) == 0
        assert read_tree(tmp_path) == {**read_tree(trained),
                                       **read_tree(predicted)}


    def test_reads_no_label_file(self, small_dataset, trained, predicted,
                                 tmp_path, workers):
        root = tmp_path / "ds"
        shutil.copytree(small_dataset, root)
        for labels in root.glob("*_labels.json"):
            labels.unlink()
        assert main(["predict", "--weights", str(trained / "weights.hfcn"),
                     "--data", str(root / "manifest.json"),
                     "--out", str(tmp_path / "run")]) == 0
        assert read_tree(tmp_path / "run") == read_tree(predicted)

    def test_memory_does_not_grow_with_the_image_count(self, capsys, trained,
                                                       tmp_path):
        # Images are read one at a time, so 12 more 64 px images add only
        # their score tables (measured: ~0.11 MB in all). Holding their
        # pixels as float64 (98,304 bytes each) added 1.7 MB.
        root = tmp_path / "ds"
        assert main(["gen-data", "--out", str(root), "--count", "16",
                     "--size", "64", "--cell", "8", "--seed", "4"]) == 0
        doc = json.loads((root / "manifest.json").read_text())
        (root / "few.json").write_text(
            json.dumps({**doc, "samples": doc["samples"][:4]}))

        def peak(manifest):
            tracemalloc.start()
            try:
                code, _, _ = run(capsys, "predict", "--weights",
                                 str(trained / "weights.hfcn"), "--data",
                                 str(root / manifest), "--out",
                                 str(tmp_path / "run"))
                traced = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 0
            return traced

        growth = peak("manifest.json") - peak("few.json")
        assert growth < 4 * 3 * 64 * 64 * 8


class TestEval:
    @pytest.fixture()
    def predictions(self, small_dataset, trained, tmp_path):
        assert main(["predict", "--weights", str(trained / "weights.hfcn"),
                     "--data", str(small_dataset / "manifest.json"),
                     "--out", str(tmp_path)]) == 0
        return tmp_path / "predictions.json"

    def test_report_written_and_table_printed(self, capsys, small_dataset,
                                              predictions, tmp_path):
        code, out, _ = run(capsys, "eval", "--pred", str(predictions),
                           "--data", str(small_dataset / "manifest.json"),
                           "--out", str(tmp_path))
        assert code == 0
        assert "pigment_network" in out and "macro" in out
        report = json.loads((tmp_path / "eval_report.json").read_text())
        assert len(report["per_class"]) == 4

    def test_perfect_predictions_score_one(self, capsys, small_dataset,
                                           tmp_path):
        from dermfeat import data as data_mod
        samples = data_mod.load(small_dataset / "manifest.json")
        entries = [{"image": s.name,
                    "scores": [[float(v) for v in row] for row in s.labels]}
                   for s in samples]
        pred_path = tmp_path / "perfect.json"
        pred_path.write_text(json.dumps(entries))
        code, out, _ = run(capsys, "eval", "--pred", str(pred_path),
                           "--data", str(small_dataset / "manifest.json"),
                           "--out", str(tmp_path))
        assert code == 0
        report = json.loads((tmp_path / "eval_report.json").read_text())
        defined = [c["auroc"] for c in report["per_class"]
                   if c["auroc"] is not None]
        assert defined and all(v == 1.0 for v in defined)

    def test_missing_image_prediction_exits_1_naming_it(self, capsys,
                                                        small_dataset,
                                                        predictions, tmp_path):
        entries = json.loads(predictions.read_text())
        dropped = entries[3]["image"]
        predictions.write_text(json.dumps(entries[:3] + entries[4:]))
        code, _, err = run(capsys, "eval", "--pred", str(predictions),
                           "--data", str(small_dataset / "manifest.json"),
                           "--out", str(tmp_path))
        assert code == 1
        assert dropped in err and str(predictions) in err

    def test_reads_no_image_or_superpixel_map(self, small_dataset,
                                              predictions, tmp_path):
        assert main(["eval", "--pred", str(predictions), "--data",
                     str(small_dataset / "manifest.json"),
                     "--out", str(tmp_path / "full")]) == 0
        root = tmp_path / "ds"
        shutil.copytree(small_dataset, root)
        for raster in [*root.glob("*.ppm"), *root.glob("*.pgm")]:
            raster.unlink()
        assert main(["eval", "--pred", str(predictions), "--data",
                     str(root / "manifest.json"),
                     "--out", str(tmp_path / "run")]) == 0
        assert read_tree(tmp_path / "run") == read_tree(tmp_path / "full")

    def test_undefined_class_prints_na(self, capsys, tmp_path):
        from dermfeat import data as data_mod
        root = tmp_path / "ds"
        assert main(["gen-data", "--out", str(root), "--count", "2",
                     "--size", "16", "--cell", "4", "--seed", "1",
                     "--prevalence", "0,0,0,0"]) == 0
        samples = data_mod.load(root / "manifest.json")
        entries = [{"image": s.name,
                    "scores": [[0.5] * 4 for _ in range(s.labels.shape[0])]}
                   for s in samples]
        pred_path = tmp_path / "p.json"
        pred_path.write_text(json.dumps(entries))
        code, out, _ = run(capsys, "eval", "--pred", str(pred_path),
                           "--data", str(root / "manifest.json"),
                           "--out", str(tmp_path))
        assert code == 0
        assert "n/a" in out
        report = json.loads((tmp_path / "eval_report.json").read_text())
        assert report["macro_average"] is None


class TestGradcheck:
    def test_default_run_passes(self, capsys, tmp_path):
        code, out, _ = run(capsys, "gradcheck", "--instances", "2",
                           "--out", str(tmp_path))
        assert code == 0
        report = json.loads((tmp_path / "gradcheck_report.json").read_text())
        assert all(c["passed"] for c in report["checks"])
        assert all("worst_index" in c for c in report["checks"])

    def test_overtight_tolerance_fails(self, capsys):
        code, out, err = run(capsys, "gradcheck", "--instances", "1",
                             "--tolerance", "1e-12")
        assert code == 1
        assert "FAIL" in out

    def test_non_finite_report_exits_1_without_writing(self, capsys, tmp_path,
                                                       monkeypatch):
        from dermfeat import checks
        from dermfeat.gradcheck import GradCheckReport
        nan = float("nan")
        nan_report = GradCheckReport(
            passed=False, max_rel_error=nan, worst_index=(0,),
            analytic_at_worst=nan, numeric_at_worst=0.0, tolerance=1e-5,
            step=1e-5)
        monkeypatch.setattr(checks, "run_suite",
                            lambda *a, **k: [("conv2d", nan_report)])
        code, _, err = run(capsys, "gradcheck", "--out", str(tmp_path))
        report = tmp_path / "gradcheck_report.json"
        assert code == 1
        assert str(report) in err and "not JSON compliant" in err
        assert not report.exists()


@pytest.mark.parametrize("value, reason", [
    (float("nan"), "not JSON compliant"), (float("inf"), "not JSON compliant"),
    (-float("inf"), "not JSON compliant"), (np.int64(3), "not JSON serializable"),
], ids=["nan", "inf", "-inf", "int64"])
def test_report_writer_rejects_non_finite(tmp_path, value, reason):
    path = tmp_path / "r.json"
    with pytest.raises(ValueError, match=f"r.json: .*{reason}"):
        write_json(path, {"epochs": [{"mean_batch_loss": value}]})
    assert list(tmp_path.iterdir()) == []


def test_report_writer_removes_file_on_io_error(tmp_path, monkeypatch):
    path = tmp_path / "predictions.json"
    opened = fill_disk(monkeypatch, room=1)  # the first entry fits
    with pytest.raises(OSError, match=re.escape(
            f"{path}: [Errno 28] No space left on device")):
        write_json(path, [{"image": "a.ppm"}])
    assert opened[0].on_disk == b'[\n  {\n    "image": "a.ppm"\n  }'
    assert list(tmp_path.iterdir()) == []
    # An open that fails removes nothing: the directory stays.
    with pytest.raises(IsADirectoryError):
        write_json(tmp_path, [])
    assert tmp_path.is_dir()


def test_predict_on_full_disk_exits_1_naming_the_file(
        capsys, small_dataset, trained, tmp_path, monkeypatch):
    opened = fill_disk(monkeypatch, room=1)  # the first entry fits
    code, _, err = run(capsys, "predict", "--weights", str(trained / "weights.hfcn"),
                       "--data", str(small_dataset / "manifest.json"),
                       "--out", str(tmp_path))
    path = tmp_path / "predictions.json"
    assert code == 1
    assert f"{path}: [Errno 28] No space left on device" in err
    assert not path.exists()
    assert opened[0].on_disk.startswith(b'[\n  {\n    "image": ')
    assert opened[0].on_disk.count(b'"image"') == 1


def test_every_json_file_has_the_one_writer_format(capsys, tmp_path):
    """Each JSON file the pipeline writes is 2-space indented with a
    trailing newline: the format write_json decides."""
    ds, run_dir = tmp_path / "ds", tmp_path / "run"
    for argv in (
            ["gen-data", "--out", ds, "--count", "2", "--size", "16",
             "--cell", "8", "--seed", "2"],
            ["train", "--data", ds / "manifest.json", "--out", run_dir,
             "--epochs", "1", "--batch", "2", "--channels", "2,2"],
            ["predict", "--weights", run_dir / "weights.hfcn",
             "--data", ds / "manifest.json", "--out", run_dir],
            ["eval", "--pred", run_dir / "predictions.json",
             "--data", ds / "manifest.json", "--out", run_dir],
            ["gradcheck", "--instances", "1", "--out", run_dir]):
        assert main([str(a) for a in argv]) == 0
    written = sorted(tmp_path.rglob("*.json"))
    assert {p.name for p in written} >= {
        "manifest.json", "sample_00000_labels.json", "train_report.json",
        "predictions.json", "eval_report.json", "gradcheck_report.json"}
    for path in written:
        text = path.read_text()
        assert text == json.dumps(json.loads(text), indent=2) + "\n", path


def test_readme_cli_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```")[1]
    lines = [line for line in block.splitlines() if line.startswith("dermfeat ")]
    parsed = set()
    for line in lines:
        try:
            args = cli.build_parser().parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README line does not parse: {line}")
        parsed.add(args.subcommand)
    assert parsed == set(_OPTIONS)


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--no-such-flag"])
    assert exc.value.code == 2


def _non_default_text(default, key):
    """Flag text for an option whose parsed value differs from default."""
    if default is None:
        return f"some/{key}"
    if isinstance(default, str):
        return default + "x"
    if isinstance(default, tuple):
        return ",".join(str(v + 1) for v in default)
    return str(default + 1)


@pytest.mark.parametrize("name", sorted(_OPTIONS))
def test_table_keys_are_flags_and_echo_replays(capsys, tmp_path, monkeypatch,
                                               name):
    monkeypatch.setitem(cli._COMMANDS, name, lambda cfg: 0)
    options = _OPTIONS[name][1]
    argv = [name]
    for key, (default, _, _) in options.items():
        argv += ["--" + key.replace("_", "-"), _non_default_text(default, key)]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    echo = json.loads(out)
    assert sorted(echo) == sorted(["subcommand", *options])
    for key, (default, parse, _) in options.items():
        expected = parse(_non_default_text(default, key))
        assert echo[key] == json.loads(json.dumps(expected)) != default
    # Replay that echo, and the all-defaults echo with its null paths.
    code, defaults, _ = run(capsys, name)
    assert code == 0
    for echoed in (out, defaults):
        config = tmp_path / "echo.json"
        config.write_text(echoed)
        code, replayed, _ = run(capsys, name, "--config", str(config))
        assert code == 0
        assert replayed == echoed


MALFORMED_CONFIGS = [
    ("train", '{"epochs": 1.7}', "epochs"),
    ("train", '{"batch": 8.9}', "batch"),
    ("train", '{"channels": [4.6, 8.2]}', "channels"),
    ("train", '{"seed": 7.5}', "seed"),
    ("train", '{"epochs": true}', "epochs"),
    ("train", '{"epochs": "abc"}', "epochs"),
    ("train", '{"momentum": null}', "momentum"),
    ("train", '{"lr": NaN}', "lr"),
    ("train", '{"eps": [1.0]}', "eps"),
    ("train", '{"data": {"path": "m.json"}}', "data"),
    ("train", '{"channels": "8"}', "channels"),
    ("train", '{"out": ["run"]}', "out"),
    ("gen-data", '{"size": 64.9}', "size"),
    ("gen-data", '{"prevalence": "0.5"}', "prevalence"),
    ("gen-data", '{"split": null}', "split"),
    ("gradcheck", '{"step": Infinity}', "step"),
    ("gradcheck", '{"tolerance": 1e400}', "tolerance"),
    ("train", '[{"epochs": 1}]', None),
]


@pytest.mark.parametrize(
    "name, text, key", MALFORMED_CONFIGS,
    ids=[name + re.sub(r"\W+", "-", text).rstrip("-")
         for name, text, _ in MALFORMED_CONFIGS])
def test_malformed_config_exits_2_naming_file_and_key(capsys, tmp_path, name,
                                                       text, key):
    config = tmp_path / "cfg.json"
    config.write_text(text)
    code, out, err = run(capsys, name, "--config", str(config))
    assert code == 2
    assert out == ""  # rejected before the echo
    assert str(config) in err
    assert key is None or repr(key) in err


@pytest.mark.parametrize("argv", [
    ["train", "--lr", "nan"], ["train", "--eps", "inf"],
    ["gradcheck", "--step", "inf"], ["gradcheck", "--tolerance", "-inf"],
    ["gen-data", "--prevalence", "0.5,nan,0.5,0.5"],
], ids="_".join)
def test_non_finite_flag_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert argv[1] in capsys.readouterr().err


bad_train_values = pytest.mark.parametrize("flags, message", [
    (["--channels", "0,4"], "channels"),
    (["--batch", "0"], "batch_size"),
    (["--eps", "-1"], "eps"),
    (["--eps", "0"], "eps"),
    (["--seed", "-1"], "seed must be >= 0, got -1"),
], ids=["channels-0-4", "batch-0", "eps-minus-1", "eps-0", "seed-minus-1"])


@bad_train_values
def test_bad_train_value_exits_2(capsys, small_dataset, tmp_path, flags,
                                 message):
    code, _, err = run(capsys, "train", "--data",
                       str(small_dataset / "manifest.json"),
                       "--out", str(tmp_path / "run"), *flags)
    assert code == 2
    assert message in err
    assert not (tmp_path / "run").exists()


@pytest.fixture(scope="module")
def broken_dataset(tmp_path_factory, small_dataset):
    """small_dataset without sample 3's image: loading it fails."""
    root = tmp_path_factory.mktemp("cli_broken") / "ds"
    shutil.copytree(small_dataset, root)
    (root / "sample_00003.ppm").unlink()
    return root


@bad_train_values
def test_bad_train_value_exits_2_before_loading(capsys, broken_dataset,
                                                tmp_path, flags, message):
    code, _, err = run(capsys, "train", "--data",
                       str(broken_dataset / "manifest.json"),
                       "--out", str(tmp_path / "run"), *flags)
    assert code == 2
    assert message in err and "sample_00003" not in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("flags, message", [
    (["--step", "0"], "step"),
    (["--tolerance", "0"], "tolerance"),
    (["--tolerance", "-1"], "tolerance"),
    (["--instances", "0"], "instances"),
    (["--seed", "-1"], "seed"),
], ids=["step-0", "tolerance-0", "tolerance-minus-1", "instances-0",
        "seed-minus-1"])
def test_bad_gradcheck_value_exits_2(capsys, tmp_path, flags, message):
    code, out, err = run(capsys, "gradcheck", "--out", str(tmp_path / "gc"),
                         *flags)
    assert code == 2
    assert f"{message} must be" in err
    assert "FAIL" not in out  # rejected before any check runs
    assert not (tmp_path / "gc").exists()


def test_negative_gen_data_seed_exits_2_before_writing(capsys, tmp_path):
    code, _, err = run(capsys, "gen-data", "--out", str(tmp_path / "ds"),
                       "--seed", "-1")
    assert code == 2
    assert "seed must be >= 0, got -1" in err
    assert not (tmp_path / "ds").exists()


def test_region_radius_flag_is_validated(capsys, tmp_path):
    code, _, err = run(capsys, "gen-data", "--out", str(tmp_path / "ds"),
                       "--region-radius-frac", "0.1")
    assert code == 2
    assert "region_radius_frac needs 2 entries" in err
    assert not (tmp_path / "ds").exists()


@pytest.mark.parametrize("name", ["train", "predict", "eval"])
def test_empty_manifest_exits_1_naming_it(capsys, trained, tmp_path, name):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"split": "train", "image_size": 32,
                                    "seed": 0, "samples": []}))
    inputs = {"train": [],
              "predict": ["--weights", str(trained / "weights.hfcn")],
              "eval": ["--pred", str(trained / "train_report.json")]}[name]
    code, _, err = run(capsys, name, *inputs, "--data", str(manifest),
                       "--out", str(tmp_path / "run"))
    assert code == 1
    assert err == f"error: {manifest}: manifest lists no samples\n"
    assert not (tmp_path / "run").exists()



@pytest.mark.parametrize("name", ["train", "predict", "eval"])
def test_non_string_split_exits_1_naming_the_manifest(capsys, small_dataset,
                                                      trained, tmp_path, name):
    root = tmp_path / "ds"
    shutil.copytree(small_dataset, root)
    manifest = root / "manifest.json"
    _edit_json(manifest, lambda d: {**d, "split": [5, None]})
    argv = _pipeline_inputs(name, small_dataset, trained)
    argv[argv.index("--data") + 1] = str(manifest)
    code, _, err = run(capsys, name, *argv, "--out", str(tmp_path / "run"))
    assert code == 1
    assert err == (f"error: {manifest}: malformed manifest: 'split' must be "
                   f"str, got [5, null]\n")
    assert not (tmp_path / "run").exists()

def _edit_json(path, edit):
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))


def _truncate(path):
    path.write_text(path.read_text()[:40])


def _drop_key(key):
    def edit(doc):
        del doc[key]
        return doc
    return edit


def _zeroed(entry):
    return {**entry, "scores": [[0.0] * 4] * len(entry["scores"])}


@pytest.mark.parametrize("target, mutate, message", [
    ("manifest.json", lambda p: _edit_json(
        p, lambda d: {**d, "samples": [_drop_key("superpixels")(d["samples"][0]),
                                       *d["samples"][1:]]}),
     "manifest lacks key 'superpixels'"),
    ("manifest.json", _truncate, "malformed manifest"),
    ("sample_00002_labels.json",
     lambda p: _edit_json(p, lambda d: {**d, "classes": 5}), "malformed labels"),
    ("pred.json", lambda p: _edit_json(
        p, lambda d: [_drop_key("scores")(d[0]), *d[1:]]),
     "predictions lacks key 'scores'"),
    # First or last, a repeat would otherwise hide or replace real scores.
    ("pred.json", lambda p: _edit_json(p, lambda d: [_zeroed(d[0]), *d]),
     "malformed predictions: image 'sample_00000.ppm' is listed twice"),
    ("pred.json", lambda p: _edit_json(p, lambda d: [*d, _zeroed(d[0])]),
     "malformed predictions: image 'sample_00000.ppm' is listed twice"),
    # predict would write such a manifest's image twice.
    ("manifest.json", lambda p: _edit_json(
        p, lambda d: {**d, "samples": [*d["samples"], d["samples"][1]]}),
     "malformed manifest: image 'sample_00001.ppm' is listed twice"),
    ("pred.json", lambda p: _edit_json(p, lambda d: {"entries": d}),
     "malformed predictions"),
    ("pred.json", _truncate, "malformed predictions"),
    ("manifest.json", lambda p: _edit_json(
        p, lambda d: {**d, "samples": [{**d["samples"][0], "image": 5},
                                       *d["samples"][1:]]}),
     "malformed manifest: 'image' must be str, got 5"),
    # 32 px images: int() would truncate 32.9 and pass.
    ("manifest.json", lambda p: _edit_json(p, lambda d: {**d, "image_size": 32.9}),
     "malformed manifest: 'image_size' must be int, got 32.9"),
    ("manifest.json", lambda p: _edit_json(p, lambda d: {**d, "image_size": True}),
     "malformed manifest: 'image_size' must be int, got true"),
    ("sample_00002_labels.json", lambda p: _edit_json(
        p, lambda d: {**d, "superpixel_count": d["superpixel_count"] + 0.7}),
     "malformed labels: 'superpixel_count' must be int, got 16.7"),
    # np.asarray would read true as 1.0 and "1" as 1.0.
    ("sample_00002_labels.json", lambda p: _edit_json(
        p, lambda d: {**d, "labels": [[True, "1", 0, 0], *d["labels"][1:]]}),
     "malformed labels: 'labels' entries must be numbers, got bool, str"),
    ("pred.json", lambda p: _edit_json(
        p, lambda d: [{**d[0], "scores": [["0.5", True, 0.1, 0.2],
                                          *d[0]["scores"][1:]]}, *d[1:]]),
     "malformed predictions: 'scores' entries must be numbers, got bool, str"),
], ids=["manifest-entry-missing-key", "manifest-truncated",
        "labels-classes-not-a-list", "prediction-missing-scores",
        "prediction-repeated-first", "prediction-repeated-last",
        "manifest-image-repeated",
        "predictions-not-a-list", "predictions-truncated",
        "manifest-image-not-a-string", "manifest-image-size-float",
        "manifest-image-size-bool", "labels-count-float",
        "labels-entry-bool-or-string", "prediction-score-bool-or-string"])
def test_malformed_json_input_exits_1_naming_file(capsys, small_dataset,
                                                  tmp_path, target, mutate,
                                                  message):
    from dermfeat import data as data_mod
    root = tmp_path / "ds"
    shutil.copytree(small_dataset, root)
    entries = [{"image": s.name, "scores": s.labels.tolist()}
               for s in data_mod.load(root / "manifest.json")]
    (root / "pred.json").write_text(json.dumps(entries))
    mutate(root / target)
    code, _, err = run(capsys, "eval", "--pred", str(root / "pred.json"),
                       "--data", str(root / "manifest.json"),
                       "--out", str(tmp_path / "run"))
    assert code == 1
    assert str(root / target) in err and message in err


def test_score_outside_unit_interval_exits_1_naming_image(capsys, small_dataset,
                                                          tmp_path):
    from dermfeat import data as data_mod
    samples = data_mod.load(small_dataset / "manifest.json")
    entries = [{"image": s.name, "scores": s.labels.tolist()} for s in samples]
    entries[2]["scores"][0] = [7.0, -3.0, 0.5, 0.5]
    pred_path = tmp_path / "pred.json"
    pred_path.write_text(json.dumps(entries))
    code, _, err = run(capsys, "eval", "--pred", str(pred_path),
                       "--data", str(small_dataset / "manifest.json"),
                       "--out", str(tmp_path / "run"))
    assert code == 1
    assert err == (f"error: {samples[2].name}: prediction scores must lie "
                   f"in [0, 1]\n")
    assert not (tmp_path / "run").exists()


def test_prediction_for_unlisted_image_exits_1(capsys, small_dataset, tmp_path):
    from dermfeat import data as data_mod
    root = tmp_path / "ds"
    shutil.copytree(small_dataset, root)
    entries = [{"image": s.name, "scores": s.labels.tolist()}
               for s in data_mod.load(root / "manifest.json")]
    (root / "pred.json").write_text(json.dumps(entries))
    _edit_json(root / "manifest.json",
               lambda d: {**d, "samples": d["samples"][:3]})
    code, _, err = run(capsys, "eval", "--pred", str(root / "pred.json"),
                       "--data", str(root / "manifest.json"),
                       "--out", str(tmp_path / "run"))
    assert code == 1
    assert err == (f"error: {root / 'pred.json'}: prediction for image "
                   f"'{entries[3]['image']}' is not in manifest "
                   f"{root / 'manifest.json'}\n")
    assert not (tmp_path / "run").exists()


def _wrong_size_map(path):
    write_superpixel_map(grid_superpixels(16, 16, 8), path)


@pytest.mark.parametrize("target, fault, message", [
    ("sample_00005.ppm", Path.unlink, "No such file or directory"),
    ("sample_00005.ppm", lambda p: p.write_bytes(p.read_bytes()[:-7]),
     "truncated raster"),
    ("sample_00005_superpixels.pgm", _wrong_size_map,
     "sample_00005.ppm: superpixel map is 16x16, image is 32x32"),
], ids=["image-missing", "image-truncated", "map-wrong-size"])
def test_predict_failure_partway_exits_1_naming_it(
        capsys, small_dataset, trained, tmp_path, workers, target, fault,
        message):
    # Images are read as they are predicted, so samples 0-4 have run when
    # sample 5 fails. Sample 7 is broken too: the first failure in
    # manifest order is the one raised, at any thread count.
    root = tmp_path / "ds"
    shutil.copytree(small_dataset, root)
    fault(root / target)
    (root / "sample_00007.ppm").unlink()
    threads = threading.active_count()
    code, _, err = run(capsys, "predict", "--weights",
                       str(trained / "weights.hfcn"), "--data",
                       str(root / "manifest.json"),
                       "--out", str(tmp_path / "run"))
    assert code == 1
    assert message in err and "sample_00005" in err
    assert "sample_00007" not in err
    assert not (tmp_path / "run").exists()
    assert threading.active_count() == threads  # the pool is shut down


def _pipeline_inputs(name, small_dataset, trained):
    """Valid input flags for each subcommand, --out aside."""
    manifest = str(small_dataset / "manifest.json")
    return {"gen-data": ["--count", "2", "--size", "16", "--cell", "4"],
            "train": ["--data", manifest, "--epochs", "1", "--batch", "4",
                      "--channels", "4,8"],
            "predict": ["--weights", str(trained / "weights.hfcn"),
                        "--data", manifest],
            "eval": ["--pred", str(trained / "train_report.json"),
                     "--data", manifest],
            "gradcheck": ["--instances", "1"]}[name]


@pytest.mark.parametrize("name, flag", [
    ("gen-data", "--config"), ("train", "--data"), ("predict", "--weights"),
    ("eval", "--pred")])
def test_directory_for_an_input_file_exits_2_naming_it(
        capsys, small_dataset, trained, tmp_path, name, flag):
    folder = tmp_path / "folder"
    folder.mkdir()
    argv = _pipeline_inputs(name, small_dataset, trained)
    if flag in argv:
        argv[argv.index(flag) + 1] = str(folder)
    else:
        argv += [flag, str(folder)]
    code, _, err = run(capsys, name, *argv, "--out", str(tmp_path / "run"))
    assert code == 2
    assert f"is a directory: {folder}\n" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("nested", [False, True], ids=["file", "under-file"])
@pytest.mark.parametrize("name", list(_OPTIONS))
def test_out_naming_a_file_exits_2_before_any_work(
        capsys, small_dataset, trained, tmp_path, name, nested):
    taken = tmp_path / "taken"
    taken.write_bytes(b"keep")
    out = taken / "run" if nested else taken
    code, stdout, err = run(capsys, name,
                            *_pipeline_inputs(name, small_dataset, trained),
                            "--out", str(out))
    assert code == 2
    assert err == (f"error: output directory {out}: {taken} is not a "
                   f"directory\n")
    assert len(stdout.splitlines()) == 1  # the config echo, then nothing
    assert taken.read_bytes() == b"keep"


@pytest.mark.parametrize("name, broken", [
    ("train", "sample_00003.ppm"), ("train", "manifest.json"),
    ("predict", "manifest.json"), ("eval", "manifest.json")],
    ids=["train-image", "train-manifest", "predict-manifest", "eval-manifest"])
def test_out_under_a_file_exits_2_before_reading_any_input(
        capsys, small_dataset, trained, tmp_path, name, broken):
    # The --out check comes first, so a broken input does not hide it.
    root = tmp_path / "ds"
    shutil.copytree(small_dataset, root)
    if broken == "manifest.json":
        _truncate(root / broken)
    else:
        (root / broken).unlink()
    argv = _pipeline_inputs(name, small_dataset, trained)
    argv[argv.index("--data") + 1] = str(root / "manifest.json")
    taken = tmp_path / "taken"
    taken.write_bytes(b"keep")
    code, stdout, err = run(capsys, name, *argv, "--out", str(taken / "run"))
    assert code == 2
    assert err == (f"error: output directory {taken / 'run'}: {taken} is not "
                   f"a directory\n")
    assert len(stdout.splitlines()) == 1  # the config echo, then nothing
