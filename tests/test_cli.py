"""CLI behavior: config precedence, exit codes, reports, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dermfeat
from dermfeat.cli import main


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


@pytest.fixture(scope="module")
def trained(tmp_path_factory, small_dataset):
    out = tmp_path_factory.mktemp("cli_run")
    code = main(["train", "--data", str(small_dataset / "manifest.json"),
                 "--out", str(out), "--epochs", "1", "--batch", "4",
                 "--channels", "4,8", "--seed", "1"])
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
        assert dropped in err

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


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_report_writer_rejects_non_finite(tmp_path, value):
    from dermfeat.cli import _write_report
    path = tmp_path / "r.json"
    with pytest.raises(ValueError, match="r.json"):
        _write_report(path, {"epochs": [{"mean_batch_loss": value}]})
    assert not path.exists()


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--no-such-flag"])
    assert exc.value.code == 2
