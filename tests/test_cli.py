import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from rlaod.agent import init_params
from rlaod.features import STATE_DIM
from rlaod.orchestrator import AgentBundle, build_eval_set, load_config, load_dataset
from rlaod.orchestrator.cli import main


def run_cli(*args):
    return main(list(args))


@pytest.fixture
def tiny_config_file(tmp_path):
    cfg = {
        "scene": {
            "width": 64,
            "height": 64,
            "count_range": [0, 2],
            "area_range": [676.0, 1024.0],
        },
        "train": {
            "iterations_brightness": 50,
            "iterations_scale": 30,
            "hidden_width": 8,
            "warmup": 16,
            "target_sync_every": 20,
        },
        "n_eval_scenes": 2,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestGenData:
    def test_creates_dataset(self, tmp_path, tiny_config_file, capsys):
        out = tmp_path / "data"
        assert run_cli("--config", tiny_config_file, "gen-data", "--out", str(out), "--n", "3") == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["images"]) == 3

    def test_seed_override_changes_content(self, tmp_path, tiny_config_file):
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        run_cli("--config", tiny_config_file, "gen-data", "--out", str(a), "--n", "2")
        run_cli("--config", tiny_config_file, "--seed", "99", "gen-data", "--out", str(b), "--n", "2")
        run_cli("--config", tiny_config_file, "gen-data", "--out", str(c), "--n", "2")
        assert (a / "manifest.json").read_bytes() == (c / "manifest.json").read_bytes()
        assert (a / "manifest.json").read_bytes() != (b / "manifest.json").read_bytes()


class TestDegradeCommand:
    def test_five_x_expansion(self, tmp_path, tiny_config_file):
        data = tmp_path / "data"
        out = tmp_path / "degraded"
        run_cli("--config", tiny_config_file, "gen-data", "--out", str(data), "--n", "2")
        assert run_cli("--config", tiny_config_file, "degrade", "--data", str(data), "--out", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["images"]) == 10

    def test_variants_match_eval_set(self, tmp_path, tiny_config_file):
        data = tmp_path / "data"
        out = tmp_path / "degraded"
        run_cli("--config", tiny_config_file, "gen-data", "--out", str(data), "--n", "3")
        assert run_cli("--config", tiny_config_file, "degrade", "--data", str(data), "--out", str(out)) == 0
        cfg = load_config(tiny_config_file)
        expected = build_eval_set(cfg, load_dataset(data))
        written = load_dataset(out)
        assert len(written) == len(expected) == 15
        for i, (got, want) in enumerate(zip(written, expected)):
            assert got.seed == i
            assert np.array_equal(got.image.pixels, want.scene.image.pixels)
            assert [t.category for t in got.truths] == [t.category for t in want.scene.truths]
            # The manifest stores [x, y, w, h], so x_max and y_max round-trip to an ulp.
            assert [dataclasses.astuple(t.box) for t in got.truths] == [
                pytest.approx(dataclasses.astuple(t.box), rel=1e-12) for t in want.scene.truths
            ]


class TestTrainRunEvaluate:
    def test_full_cli_cycle(self, tmp_path, tiny_config_file):
        weights = tmp_path / "weights"
        assert (
            run_cli("--config", tiny_config_file, "train", "--agent", "both", "--out", str(weights))
            == 0
        )
        assert (weights / "brightness.rlw").exists()
        assert (weights / "scale.rlw").exists()
        assert (weights / "train_brightness.csv").exists()

        run_dir = tmp_path / "run"
        assert (
            run_cli(
                "--config", tiny_config_file,
                "run", "--weights", str(weights), "--out", str(run_dir), "--n", "2",
                "--horizon", "3",
            )
            == 0
        )
        trajectories = json.loads((run_dir / "trajectories.json").read_text())
        assert len(trajectories) == 2
        assert all(len(t["steps"]) == 3 for t in trajectories)
        adjusted = list(run_dir.glob("adjusted_*.ppm"))
        assert len(adjusted) == 2

        reports = tmp_path / "reports"
        assert (
            run_cli(
                "--config", tiny_config_file,
                "evaluate", "--modes", "FR,B2", "--weights", str(weights),
                "--out", str(reports),
            )
            == 0
        )
        payload = json.loads((reports / "report.json").read_text())
        assert set(payload["modes"]) == {"FR", "B2"}

        re_out = tmp_path / "reports2"
        assert (
            run_cli("report", "--results", str(reports / "report.json"), "--out", str(re_out)) == 0
        )
        assert (re_out / "report.csv").read_text() == (reports / "report.csv").read_text()

    def test_train_single_agent(self, tmp_path, tiny_config_file):
        weights = tmp_path / "w"
        assert (
            run_cli(
                "--config", tiny_config_file,
                "train", "--agent", "brightness", "--out", str(weights),
            )
            == 0
        )
        assert (weights / "brightness.rlw").exists()
        assert not (weights / "scale.rlw").exists()


class TestDeterminism:
    """Same seed, same bytes: weights, training logs and report."""

    def test_train_and_evaluate_twice(self, tmp_path, tiny_config_file):
        outputs = []
        for run in ("a", "b"):
            weights, reports = tmp_path / run / "w", tmp_path / run / "r"
            assert run_cli("--config", tiny_config_file, "--seed", "7", "train", "--out", str(weights)) == 0
            assert (
                run_cli(
                    "--config", tiny_config_file, "--seed", "7",
                    "evaluate", "--modes", "FR,B4,BS4", "--weights", str(weights),
                    "--out", str(reports),
                )
                == 0
            )
            names = ("brightness.rlw", "scale.rlw", "train_brightness.csv", "train_scale.csv")
            outputs.append(
                [(weights / n).read_bytes() for n in names] + [(reports / "report.json").read_bytes()]
            )
        assert outputs[0] == outputs[1]


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli("--config", str(bad), "gen-data", "--out", str(tmp_path / "x"), "--n", "1") == 2

    def test_unknown_config_key_is_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"no_such_option": 1}))
        assert run_cli("--config", str(bad), "gen-data", "--out", str(tmp_path / "x"), "--n", "1") == 2

    def test_missing_weights_is_2(self, tmp_path, tiny_config_file):
        assert (
            run_cli(
                "--config", tiny_config_file,
                "run", "--weights", str(tmp_path / "none"), "--out", str(tmp_path / "o"),
            )
            == 2
        )

    def test_protocol_error_is_3(self, tmp_path, tiny_config_file):
        # An external detector that dies immediately trips a transport error.
        assert (
            run_cli(
                "--config", tiny_config_file,
                "--detector", "external",
                "--endpoint", f"{sys.executable} -c pass",
                "evaluate", "--modes", "FR", "--out", str(tmp_path / "r"), "--n", "1",
            )
            == 3
        )

    def test_overflowing_detector_box_is_3(self, tmp_path, tiny_config_file, capsys):
        fixture = tmp_path / "reply.json"
        fixture.write_text(
            json.dumps({"detections": [{"bbox": [-1e308, -1e308, 1e308, 1e308], "score": 0.5}]})
        )
        endpoint = f"{sys.executable} -m rlaod.environment.stub_detector --fixture {fixture}"
        args = ("evaluate", "--modes", "FR", "--n", "1", "--out", str(tmp_path / "r"))
        assert (
            run_cli("--config", tiny_config_file, "--detector", "external", "--endpoint", endpoint, *args)
            == 3
        )
        err = capsys.readouterr().err
        assert err.startswith("detector error: ") and "infinite extent" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "endpoint, code, label",
        [
            ('"python3 -m x', 2, "config error: "),
            ("   ", 2, "config error: "),
            ("nosuchcmd-xyz", 3, "detector error: "),
            ("{tmp}/detector.sh", 3, "detector error: "),  # no execute bit
        ],
        ids=["unbalanced-quote", "blank", "missing-command", "not-executable"],
    )
    def test_endpoint_that_cannot_start(self, tmp_path, tiny_config_file, capsys, endpoint, code, label):
        script = tmp_path / "detector.sh"
        script.write_text("#!/bin/sh\n")
        script.chmod(0o644)
        endpoint = endpoint.format(tmp=tmp_path)
        args = ("evaluate", "--modes", "FR", "--n", "1", "--out", str(tmp_path / "r"))
        assert (
            run_cli("--config", tiny_config_file, "--detector", "external", "--endpoint", endpoint, *args)
            == code
        )
        err = capsys.readouterr().err
        assert err.startswith(label)
        assert "Traceback" not in err

    def test_evaluate_agent_mode_without_weights_is_2(self, tmp_path, tiny_config_file):
        assert (
            run_cli(
                "--config", tiny_config_file,
                "evaluate", "--modes", "BS4", "--out", str(tmp_path / "r"),
            )
            == 2
        )

    @pytest.mark.parametrize(
        "args, message",
        [
            (("run", "--n", "1", "--horizon", "-1"), "horizon must be at least 1"),
            (("run", "--n", "1", "--horizon", "0"), "horizon must be at least 1"),
            (("run", "--n", "0"), "--n must be at least 1"),
            (("evaluate", "--modes", "FR", "--n", "-3"), "n_eval_scenes must be at least 1"),
            (("evaluate", "--modes", "FR", "--n", "0"), "n_eval_scenes must be at least 1"),
            (("gen-data", "--n", "-2"), "--n must be at least 1"),
            (("gen-data", "--n", "0"), "--n must be at least 1"),
        ],
        ids=["run-horizon-neg", "run-horizon-0", "run-n-0", "evaluate-n-neg", "evaluate-n-0",
             "gen-data-n-neg", "gen-data-n-0"],
    )
    def test_out_of_range_count_is_2(self, tmp_path, tiny_config_file, capsys, args, message):
        weights = tmp_path / "w"
        sizes = (STATE_DIM, 8, 2)
        AgentBundle(init_params(sizes, seed=1), init_params(sizes, seed=2)).save(weights)
        if args[0] == "run":
            args += ("--weights", str(weights))
        out = tmp_path / "o"
        assert run_cli("--config", tiny_config_file, *args, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_truncated_weight_file_is_5(self, tmp_path, tiny_config_file, capsys):
        weights = tmp_path / "w"
        sizes = (STATE_DIM, 8, 2)
        AgentBundle(init_params(sizes, seed=1), init_params(sizes, seed=2)).save(weights)
        rlw = weights / "scale.rlw"
        rlw.write_bytes(rlw.read_bytes()[:-7])
        assert (
            run_cli(
                "--config", tiny_config_file,
                "run", "--weights", str(weights), "--out", str(tmp_path / "o"), "--n", "1",
            )
            == 5
        )
        assert (
            run_cli(
                "--config", tiny_config_file,
                "evaluate", "--modes", "BS4", "--weights", str(weights),
                "--out", str(tmp_path / "r"), "--n", "1",
            )
            == 5
        )
        assert capsys.readouterr().err.count("weight file error: ") == 2

    def test_non_finite_weight_file_is_5(self, tmp_path, tiny_config_file, capsys):
        weights = tmp_path / "w"
        sizes = (STATE_DIM, 8, 2)
        brightness = init_params(sizes, seed=1)
        brightness.flat[:] = np.nan
        AgentBundle(brightness, init_params(sizes, seed=2)).save(weights)
        capsys.readouterr()
        assert (
            run_cli(
                "--config", tiny_config_file,
                "evaluate", "--modes", "B4", "--weights", str(weights),
                "--out", str(tmp_path / "r"), "--n", "1",
            )
            == 5
        )
        err = capsys.readouterr().err
        assert err.startswith("weight file error: ") and "non-finite" in err
        assert "Traceback" not in err

    def test_oversized_ppm_header_is_7(self, tmp_path, tiny_config_file, capsys):
        data = tmp_path / "data"
        assert run_cli("--config", tiny_config_file, "gen-data", "--out", str(data), "--n", "2") == 0
        scene = sorted(data.glob("scene_*.ppm"))[0]
        data_bytes = scene.read_bytes()  # "P6\n64 64\n255\n" + raster
        scene.write_bytes(b"P6\n" + b"9" * 5000 + data_bytes[data_bytes.index(b" ") :])
        capsys.readouterr()
        assert (
            run_cli(
                "--config", tiny_config_file,
                "evaluate", "--modes", "FR", "--data", str(data), "--out", str(tmp_path / "r"),
            )
            == 7
        )
        err = capsys.readouterr().err
        assert err.startswith("image file error: ") and "malformed PPM header" in err
        assert "Traceback" not in err

    def test_truncated_image_is_7(self, tmp_path, tiny_config_file, capsys):
        data = tmp_path / "data"
        assert run_cli("--config", tiny_config_file, "gen-data", "--out", str(data), "--n", "2") == 0
        scene = sorted(data.glob("scene_*.ppm"))[0]
        scene.write_bytes(scene.read_bytes()[:-100])
        capsys.readouterr()
        assert (
            run_cli(
                "--config", tiny_config_file,
                "evaluate", "--modes", "FR", "--data", str(data), "--out", str(tmp_path / "r"),
            )
            == 7
        )
        err = capsys.readouterr().err
        assert err.startswith("image file error: ") and "truncated raster" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda m: m["images"][0].pop("file"), "has no 'file'"),
            (lambda m: m["annotations"][0].update(bbox=[1.0, 2.0, 3.0]), "not 4 finite numbers"),
            (lambda m: m["annotations"][0].update(bbox=[1e308, 0.0, 1e308, 1.0]), "infinite extent"),
        ],
    )
    def test_bad_manifest_content_is_2(self, tmp_path, tiny_config_file, capsys, edit, message):
        data = tmp_path / "data"
        cfg = json.loads(Path(tiny_config_file).read_text())
        cfg["scene"].update(count_range=[1, 2], empty_scene_prob=0.0)
        config = tmp_path / "objects.json"
        config.write_text(json.dumps(cfg))
        assert run_cli("--config", str(config), "gen-data", "--out", str(data), "--n", "2") == 0
        manifest = json.loads((data / "manifest.json").read_text())
        edit(manifest)
        (data / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert (
            run_cli(
                "--config", str(config),
                "evaluate", "--modes", "FR", "--data", str(data), "--out", str(tmp_path / "r"),
            )
            == 2
        )
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "content",
        [None, "{not json", "[1, 2]", json.dumps({"modes": {"FR": {"ap": "x"}}})],
        ids=["missing", "not-json", "not-object", "non-numeric-metric"],
    )
    def test_bad_results_file_is_2(self, tmp_path, capsys, content):
        results = tmp_path / "report.json"
        if content is not None:
            results.write_text(content)
        assert run_cli("report", "--results", str(results), "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and str(results) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "section, value",
        [
            ("train", 5),
            ("scene", [1, 2]),
            ("train", {"hidden_width": 0}),
            ("train", {"hidden_layers": 0}),
            ("train", {"batch_size": 0}),
            ("train", {"target_sync_every": 0}),
            ("train", {"buffer_capacity": 0}),
            ("train", {"iterations_brightness": -1}),
            ("train", {"iterations_scale": -1}),
            ("train", {"warmup": -1}),
            ("train", {"learning_rate": 0.0}),
            ("train", {"iterations_brightness": 4.5}),
        ],
        ids=lambda v: v if isinstance(v, str) else json.dumps(v),
    )
    def test_bad_section_or_train_value_is_2(self, tmp_path, capsys, section, value):
        # Small enough to finish at once should a bad value be let through.
        train = {"iterations_brightness": 4, "iterations_scale": 4, "hidden_width": 8, "warmup": 2}
        if isinstance(value, dict) and section == "train":
            value = {**train, "batch_size": 2, "target_sync_every": 2, **value}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"train": train, section: value}))
        args = ("--config", str(path), "train", "--agent", "both", "--out", str(tmp_path / "w"))
        assert run_cli(*args) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert "Traceback" not in err

    def test_diverged_training_is_6(self, tmp_path, capsys):
        cfg = tmp_path / "diverge.json"
        cfg.write_text(
            json.dumps(
                {
                    "scene": {"width": 64, "height": 64},
                    "train": {
                        "iterations_brightness": 40,
                        "hidden_width": 8,
                        "warmup": 16,
                        "learning_rate": 1e300,
                    },
                }
            )
        )
        args = ("--config", str(cfg), "train", "--agent", "brightness", "--out", str(tmp_path / "w"))
        with np.errstate(all="ignore"):
            assert run_cli(*args) == 6
        assert "training diverged: " in capsys.readouterr().err


class TestDetectorLifetime:
    """Commands close the detector they build: no work directory, frame file
    or child process outlives the command, whether it succeeds or fails."""

    STUB = f"{sys.executable} -m rlaod.environment.stub_detector"

    @pytest.fixture
    def tmpdir(self, tmp_path, monkeypatch):
        import tempfile

        path = tmp_path / "tmp"
        path.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(path))
        return path

    def external(self, tiny_config_file, endpoint, *args):
        return run_cli(
            "--config", tiny_config_file, "--detector", "external", "--endpoint", endpoint, *args
        )

    def test_evaluate_leaves_nothing(self, tmp_path, tiny_config_file, tmpdir):
        args = ("evaluate", "--modes", "FR", "--n", "2", "--out", str(tmp_path / "r"))
        assert self.external(tiny_config_file, self.STUB, *args) == 0
        assert list(tmpdir.iterdir()) == []

    def test_failed_evaluate_leaves_nothing(self, tmp_path, tiny_config_file, tmpdir):
        args = ("evaluate", "--modes", "FR", "--n", "1", "--out", str(tmp_path / "r"))
        assert self.external(tiny_config_file, f"{sys.executable} -c pass", *args) == 3
        assert list(tmpdir.iterdir()) == []

    def test_train_and_run_leave_nothing(self, tmp_path, tiny_config_file, tmpdir):
        weights = tmp_path / "w"
        assert self.external(tiny_config_file, self.STUB, "train", "--out", str(weights)) == 0
        args = ("run", "--weights", str(weights), "--out", str(tmp_path / "o"), "--n", "1")
        assert self.external(tiny_config_file, self.STUB, *args) == 0
        assert list(tmpdir.iterdir()) == []
