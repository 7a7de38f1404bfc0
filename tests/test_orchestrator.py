import dataclasses
import json

import numpy as np
import pytest

from rlaod.agent import init_params, load_params
from rlaod.environment import OracleDetector, SceneParams, generate_scene
from rlaod.errors import ConfigError, ImageFormatError, WeightFormatError
from rlaod.features import STATE_DIM, StateKind
from rlaod.imaging import color
from rlaod.orchestrator import (
    AgentBundle,
    EvalMode,
    build_eval_set,
    emit_payload,
    emit_report,
    evaluate_mode,
    evaluate_modes,
    generate_dataset,
    load_config,
    load_dataset,
    run_episode,
    train_agent,
    train_agents,
)
from rlaod.orchestrator import evaluation, training
from rlaod.orchestrator.evaluation import ModeResult
from rlaod.metrics import ApReport


def tiny_config(**kv):
    cfg = load_config()
    cfg.train.iterations_brightness = 60
    cfg.train.iterations_scale = 40
    cfg.train.hidden_width = 8
    cfg.train.warmup = 16
    cfg.train.target_sync_every = 20
    cfg.scene = SceneParams(
        width=64, height=64, count_range=(0, 2), area_range=(676.0, 1024.0)
    )
    return dataclasses.replace(cfg, **kv)


@pytest.fixture(scope="module")
def tiny_bundle():
    cfg = tiny_config()
    return train_agents(cfg), cfg


def random_bundle(width=8):
    sizes = (STATE_DIM, *([width] * 5), 2)
    return AgentBundle(
        brightness=init_params(sizes, seed=100), scale=init_params(sizes, seed=101)
    )


class TestTraining:
    def test_smoke_train_and_save(self, tmp_path):
        cfg = tiny_config()
        bundle = train_agents(cfg, tmp_path)
        assert (tmp_path / "brightness.rlw").exists()
        assert (tmp_path / "scale.rlw").exists()
        loaded = AgentBundle.load(tmp_path)
        x = np.zeros(STATE_DIM)
        from rlaod.agent import forward

        got, _ = forward(loaded.brightness, x)
        want, _ = forward(bundle.brightness, x)
        assert got == pytest.approx(want, abs=1e-4)

    def test_in_memory_bundle_evaluates_like_reloaded(self, tmp_path):
        # Training returns the float64 widening of float32 weights, which the
        # float32 weight file stores exactly.
        cfg = tiny_config(n_eval_scenes=3)
        trained = train_agents(cfg, tmp_path)
        loaded = AgentBundle.load(tmp_path)
        for net in ("brightness", "scale"):
            assert np.array_equal(getattr(trained, net).flat, getattr(loaded, net).flat)
        modes = [EvalMode.FR, EvalMode.B4, EvalMode.BS4]
        got = evaluate_modes(cfg, modes, trained)
        want = evaluate_modes(cfg, modes, loaded)
        assert {m: r.to_dict() for m, r in got.items()} == {m: r.to_dict() for m, r in want.items()}

    @pytest.mark.parametrize("sizes", [(STATE_DIM - 1, 8, 2), (STATE_DIM, 8, 3)])
    def test_load_rejects_wrong_shaped_net(self, tmp_path, sizes):
        bundle = random_bundle()
        bundle.scale = init_params(sizes, seed=7)
        bundle.save(tmp_path)
        with pytest.raises(WeightFormatError, match="scale.rlw"):
            AgentBundle.load(tmp_path)

    def test_log_rows_match_iterations(self, tmp_path):
        cfg = tiny_config()
        params, rows = train_agent(StateKind.BRIGHTNESS, cfg, out_dir=tmp_path)
        assert len(rows) == cfg.train.iterations_brightness
        lines = (tmp_path / "train_brightness.csv").read_text().strip().split("\n")
        assert lines[0] == "iteration,loss,epsilon,mean_episode_reward"
        assert len(lines) == 1 + cfg.train.iterations_brightness
        assert np.array_equal(load_params(tmp_path / "brightness.rlw").flat, params.flat)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["brightness.rlw", "train_brightness.csv"]

    def test_deterministic_given_seed(self):
        cfg = tiny_config()
        _, rows_a = train_agent(StateKind.SCALE, cfg)
        _, rows_b = train_agent(StateKind.SCALE, cfg)
        assert [r.loss for r in rows_a] == [r.loss for r in rows_b]

    def test_different_seed_differs(self):
        cfg = tiny_config()
        _, rows_a = train_agent(StateKind.BRIGHTNESS, cfg, seed=1)
        _, rows_b = train_agent(StateKind.BRIGHTNESS, cfg, seed=2)
        assert [r.loss for r in rows_a] != [r.loss for r in rows_b]


class TestPipeline:
    def test_trajectory_has_horizon_entries(self, tiny_bundle):
        bundle, cfg = tiny_bundle
        scene = generate_scene(900, cfg.scene)
        det = OracleDetector(cfg.calibration)
        res = run_episode(scene, det, 4, bundle.brightness, bundle.scale)
        assert len(res.trajectory) == 4
        assert res.scene_id == scene.seed

    def test_rerun_identical(self, tiny_bundle):
        bundle, cfg = tiny_bundle
        scene = generate_scene(901, cfg.scene)
        det = OracleDetector(cfg.calibration)
        a = run_episode(scene, det, 3, bundle.brightness, bundle.scale)
        b = run_episode(scene, det, 3, bundle.brightness, bundle.scale)
        assert [s.to_dict() for s in a.trajectory] == [s.to_dict() for s in b.trajectory]

    def test_prefix_nesting(self, tiny_bundle):
        # Greedy policies act per step, so a T=4 trajectory starts with the
        # T=2 trajectory on the same input.
        bundle, cfg = tiny_bundle
        det = OracleDetector(cfg.calibration)
        for seed in (902, 903, 904):
            scene = generate_scene(seed, cfg.scene)
            short = run_episode(scene, det, 2, bundle.brightness, bundle.scale)
            long = run_episode(scene, det, 4, bundle.brightness, bundle.scale)
            assert [s.to_dict() for s in short.trajectory] == [
                s.to_dict() for s in long.trajectory[:2]
            ]

    def test_run_episode_over_scenes(self, tiny_bundle):
        bundle, cfg = tiny_bundle
        det = OracleDetector(cfg.calibration)
        scenes = [generate_scene(910 + i, cfg.scene) for i in range(3)]
        results = [run_episode(scene, det, 2, bundle.brightness, bundle.scale) for scene in scenes]
        assert len(results) == 3
        for r in results:
            assert r.final_image.width >= 8
            assert 0.0 <= r.final_p <= 1.0

    def test_detections_mapped_back_to_input_frame(self, tiny_bundle):
        bundle, cfg = tiny_bundle
        det = OracleDetector(cfg.calibration)
        scene = generate_scene(905, cfg.scene)
        res = run_episode(scene, det, 4, scale=bundle.scale)
        for d in res.final_detections:
            assert d.box.x_max <= scene.image.width + 1e-6
            assert d.box.y_max <= scene.image.height + 1e-6


class TestDataset:
    def test_generate_files_and_manifest(self, tmp_path):
        cfg = tiny_config()
        manifest = generate_dataset(tmp_path / "d", seed=5, count=4, params=cfg.scene)
        data = json.loads(manifest.read_text())
        assert len(data["images"]) == 4
        files = list((tmp_path / "d").glob("*.ppm"))
        assert len(files) == 4

    def test_bbox_format_xywh(self, tmp_path):
        cfg = tiny_config()
        params = dataclasses.replace(cfg.scene, count_range=(1, 2))
        manifest = generate_dataset(tmp_path / "d", seed=6, count=3, params=params)
        data = json.loads(manifest.read_text())
        scenes = {s.seed: s for s in (generate_scene(6 + i, params) for i in range(3))}
        for ann in data["annotations"]:
            x, y, w, h = ann["bbox"]
            truth_boxes = [
                (t.box.x_min, t.box.y_min, t.box.x_max - t.box.x_min, t.box.y_max - t.box.y_min)
                for t in scenes[ann["image_id"]].truths
            ]
            assert (x, y, w, h) in truth_boxes

    def test_idempotent_bytes(self, tmp_path):
        cfg = tiny_config()
        m1 = generate_dataset(tmp_path / "a", seed=7, count=3, params=cfg.scene)
        m2 = generate_dataset(tmp_path / "b", seed=7, count=3, params=cfg.scene)
        assert m1.read_bytes() == m2.read_bytes()

    def test_round_trip(self, tmp_path):
        cfg = tiny_config()
        params = dataclasses.replace(cfg.scene, count_range=(1, 2))
        manifest = generate_dataset(tmp_path / "d", seed=8, count=2, params=params)
        scenes = load_dataset(manifest)
        originals = [generate_scene(8 + i, params) for i in range(2)]
        for loaded, orig in zip(scenes, originals):
            assert np.array_equal(loaded.image.pixels, orig.image.pixels)
            assert len(loaded.truths) == len(orig.truths)
            for lt, ot in zip(loaded.truths, orig.truths):
                assert lt.box.x_min == pytest.approx(ot.box.x_min)
                assert lt.box.area == pytest.approx(ot.box.area)

    def test_png_dataset(self, tmp_path):
        cfg = tiny_config()
        manifest = generate_dataset(
            tmp_path / "d", seed=9, count=2, params=cfg.scene, image_format="png"
        )
        scenes = load_dataset(manifest)
        assert len(scenes) == 2
        assert scenes[0].image.width == cfg.scene.width

    @pytest.mark.parametrize("image_format", ["ppm", "png"])
    def test_unreadable_image_is_image_format_error(self, tmp_path, image_format):
        cfg = tiny_config()
        manifest = generate_dataset(
            tmp_path / "d", seed=9, count=2, params=cfg.scene, image_format=image_format
        )
        first, second = sorted((tmp_path / "d").glob(f"*.{image_format}"))
        first.write_bytes(first.read_bytes()[:-40])
        with pytest.raises(ImageFormatError, match=first.name):
            load_dataset(manifest)
        first.unlink()
        with pytest.raises(ImageFormatError, match="cannot read image"):
            load_dataset(manifest)

    @pytest.mark.parametrize(
        "section, key, value, match",
        [
            ("images", "file", None, "has no 'file'"),
            ("images", "id", None, "has no 'id'"),
            ("images", "id", "abc", "bad id"),
            ("annotations", "image_id", None, "has no 'image_id'"),
            ("annotations", "bbox", None, "has no 'bbox'"),
            ("annotations", "bbox", [1.0, 2.0, 3.0], "not 4 finite numbers"),
            ("annotations", "bbox", [1.0, 2.0, "3", 4.0], "not 4 finite numbers"),
            ("annotations", "bbox", [1.0, 2.0, float("nan"), 4.0], "not 4 finite numbers"),
            ("annotations", "bbox", [1.0, 2.0, 0.0, 4.0], "degenerate box"),
            ("annotations", "bbox", [1.0, 2.0, 3.0, -4.0], "degenerate box"),
            ("annotations", "category", "cat", "annotation 0"),
            ("annotations", "bbox", [True, 2.0, 3.0, 4.0], "not 4 finite numbers"),
            ("annotations", "category", "7", "bad category"),
            ("annotations", "category", True, "bad category"),
            ("annotations", "image_id", "0", "bad image_id"),
            ("images", "id", "0", "bad id"),
            ("images", "id", False, "bad id"),
            ("images", "file", 7, "not a file name"),
            ("annotations", "bbox", [1e308, 0.0, 1e308, 1.0], "infinite extent"),
            ("annotations", "bbox", [0.0, 0.0, 1e200, 1e200], "infinite extent"),
            ("images", "id", 9, "image 1: duplicate id 9"),
            ("images", "id", 0.5, "image 0: bad id 0.5"),
            ("images", "id", -1, "image 0: id -1 is outside"),
            ("images", "id", 2**64, "image 0: id 18446744073709551616 is outside"),
            ("annotations", "image_id", 8.5, "annotation 0: bad image_id 8.5"),
            ("annotations", "category", 1.5, "annotation 0: bad category 1.5"),
            ("annotations", "image_id", 99, "annotation 0: image_id 99 names no image"),
        ],
    )
    def test_bad_manifest_content_is_config_error(self, tmp_path, section, key, value, match):
        cfg = tiny_config()
        params = dataclasses.replace(cfg.scene, count_range=(1, 2), empty_scene_prob=0.0)
        manifest = generate_dataset(tmp_path / "d", seed=8, count=2, params=params)
        data = json.loads(manifest.read_text())
        if value is None:
            del data[section][0][key]
        else:
            data[section][0][key] = value
        manifest.write_text(json.dumps(data))
        with pytest.raises(ConfigError, match=match):
            load_dataset(manifest)

    @pytest.mark.parametrize(
        "content, match",
        [("[]", "JSON object"), ('{"images": 5}', "'images' must be a list")],
    )
    def test_bad_manifest_shape_is_config_error(self, tmp_path, content, match):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(content)
        with pytest.raises(ConfigError, match=match):
            load_dataset(manifest)


class TestEvaluation:
    def test_eval_set_is_five_per_scene(self):
        cfg = tiny_config(n_eval_scenes=4)
        images = build_eval_set(cfg)
        assert len(images) == 20
        origins = [im.origin for im in images[:5]]
        assert origins[0] == "clean" and len(set(origins)) == 5

    def test_fr_mode_needs_no_bundle(self):
        cfg = tiny_config(n_eval_scenes=2)
        results = evaluate_modes(cfg, [EvalMode.FR], bundle=None)
        assert results[EvalMode.FR].n_images == 10

    def test_agent_mode_without_bundle_fails(self):
        cfg = tiny_config(n_eval_scenes=1)
        with pytest.raises(ConfigError):
            evaluate_modes(cfg, [EvalMode.B2], bundle=None)

    def test_requested_modes_present(self, tiny_bundle):
        bundle, cfg = tiny_bundle
        cfg = dataclasses.replace(cfg, n_eval_scenes=2)
        results = evaluate_modes(cfg, [EvalMode.FR, EvalMode.B2], bundle)
        assert set(results) == {EvalMode.FR, EvalMode.B2}

    def test_star_modes_use_clean_subset(self, tiny_bundle):
        bundle, cfg = tiny_bundle
        cfg = dataclasses.replace(cfg, n_eval_scenes=3)
        results = evaluate_modes(cfg, [EvalMode.FR_STAR, EvalMode.FR], bundle)
        assert results[EvalMode.FR_STAR].n_images == 3
        assert results[EvalMode.FR].n_images == 15

    def test_bs4_after_b4_equals_fresh_images(self, tiny_bundle, monkeypatch):
        # B4 leaves each tinted image's palette cached on it; BS4 on those
        # images must score as it does on images that never rendered.
        bundle, cfg = tiny_bundle
        cfg = dataclasses.replace(cfg, n_eval_scenes=2)
        cfg.scene = dataclasses.replace(cfg.scene, tint_strength=0.25)
        detector = OracleDetector(cfg.calibration)
        factorings = []
        factor = color.factor_palette
        monkeypatch.setattr(color, "factor_palette", lambda img: factorings.append(img) or factor(img))
        images, fresh = build_eval_set(cfg), build_eval_set(cfg)
        evaluate_mode(EvalMode.B4, images, bundle, detector)
        want = evaluate_mode(EvalMode.BS4, fresh, bundle, detector)
        # Each image is factored once: degrade factors a clean image, and the
        # episodes on it reuse that palette.
        every = [im.scene.image for im in images + fresh]
        assert sorted(map(id, factorings)) == sorted(map(id, every))
        assert evaluate_mode(EvalMode.BS4, images, bundle, detector) == want
        assert len(factorings) == len(every)

    def test_fr_never_invokes_agents(self):
        class ExplodingParams:
            def __getattr__(self, name):
                raise AssertionError("agent invoked in FR mode")

        cfg = tiny_config(n_eval_scenes=1)
        bundle = AgentBundle(brightness=ExplodingParams(), scale=ExplodingParams())
        results = evaluate_modes(cfg, [EvalMode.FR], bundle)
        assert results[EvalMode.FR].n_images == 5


class TestBenchmarkCallContracts:
    """The benchmark clocks `evaluation.run_episode` as one image and counts
    lookups of `training.forward` as training iterations."""

    @staticmethod
    def count_calls(monkeypatch, module, name) -> list:
        calls = []
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(None)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    @pytest.mark.parametrize("mode", [EvalMode.FR, EvalMode.B4, EvalMode.BS4_STAR])
    def test_one_run_episode_per_image(self, monkeypatch, mode):
        cfg = tiny_config(n_eval_scenes=2)
        images = build_eval_set(cfg)
        calls = self.count_calls(monkeypatch, evaluation, "run_episode")
        result = evaluate_mode(mode, images, random_bundle(), OracleDetector(cfg.calibration))
        assert len(calls) == result.n_images == (2 if mode.clean_only else 10)

    @pytest.mark.parametrize("kind", list(StateKind), ids=lambda k: k.value)
    def test_one_forward_per_training_iteration(self, monkeypatch, kind):
        cfg = tiny_config()
        calls = self.count_calls(monkeypatch, training, "forward")
        _, rows = train_agent(kind, cfg)
        want = (
            cfg.train.iterations_brightness
            if kind is StateKind.BRIGHTNESS
            else cfg.train.iterations_scale
        )
        assert len(calls) == len(rows) == want


class TestReport:
    def fake_results(self):
        return {
            EvalMode.FR: ModeResult(
                mode=EvalMode.FR,
                report=ApReport(0.4, 0.6, 0.3, None, 0.5, 0.45),
                mean_p=0.61,
                n_images=10,
            ),
            EvalMode.BS4: ModeResult(
                mode=EvalMode.BS4,
                report=ApReport(0.7, 0.9, 0.6, 0.2, 0.8, 0.75),
                mean_p=0.88,
                n_images=10,
            ),
        }

    def test_csv_row_count(self, tmp_path):
        paths = emit_report(self.fake_results(), tmp_path)
        lines = paths["csv"].read_text().strip().split("\n")
        assert len(lines) == 1 + 2 * 7  # header + modes x metrics

    def test_json_round_trips(self, tmp_path):
        paths = emit_report(self.fake_results(), tmp_path)
        data = json.loads(paths["json"].read_text())
        assert data["modes"]["FR"]["ap50"] == 0.6
        assert data["modes"]["FR"]["ap_s"] is None
        assert list(data["modes"]) == ["FR", "BS4"]  # canonical order

    def test_plot_files(self, tmp_path):
        paths = emit_report(self.fake_results(), tmp_path)
        dat = paths["ap50"].read_text().strip().split("\n")
        assert dat == ["0 0.600000", "1 0.900000"]
        assert paths["ap_s"].read_text().startswith("0 nan")

    def test_empty_results(self, tmp_path):
        paths = emit_report({}, tmp_path)
        assert json.loads(paths["json"].read_text()) == {"modes": {}}
        assert paths["csv"].read_text().strip() == "mode,metric,value"
        assert paths["ap"].read_text() == ""

    def test_emit_payload_round_trip(self, tmp_path):
        paths = emit_report(self.fake_results(), tmp_path / "a")
        payload = json.loads(paths["json"].read_text())
        second = emit_payload(payload, tmp_path / "b")
        assert second["csv"].read_text() == paths["csv"].read_text()
