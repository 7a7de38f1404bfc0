"""The four benchmark workloads, driven through rlaod's public functions.

Every workload is a closed loop in one process: it prepares its inputs from
the workload seed, then runs rounds of work until the time is up. A round
trains both agents once, or runs every evaluation mode over one fresh chunk
of evaluation images. Client-side clocks wrap the calls the caller makes
(one training iteration, one image, one detector call) and cost well under
a microsecond per call.

Import this module only after ``rlaod`` is importable from the checkout.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shlex
import sys
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import rlaod.environment.detector as detector_mod
import rlaod.environment.external as external_mod
import rlaod.orchestrator.evaluation as evaluation_mod
import rlaod.orchestrator.training as training_mod
from rlaod.errors import ProtocolError
from rlaod.features import StateKind
from rlaod.orchestrator import (
    AgentBundle,
    EvalMode,
    build_detector,
    build_eval_set,
    desk_scene_params,
    evaluate_mode,
    load_config,
    train_agent,
)

from tracer import Patches

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
FIXTURES = BENCH_DIR / "fixtures"
FIXTURES_JSON = FIXTURES / "fixtures.json"
STUB_RESPONSE = FIXTURES / "stub_response.json"
OUT_DIR = ROOT / ".perfbench_out"

WEIGHT_FILES = ("brightness.rlw", "scale.rlw")
COLOR_TINT = 0.25
REFERENCE_SEED = 987_654_000  # scene base of the recorded reference sets
REFERENCE_SCENES = {"gray": 8, "color": 8, "external": 4}
SEED_STRIDE = 10_000_000  # scenes of one workload seed: seed * SEED_STRIDE + ...
SETUP_CHUNKS = 100_000  # chunk index of the first set-up chunk

EVAL_MODES = (EvalMode.FR, EvalMode.B4, EvalMode.BS4)
# Clean images only: the per-request cost is the bridge's, not the image mix's.
EXTERNAL_MODES = (EvalMode.FR_STAR, EvalMode.BS4_STAR)

# Per-agent and per-mode results; 0 where a workload does not run the phase.
PHASE_METRICS = (
    "train_brightness_it_per_s",
    "train_scale_it_per_s",
    "train_brightness_reward",
    "train_scale_reward",
    "fr_images_per_s",
    "b4_images_per_s",
    "bs4_images_per_s",
    "bs4_image_ms_p50",
    "bs4_image_ms_p99",
    "bs4_mean_p",
    "bs4_ap50",
    "detect_rtt_ms_p99",
)


@dataclass(frozen=True)
class Size:
    """How much work one run does; `smoke` shrinks everything."""

    train_iterations: int = 1250  # per agent per round
    train_warmup: int = 500
    train_batch: int = 32
    block: int = 50  # iterations per throughput sample
    eval_scenes: int = 10  # per round
    color_scenes: int = 4
    external_scenes: int = 16


FULL = Size()
SMOKE = Size(
    train_iterations=40,
    train_warmup=16,
    train_batch=8,
    block=8,
    eval_scenes=1,
    color_scenes=1,
    external_scenes=1,
)


@dataclass
class Tally:
    """What a workload measured; metrics are derived from it at the end."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    round_items_per_s: list[float] = field(default_factory=list)
    item_ms: list[float] = field(default_factory=list)
    detect_ms: list[float] = field(default_factory=list)
    phase_rates: dict[str, list[float]] = field(default_factory=dict)
    outcomes: dict[str, float] = field(default_factory=dict)

    def fail(self, items: int, problem: str) -> None:
        self.failed += items
        self.problems.append(problem)


def median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def load_fixtures() -> dict:
    return json.loads(FIXTURES_JSON.read_text())


def verify_weights(fixtures: dict) -> None:
    for name in WEIGHT_FILES:
        digest = sha256(FIXTURES / name)
        if digest != fixtures["weights"][name]:
            raise RuntimeError(f"fixed weights {name} have digest {digest}, expected "
                               f"{fixtures['weights'][name]}; run perfbench/make_fixtures.py")


def mode_summary(result) -> list:
    """The recorded outputs of one evaluation mode: AP, AP50, mean p, images."""
    return [result.report.ap, result.report.ap50, result.mean_p, result.n_images]


def mode_key(mode: EvalMode) -> str:
    """fr, b4 or bs4; the starred modes are the same modes on clean images."""
    return mode.value.lower().rstrip("*")


def eval_config(scene_base: int, n_scenes: int, tint: float):
    cfg = load_config(overrides={"seed": scene_base, "n_eval_scenes": n_scenes})
    if tint > 0.0:
        cfg.scene = replace(desk_scene_params(), tint_strength=tint)
    return cfg


def stub_endpoint() -> str:
    return shlex.join(
        [sys.executable, "-m", "rlaod.environment.stub_detector", "--fixture", str(STUB_RESPONSE)]
    )


def external_config(scene_base: int, n_scenes: int):
    cfg = load_config(
        overrides={
            "seed": scene_base,
            "n_eval_scenes": n_scenes,
            "detector": "external",
            "endpoint": stub_endpoint(),
        }
    )
    return cfg


def prepare_external_env() -> None:
    """The stub child imports rlaod from this checkout; temporary frames go
    under the checkout's output directory."""
    src = str(ROOT / "src")
    paths = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    if src not in paths:
        os.environ["PYTHONPATH"] = os.pathsep.join([src] + [p for p in paths if p])
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(OUT_DIR)


def reference_results(kind: str, bundle: AgentBundle) -> dict:
    """Per-mode outputs on the fixed reference set of a workload kind."""
    if kind == "external":
        prepare_external_env()
        cfg = external_config(REFERENCE_SEED, REFERENCE_SCENES[kind])
        modes = EXTERNAL_MODES
    else:
        cfg = eval_config(REFERENCE_SEED, REFERENCE_SCENES[kind], COLOR_TINT if kind == "color" else 0.0)
        modes = EVAL_MODES
    images = build_eval_set(cfg)
    detector = build_detector(cfg)
    try:
        return {m.value: mode_summary(evaluate_mode(m, images, bundle, detector)) for m in modes}
    finally:
        if hasattr(detector, "close"):
            detector.close()


class Workload:
    """prepare() sets up and records setup_s; run_round() does one round."""

    name = ""
    setup_repeats = 11  # set-ups per timed run; setup_s is their median

    def __init__(self, seed: int, size: Size):
        self.seed = seed
        self.size = size
        self.tally = Tally()
        self.clocks = Patches()

    def prepare(self, repeats: int) -> None:
        raise NotImplementedError

    def run_round(self, k: int) -> None:
        raise NotImplementedError

    def check_reference(self) -> None:
        """Compare outputs on a fixed input with the recorded values."""

    def close(self) -> None:
        self.clocks.undo()

    def items_per_s(self) -> float:
        return median(self.tally.round_items_per_s)

    def phase_metrics(self) -> dict[str, float]:
        """Per-agent and per-mode rates and outcomes of this run."""
        out = dict.fromkeys(PHASE_METRICS, 0.0)
        out.update({name: median(v) for name, v in self.tally.phase_rates.items()})
        out["detect_rtt_ms_p99"] = percentile(self.tally.detect_ms, 99)
        out.update(self.tally.outcomes)
        return out

    def _clock(self, owner, attr: str, samples_ms: list | None, on_call=None, on_return=None) -> None:
        """Time every call of owner.attr into samples_ms (ms) while installed.
        A sample is added only when the call returns."""

        def make(fn):
            def timed(*args, **kwargs):
                if on_call is not None:
                    on_call()
                t0 = time.perf_counter()
                out = fn(*args, **kwargs)
                if samples_ms is not None:
                    samples_ms.append((time.perf_counter() - t0) * 1e3)
                if on_return is not None:
                    on_return(out)
                return out

            return timed

        self.clocks.replace(owner, attr, make)


class TrainWorkload(Workload):
    """Brightness agent then scale agent, as train_agents does, at the
    acceptance configuration with a shortened iteration budget."""

    name = "train"
    # One set-up is ~5 ms and depends on the first episode's scene.
    setup_repeats = 20

    def prepare(self, repeats: int) -> None:
        self.ticks: list[float] = []
        # One call per iteration: train_agent looks forward up in its own
        # module once per loop, before acting; train_step uses agent.dqn's.
        self._clock(training_mod, "forward", None, on_call=lambda: self.ticks.append(time.perf_counter()))
        # Set-up is everything train_agent does before its first iteration:
        # parameters, optimizer, replay buffer, detector, first episode.
        for i in range(repeats):
            for kind in StateKind:
                self.ticks = []
                t0 = time.perf_counter()
                train_agent(kind, self.config(900 + i, iterations=1))
                self.tally.setup_s.append(self.ticks[0] - t0)
        self._clock(detector_mod.OracleDetector, "detect", self.tally.detect_ms)

    def config(self, k: int, iterations: int | None = None):
        s = self.size
        n = iterations or s.train_iterations
        return load_config(
            overrides={
                "train_seed": self.seed * 1000 + k,
                "train": {
                    "iterations_brightness": n,
                    "iterations_scale": n,
                    "warmup": s.train_warmup,
                    "batch_size": s.train_batch,
                },
            }
        )

    def run_round(self, k: int) -> None:
        """Train the brightness agent, then the scale agent, from seed k."""
        cfg = self.config(k)
        for kind in StateKind:
            self.train_one(kind, cfg)

    def train_one(self, kind: StateKind, cfg) -> None:
        n = cfg.train.iterations_brightness if kind is StateKind.BRIGHTNESS else cfg.train.iterations_scale
        self.ticks = []
        t0 = time.perf_counter()
        params, rows = train_agent(kind, cfg)
        t_end = time.perf_counter()
        self.tally.attempted += n
        self.check(kind, cfg, params, rows, n)
        if len(self.ticks) != n:
            self.tally.fail(n, f"{kind.value}: {len(self.ticks)} iteration ticks for {n} iterations")
            return
        durations = np.diff(np.array(self.ticks + [t_end]))
        # Iterations from the first gradient step on; warmup ones only act
        # and fill the buffer.
        steady = durations[max(cfg.train.batch_size, cfg.train.warmup) - 1:]
        self.tally.item_ms.extend((steady * 1e3).tolist())
        b = self.size.block
        blocks = [steady[i:i + b].sum() for i in range(0, len(steady) - b + 1, b)]
        self.tally.phase_rates.setdefault(f"train_{kind.value}_it_per_s", []).extend(b / t for t in blocks)
        recent = rows[-1].mean_episode_reward
        self.tally.outcomes[f"train_{kind.value}_reward"] = float(recent) if recent is not None else 0.0

    def items_per_s(self) -> float:
        """Training both agents for equal iteration counts: the harmonic
        mean of the two agents' median block rates."""
        rates = [median(self.tally.phase_rates.get(f"train_{k.value}_it_per_s", [])) for k in StateKind]
        return 2.0 / sum(1.0 / r for r in rates) if all(rates) else 0.0

    def check(self, kind, cfg, params, rows, n) -> None:
        tag = kind.value
        if [r.iteration for r in rows] != list(range(n)):
            self.tally.fail(n, f"{tag}: log rows do not cover iterations 0..{n - 1}")
            return
        first_step = max(cfg.train.batch_size, cfg.train.warmup) - 1
        for r in rows:
            expect_loss = r.iteration >= first_step
            if (r.loss is not None) != expect_loss or (expect_loss and not math.isfinite(r.loss)):
                self.tally.fail(1, f"{tag}: iteration {r.iteration} loss {r.loss!r}")
        if not all(np.all(np.isfinite(w)) for w in params.weights + params.biases):
            self.tally.fail(n, f"{tag}: non-finite parameters")


class EvaluateWorkload(Workload):
    """FR, B4 and BS4 with fixed weights over degraded evaluation sets.

    Each round evaluates a fresh chunk of the seed's scene stream, built by
    build_eval_set (clean image plus four degradations per scene), so a run
    covers many distinct images. Chunk builds are not timed as rounds.
    """

    name = "evaluate"
    kind = "gray"
    modes = EVAL_MODES
    tint = 0.0

    def chunk_scenes(self) -> int:
        return self.size.eval_scenes

    def chunk_config(self, k: int):
        n = self.chunk_scenes()
        return eval_config(self.seed * SEED_STRIDE + k * n, n, self.tint)

    def start_detector(self, cfg, images):
        return build_detector(cfg)

    def prepare(self, repeats: int) -> None:
        """Set-up of an evaluation job: weights checked and loaded, an
        evaluation set built, the detector started. The set-up chunks come
        from their own part of the scene stream and are not evaluated."""
        self.fixtures = load_fixtures()
        self.detector = None
        self.bs4: list[list] = []  # per-round BS4 [AP, AP50, mean p, images]
        for i in range(repeats):
            self.close_detector()
            t0 = time.perf_counter()
            verify_weights(self.fixtures)
            self.bundle = AgentBundle.load(FIXTURES)
            cfg = self.chunk_config(SETUP_CHUNKS + i)
            self.detector = self.start_detector(cfg, build_eval_set(cfg))
            self.tally.setup_s.append(time.perf_counter() - t0)
        self.image_ms: list[float] = []
        self._clock(evaluation_mod, "run_episode", self.image_ms)
        self.install_detect_clock()

    def install_detect_clock(self) -> None:
        self._clock(detector_mod.OracleDetector, "detect", self.tally.detect_ms)

    def close_detector(self) -> None:
        pass

    def run_round(self, k: int) -> None:
        images = build_eval_set(self.chunk_config(k))
        done = 0
        t_round = time.perf_counter()
        for mode in self.modes:
            n = sum(1 for im in images if not mode.clean_only or im.origin == "clean")
            self.image_ms.clear()
            t0 = time.perf_counter()
            result = evaluate_mode(mode, images, self.bundle, self.detector)
            dt = time.perf_counter() - t0
            done += n
            self.tally.attempted += n
            self.tally.phase_rates.setdefault(f"{mode_key(mode)}_images_per_s", []).append(n / dt)
            if mode_key(mode) == "bs4":
                self.tally.item_ms.extend(self.image_ms)
            self.check_round(mode, result, n)
        self.tally.round_items_per_s.append(done / (time.perf_counter() - t_round))

    def check_round(self, mode, result, n: int) -> None:
        summary = mode_summary(result)
        if len(self.image_ms) != n or result.n_images != n:
            self.tally.fail(n, f"{mode.value}: {result.n_images} results for {n} images")
            return
        if not all(v is None or 0.0 <= v <= 1.0 for v in summary[:3]):
            self.tally.fail(n, f"{mode.value}: out-of-range result {summary}")
            return
        if mode_key(mode) == "bs4":
            self.bs4.append(summary)

    def check_reference(self) -> None:
        got = reference_results(self.kind, self.bundle)
        want = self.fixtures["reference"][self.kind]
        for mode, summary in got.items():
            if summary != want[mode]:
                self.tally.fail(summary[3], f"reference {self.kind} {mode}: {summary} != recorded {want[mode]}")

    def phase_metrics(self) -> dict[str, float]:
        out = super().phase_metrics()
        out["bs4_image_ms_p50"] = percentile(self.tally.item_ms, 50)
        out["bs4_image_ms_p99"] = percentile(self.tally.item_ms, 99)
        out["bs4_ap50"] = median([s[1] or 0.0 for s in self.bs4])
        out["bs4_mean_p"] = median([s[2] for s in self.bs4])
        return out

    def close(self) -> None:
        super().close()
        self.close_detector()


class EvaluateColorWorkload(EvaluateWorkload):
    """Same modes and weights over tinted scenes (RGB branch of every step)."""

    name = "evaluate_color"
    kind = "color"
    tint = COLOR_TINT

    def chunk_scenes(self) -> int:
        return self.size.color_scenes


class DetectExternalWorkload(EvaluateWorkload):
    """FR and BS4 through ExternalDetector to the JSON-lines stub on stdio."""

    name = "detect_external"
    kind = "external"
    setup_repeats = 7  # each starts a stub process
    modes = EXTERNAL_MODES

    def chunk_scenes(self) -> int:
        return self.size.external_scenes

    def chunk_config(self, k: int):
        prepare_external_env()
        n = self.chunk_scenes()
        return external_config(self.seed * SEED_STRIDE + k * n, n)

    def start_detector(self, cfg, images):
        detector = build_detector(cfg)
        # The first request waits for the child to start; that is set-up.
        detector.detect(images[0].scene.image)
        return detector

    def install_detect_clock(self) -> None:
        self.requests = 0
        self.expected = len(json.loads(STUB_RESPONSE.read_text())["detections"])
        self._clock(
            external_mod.ExternalDetector,
            "detect",
            self.tally.detect_ms,
            on_call=self.count_request,
            on_return=self.check_response,
        )

    def count_request(self) -> None:
        self.requests += 1

    def check_response(self, output) -> None:
        if len(output.detections) != self.expected or output.context.shape != (512,):
            self.tally.fail(1, f"response with {len(output.detections)} detections, "
                               f"context {output.context.shape}")

    def run_round(self, k: int) -> None:
        sent, answered = self.requests, len(self.tally.detect_ms)
        try:
            super().run_round(k)
        except ProtocolError as exc:
            self.tally.problems.append(f"round {k}: {exc}")
        sent = self.requests - sent
        answered = len(self.tally.detect_ms) - answered
        if sent != answered:
            self.tally.fail(sent - answered, f"{answered} responses for {sent} requests")

    def close_detector(self) -> None:
        if self.detector is not None:
            self.detector.close()
            self.detector = None


WORKLOADS = {
    w.name: w for w in (TrainWorkload, EvaluateWorkload, EvaluateColorWorkload, DetectExternalWorkload)
}
