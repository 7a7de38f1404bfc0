"""Span tracer that wraps rlaod's public functions from the outside.

Each layer name maps to the call sites where the calling module looks the
function up (``module:attr`` or ``module:Class.attr``). Installing the
tracer replaces those attributes with wrappers that record a span per call:
layer, parent span, root span, start and end in nanoseconds. Self time is a
span's duration minus the time its child spans cover. Spans stay in memory
until ``write`` dumps them at the end of the run.
"""

from __future__ import annotations

import gzip
import importlib
import sys
import time
from pathlib import Path


def _rows(args, kwargs):
    x = args[1] if len(args) > 1 else kwargs["x"]
    return 1 if getattr(x, "ndim", 1) == 1 else int(x.shape[0])


def _out_pixels(args, kwargs):
    out_h = args[1] if len(args) > 1 else kwargs["out_h"]
    out_w = args[2] if len(args) > 2 else kwargs["out_w"]
    return int(out_h) * int(out_w)


def _ppm_bytes(args, kwargs):
    image = args[1] if len(args) > 1 else kwargs["image"]
    return len(f"P6\n{image.width} {image.height}\n255\n") + image.pixels.nbytes


# layer -> call sites. The counters after each entry add a per-call amount
# to "<layer>.<counter>" on top of the calls and self-time every layer gets.
LAYERS: dict[str, tuple[list[str], dict]] = {
    "agent.train_step": (["rlaod.orchestrator.training:train_step"], {}),
    "agent.backward": (["rlaod.agent.dqn:backward"], {}),
    "agent.adam_step": (["rlaod.agent.dqn:adam_step"], {}),
    "agent.replay.sample": (["rlaod.agent.dqn:ReplayBuffer.sample"], {}),
    "agent.replay.push": (["rlaod.agent.dqn:ReplayBuffer.push"], {}),
    "agent.sync_target": (["rlaod.orchestrator.training:sync_target"], {}),
    "agent.forward": (
        [
            "rlaod.agent.dqn:forward",
            "rlaod.orchestrator.training:forward",
            "rlaod.orchestrator.pipeline:forward",
        ],
        {"rows": _rows},
    ),
    "agent.load_params": (["rlaod.orchestrator.pipeline:load_params"], {}),
    "environment.step_episode": (
        ["rlaod.orchestrator.training:step_episode", "rlaod.orchestrator.pipeline:step_episode"],
        {},
    ),
    "environment.reset_episode": (
        ["rlaod.orchestrator.training:reset_episode", "rlaod.orchestrator.pipeline:reset_episode"],
        {},
    ),
    "environment.detect": (["rlaod.environment.detector:OracleDetector.detect"], {}),
    "environment.external.detect": (
        ["rlaod.environment.external:ExternalDetector.detect"],
        {"bytes": _ppm_bytes},
    ),
    "environment.generate_scene": (
        ["rlaod.orchestrator.training:generate_scene", "rlaod.orchestrator.evaluation:generate_scene"],
        {},
    ),
    "environment.degrade": (
        ["rlaod.orchestrator.training:degrade", "rlaod.orchestrator.evaluation:degrade"],
        {},
    ),
    "imaging.resample_bilinear.frame": (
        ["rlaod.environment.episode:resample_bilinear", "rlaod.imaging.resize:resample_bilinear"],
        {"out_pixels": _out_pixels},
    ),
    "imaging.resample_bilinear.thumb": (
        ["rlaod.environment.detector:resample_bilinear"],
        {"out_pixels": _out_pixels},
    ),
    "imaging.render_brightness": (
        [
            "rlaod.environment.episode:render_brightness",
            "rlaod.environment.degrade:render_brightness",
            "rlaod.environment.scene:render_brightness",
        ],
        {},
    ),
    "imaging.rgb_to_hsv": (
        ["rlaod.environment.episode:rgb_to_hsv", "rlaod.environment.degrade:rgb_to_hsv"],
        {},
    ),
    "imaging.hsv_to_rgb": (
        ["rlaod.environment.episode:hsv_to_rgb", "rlaod.environment.degrade:hsv_to_rgb"],
        {},
    ),
    "imaging.estimate_brightness_level": (
        [
            "rlaod.environment.detector:estimate_brightness_level",
            "rlaod.environment.episode:estimate_brightness_level",
            "rlaod.environment.degrade:estimate_brightness_level",
            "rlaod.environment.scene:estimate_brightness_level",
        ],
        {},
    ),
    "imaging.write_ppm": (["rlaod.environment.external:write_ppm"], {}),
    "features.brightness_histogram": (["rlaod.orchestrator.pipeline:brightness_histogram"], {}),
    "features.area_histogram": (["rlaod.orchestrator.pipeline:area_histogram"], {}),
    "features.gaussian_smooth": (["rlaod.orchestrator.pipeline:gaussian_smooth"], {}),
    "features.reduce_context": (
        ["rlaod.orchestrator.pipeline:reduce_context", "rlaod.environment.external:reduce_context"],
        {},
    ),
    "features.assemble_state": (["rlaod.orchestrator.pipeline:assemble_state"], {}),
    "metrics.performance_score": (["rlaod.environment.episode:performance_score"], {}),
    "metrics.evaluate_ap": (["rlaod.orchestrator.evaluation:evaluate_ap"], {}),
}

# step_episode renders only when its cached frame is stale.
RENDER_CACHE_MISS_SITE = "rlaod.environment.episode:render_brightness"


def resolve(site: str):
    """(owner, attribute) for a ``module:attr`` or ``module:Class.attr`` site."""
    module_name, _, path = site.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    if not hasattr(owner, attr):
        raise AttributeError(f"{site} does not exist")
    return owner, attr


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make_wrapper) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def undo(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Tracer:
    def __init__(self):
        self.names = list(LAYERS)
        n = len(self.names)
        self.calls = [0] * n
        self.self_ns = [0] * n
        self.counters: dict[str, int] = {}
        self.cache_misses = 0
        self.root_ns = 0  # summed duration of spans with no parent
        self.missing: list[str] = []
        # (span id, layer index, parent id or -1, root id, start ns, end ns)
        self.spans: list[tuple[int, int, int, int, int, int]] = []
        self._next_id = 0
        self._stack: list[list[int]] = []  # [span id, root id, start, child ns]
        self._patches = Patches()

    def install(self) -> None:
        for lid, name in enumerate(self.names):
            sites, counters = LAYERS[name]
            for site in sites:
                try:
                    owner, attr = resolve(site)
                except (ImportError, AttributeError):
                    self.missing.append(site)
                    print(f"perfbench: trace site {site} not found; skipped", file=sys.stderr)
                    continue
                miss = site == RENDER_CACHE_MISS_SITE
                self._patches.replace(
                    owner, attr, lambda fn, lid=lid, c=counters, m=miss: self._wrap(fn, lid, c, m)
                )

    def remove(self) -> None:
        self._patches.undo()

    def _wrap(self, fn, lid: int, counters: dict, cache_miss: bool):
        tracer = self
        counter_keys = [(f"{self.names[lid]}.{key}", get) for key, get in counters.items()]

        def traced(*args, **kwargs):
            stack = tracer._stack
            sid = tracer._next_id
            tracer._next_id += 1
            if stack:
                parent, root = stack[-1][0], stack[-1][1]
            else:
                parent, root = -1, sid
            frame = [sid, root, time.perf_counter_ns(), 0]
            stack.append(frame)
            failed = True
            try:
                out = fn(*args, **kwargs)
                failed = False
                return out
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                dur = end - frame[2]
                tracer.calls[lid] += 1
                tracer.self_ns[lid] += dur - frame[3]
                if stack:
                    stack[-1][3] += dur
                else:
                    tracer.root_ns += dur
                tracer.spans.append((sid, lid, parent, root, frame[2], end))
                if cache_miss:
                    tracer.cache_misses += 1
                for key, get in counter_keys:
                    tracer.counters[key] = tracer.counters.get(key, 0) + get(args, kwargs)
                if failed:
                    key = f"{tracer.names[lid]}.failed"
                    tracer.counters[key] = tracer.counters.get(key, 0) + 1

        return traced

    def layer_metrics(self, wall_ns: int) -> dict[str, float]:
        """calls, self ms and counters per layer, plus orchestrator.self_ms."""
        out: dict[str, float] = {}
        for lid, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[lid]
            out[f"{name}.ms"] = self.self_ns[lid] / 1e6
        for name, (_, counters) in LAYERS.items():
            for key in counters:
                out.setdefault(f"{name}.{key}", 0)
        out["environment.external.detect.failed"] = 0
        out.update(self.counters)
        out["orchestrator.self_ms"] = (wall_ns - self.root_ns) / 1e6
        return out

    def write(self, path: Path) -> None:
        """Dump every span as CSV (gzip): id, layer, parent, root, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("# layers: " + ",".join(self.names) + "\n")
            fh.write("id,layer,parent,root,start_ns,end_ns\n")
            for span in sorted(self.spans):
                fh.write("%d,%d,%d,%d,%d,%d\n" % span)
