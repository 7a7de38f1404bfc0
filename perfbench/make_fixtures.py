"""Regenerate the benchmark's fixed inputs in perfbench/fixtures/.

    python3 perfbench/make_fixtures.py

Trains the brightness and scale agents once at the acceptance
configuration with a shortened, stated budget, writes their .rlw weights,
the stub detector's canned response, and fixtures.json with the weight
digests and the per-mode outputs recorded on the reference sets. Every
step is seeded, so a rerun on the same code writes identical files.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from run import import_rlaod

TRAIN_SEED = 7
TRAIN_ITERATIONS = 3000  # per agent
STUB_SEED = 11


def stub_response() -> dict:
    """One confident detection and a 1024-value context (reduced to 512)."""
    rng = np.random.default_rng(STUB_SEED)
    return {
        "detections": [{"bbox": [20.0, 24.0, 52.0, 60.0], "score": 0.9}],
        "context": [round(float(x), 6) for x in rng.standard_normal(1024)],
    }


def main() -> int:
    import_rlaod()
    import workloads as wl
    from rlaod.orchestrator import AgentBundle, load_config, train_agents

    out = wl.FIXTURES

    cfg = load_config(
        overrides={
            "train_seed": TRAIN_SEED,
            "train": {"iterations_brightness": TRAIN_ITERATIONS, "iterations_scale": TRAIN_ITERATIONS},
        }
    )
    train_agents(cfg).save(out)
    wl.STUB_RESPONSE.write_text(json.dumps(stub_response()) + "\n")

    bundle = AgentBundle.load(out)  # as the workloads load it, through f32
    fixtures = {
        "train": {"train_seed": TRAIN_SEED, "iterations_per_agent": TRAIN_ITERATIONS},
        "weights": {name: wl.sha256(out / name) for name in wl.WEIGHT_FILES},
        "reference": {
            kind: wl.reference_results(kind, bundle) for kind in wl.REFERENCE_SCENES
        },
    }
    wl.FIXTURES_JSON.write_text(json.dumps(fixtures, indent=2) + "\n")
    print(json.dumps(fixtures, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
