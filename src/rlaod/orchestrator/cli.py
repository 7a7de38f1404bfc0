"""Command-line interface.

    rlaod gen-data  --out DIR --n N [--seed S]
    rlaod degrade   --data MANIFEST --out DIR
    rlaod train     --agent brightness|scale|both --out DIR
    rlaod run       --weights DIR --out DIR (--data MANIFEST | --n N)
    rlaod evaluate  --modes FR,B2,... --out DIR [--weights DIR] [--n N]
    rlaod report    --results report.json --out DIR

Exit codes: 0 success, 1 other package error, 2 configuration error,
3 detector protocol or transport error, 4 invariant violation, 5 corrupt,
wrong-shaped or unreadable weight file, 6 training diverged, 7 unreadable
or corrupt image file.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from contextlib import closing
from pathlib import Path

from ..environment import generate_scene
from ..errors import (
    ConfigError,
    ContractViolation,
    ImageFormatError,
    ProtocolError,
    RlaodError,
    TrainingDiverged,
    WeightFormatError,
)
from ..features import StateKind
from ..imaging import write_ppm
from ..imaging.png import write_png
from .config import EvalMode, RunConfig, build_detector, load_config
from .dataset import generate_dataset, load_dataset, write_dataset
from .evaluation import degradation_variants, evaluate_modes
from .pipeline import AgentBundle, run_episode
from .report import emit_payload, emit_report, load_report
from .training import train_agent, train_agents


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rlaod", description=__doc__.split("\n")[0])
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", type=int, help="scene stream seed override")
    parser.add_argument("--detector", choices=["oracle", "external"])
    parser.add_argument("--endpoint", help="external detector command or host:port")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("degrade", help="expand a dataset with its four degradations")
    p.add_argument("--data", required=True, help="manifest path or dataset dir")
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", help="train agents against the configured detector")
    p.add_argument("--agent", choices=["brightness", "scale", "both"], default="both")
    p.add_argument("--out", required=True, help="directory for weights and logs")

    p = sub.add_parser("run", help="adjust images with trained agents")
    p.add_argument("--weights", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--data", help="manifest path; omit to generate scenes")
    p.add_argument("--n", type=int, default=20, help="generated scene count if no --data")
    p.add_argument("--horizon", type=int)

    p = sub.add_parser("evaluate", help="run the evaluation mode matrix")
    p.add_argument("--modes", default="FR,B2,BS2,B4,BS4")
    p.add_argument("--weights")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, help="test scene count override")
    p.add_argument("--data", help="manifest of clean scenes to evaluate instead")

    p = sub.add_parser("report", help="re-emit CSV and plot files from a JSON report")
    p.add_argument("--results", required=True)
    p.add_argument("--out", required=True)
    return parser


def _config_from_args(args) -> RunConfig:
    overrides = {
        "seed": args.seed,
        "detector": args.detector,
        "endpoint": args.endpoint,
        "horizon": getattr(args, "horizon", None),
    }
    return load_config(args.config, overrides)


def _scene_count(n: int) -> int:
    if n < 1:
        raise ConfigError(f"--n must be at least 1, got {n}")
    return n


def _cmd_gen_data(args, cfg: RunConfig) -> int:
    n = _scene_count(args.n)
    manifest = generate_dataset(args.out, cfg.seed, n, cfg.scene, cfg.image_format)
    print(manifest)
    return 0


def _cmd_degrade(args, cfg: RunConfig) -> int:
    variants = [im.scene for scene in load_dataset(args.data) for im in degradation_variants(scene)]
    expanded = [dataclasses.replace(v, seed=i) for i, v in enumerate(variants)]
    manifest = write_dataset(expanded, args.out, cfg.image_format)
    print(manifest)
    return 0


def _cmd_train(args, cfg: RunConfig) -> int:
    out = Path(args.out)
    if args.agent == "both":
        train_agents(cfg, out)
    else:
        train_agent(StateKind(args.agent), cfg, out_dir=out)
    print(out)
    return 0


def _cmd_run(args, cfg: RunConfig) -> int:
    bundle = AgentBundle.load(args.weights)
    if args.data:
        scenes = load_dataset(args.data)
    else:
        scenes = [generate_scene(cfg.seed + i, cfg.scene) for i in range(_scene_count(args.n))]
    with closing(build_detector(cfg)) as detector:
        results = [
            run_episode(scene, detector, cfg.horizon, bundle.brightness, bundle.scale)
            for scene in scenes
        ]

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    trajectories = []
    for res in results:
        name = f"adjusted_{res.scene_id:08d}.{cfg.image_format}"
        writer = write_ppm if cfg.image_format == "ppm" else write_png
        writer(res.final_image, out / name)
        trajectories.append(
            {
                "scene_id": res.scene_id,
                "initial_p": res.initial_p,
                "final_p": res.final_p,
                "cumulative_scale_factor": res.cumulative_scale_factor,
                "file": name,
                "steps": [s.to_dict() for s in res.trajectory],
            }
        )
    (out / "trajectories.json").write_text(json.dumps(trajectories, indent=2) + "\n")
    print(out / "trajectories.json")
    return 0


def _cmd_evaluate(args, cfg: RunConfig) -> int:
    modes = [EvalMode.parse(m) for m in args.modes.split(",") if m.strip()]
    if not modes:
        raise ConfigError(f"--modes {args.modes!r} names no mode")
    if args.n is not None:
        cfg = dataclasses.replace(cfg, n_eval_scenes=args.n)
    bundle = AgentBundle.load(args.weights) if args.weights else None
    scenes = load_dataset(args.data) if args.data else None
    results = evaluate_modes(cfg, modes, bundle, scenes)
    paths = emit_report(results, args.out)
    print(paths["json"])
    return 0


def _cmd_report(args, cfg: RunConfig) -> int:
    payload = load_report(args.results)
    paths = emit_payload(payload, args.out)
    print(paths["csv"])
    return 0


def _check_out(out: str) -> None:
    """ConfigError unless `out` is a directory, or its nearest existing
    ancestor is one so the command can create it. Creates nothing."""
    path = Path(out)
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"--out {out}: {existing} is not a directory")


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "degrade": _cmd_degrade,
    "train": _cmd_train,
    "run": _cmd_run,
    "evaluate": _cmd_evaluate,
    "report": _cmd_report,
}


# Exit code and message prefix per package error; the first match wins.
_EXIT_CODES = (
    (ConfigError, 2, "config error"),
    (ProtocolError, 3, "detector error"),
    (ContractViolation, 4, "invariant violation"),
    (WeightFormatError, 5, "weight file error"),
    (TrainingDiverged, 6, "training diverged"),
    (ImageFormatError, 7, "image file error"),
    (RlaodError, 1, "error"),
)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        _check_out(args.out)
        return _COMMANDS[args.command](args, cfg)
    except RlaodError as exc:
        code, label = next((c, lab) for kind, c, lab in _EXIT_CODES if isinstance(exc, kind))
        print(f"{label}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    raise SystemExit(main())
