"""Result files: JSON report, CSV table, and plot-ready columns."""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Mapping

from ..errors import ConfigError
from ..util import finite_floats
from .config import EvalMode
from .evaluation import ModeResult

METRICS = ["ap", "ap50", "ap75", "ap_s", "ap_m", "ap_l", "mean_p"]

# Report rows follow EvalMode's declaration order; unknown names go last.
_MODE_RANK = {m.value: i for i, m in enumerate(EvalMode)}


def _emit(mode_rows: dict[str, dict], out_dir: str | Path) -> dict[str, Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    names = sorted(mode_rows, key=lambda n: _MODE_RANK.get(n, len(_MODE_RANK)))

    json_path = out / "report.json"
    payload = {"modes": {n: mode_rows[n] for n in names}}
    json_path.write_text(json.dumps(payload, indent=2) + "\n")

    csv_path = out / "report.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["mode", "metric", "value"])
        for name in names:
            for metric in METRICS:
                value = mode_rows[name].get(metric)
                writer.writerow([name, metric, "" if value is None else f"{value:.6f}"])

    paths = {"json": json_path, "csv": csv_path}
    for metric in METRICS:
        dat_path = out / f"plot_{metric}.dat"
        lines = []
        for idx, name in enumerate(names):
            value = mode_rows[name].get(metric)
            lines.append(f"{idx} {'nan' if value is None else f'{value:.6f}'}")
        dat_path.write_text("\n".join(lines) + ("\n" if lines else ""))
        paths[metric] = dat_path
    return paths


def emit_report(results: Mapping[EvalMode, ModeResult], out_dir: str | Path) -> dict[str, Path]:
    """Write report.json, report.csv, and one two-column .dat file per metric."""
    return _emit({mode.value: res.to_dict() for mode, res in results.items()}, out_dir)


def emit_payload(payload: dict, out_dir: str | Path) -> dict[str, Path]:
    """Re-emit report files from a previously saved report.json payload."""
    return _emit(dict(payload.get("modes", {})), out_dir)


def _is_report(payload) -> bool:
    """A JSON object whose "modes" (if any) map names to rows whose metrics
    are finite numbers or null."""
    modes = payload.get("modes", {}) if isinstance(payload, dict) else None
    return isinstance(modes, dict) and all(
        isinstance(row, dict)
        and finite_floats([row[m] for m in METRICS if row.get(m) is not None]) is not None
        for row in modes.values()
    )


def load_report(path: str | Path) -> dict:
    """A saved report.json payload; ConfigError if the file is unreadable or
    not a report."""
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:  # ValueError covers decode errors
        raise ConfigError(f"cannot read results {path}: {exc}") from exc
    if not _is_report(payload):
        raise ConfigError(f"results {path} is not a report: 'modes' must map modes to metrics")
    return payload
