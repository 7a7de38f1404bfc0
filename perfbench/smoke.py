"""Smoke check of the benchmark: every workload at a tiny size, in seconds.

    python3 perfbench/smoke.py

Runs each workload of BENCHMARK.json once untraced and once traced, with
a few iterations and one scene, and checks that every metric the file
names is present with its unit and that every correctness check passes.
The file is not named like a test, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from run import ROOT, import_rlaod, run

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def main() -> int:
    import_rlaod()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    for workload in bench["workloads"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            tag = f"{workload['name']} trace={trace}"
            args = argparse.Namespace(workload=workload["name"], seed=1, seconds=0.5, trace=trace)
            t0 = time.perf_counter()
            result, detail = run(args, smoke=True)
            if set(result) != RESULT_KEYS:
                failures.append(f"{tag}: result keys {sorted(result)}")
            for spec in bench[section]:
                got = result["metrics"].get(spec["name"])
                if got is None or got["unit"] != spec["unit"]:
                    failures.append(f"{tag}: metric {spec['name']} missing or not in {spec['unit']}")
            if not result["correct"]:
                failures.append(f"{tag}: incorrect: {detail['problems']}")
            print(f"{tag}: {len(result['metrics'])} metrics in {time.perf_counter() - t0:.1f}s")
    for failure in failures:
        print("FAIL", failure)
    print("smoke ok" if not failures else f"smoke failed: {len(failures)} problems")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
