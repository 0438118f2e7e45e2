"""Smoke test of the benchmark: every workload at tiny size (N=64, one sweep).

    python3 qcsbench/smoke.py

For each workload it makes one end-to-end run and two traced runs at one
seed, and fails unless each run passes its correctness check and prints
every metric BENCHMARK.json names, every time metric is non-negative, and
the per-layer counts repeat exactly between the two traced runs. Takes
about a minute on two cores.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

COUNT_SUFFIXES = (".calls", ".iters_mean", ".bytes", ".unconverged_frac")
TIME_UNITS = ("s", "ms")


def bench_run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"{cmd} exited {proc.returncode}:\n{proc.stdout}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(workload: str, result: dict, spec: list) -> None:
    assert result["correct"] is True and result["failed"] == 0, result
    assert result["attempted"] >= 1, result
    names = [m["name"] for m in spec]
    assert list(result["metrics"]) == names, (workload, sorted(set(names) ^ set(result["metrics"])))
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (workload, m["name"], got)
        if m["unit"] in TIME_UNITS:
            assert got["value"] >= 0, (workload, m["name"], got)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in WORKLOADS:
        check(workload, bench_run(workload, 0), bench["end_to_end"])
        first, second = bench_run(workload, 1), bench_run(workload, 1)
        for result in (first, second):
            check(workload, result, bench["per_layer"])
        for name, m in first["metrics"].items():
            if name.endswith(COUNT_SUFFIXES):
                assert m == second["metrics"][name], (workload, name, m, second["metrics"][name])
        print(f"ok {workload}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
