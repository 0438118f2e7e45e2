"""qcslab sweep benchmark: one workload per run, end-to-end or traced.

    python3 qcsbench/run.py --workload ci_sweep --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository: the program under test is the
qcslab package in its src/. Every process this script starts gets BLAS
pinned to one thread (OPENBLAS/OMP/MKL_NUM_THREADS=1) and QCSLAB_THREADS
set to the CPU count, which is the harness's own default worker count.

--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1
prints its per-layer metrics. The last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}. The exit code is 0 when
every output passed the correctness check, 1 when one did not, and 2
when the run could not be made. Run artifacts (spans.jsonl, result.json)
go to .qcsbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

# Setup-only processes per run; with the measuring process they give the
# samples whose median is setup_s.
SETUP_ONLY_RUNS = 2
CHILD_TIMEOUT_S = 160


class BenchError(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        QCSLAB_THREADS=str(os.cpu_count() or 1),
        PYTHONPATH=str(ROOT / "src"),
    )
    return env


def _worker(spec: dict, timeout: float) -> dict:
    out = Path(spec["out"])
    out.mkdir(parents=True, exist_ok=True)
    spec_path = out / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    cmd = [sys.executable, str(HERE / "worker.py"), str(spec_path), repr(time.monotonic())]
    try:
        proc = subprocess.run(
            cmd, env=_env(), capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{spec['mode']} process exceeded {timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"{spec['mode']} process exited with {proc.returncode}: {proc.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def _import_s(module: str) -> float:
    """Cumulative import time of `module` under `python -X importtime`."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import qcslab"],
        env=_env(), capture_output=True, text=True, timeout=60,
    )
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+\d+\s+\|\s+(\d+)\s+\|\s+(\S+)\s*$", line)
        if m and m.group(2) == module:
            return int(m.group(1)) / 1e6
    raise BenchError(f"{module} not found in -X importtime output")


def run(args, bench: dict) -> tuple:
    deadline = time.monotonic() + 170
    out = ROOT / ".qcsbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    spec = {
        "root": str(ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "tiny": args.tiny,
    }

    def setup_only(i):
        s = dict(spec, mode="setup", out=str(out / f"setup{i}"))
        return _worker(s, 30)["setup_s"]

    # Setup samples are spread over the run: before, at the start of and
    # after the measurement, so a slow spell of a shared machine skews one.
    runs = 0 if args.tiny else SETUP_ONLY_RUNS
    setup = [setup_only(i) for i in range(runs // 2)]
    res = _worker(dict(spec, mode="measure", out=str(out)),
                  min(CHILD_TIMEOUT_S, deadline - time.monotonic()))
    setup.append(res["setup_s"])
    setup += [setup_only(i) for i in range(runs // 2, runs)]
    metrics = dict(res["metrics"])
    metrics["setup_s"] = statistics.median(setup)
    if args.trace:
        metrics["quantize.import_s"] = _import_s("qcslab.quantize")
    passes = res["passes"]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    problems = [q for p in passes for q in p["problems"]]

    names = bench["per_layer"] if args.trace else bench["end_to_end"]
    missing = [m["name"] for m in names if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics not produced: {missing}")
    chosen = {}
    for m in names:
        value = metrics[m["name"]]
        if not math.isfinite(value):
            problems.append(f"{m['name']} is not finite")
            value = 0.0
        chosen[m["name"]] = {"value": value, "unit": m["unit"]}
    correct = failed == 0 and not problems

    report = {
        "machine": res["machine"],
        "setup_samples_s": setup,
        "passes": passes,
        "absent": res.get("absent", []),
        "metrics": chosen,
        "correct": correct,
    }
    (out / "result.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    print("machine: " + json.dumps(res["machine"]))
    for p in passes:
        print(f"pass: {p['sweeps']} sweeps, {p['attempted']} trials, "
              f"{p['wall_s']:.3f} s of sweeps, failed {p['failed']}")
    if report["absent"]:
        print("absent layers: " + ", ".join(report["absent"]))
    for name, m in chosen.items():
        print(f"  {name:44s} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'failed_frac':44s} {failed / max(attempted, 1):>14.6g} ratio")
    for q in problems:
        print(f"problem: {q}")
    return correct, attempted, failed, chosen


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny N, one sweep, no reference check (smoke test)")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (ROOT / "src" / "qcslab" / "__init__.py").is_file():
        print(f"run.py: no qcslab source under {ROOT / 'src'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        correct, attempted, failed, metrics = run(args, bench)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
