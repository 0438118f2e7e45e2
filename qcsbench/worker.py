"""Benchmark worker: runs one workload's sweeps through `qcslab.cli.main`.

run.py starts it with BLAS pinned to one thread, QCSLAB_THREADS set and
PYTHONPATH pointing at the checkout's src/. Usage:

    python3 worker.py <spec.json> <monotonic time at spawn>

Spec modes:
  setup    stop at the first trial and report the seconds since spawn;
  measure  run sweeps (closed batch) and print one JSON result line.
With "trace" set, measure runs the workload's fixed sweeps twice, untraced
and then traced, so the per-layer counts repeat exactly for one seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import threading
import time
from pathlib import Path

from workloads import WORKLOADS, sweep_config


def _machine(spec) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    facts = {
        "nproc": os.cpu_count(),
        "cpu_model": platform.processor() or platform.machine(),
        "llc": None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "harness_workers": os.environ.get("QCSLAB_THREADS"),
        "workload": spec["workload"],
        "seed": spec["seed"],
    }
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    facts["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    with contextlib.suppress(OSError):
        facts["llc"] = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    return facts


class Runner:
    def __init__(self, spec, spawned):
        from qcslab import cli

        self.cli = cli
        self.spec = spec
        self.spawned = spawned
        self.out = Path(spec["out"])
        self.first_trial = None

    def hook_first_trial(self):
        """Time the first trial start; in setup mode, report it and exit."""
        from qcslab import harness

        orig = harness.run_trial
        lock = threading.Lock()

        def first(*args, **kwargs):
            with lock:
                if self.first_trial is None:
                    self.first_trial = time.monotonic()
                    if self.spec["mode"] == "setup":
                        # stdout is redirected around cli.main; write to the real one.
                        sys.__stdout__.write(
                            json.dumps({"setup_s": self.first_trial - self.spawned}) + "\n"
                        )
                        sys.__stdout__.flush()
                        os._exit(0)
            return orig(*args, **kwargs)

        harness.run_trial = first
        return lambda: setattr(harness, "run_trial", orig)

    def sweep(self, r, tracer=None):
        spec = self.spec
        cfg = sweep_config(spec["workload"], spec["seed"], r, spec["tiny"])
        cfg_path = self.out / f"sweep{r}.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        sweep_dir = self.out / "sweep"
        shutil.rmtree(sweep_dir, ignore_errors=True)
        argv = ["sweep", "--config", str(cfg_path), "--out", str(sweep_dir)]
        entry = None
        if tracer is not None:
            tracer.sweep = r
            entry = tracer.open("cli.main")
        sink = io.StringIO()
        t0, c0 = time.perf_counter(), time.process_time()
        with contextlib.redirect_stdout(sink):
            rc = self.cli.main(argv)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        if entry is not None:
            tracer.close(entry)
        return cfg, rc, wall, cpu, str(sweep_dir)

    def run_pass(self, sweeps, seconds=None, tracer=None, unhook=None):
        """Sweeps 0..sweeps-1, then more while `seconds` of sweep time remain."""
        from check import RunCheck

        check = RunCheck()
        walls, cpus, rsnr = [], [], []
        r = 0
        while r < sweeps or (
            seconds is not None and sum(walls) + 0.5 * statistics.fmean(walls) < seconds
        ):
            cfg, rc, wall, cpu, sweep_dir = self.sweep(r, tracer)
            if unhook is not None:
                unhook()
                unhook = None
            walls.append(wall)
            cpus.append(cpu)
            agg = check.sweep(r, cfg, sweep_dir)
            if rc != 0:
                check.problems.append(f"sweep {r}: qcslab exited with {rc}")
            if r < sweeps:
                rsnr.extend(agg)
            r += 1
        if not self.spec["tiny"]:
            ref = json.loads((Path(__file__).parent / "reference.json").read_text())
            check.against_reference(ref[self.spec["workload"]])
        done = check.attempted - len(check.failed)
        return {
            "sweeps": r,
            "wall_s": sum(walls),
            "sweep_walls_s": walls,
            "cpu_s": sum(cpus),
            "attempted": check.attempted,
            "failed": len(check.failed),
            "problems": check.problems,
            "trials_per_s": done / sum(walls),
            "rsnr_mean_db": statistics.fmean(rsnr) if rsnr else float("nan"),
        }

    def measure(self):
        spec = self.spec
        w = WORKLOADS[spec["workload"]]
        sweeps = 1 if spec["tiny"] else w["min_sweeps"]
        unhook = self.hook_first_trial()
        result = {"machine": _machine(spec)}
        if not spec["trace"]:
            p = self.run_pass(sweeps, spec["seconds"], unhook=unhook)
            result["passes"] = [p]
            result["metrics"] = {
                "trials_per_s": p["trials_per_s"],
                "rsnr_mean_db": p["rsnr_mean_db"],
            }
        else:
            from tracer import Tracer

            plain = self.run_pass(sweeps, unhook=unhook)
            tracer = Tracer()
            tracer.install()
            try:
                traced = self.run_pass(sweeps, tracer=tracer)
            finally:
                tracer.uninstall()
            tracer.write(self.out / "spans.jsonl")
            result["passes"] = [plain, traced]
            result["absent"] = tracer.absent
            result["metrics"] = layer_metrics(tracer, plain, traced)
        result["setup_s"] = self.first_trial - self.spawned
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["metrics"]["peak_rss_mb"] = rss_kib / 1024.0
        return result


def layer_metrics(tracer, plain, traced) -> dict:
    """Per-layer metrics of the traced pass; layers never called read 0."""
    summary = tracer.summary()
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "durations": [], "extras": []}
    m = {}

    def get(name):
        return summary.get(name, empty)

    for name in ("reconstruct.bpdn", "reconstruct.biht"):
        s = get(name)
        iters = [e["iterations"] for e in s["extras"]]
        m[f"{name}.busy_s"] = s["busy_s"]
        m[f"{name}.calls"] = s["calls"]
        m[f"{name}.iters_mean"] = statistics.fmean(iters) if iters else 0.0
        m[f"{name}.ms_per_iter"] = 1e3 * s["busy_s"] / sum(iters) if sum(iters) else 0.0
        m[f"{name}.unconverged_frac"] = (
            sum(not e["converged"] for e in s["extras"]) / len(iters) if iters else 0.0
        )
    gen = get("signal_model.gen_gaussian_matrix")
    m["signal_model.gen_gaussian_matrix.bytes"] = sum(e["bytes"] for e in gen["extras"])
    trial = get("harness.run_trial")
    durs = sorted(trial["durations"])
    m["harness.run_trial.self_s"] = trial["self_s"]
    m["harness.run_trial.calls"] = trial["calls"]
    m["harness.run_trial.p50_ms"] = 1e3 * _quantile(durs, 0.50)
    m["harness.run_trial.p99_ms"] = 1e3 * _quantile(durs, 0.99)
    m["harness.cpu_per_wall"] = plain["cpu_s"] / plain["wall_s"]
    m["harness.write_results.bytes"] = sum(
        e["bytes"] for e in get("harness.write_results")["extras"]
    )
    for name in (
        "reconstruct.oracle_ls",
        "signal_model.gen_gaussian_matrix",
        "signal_model.gen_sparse_signal",
        "signal_model.measure",
        "harness.aggregate",
        "harness.write_results",
        "harness.write_aggregates",
        "quantize.uniform_quantize",
        "quantize.sign_quantize",
        "seeding.derive_seed",
        "svgplot.render_svg",
    ):
        m.setdefault(f"{name}.busy_s", get(name)["busy_s"])
        m.setdefault(f"{name}.calls", get(name)["calls"])
    m["tracing.overhead_frac"] = plain["trials_per_s"] / traced["trials_per_s"] - 1.0
    return m


def _quantile(sorted_vals, q):
    if not sorted_vals:
        return 0.0
    return sorted_vals[min(len(sorted_vals) - 1, int(q * len(sorted_vals)))]


def main() -> int:
    spawned = float(sys.argv[2])
    spec = json.loads(Path(sys.argv[1]).read_text())
    import qcslab

    src = Path(spec["root"]).resolve() / "src"
    if src not in Path(qcslab.__file__).resolve().parents:
        print(f"worker: qcslab imported from {qcslab.__file__}, not {src}", file=sys.stderr)
        return 2
    runner = Runner(spec, spawned)
    runner.out.mkdir(parents=True, exist_ok=True)
    if spec["mode"] == "setup":
        runner.hook_first_trial()
        runner.sweep(0)
        print("worker: sweep finished without running a trial", file=sys.stderr)
        return 2
    print(json.dumps(runner.measure()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
