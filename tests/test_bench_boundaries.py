"""The benchmark tracer finds each layer boundary it wraps by name, and
the benchmark runs.

`qcsbench/tracer.py` patches `(module, attribute)` pairs in `qcslab.cli`
and `qcslab.harness`, and reports a missing one as absent rather than
failing. A rename or deletion of such a name fails here instead, and so
does a `sweep` path that stops calling one of them. Each workload of
`BENCHMARK.json` also runs once at its tiny size, from a copy of the
checkout, so that a change that breaks the benchmark fails here too.
"""

import importlib
import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from qcslab import cli

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "qcsbench" / "tracer.py"

# The names the tracer wraps in the qcslab.cli namespace.
CLI_BOUNDARIES = ("run_sweep", "read_config", "write_results", "write_aggregates", "render_svg")


def _boundaries():
    """The tracer's (module, attribute) pairs."""
    spec = importlib.util.spec_from_file_location("qcsbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.BOUNDARIES
    return [(module, attr) for _, module, attr in tracer.BOUNDARIES]


def test_traced_names_resolve():
    boundaries = _boundaries()
    missing = [
        (module, attr)
        for module, attr in boundaries
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []
    assert {attr for module, attr in boundaries if module == "qcslab.cli"} == set(
        CLI_BOUNDARIES
    )


def test_sweep_command_calls_the_traced_names(tmp_path, monkeypatch):
    # The benchmark runs `sweep --config` through cli.main and wraps these
    # names; a path that went round one (say, a solver bound when its
    # module loads) would leave its layer at zero.
    called = set()

    def wrap(module, attr):
        namespace = importlib.import_module(module)
        inner = getattr(namespace, attr)

        def wrapper(*args, **kwargs):
            called.add((module, attr))
            return inner(*args, **kwargs)

        monkeypatch.setattr(namespace, attr, wrapper)

    boundaries = _boundaries()
    for module, attr in boundaries:
        wrap(module, attr)
    # A tight frame, so that make_tight_frame runs too; at 1N and B = 1,
    # m = n, the most rows a tight frame takes.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(
        n=32, k=2, budgets=["1N"], bit_grid=[1, 4], isnr_list=[10.0],
        trials=1, master_seed=3, matrix_kind="tight_frame",
    )), encoding="utf-8")
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert sorted(set(boundaries) - called) == []


def _tree(path: Path):
    """Each file under path with its size and mtime; None when path is absent."""
    if not path.exists():
        return None
    return sorted(
        (str(p.relative_to(path)), p.stat().st_size, p.stat().st_mtime_ns)
        for p in path.rglob("*")
    )


@pytest.mark.parametrize(
    "workload",
    [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]],
)
def test_benchmark_workload_runs(workload, tmp_path):
    # run.py writes its artifacts under the checkout it runs from, after
    # removing any earlier ones there, so it runs from a copy.
    skip = shutil.ignore_patterns("__pycache__", ".qcsbench_out")
    shutil.copytree(ROOT / "qcsbench", tmp_path / "qcsbench", ignore=skip)
    shutil.copytree(ROOT / "src" / "qcslab", tmp_path / "src" / "qcslab", ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    before = _tree(ROOT / ".qcsbench_out")
    proc = subprocess.run(
        [sys.executable, "qcsbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", "0", "--tiny"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["correct"] is True
    assert report["failed"] == 0
    assert (tmp_path / ".qcsbench_out" / f"{workload}-seed7-trace0" / "result.json").is_file()
    assert _tree(ROOT / ".qcsbench_out") == before
