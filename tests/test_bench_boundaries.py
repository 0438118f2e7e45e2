"""The benchmark tracer finds each layer boundary it wraps by name.

`qcsbench/tracer.py` patches `(module, attribute)` pairs in `qcslab.cli`
and `qcslab.harness`, and reports a missing one as absent rather than
failing. A rename or deletion of such a name fails here instead, and so
does a `sweep` path that stops calling the `qcslab.cli` names.
"""

import importlib
import importlib.util
import json
from pathlib import Path

from qcslab import cli

TRACER = Path(__file__).resolve().parents[1] / "qcsbench" / "tracer.py"

# The names the tracer wraps in the qcslab.cli namespace.
CLI_BOUNDARIES = ("run_sweep", "read_config", "write_results", "write_aggregates", "render_svg")


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("qcsbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.BOUNDARIES
    missing = [
        (module, attr)
        for _, module, attr in tracer.BOUNDARIES
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []
    assert {attr for _, module, attr in tracer.BOUNDARIES if module == "qcslab.cli"} == set(
        CLI_BOUNDARIES
    )


def test_sweep_command_calls_the_traced_names(tmp_path, monkeypatch):
    # The benchmark runs `sweep --config` through cli.main and wraps these
    # names; a path that went round one would leave its layer at zero.
    called = set()

    def wrap(name):
        inner = getattr(cli, name)

        def wrapper(*args, **kwargs):
            called.add(name)
            return inner(*args, **kwargs)

        monkeypatch.setattr(cli, name, wrapper)

    for name in CLI_BOUNDARIES:
        wrap(name)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(
        n=32, k=2, budgets=["2N"], bit_grid=[1, 4], isnr_list=[10.0],
        trials=1, master_seed=3,
    )), encoding="utf-8")
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert called == set(CLI_BOUNDARIES)
