"""The benchmark tracer finds each layer boundary it wraps by name.

`qcsbench/tracer.py` patches `(module, attribute)` pairs in `qcslab.cli`
and `qcslab.harness`, and reports a missing one as absent rather than
failing. A rename or deletion of such a name fails here instead.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "qcsbench" / "tracer.py"


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
