import os
from pathlib import Path

import pytest

import qcslab


@pytest.fixture
def child_env():
    """Environment for a child Python that imports the qcslab under test.

    pytest's `pythonpath` setting reaches only this process, so the
    directory holding the imported package goes first on PYTHONPATH.
    """
    src = str(Path(qcslab.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path)
