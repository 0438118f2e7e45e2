"""Record the per-tuple RSNR reference that every benchmark run is checked against.

Runs each workload's sweep at the default seed with the workload's
reference trial count through `qcslab.cli.main` and stores the mean and
standard deviation of `rsnr_db` per (budget, bit depth, ISNR, algorithm).
Re-run it only when a change is meant to alter the RSNR distribution:

    python3 qcsbench/make_reference.py [workload ...]

Takes a few minutes on two cores.
"""

from __future__ import annotations

import csv
import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from workloads import DEFAULT_SEED, WORKLOADS, sweep_config  # noqa: E402

REFERENCE = HERE / "reference.json"


def record(name: str) -> dict:
    from qcslab.cli import main

    cfg = sweep_config(name, DEFAULT_SEED, 0)
    cfg["trials"] = WORKLOADS[name]["reference_trials"]
    scratch = ROOT / ".qcsbench_out"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        rc = main(["sweep", "--config", str(path), "--out", tmp])
        if rc != 0:
            raise SystemExit(f"{name}: sweep exited with {rc}")
        with open(Path(tmp) / "aggregates.csv", newline="", encoding="utf-8") as fh:
            tuples = [
                [
                    int(rec["budget"]),
                    int(rec["bit_depth"]),
                    float(rec["isnr_db"]),
                    rec["algorithm"],
                    float(rec["rsnr_mean"]),
                    float(rec["rsnr_std"]),
                ]
                for rec in csv.DictReader(fh)
            ]
    return {"master_seed": cfg["master_seed"], "trials": cfg["trials"], "tuples": tuples}


def main() -> None:
    names = sys.argv[1:] or list(WORKLOADS)
    ref = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    for name in names:
        ref[name] = record(name)
        print(f"{name}: {len(ref[name]['tuples'])} tuples", file=sys.stderr)
    lines = []
    for name, entry in ref.items():
        rows = ",\n    ".join(json.dumps(t) for t in entry["tuples"])
        lines.append(f'  "{name}": {{"master_seed": {entry["master_seed"]}, '
                     f'"trials": {entry["trials"]}, "tuples": [\n    {rows}]}}')
    REFERENCE.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


if __name__ == "__main__":
    main()
