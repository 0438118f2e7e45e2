"""Workload definitions for the qcslab sweep benchmark.

A workload is one fixed sweep config. A run executes it as a closed batch:
sweep r of a run uses master seed `seed * 1000 + r`, and the next sweep
starts when the previous one ends. Nothing here imports numpy or qcslab,
so the benchmark's parent process stays light.
"""

from __future__ import annotations

# Seed whose sweeps produced reference.json.
DEFAULT_SEED = 1

# Each entry: the sweep config without trials/master_seed, the trial count
# of one sweep, the number of sweeps every run makes before it may stop
# (the fixed unit that rsnr_mean_db and every traced count come from),
# and the per-tuple trial count of the reference. Why each workload exists
# is in BENCHMARK.json and README.md.
WORKLOADS = {
    "ci_sweep": {
        "config": {
            "n": 256,
            "k": 4,
            "budgets": ["2N"],
            "bit_grid": [1, 2, 3, 4, 5, 6, 8, 10, 12],
            "isnr_list": [35.0, 20.0, 10.0, 5.0],
            "algorithms": ["oracle_ls", "bpdn", "biht_l1", "biht_l2"],
        },
        "trials": 1,
        "min_sweeps": 5,
        "reference_trials": 20,
    },
    "fig2_oracle": {
        "config": {
            "n": 1000,
            "k": 10,
            "budgets": ["3N"],
            "bit_grid": list(range(2, 13)),
            "isnr_list": [35.0, 20.0, 10.0, 5.0],
            "algorithms": ["oracle_ls"],
        },
        "trials": 5,
        "min_sweeps": 6,
        "reference_trials": 50,
    },
    "fig3_bpdn": {
        "config": {
            "n": 1000,
            "k": 10,
            "budgets": ["1N", "3N"],
            "bit_grid": [2, 4, 8],
            "isnr_list": [35.0, 5.0],
            "algorithms": ["bpdn"],
        },
        "trials": 1,
        "min_sweeps": 3,
        "reference_trials": 20,
    },
    "fig3_onebit": {
        "config": {
            "n": 1000,
            "k": 10,
            "budgets": ["1N", "3N", "7N"],
            "bit_grid": [1],
            "isnr_list": [35.0, 5.0],
            "algorithms": ["biht_l1", "biht_l2"],
        },
        "trials": 1,
        "min_sweeps": 6,
        "reference_trials": 30,
    },
}

# Shrunken sizes for the smoke test: same grids and algorithms, tiny N.
TINY = {"n": 64, "k": 2}


def sweep_config(name: str, seed: int, r: int, tiny: bool = False) -> dict:
    """JSON config of sweep r of a run of workload `name` at `seed`."""
    w = WORKLOADS[name]
    cfg = dict(w["config"])
    if tiny:
        cfg.update(TINY)
    cfg["trials"] = w["trials"]
    cfg["master_seed"] = seed * 1000 + r
    return cfg
