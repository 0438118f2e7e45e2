"""Canned experiment configurations.

Full-scale presets mirror the stock experiment suites (N = 1000, K = 10,
100 trials); `ci` is a reduced-scale preset (N = 256, K = 4, 30 trials)
that finishes in minutes on a laptop, and `k60` is the denser-signal
variant of the budget sweep.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict

from .harness import ExperimentConfig

DEFAULT_SEED = 20250810


def _fig2() -> ExperimentConfig:
    return ExperimentConfig(
        n=1000,
        k=10,
        budgets=["3N"],
        bit_grid=list(range(2, 13)),
        isnr_list=[35.0, 20.0, 10.0, 5.0],
        trials=100,
        master_seed=DEFAULT_SEED,
        algorithms=["oracle_ls"],
    )


def _fig3() -> ExperimentConfig:
    return ExperimentConfig(
        n=1000,
        k=10,
        budgets=["0.5N", "1N", "2N", "3N", "4N", "5N", "6N", "7N"],
        bit_grid=[1, 2, 4, 6, 8, 10, 12],
        isnr_list=[35.0, 20.0, 10.0, 5.0],
        trials=100,
        master_seed=DEFAULT_SEED,
        algorithms=["bpdn", "biht_l1", "biht_l2"],
    )


def _fig4() -> ExperimentConfig:
    return ExperimentConfig(
        n=1000,
        k=10,
        budgets=["1N", "2N", "5N"],
        bit_grid=list(range(1, 13)),
        isnr_list=[float(v) for v in range(5, 46, 2)],
        trials=100,
        master_seed=DEFAULT_SEED,
        algorithms=["bpdn", "biht_l1", "biht_l2"],
    )


def _ci() -> ExperimentConfig:
    return ExperimentConfig(
        n=256,
        k=4,
        budgets=["2N"],
        bit_grid=[1, 2, 3, 4, 5, 6, 8, 10, 12],
        isnr_list=[35.0, 20.0, 10.0, 5.0],
        trials=30,
        master_seed=DEFAULT_SEED,
        algorithms=["oracle_ls", "bpdn", "biht_l1", "biht_l2"],
    )


def _k60() -> ExperimentConfig:
    return replace(_fig3(), k=60)


_SWEEP_PRESETS = {
    "fig2": (_fig2, "oracle sweep, budget 3N, bit depths 2..12, four ISNRs"),
    "fig3": (_fig3, "RSNR vs budget N/2..7N per bit depth, BPDN + 1-bit"),
    "fig4": (_fig4, "regime map input: budgets N/2N/5N over ISNR 5..45 dB"),
    "ci": (_ci, "reduced scale N=256, K=4, 30 trials; finishes in minutes"),
    "k60": (_k60, "budget sweep with the denser K=60 signals"),
}


def sweep_preset(name: str) -> ExperimentConfig:
    """A fresh config of the named sweep preset, at master seed DEFAULT_SEED.

    The CLI applies --seed and its other overrides to the returned config.
    Raises KeyError for a name that preset_descriptions does not list.
    """
    factory, _ = _SWEEP_PRESETS[name]
    return factory()


def preset_descriptions() -> Dict[str, str]:
    """One-line description of each preset, keyed by its name."""
    return {name: desc for name, (_, desc) in _SWEEP_PRESETS.items()}
