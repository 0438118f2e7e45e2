"""Canned experiment configurations.

Full-scale presets mirror the stock experiment suites (N = 1000, K = 10,
100 trials); `ci` is a reduced-scale preset (N = 256, K = 4, 30 trials)
that finishes in minutes on a laptop, and `k60` is the denser-signal
variant of the budget sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from .harness import ExperimentConfig

DEFAULT_SEED = 20250810


@dataclass(frozen=True)
class BoundCurvePreset:
    isnr_list: Tuple[float, ...]
    b_min: int
    b_max: int
    mode: str


# Bit-depth bound curves at the four reference input SNRs.
FIG1 = BoundCurvePreset(isnr_list=(35.0, 20.0, 10.0, 5.0), b_min=2, b_max=12, mode="inner")


def _fig2(seed: int) -> ExperimentConfig:
    return ExperimentConfig(
        n=1000,
        k=10,
        budgets=["3N"],
        bit_grid=list(range(2, 13)),
        isnr_list=[35.0, 20.0, 10.0, 5.0],
        trials=100,
        master_seed=seed,
        algorithms=["oracle_ls"],
    )


def _fig3(seed: int) -> ExperimentConfig:
    return ExperimentConfig(
        n=1000,
        k=10,
        budgets=["0.5N", "1N", "2N", "3N", "4N", "5N", "6N", "7N"],
        bit_grid=[1, 2, 4, 6, 8, 10, 12],
        isnr_list=[35.0, 20.0, 10.0, 5.0],
        trials=100,
        master_seed=seed,
        algorithms=["bpdn", "biht_l1", "biht_l2"],
    )


def _fig4(seed: int) -> ExperimentConfig:
    return ExperimentConfig(
        n=1000,
        k=10,
        budgets=["1N", "2N", "5N"],
        bit_grid=list(range(1, 13)),
        isnr_list=[float(v) for v in range(5, 46, 2)],
        trials=100,
        master_seed=seed,
        algorithms=["bpdn", "biht_l1", "biht_l2"],
    )


def _ci(seed: int) -> ExperimentConfig:
    return ExperimentConfig(
        n=256,
        k=4,
        budgets=["2N"],
        bit_grid=[1, 2, 3, 4, 5, 6, 8, 10, 12],
        isnr_list=[35.0, 20.0, 10.0, 5.0],
        trials=30,
        master_seed=seed,
        algorithms=["oracle_ls", "bpdn", "biht_l1", "biht_l2"],
    )


def _k60(seed: int) -> ExperimentConfig:
    return replace(_fig3(seed), k=60)


_SWEEP_PRESETS = {
    "fig2": (_fig2, "oracle sweep, budget 3N, bit depths 2..12, four ISNRs"),
    "fig3": (_fig3, "RSNR vs budget N/2..7N per bit depth, BPDN + 1-bit"),
    "fig4": (_fig4, "regime map input: budgets N/2N/5N over ISNR 5..45 dB"),
    "ci": (_ci, "reduced scale N=256, K=4, 30 trials; finishes in minutes"),
    "k60": (_k60, "budget sweep with the denser K=60 signals"),
}


def sweep_preset(name: str, seed: Optional[int] = None) -> ExperimentConfig:
    """Instantiate a named sweep preset, optionally overriding the seed."""
    if name not in _SWEEP_PRESETS:
        raise KeyError(name)
    factory, _ = _SWEEP_PRESETS[name]
    return factory(DEFAULT_SEED if seed is None else seed)


def preset_names() -> List[str]:
    return ["fig1"] + list(_SWEEP_PRESETS)


def preset_descriptions() -> Dict[str, str]:
    out = {"fig1": "bound curves with marked minima at ISNR 35/20/10/5 dB"}
    for name, (_, desc) in _SWEEP_PRESETS.items():
        out[name] = desc
    return out
