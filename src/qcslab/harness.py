"""Seeded Monte-Carlo experiment runner.

Sweeps parameter tuples (N, K, budget, B, ISNR) over independent trials.
Each trial draws a fresh sensing matrix and signal, quantizes the noisy
measurements to B bits (sign measurements when B = 1), reconstructs with
the requested algorithms, and records reconstruction SNR. Per-trial
generators are derived from (master_seed, tuple, trial), so a sweep is
bit-reproducible regardless of execution order or worker count.
"""

from __future__ import annotations

import csv
import io
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import ConfigError, InvalidParameterError, QcsLabError
from .quantize import dynamic_range, sign_quantize, uniform_quantize
from .reconstruct import (
    BihtVariant,
    SolverOptions,
    biht,
    bpdn,
    oracle_ls,
    rsnr_db,
    squared_error,
)
from .seeding import derive_seed
from .signal_model import (
    NoiseSpec,
    gen_gaussian_matrix,
    gen_sparse_signal,
    make_tight_frame,
    measure,
    sigma_n_for_isnr,
)

ALGORITHMS = ("oracle_ls", "bpdn", "biht_l1", "biht_l2")
MULTIBIT_ALGORITHMS = ("oracle_ls", "bpdn")
ONEBIT_ALGORITHMS = ("biht_l1", "biht_l2")
MATRIX_KINDS = ("iid_gaussian", "tight_frame")
QUANTIZERS = ("uniform",)
THREADS_ENV_VAR = "QCSLAB_THREADS"

RESULT_COLUMNS = [
    "n",
    "k",
    "budget",
    "bit_depth",
    "m",
    "isnr_db",
    "algorithm",
    "trial",
    "rsnr_db",
    "recon_mse",
    "hamming",
    "wall_time_ms",
    "seed",
]

AGGREGATE_COLUMNS = [
    "n",
    "k",
    "budget",
    "bit_depth",
    "m",
    "isnr_db",
    "algorithm",
    "trials",
    "rsnr_mean",
    "rsnr_median",
    "rsnr_std",
]


def parse_budget(value, n: int) -> int:
    """Resolve a budget given as an absolute int or an 'xN' multiplier."""
    if isinstance(value, bool):
        raise ConfigError("budgets", f"invalid budget {value!r}")
    if isinstance(value, int):
        budget = value
    elif isinstance(value, float) and value.is_integer():
        budget = int(value)
    elif isinstance(value, str):
        text = value.strip()
        if text.lower().endswith("n"):
            head = text[:-1].strip()
            try:
                mult = float(head) if head else 1.0
            except ValueError:
                raise ConfigError("budgets", f"cannot parse multiplier {value!r}")
            budget = int(round(mult * n))
        else:
            try:
                budget = int(text)
            except ValueError:
                raise ConfigError("budgets", f"cannot parse budget {value!r}")
    else:
        raise ConfigError("budgets", f"invalid budget {value!r}")
    if budget < 1:
        raise ConfigError("budgets", f"budget {value!r} resolves to {budget} < 1")
    return budget


@dataclass
class ExperimentConfig:
    """Full parameter tuple of a sweep; JSON (de)serializable."""

    n: int
    k: int
    budgets: list
    bit_grid: List[int]
    isnr_list: List[float]
    trials: int
    master_seed: int
    algorithms: List[str] = field(default_factory=lambda: list(ALGORITHMS))
    sigma_x2: float = 1.0
    matrix_kind: str = "iid_gaussian"
    quantizer: str = "uniform"

    def __post_init__(self):
        if self.n < 1:
            raise ConfigError("n", "must be >= 1")
        if not 1 <= self.k <= self.n:
            raise ConfigError("k", "must satisfy 1 <= k <= n")
        if self.sigma_x2 <= 0:
            raise ConfigError("sigma_x2", "must be positive")
        if self.trials < 1:
            raise ConfigError("trials", "must be >= 1")
        if not self.budgets:
            raise ConfigError("budgets", "must be nonempty")
        if not self.bit_grid or any(b < 1 for b in self.bit_grid):
            raise ConfigError("bit_grid", "entries must be >= 1")
        if not self.isnr_list:
            raise ConfigError("isnr_list", "must be nonempty")
        for alg in self.algorithms:
            if alg not in ALGORITHMS:
                raise ConfigError("algorithms", f"unknown algorithm {alg!r}")
        if not self.algorithms:
            raise ConfigError("algorithms", "must be nonempty")
        if self.matrix_kind not in MATRIX_KINDS:
            raise ConfigError("matrix_kind", f"must be one of {MATRIX_KINDS}")
        if self.quantizer not in QUANTIZERS:
            raise ConfigError("quantizer", f"must be one of {QUANTIZERS}")

    def resolved_budgets(self) -> List[int]:
        return [parse_budget(v, self.n) for v in self.budgets]

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "sigma_x2": self.sigma_x2,
            "budgets": list(self.budgets),
            "bit_grid": list(self.bit_grid),
            "isnr_list": list(self.isnr_list),
            "trials": self.trials,
            "master_seed": self.master_seed,
            "algorithms": list(self.algorithms),
            "matrix_kind": self.matrix_kind,
            "quantizer": self.quantizer,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError("<root>", "config must be a JSON object")
        required = [
            "n",
            "k",
            "budgets",
            "bit_grid",
            "isnr_list",
            "trials",
            "master_seed",
        ]
        for name in required:
            if name not in data:
                raise ConfigError(name, "missing required field")
        known = set(required) | {"sigma_x2", "algorithms", "matrix_kind", "quantizer"}
        for name in data:
            if name not in known:
                raise ConfigError(name, "unknown field")

        def _int(name, value):
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(name, f"expected integer, got {value!r}")
            return value

        def _num(name, value):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(name, f"expected number, got {value!r}")
            return float(value)

        def _list(name, value):
            if not isinstance(value, list):
                raise ConfigError(name, f"expected list, got {value!r}")
            return value

        kwargs = {
            "n": _int("n", data["n"]),
            "k": _int("k", data["k"]),
            "budgets": _list("budgets", data["budgets"]),
            "bit_grid": [
                _int("bit_grid", v) for v in _list("bit_grid", data["bit_grid"])
            ],
            "isnr_list": [
                _num("isnr_list", v) for v in _list("isnr_list", data["isnr_list"])
            ],
            "trials": _int("trials", data["trials"]),
            "master_seed": _int("master_seed", data["master_seed"]),
        }
        if "sigma_x2" in data:
            kwargs["sigma_x2"] = _num("sigma_x2", data["sigma_x2"])
        if "algorithms" in data:
            algs = _list("algorithms", data["algorithms"])
            kwargs["algorithms"] = [str(a) for a in algs]
        if "matrix_kind" in data:
            kwargs["matrix_kind"] = str(data["matrix_kind"])
        if "quantizer" in data:
            kwargs["quantizer"] = str(data["quantizer"])
        return cls(**kwargs)


def read_config(path) -> ExperimentConfig:
    """Load and validate an experiment config from a JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError("<root>", f"invalid JSON: {exc}") from exc
    return ExperimentConfig.from_dict(data)


def write_config(cfg: ExperimentConfig, path) -> None:
    Path(path).write_text(
        json.dumps(cfg.to_dict(), indent=2) + "\n", encoding="utf-8"
    )


@dataclass(frozen=True)
class TrialResult:
    """One algorithm run on one trial of one parameter tuple."""

    n: int
    k: int
    budget: int
    bit_depth: int
    m: int
    isnr_db: float
    algorithm: str
    trial: int
    rsnr_db: float
    recon_mse: float
    hamming: Optional[float]
    wall_time_ms: float
    seed: int


@dataclass(frozen=True)
class AggregateRow:
    n: int
    k: int
    budget: int
    bit_depth: int
    m: int
    isnr_db: float
    algorithm: str
    trials: int
    rsnr_mean: float
    rsnr_median: float
    rsnr_std: float


@dataclass(frozen=True)
class SkipRecord:
    budget: int
    bit_depth: int
    isnr_db: float
    reason: str


@dataclass
class ResultTable:
    rows: List[TrialResult]
    aggregates: List[AggregateRow]
    skips: List[SkipRecord] = field(default_factory=list)


def _applicable_algorithms(algorithms, bit_depth: int) -> List[str]:
    family = ONEBIT_ALGORITHMS if bit_depth == 1 else MULTIBIT_ALGORITHMS
    return [a for a in algorithms if a in family]


def _skip_reason(cfg: ExperimentConfig, m: int, bit_depth: int) -> Optional[str]:
    """Why tuples with m measurements of bit_depth bits cannot run, or None."""
    if m < 1:
        return f"m = {m} < 1"
    if m < cfg.k:
        return f"m = {m} < k = {cfg.k}"
    if cfg.matrix_kind == "tight_frame" and m > cfg.n:
        return f"m = {m} > n = {cfg.n}: a tight frame needs m <= n"
    if not _applicable_algorithms(cfg.algorithms, bit_depth):
        return f"no requested algorithm applies at B = {bit_depth}"
    return None


def run_trial(
    cfg: ExperimentConfig,
    budget: int,
    bit_depth: int,
    isnr: float,
    trial_index: int,
    record_timing: bool = False,
) -> List[TrialResult]:
    """Execute one trial of one tuple and score every applicable algorithm.

    Pipeline: draw Phi and x, measure Phi x and Phi (x + n) with signal
    noise at the requested ISNR, set the quantizer range from the
    noiseless measurements, quantize (signs when B = 1), reconstruct.
    1-bit estimates are rescaled to the true norm before scoring.
    """
    m = budget // bit_depth
    seed = derive_seed(
        cfg.master_seed,
        cfg.n,
        cfg.k,
        float(cfg.sigma_x2),
        int(budget),
        int(bit_depth),
        float(isnr),
        int(trial_index),
    )
    rng = np.random.default_rng(seed)
    x = gen_sparse_signal(cfg.n, cfg.k, cfg.sigma_x2, rng)
    sigma_n2 = sigma_n_for_isnr(cfg.k, cfg.sigma_x2, cfg.n, isnr)
    phi = gen_gaussian_matrix(m, cfg.n, rng)
    if cfg.matrix_kind == "tight_frame":
        phi = make_tight_frame(phi)
    y_clean = measure(phi, x.values)
    y = measure(phi, x.values, NoiseSpec(sigma_n2=sigma_n2), rng)

    one_bit = bit_depth == 1
    if one_bit:
        y_q = sign_quantize(y)
    else:
        y_q = uniform_quantize(y, dynamic_range(y_clean), bit_depth)

    biht_opts = SolverOptions(k=cfg.k)
    solvers = {
        "oracle_ls": lambda: oracle_ls(phi, y_q, x.support),
        "bpdn": lambda: bpdn(phi, y_q, float(np.linalg.norm(y - y_q)), SolverOptions()),
        "biht_l1": lambda: biht(phi, y_q, BihtVariant.ONE_SIDED_L1, biht_opts),
        "biht_l2": lambda: biht(phi, y_q, BihtVariant.ONE_SIDED_L2, biht_opts),
    }
    rows: List[TrialResult] = []
    for alg in _applicable_algorithms(cfg.algorithms, bit_depth):
        t0 = time.perf_counter()
        res = solvers[alg]()
        elapsed = time.perf_counter() - t0
        # oracle_ls returns the bare estimate, the iterative solvers a ReconResult.
        estimate = getattr(res, "estimate", res)
        rows.append(
            TrialResult(
                n=cfg.n,
                k=cfg.k,
                budget=budget,
                bit_depth=bit_depth,
                m=m,
                isnr_db=float(isnr),
                algorithm=alg,
                trial=trial_index,
                rsnr_db=rsnr_db(x.values, estimate, rescale_1bit=one_bit),
                recon_mse=squared_error(x.values, estimate, rescale_1bit=one_bit),
                hamming=getattr(res, "consistency_hamming", None),
                wall_time_ms=elapsed * 1e3 if record_timing else 0.0,
                seed=seed,
            )
        )
    return rows


def aggregate(rows: List[TrialResult]) -> List[AggregateRow]:
    """Mean/median/stddev of RSNR per (tuple, algorithm), first-seen order."""
    if not rows:
        raise InvalidParameterError("cannot aggregate an empty row list")
    groups: Dict[tuple, List[TrialResult]] = {}
    for row in rows:
        key = (row.n, row.k, row.budget, row.bit_depth, row.m, row.isnr_db, row.algorithm)
        groups.setdefault(key, []).append(row)
    out = []
    for key, members in groups.items():
        vals = np.array([r.rsnr_db for r in members])
        out.append(
            AggregateRow(
                n=key[0],
                k=key[1],
                budget=key[2],
                bit_depth=key[3],
                m=key[4],
                isnr_db=key[5],
                algorithm=key[6],
                trials=len(members),
                rsnr_mean=float(np.mean(vals)),
                rsnr_median=float(np.median(vals)),
                rsnr_std=float(np.std(vals)),
            )
        )
    return out


def _worker_count(max_workers: Optional[int]) -> int:
    if max_workers is not None:
        return max(1, max_workers)
    env = os.environ.get(THREADS_ENV_VAR)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise InvalidParameterError(
                f"{THREADS_ENV_VAR} must be an integer, got {env!r}"
            )
    return os.cpu_count() or 1


def run_sweep(
    cfg: ExperimentConfig,
    record_timing: bool = False,
    max_workers: Optional[int] = None,
) -> ResultTable:
    """Run every (budget, bit depth, ISNR) tuple over all trials.

    Tuples that cannot be executed (m < 1, m < k, m > n for a tight
    frame, or no applicable algorithm) are skipped with a recorded
    reason; a failing trial is recorded and does not abort the sweep.
    Output ordering is tuple-major then trial-major and independent of
    the worker count. Wall times are recorded only with record_timing,
    keeping default output bytes reproducible run to run.
    """
    tuples = []
    skips: List[SkipRecord] = []
    for budget in cfg.resolved_budgets():
        for bit_depth in cfg.bit_grid:
            reason = _skip_reason(cfg, budget // bit_depth, bit_depth)
            for isnr in cfg.isnr_list:
                if reason:
                    skips.append(SkipRecord(budget, bit_depth, isnr, reason))
                else:
                    tuples.append((budget, bit_depth, isnr))

    tasks = [
        (ti, trial)
        for ti in range(len(tuples))
        for trial in range(cfg.trials)
    ]

    def _run(task):
        ti, trial = task
        budget, bit_depth, isnr = tuples[ti]
        return run_trial(cfg, budget, bit_depth, isnr, trial, record_timing)

    results: Dict[tuple, List[TrialResult]] = {}
    failures: Dict[tuple, str] = {}
    workers = _worker_count(max_workers)
    if workers <= 1 or len(tasks) <= 1:
        for task in tasks:
            try:
                results[task] = _run(task)
            except (QcsLabError, np.linalg.LinAlgError) as exc:
                failures[task] = str(exc)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = {task: pool.submit(_run, task) for task in tasks}
        for task, fut in futures.items():
            try:
                results[task] = fut.result()
            except (QcsLabError, np.linalg.LinAlgError) as exc:
                failures[task] = str(exc)

    rows: List[TrialResult] = []
    for task in tasks:
        if task in results:
            rows.extend(results[task])
        elif task in failures:
            budget, bit_depth, isnr = tuples[task[0]]
            skips.append(
                SkipRecord(
                    budget,
                    bit_depth,
                    isnr,
                    f"trial {task[1]} failed: {failures[task]}",
                )
            )

    aggregates = aggregate(rows) if rows else []
    return ResultTable(rows=rows, aggregates=aggregates, skips=skips)


@dataclass(frozen=True)
class RegimePoint:
    """Best (M, B) choice at one ISNR for a fixed bit budget."""

    isnr_db: float
    best_b: int
    best_m: int
    best_rsnr: float
    regime: str


def classify_regime(best_b: int) -> str:
    if best_b <= 2:
        return "QC"
    if best_b >= 5:
        return "MC"
    return "transition"


def regime_map(
    cfg: ExperimentConfig,
    budget,
    table: Optional[ResultTable] = None,
    max_workers: Optional[int] = None,
) -> Tuple[List[RegimePoint], ResultTable]:
    """Pick the RSNR-maximizing (M, B) pair per ISNR at a fixed budget.

    Per bit depth the best mean RSNR over the requested algorithms is
    used; ties between bit depths resolve to the smaller B. Low optimal
    bit depths classify as the QC regime, high ones as MC.
    """
    resolved = parse_budget(budget, cfg.n)
    if table is None:
        sub = replace(cfg, budgets=[resolved])
        table = run_sweep(sub, max_workers=max_workers)
    points = []
    for isnr in cfg.isnr_list:
        best = None
        for bit_depth in sorted(set(cfg.bit_grid)):
            means = [
                agg.rsnr_mean
                for agg in table.aggregates
                if agg.budget == resolved
                and agg.bit_depth == bit_depth
                and agg.isnr_db == float(isnr)
            ]
            if not means:
                continue
            score = max(means)
            if best is None or score > best[1]:
                best = (bit_depth, score)
        if best is None:
            continue
        bit_depth, score = best
        points.append(
            RegimePoint(
                isnr_db=float(isnr),
                best_b=bit_depth,
                best_m=resolved // bit_depth,
                best_rsnr=score,
                regime=classify_regime(bit_depth),
            )
        )
    return points, table


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def results_to_csv(table: ResultTable) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(RESULT_COLUMNS)
    for r in table.rows:
        writer.writerow(
            [
                r.n,
                r.k,
                r.budget,
                r.bit_depth,
                r.m,
                _cell(r.isnr_db),
                r.algorithm,
                r.trial,
                _cell(r.rsnr_db),
                _cell(r.recon_mse),
                _cell(r.hamming),
                _cell(r.wall_time_ms),
                r.seed,
            ]
        )
    return buf.getvalue()


def aggregates_to_csv(table: ResultTable) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(AGGREGATE_COLUMNS)
    for a in table.aggregates:
        writer.writerow(
            [
                a.n,
                a.k,
                a.budget,
                a.bit_depth,
                a.m,
                _cell(a.isnr_db),
                a.algorithm,
                a.trials,
                _cell(a.rsnr_mean),
                _cell(a.rsnr_median),
                _cell(a.rsnr_std),
            ]
        )
    return buf.getvalue()


def write_results(table: ResultTable, path) -> None:
    """Write per-trial rows as CSV with the fixed column order."""
    Path(path).write_text(results_to_csv(table), encoding="utf-8")


def write_aggregates(table: ResultTable, path) -> None:
    Path(path).write_text(aggregates_to_csv(table), encoding="utf-8")


def read_results(path) -> List[TrialResult]:
    """Parse a results CSV back into trial rows (inverse of write_results)."""
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != RESULT_COLUMNS:
            raise InvalidParameterError(f"unexpected results header: {header}")
        for rec in reader:
            rows.append(
                TrialResult(
                    n=int(rec[0]),
                    k=int(rec[1]),
                    budget=int(rec[2]),
                    bit_depth=int(rec[3]),
                    m=int(rec[4]),
                    isnr_db=float(rec[5]),
                    algorithm=rec[6],
                    trial=int(rec[7]),
                    rsnr_db=float(rec[8]),
                    recon_mse=float(rec[9]),
                    hamming=float(rec[10]) if rec[10] else None,
                    wall_time_ms=float(rec[11]),
                    seed=int(rec[12]),
                )
            )
    return rows
