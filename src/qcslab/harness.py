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
import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import Dict, List, Optional, get_args, get_origin, get_type_hints

import numpy as np

from .errors import ConfigError, InvalidParameterError, QcsLabError, check_entries
from .quantize import check_bit_grid, dynamic_range, sign_quantize, uniform_quantize
from .reconstruct import (
    BihtVariant,
    biht,
    bpdn,
    oracle_ls,
    rsnr_db,
    squared_error,
)
from .seeding import derive_seed
from .signal_model import (
    check_isnr_list,
    check_signal,
    empty_matrix,
    gen_gaussian_matrix,
    gen_sparse_signal,
    make_tight_frame,
    measure,
    sigma_n_for_isnr,
)

MULTIBIT_ALGORITHMS = ("oracle_ls", "bpdn")
ONEBIT_ALGORITHMS = ("biht_l1", "biht_l2")
ALGORITHMS = MULTIBIT_ALGORITHMS + ONEBIT_ALGORITHMS
# Decoders told the true support; regime_map ranks them only when nothing
# else was requested.
ORACLE_ALGORITHMS = ("oracle_ls",)
MATRIX_KINDS = ("iid_gaussian", "tight_frame")
QUANTIZERS = ("uniform",)
THREADS_ENV_VAR = "QCSLAB_THREADS"


def parse_budget(value, n: int) -> int:
    """Resolve a budget given as an absolute int or an 'xN' multiplier, for an
    n that check_signal accepts; a multiplier that does not parse (nan) and
    one whose product with n overflows (inf) raise different ConfigErrors."""
    if isinstance(value, int) and not isinstance(value, bool):
        budget = value
    elif isinstance(value, float) and value.is_integer():
        budget = int(value)
    elif isinstance(value, str):
        text = value.strip()
        if text.lower().endswith("n"):
            head = text[:-1].strip()
            try:
                budget = int(round((float(head) if head else 1.0) * n))
            except ValueError:  # also a nan multiplier
                raise ConfigError("budgets", f"cannot parse multiplier {value!r}")
            except OverflowError:
                raise ConfigError("budgets", f"multiplier {value!r} overflows at n = {n:.6g}")
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


# JSON value checks keyed by a config field's annotated type.
_CONFIG_PARSERS = {int: _int, float: _num, list: _list, str: lambda name, v: str(v)}


def _parse_value(name, tp, value):
    """Check a JSON value against the field type tp (List[T] checks each entry)."""
    if get_origin(tp) is list:
        (item,) = get_args(tp)
        return [_parse_value(name, item, v) for v in _list(name, value)]
    return _CONFIG_PARSERS[tp](name, value)


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
        check_signal(self.n, self.k, self.sigma_x2)
        if self.trials < 1:
            raise ConfigError("trials", "must be >= 1")
        check_entries("budgets", self.resolved_budgets())
        check_bit_grid("bit_grid", self.bit_grid, 1)
        check_isnr_list("isnr_list", self.isnr_list, self.n, self.k, self.sigma_x2)
        for alg in self.algorithms:
            if alg not in ALGORITHMS:
                raise ConfigError("algorithms", f"unknown algorithm {alg!r}")
        check_entries("algorithms", self.algorithms)
        if self.matrix_kind not in MATRIX_KINDS:
            raise ConfigError("matrix_kind", f"must be one of {MATRIX_KINDS}")
        if self.quantizer not in QUANTIZERS:
            raise ConfigError("quantizer", f"must be one of {QUANTIZERS}")

    def resolved_budgets(self) -> List[int]:
        return [parse_budget(v, self.n) for v in self.budgets]

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        return {k: list(v) if isinstance(v, list) else v for k, v in out.items()}

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError("<root>", "config must be a JSON object")
        for f in fields(cls):
            required = f.default is MISSING and f.default_factory is MISSING
            if required and f.name not in data:
                raise ConfigError(f.name, "missing required field")
        known = {f.name for f in fields(cls)}
        for name in data:
            if name not in known:
                raise ConfigError(name, "unknown field")
        hints = get_type_hints(cls)
        return cls(**{k: _parse_value(k, hints[k], v) for k, v in data.items()})


def read_config(path) -> ExperimentConfig:
    """Load and validate an experiment config from a JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:  # JSON is UTF-8
        raise ConfigError("<root>", f"invalid JSON: {exc}") from exc
    return ExperimentConfig.from_dict(data)


def write_config(cfg: ExperimentConfig, path) -> None:
    """Write cfg as the JSON that read_config loads back to an equal config."""
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


# CSV columns are the record fields, in declaration order.
RESULT_COLUMNS = [f.name for f in fields(TrialResult)]
AGGREGATE_COLUMNS = [f.name for f in fields(AggregateRow)]


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


def _measurements(budget: int, bit_depth: int) -> int:
    """The measurements of bit_depth bits that a budget of bits buys."""
    return budget // bit_depth


def _applicable_algorithms(algorithms, bit_depth: int) -> List[str]:
    family = ONEBIT_ALGORITHMS if bit_depth == 1 else MULTIBIT_ALGORITHMS
    return [a for a in algorithms if a in family]


def _draws_full_matrix(cfg: ExperimentConfig, bit_depth: int) -> bool:
    """Whether a trial at bit_depth draws the whole m x n sensing matrix.

    Only a trial where every applicable decoder is an oracle, on an
    i.i.d. Gaussian matrix, draws less: the k columns of its support.
    A tight frame is a function of the whole matrix, so it always draws
    all of it.
    """
    if cfg.matrix_kind != "iid_gaussian":
        return True
    applicable = _applicable_algorithms(cfg.algorithms, bit_depth)
    return any(a not in ORACLE_ALGORITHMS for a in applicable)


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
    matrix_buffer: Optional[np.ndarray] = None,
) -> List[TrialResult]:
    """Execute one trial of one tuple and score every applicable algorithm.

    Pipeline: draw x and Phi, measure Phi x, add Phi n for signal noise n
    at the requested ISNR, set the quantizer range from the noiseless
    measurements, quantize (signs when B = 1), reconstruct.
    1-bit estimates are rescaled to the true norm before scoring.
    Phi is drawn into matrix_buffer when one is given (see
    gen_gaussian_matrix's out); the rows are the same either way.

    A trial whose only applicable decoders are oracles, on an i.i.d.
    Gaussian matrix, draws only the m x k columns Phi_S of the support S
    (see _draws_full_matrix), then n and one standard-normal m-vector g,
    and sets y_clean = Phi_S x_S and
    y = y_clean + Phi_S n_S + sqrt(|n_{S^c}|^2 / m) g; the oracle solves
    on Phi_S and its estimate is placed back on S. The other columns
    reach y only through Phi_{S^c} n_{S^c}, which for N(0, 1/m) entries
    is N(0, |n_{S^c}|^2 / m I) and independent of Phi_S, x and n_S, so
    the rows have the law of a full draw but not its values: the oracle
    rows of a config that also runs bpdn at the tuple differ, while the
    seed column is derive_seed of the tuple either way.
    """
    m = _measurements(budget, bit_depth)
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
    full = _draws_full_matrix(cfg, bit_depth)
    if full:
        phi = gen_gaussian_matrix(m, cfg.n, rng, out=matrix_buffer)
        if cfg.matrix_kind == "tight_frame":
            phi = make_tight_frame(phi)
        y_clean = measure(phi, x.values)
    else:
        phi = gen_gaussian_matrix(m, cfg.k, rng)  # Phi_S, column j for x.support[j]
        y_clean = measure(phi, x.values[x.support])
    y = y_clean
    if sigma_n2 > 0:
        noise = math.sqrt(sigma_n2) * rng.standard_normal(cfg.n)
        if full:
            y = y_clean + measure(phi, noise)
        else:
            rest = np.delete(noise, x.support)
            folded = math.sqrt(rest @ rest / m) * rng.standard_normal(m)
            y = y_clean + measure(phi, noise[x.support]) + folded

    one_bit = bit_depth == 1
    if one_bit:
        y_q = sign_quantize(y)
    else:
        y_q = uniform_quantize(y, dynamic_range(y_clean), bit_depth)

    def _oracle():
        if full:
            return oracle_ls(phi, y_q, x.support)
        x_hat = np.zeros(cfg.n)
        x_hat[x.support] = oracle_ls(phi, y_q, np.arange(cfg.k))
        return x_hat

    solvers = {
        "oracle_ls": _oracle,
        "bpdn": lambda: bpdn(phi, y_q, float(np.linalg.norm(y - y_q))),
        "biht_l1": lambda: biht(phi, y_q, cfg.k, BihtVariant.ONE_SIDED_L1),
        "biht_l2": lambda: biht(phi, y_q, cfg.k, BihtVariant.ONE_SIDED_L2),
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
                *key,
                trials=len(members),
                rsnr_mean=float(np.mean(vals)),
                rsnr_median=float(np.median(vals)),
                rsnr_std=float(np.std(vals)),
            )
        )
    return out


# Largest n at which run_sweep runs every trial in the calling thread;
# above it the trials go to a thread pool, if any trial draws the full
# matrix. A trial is mostly short numpy calls with Python between them,
# so a second thread mostly waits for the GIL; it overlaps only the calls
# that release it (the matrix draw, BLAS and LAPACK), which weigh enough
# for the pool to pay at larger n.
# Measured with BLAS on one thread, 2 vCPUs, trials per second of one
# worker against two, medians of 6 interleaved pairs (BENCH_14.json):
# - n=256: the ci grid 95 against 62, BPDN-only 106 against 87, 1-bit
#   only 32 against 22;
# - n=320: the ci grid 67 against 51;
# - n=512: 1-bit only 13.6 against 14.3.
# At n=128 and 192 one worker won every pair of every grid.
_SERIAL_MAX_N = 256


def _worker_count() -> int:
    """The most workers a sweep may use: QCSLAB_THREADS, else the CPU count."""
    env = os.environ.get(THREADS_ENV_VAR)
    if not env:
        return os.cpu_count() or 1
    try:
        count = int(env)
    except ValueError:
        raise ConfigError(THREADS_ENV_VAR, f"expected integer, got {env!r}") from None
    if count < 1:
        raise ConfigError(THREADS_ENV_VAR, f"must be >= 1, got {env!r}")
    return count


def _map_trials(attempt, tasks, workers: int):
    """attempt over tasks in order: in the calling thread for one worker,
    else on a pool of that many threads."""
    if workers == 1:
        yield from map(attempt, tasks)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(attempt, tasks)


def run_sweep(cfg: ExperimentConfig, record_timing: bool = False) -> ResultTable:
    """Run every (budget, bit depth, ISNR) tuple over all trials.

    Tuples that cannot be executed (m < 1, m < k, m > n for a tight
    frame, or no applicable algorithm) are skipped with a recorded
    reason; a failing trial is recorded and does not abort the sweep.
    A trial whose only applicable decoders are oracles, on an i.i.d.
    Gaussian matrix, draws only its support's m x k columns (see
    run_trial); every other trial, and every tight-frame trial, draws
    the full m x n matrix. A sweep with no full draw, or with
    n <= _SERIAL_MAX_N, runs every trial in the calling thread; any
    other runs its trials on a thread pool of min(QCSLAB_THREADS, trial
    count) workers, where QCSLAB_THREADS defaults to the CPU count and is
    validated at every n. Trials start in order of m, largest first, so
    that no worker is left alone with a large trial at the end.
    Each worker draws its full matrices into one buffer sized for the
    largest of them (no buffer when there is none), so peak memory is
    about the workers used x the largest full matrix; a MemoryError,
    from that buffer (see empty_matrix) or from within a trial, ends the
    sweep.
    Output ordering is tuple-major then trial-major and independent of
    the worker count. Wall times are recorded only with record_timing,
    keeping default output bytes reproducible run to run.
    """
    tasks = []  # (m, tuple, trial)
    skips: List[SkipRecord] = []
    for budget in cfg.resolved_budgets():
        for bit_depth in cfg.bit_grid:
            m = _measurements(budget, bit_depth)
            reason = _skip_reason(cfg, m, bit_depth)
            for isnr in cfg.isnr_list:
                if reason:
                    skips.append(SkipRecord(budget, bit_depth, isnr, reason))
                else:
                    tup = (budget, bit_depth, isnr)
                    tasks.extend((m, tup, trial) for trial in range(cfg.trials))

    # A matrix drawn fresh per trial and then freed can stay resident in
    # the allocator's per-thread arenas, so each worker reuses one buffer.
    largest = max(
        (m for m, (_, bit_depth, _), _ in tasks if _draws_full_matrix(cfg, bit_depth)),
        default=0,
    )
    worker = threading.local()

    def _attempt(task):
        _, (budget, bit_depth, isnr), trial = task
        if largest and not hasattr(worker, "matrix"):
            worker.matrix = empty_matrix(largest, cfg.n)
        try:
            return run_trial(
                cfg, budget, bit_depth, isnr, trial, record_timing,
                matrix_buffer=getattr(worker, "matrix", None),
            )
        except (QcsLabError, np.linalg.LinAlgError) as exc:
            return f"trial {trial} failed: {exc}"

    cap = _worker_count()  # validated whether or not a pool runs
    serial = cfg.n <= _SERIAL_MAX_N or not largest
    workers = 1 if serial else max(1, min(cap, len(tasks)))
    # Largest m first (a stable sort); the outcomes go back in task order.
    order = sorted(range(len(tasks)), key=lambda i: -tasks[i][0])
    outcomes = [None] * len(tasks)
    ran = _map_trials(_attempt, [tasks[i] for i in order], workers)
    for i, outcome in zip(order, ran):
        outcomes[i] = outcome
    rows: List[TrialResult] = []
    for (_, tup, _), outcome in zip(tasks, outcomes):
        if isinstance(outcome, str):
            skips.append(SkipRecord(*tup, outcome))
        else:
            rows.extend(outcome)

    aggregates = aggregate(rows) if rows else []
    return ResultTable(rows=rows, aggregates=aggregates, skips=skips)


@dataclass(frozen=True)
class RegimePoint:
    """Best (M, B) choice at one ISNR for a fixed bit budget."""

    isnr_db: float
    best_b: int
    best_m: int
    best_rsnr: float
    best_algorithm: str
    regime: str


def classify_regime(best_b: int) -> str:
    if best_b <= 2:
        return "QC"
    if best_b >= 5:
        return "MC"
    return "transition"


def regime_map(cfg: ExperimentConfig, budget, table: ResultTable) -> List[RegimePoint]:
    """Pick the RSNR-maximizing (M, B) pair per ISNR at a fixed budget.

    Ranks the aggregates that run_sweep(cfg) put in table at that budget;
    it runs no trial. The aggregate with the highest mean RSNR wins among
    the requested practical decoders (cfg.algorithms less
    ORACLE_ALGORITHMS, or the oracles when nothing else was requested),
    and best_algorithm names its decoder; ties between bit depths resolve
    to the smaller B. Low optimal bit depths classify as the QC regime,
    high ones as MC. An ISNR with no ranked aggregate gets no point.
    """
    resolved = parse_budget(budget, cfg.n)
    ranked = [a for a in cfg.algorithms if a not in ORACLE_ALGORITHMS] or cfg.algorithms
    points = []
    for isnr in cfg.isnr_list:
        candidates = [
            agg
            for agg in table.aggregates
            if agg.budget == resolved
            and agg.algorithm in ranked
            and agg.bit_depth in cfg.bit_grid
            and agg.isnr_db == float(isnr)
        ]
        if not candidates:
            continue
        best = max(candidates, key=lambda agg: (agg.rsnr_mean, -agg.bit_depth))
        points.append(
            RegimePoint(
                isnr_db=float(isnr),
                best_b=best.bit_depth,
                best_m=best.m,
                best_rsnr=best.rsnr_mean,
                best_algorithm=best.algorithm,
                regime=classify_regime(best.bit_depth),
            )
        )
    return points


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def to_csv(records, cls) -> str:
    """CSV text of records of the dataclass cls: a header of its field
    names in declaration order, then one line per record (floats by repr,
    None as an empty cell)."""
    columns = [f.name for f in fields(cls)]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([_cell(getattr(r, c)) for c in columns] for r in records)
    return buf.getvalue()


def write_results(table: ResultTable, path) -> None:
    """Write per-trial rows as CSV with the fixed column order."""
    Path(path).write_text(to_csv(table.rows, TrialResult), encoding="utf-8")


def write_aggregates(table: ResultTable, path) -> None:
    Path(path).write_text(to_csv(table.aggregates, AggregateRow), encoding="utf-8")


# CSV cell parsers keyed by a record field's annotated type; _cell writes
# None as an empty cell.
_CELL_PARSERS = {
    int: int,
    float: float,
    str: str,
    Optional[float]: lambda text: float(text) if text else None,
}


def read_results(path) -> List[TrialResult]:
    """Parse a results CSV back into trial rows (inverse of write_results)."""
    hints = get_type_hints(TrialResult)
    parsers = [_CELL_PARSERS[hints[c]] for c in RESULT_COLUMNS]
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if header != RESULT_COLUMNS:
            raise InvalidParameterError(f"unexpected results header: {header}")
        for rec in reader:
            where = f"{path}: line {reader.line_num}"
            if len(rec) != len(RESULT_COLUMNS):
                raise InvalidParameterError(
                    f"{where}: expected {len(RESULT_COLUMNS)} cells, got {len(rec)}"
                )
            cells = []
            for column, parse, text in zip(RESULT_COLUMNS, parsers, rec):
                try:
                    cells.append(parse(text))
                except ValueError:
                    raise InvalidParameterError(
                        f"{where}: cannot parse {column} {text!r}"
                    ) from None
            rows.append(TrialResult(*cells))
    return rows
