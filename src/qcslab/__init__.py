"""qcslab: measurements-versus-bit-depth trade-off lab for quantized CS.

Library and CLI for studying how to spend a fixed measurement bit budget
(measurement count times bits per measurement) when the input signal is
noisy: error-bound evaluation, scalar quantizers, sparse reconstruction
solvers, and a reproducible Monte-Carlo experiment harness.
"""

from .bound import (
    BoundCurve,
    BoundParams,
    bound_inner_term,
    budget_error_bound,
    envelope_optimal_b,
    estimate_rip_delta,
    optimal_bitdepth,
    params_for_isnr,
)
from .errors import (
    ConfigError,
    InvalidParameterError,
    QcsLabError,
)
from .harness import (
    ExperimentConfig,
    RegimePoint,
    ResultTable,
    SkipRecord,
    TrialResult,
    aggregate,
    parse_budget,
    read_config,
    read_results,
    regime_map,
    run_sweep,
    run_trial,
    to_csv,
    write_aggregates,
    write_config,
    write_results,
)
from .quantize import dynamic_range, sign_quantize, uniform_quantize
from .reconstruct import (
    BihtVariant,
    ReconResult,
    biht,
    bpdn,
    hamming_consistency,
    hard_threshold,
    oracle_ls,
    rsnr_db,
    squared_error,
)
from .seeding import derive_seed
from .signal_model import (
    SensingMatrix,
    SparseSignal,
    gen_gaussian_matrix,
    gen_sparse_signal,
    make_tight_frame,
    measure,
    sigma_n_for_isnr,
)
from .svgplot import Series, render_svg

__version__ = "0.1.0"
