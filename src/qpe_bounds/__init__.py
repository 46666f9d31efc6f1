"""Fisher-information cost bounds and estimator benchmarks for phase estimation.

The package computes how much evolution-time cost any unbiased protocol
of two circuit families (transform readout and Hadamard-test pairs) must
spend to reach a target accuracy, simulates both measurement families
from their closed-form outcome distributions, and scores classical
estimators against the bound via the efficiency ratio R.
"""

from ._version import __version__
from .bench import (
    BenchResult,
    CampaignConfig,
    ProtocolSpec,
    check_diag,
    cost_product_bound,
    g_i,
    gi_sweep,
    run_campaign,
    sweep_bounds,
)
from .bounds import crlb_diag, crlb_full, diag_ratio, rpe_fim_bounds
from .dirichlet import (
    dirichlet,
    dirichlet_derivative,
    squared_derivative_sum,
    squared_kernel_grid,
    squared_kernel_sum,
)
from .errors import (
    DegenerateDistribution,
    DegenerateSpectrum,
    EmptyData,
    NoLinearCostForm,
    NoPeaksDetected,
    NormalizationFailure,
    RpeRequiresPowerOfTwo,
    ScheduleMismatch,
    SingularFim,
    ZeroSecondMoment,
)
from .estimators import (
    Estimate,
    estimate_csqpe,
    estimate_curvefit_qft,
    estimate_qcels,
    estimate_qcels_ml,
    estimate_qmegs,
    fit_qft_histogram,
)
from .fim import (
    BlockFim,
    f_i,
    f_i_max,
    ht_expectations,
    ht_fim_single,
    qft_fim,
    total_fim,
)
from .schedules import ProtocolKind, Schedule, chi, gamma, realize, t_total
from .simulate import (
    HtSample,
    QftSample,
    qft_probabilities,
    read_ht_csv,
    read_qft_csv,
    sample_ht,
    sample_ht_exact,
    sample_qft,
    write_ht_csv,
    write_qft_csv,
)
from .spectrum import (
    Spectrum,
    geometric_overlaps,
    head_dense_phases,
    make_spectrum,
    tail_dense_phases,
    uniform_phases,
)

__all__ = [name for name in dir() if not name.startswith("_")]
