"""Empirical Bayes mixture priors for exponential-family data.

Fits a penalized mixture prior by marginal maximum likelihood and turns
it into joint effect-size, local fdr and tail-area FDR estimates, with
empirical-null support, bootstrap penalty calibration and a simulation
harness for normal and binomial data.
"""

from .calibration import CalibrationPlan, CalibrationResult, calibrate_penalty, default_plan
from .errors import (
    ContractError,
    DataError,
    DegenerateRangeError,
    EbmixError,
    FitError,
    NoRejectionRegionError,
    NumericError,
    UnsupportedError,
    UsageError,
)
from .families import (
    BetaComponent,
    ComponentPosterior,
    Family,
    NormalComponent,
    Observations,
    component_log_marginal,
)
from .inference import (
    PosteriorSummary,
    fdr_curve,
    nearly_null_grouping,
    posterior_summary,
    rejection_threshold,
    tail_fdr_curve,
)
from .mixture import (
    FitConfig,
    FitDiagnostics,
    MixtureModel,
    NullMode,
    bic,
    e_step,
    em_fit,
    initialize,
    m_step,
)
from .model_io import ModelDocument, parse_model, read_model, serialize_model, write_model

__version__ = "0.1.0"
