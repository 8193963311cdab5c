"""Density-weighted Riesz point configurations embedded in SMC and PMH."""

from .energy import (
    DensityOracle,
    PointConfiguration,
    RieszParams,
    config_energy,
    covering_radius,
    log_pair_energy,
    min_separation,
    pair_log_energies,
    uniformity_statistic,
)
from .pmh import (
    ChainOutput,
    IndependentPrior,
    LgssPhiFamily,
    PmhConfig,
    SvFamily,
    TruncatedGaussianPrior,
    acf,
    pmh_run,
    posterior_summary,
)
from .sampler import (
    GenerationReport,
    SamplerConfig,
    accept_candidate,
    generate_configuration,
    initial_point,
    propose_next_point,
    quantile_mapped_configuration,
)
from .smc import (
    FilterOutput,
    LgssFilterModel,
    ProposalSpec,
    RieszProposalSet,
    SvFilterModel,
    log_bias_mse,
    run_filter,
)
from .ssm import (
    KalmanOutput,
    LgssParams,
    SvParams,
    Trajectory,
    kalman_filter,
    lgss_observation_logpdf,
    lgss_optimal_proposal,
    lgss_simulate,
    lgss_transition_logpdf,
    sv_observation_logpdf,
    sv_prior_logpdf,
    sv_simulate,
    sv_transition_logpdf,
)

__version__ = "0.1.0"
