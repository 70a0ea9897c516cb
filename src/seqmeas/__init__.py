"""Sequential indirect quantum measurements with Gaussian pointer probes.

Simulates chains of indirect measurements on finite-dimensional systems,
where each stage couples one observable to a Gaussian probe of width
``sigma`` (small = strong, large = weak). Provides joint and conditional
measurement statistics, backaction-modified variances, N-stage chains,
variance-sum uncertainty bounds, and quadrature plus Monte Carlo oracles
that must agree with the closed forms.
"""

from .chain import ChainQuery, ChainResult, MeasurementChain, chain_state, conditional_density_k, conditional_stats_k, effect_chain
from .conditional import (
    ConditionalDensity,
    ConditionalStats,
    backward_density,
    backward_stats,
    conditional_state,
    forward_density,
    forward_stats,
)
from .core import DensityMatrix, Observable, PureState, eigh, variance_of
from .errors import (
    ConfigParseError,
    DegenerateDirection,
    DenominatorNonPositive,
    DimensionMismatch,
    InvalidOrder,
    InvalidRange,
    NoConvergence,
    NonHermitianSum,
    NotHermitian,
    NotOrthogonal,
    QuadratureFailure,
    RejectionStall,
    SeqMeasError,
    VarianceInconsistency,
    ZeroLikelihood,
)
from .joint import JointModelResult, backaction_variance, joint_statistics, pointer1_variance, pointer2_variance, post_first_state
from .kraus import MeasurementStage, completeness_defect, effect_at, kraus_at
from .mpur import ConditionalMpurSum, MpurReport, bound_Ra, bound_Rb, conditional_mpur_sum, mpur_check, orthogonal_state
from .oracle import (
    RNG_ALGORITHM,
    QuadratureConfig,
    SamplerConfig,
    mc_conditional_variance,
    quad_moment,
    sample_chain,
)
from .pointer import GaussianPairSum, Pointer, amplitude, overlap, pair_moment

__version__ = "0.1.0"

__all__ = [
    "ChainQuery",
    "ChainResult",
    "ConditionalDensity",
    "ConditionalMpurSum",
    "ConditionalStats",
    "ConfigParseError",
    "DegenerateDirection",
    "DenominatorNonPositive",
    "DensityMatrix",
    "DimensionMismatch",
    "GaussianPairSum",
    "InvalidOrder",
    "InvalidRange",
    "JointModelResult",
    "MeasurementChain",
    "MeasurementStage",
    "MpurReport",
    "NoConvergence",
    "NonHermitianSum",
    "NotHermitian",
    "NotOrthogonal",
    "Observable",
    "Pointer",
    "PureState",
    "QuadratureConfig",
    "QuadratureFailure",
    "RNG_ALGORITHM",
    "RejectionStall",
    "SamplerConfig",
    "SeqMeasError",
    "VarianceInconsistency",
    "ZeroLikelihood",
    "amplitude",
    "backaction_variance",
    "backward_density",
    "backward_stats",
    "bound_Ra",
    "bound_Rb",
    "chain_state",
    "completeness_defect",
    "conditional_density_k",
    "conditional_mpur_sum",
    "conditional_state",
    "conditional_stats_k",
    "effect_at",
    "effect_chain",
    "eigh",
    "forward_density",
    "forward_stats",
    "joint_statistics",
    "kraus_at",
    "mc_conditional_variance",
    "mpur_check",
    "orthogonal_state",
    "overlap",
    "pair_moment",
    "pointer1_variance",
    "pointer2_variance",
    "post_first_state",
    "quad_moment",
    "sample_chain",
    "variance_of",
]
