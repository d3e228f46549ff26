"""Matrix-free spectral density estimation for large symmetric operators,
with a numpy neural-net module exposing the loss Hessian and its
outer-product/functional split for curvature analysis."""

__version__ = "0.1.0"

from .data import LabeledDataset
from .deflation import TopSpectrum, low_rank_deflation, top_eigenpairs
from .errors import (
    AsymmetricInputError,
    ConvergenceError,
    DegenerateSpectrumError,
    DimensionMismatchError,
    InputFormatError,
    NumericalError,
    SpecdensError,
    UsageError,
)
from .lanczos import (
    RitzSummary,
    SpectralDensity,
    approx_log_spectrum,
    approx_spectrum,
    density_from_eigenvalues,
    estimate_range,
    fast_lanczos,
    sigma_for,
    tv_distance,
)
from .linalg import EigenPairs, TridiagonalMatrix, dense_eig, eig_tridiagonal
from .net import (
    Checkpoint,
    MlpSpec,
    gnvp,
    gradient,
    hessian_operator,
    hvp,
    hvp_h,
    init_params,
    linearize,
    load_checkpoint,
    save_checkpoint,
)
from .operators import (
    NormalizationMap,
    SymmetricOperator,
    affine_operator,
    deflated_operator,
    dense_operator,
    difference_operator,
    sum_operator,
)
from .pipeline import (
    EpochMetrics,
    GmmSpec,
    TrainConfig,
    TrainResult,
    gaussian_mixture,
    load_idx,
    train_sgd,
)
from .rmt import (
    EnsembleSpec,
    PowerLawFit,
    default_ensemble,
    fit_power_law,
    sample,
)
from .decomp import (
    ClusterStats,
    GaussNewtonParts,
    build_decomposition,
    component_attribution,
    identity_residual,
    validate_report,
)
