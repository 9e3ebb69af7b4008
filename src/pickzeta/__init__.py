"""Pick interpolation machinery for Dirichlet-series kernels.

The package provides five layers:

dirichlet    zeta and 1/zeta on Re(s) > 1, Mobius function, Dirichlet
             convolution, smooth-number partial sums
kernels      Szego kernels of disc and half-plane, zeta-power kernels,
             the zeta + 1/zeta kernel, diagonal Dirichlet kernels,
             Gram matrices, truncated feature maps
pick         Pick matrices, PSD certificates with margins and witnesses,
             Cayley transfer, two-point counterexample certificates
schur        constructive disc solver (Schur recursion), Blaschke
             products, the parametrization of all solutions
realization  finite block models phi(s) = a + <(T (x) I - D)^(-1) g, b>
             of contractive Dirichlet multipliers, with verification
"""

from .config import RunConfig, load_config
from .dirichlet import (
    CoefficientSeries,
    HalfPlanePoint,
    dirichlet_convolve,
    euler_product,
    mobius,
    mobius_range,
    smooth_numbers,
    smooth_partial_sum,
    zeta,
    zeta_power_coeffs,
    zeta_reciprocal,
)
from .errors import (
    AccuracyError,
    DomainError,
    HypothesisError,
    IllConditionedError,
    PickZetaError,
    TruncationError,
    ValidationError,
)
from .kernels import (
    FeatureVector,
    KernelSpec,
    diagonal_kernel,
    feature_map,
    gram_matrix,
    kernel_eval,
    szego_disc,
    szego_half_plane,
    zeta_mobius_kernel,
    zeta_power_kernel,
)
from .pick import (
    CayleyTransfer,
    CounterexampleCertificate,
    InterpolationProblem,
    NecessaryConditions,
    PickCertificate,
    cayley,
    cayley_transfer,
    certify_psd,
    counterexample_search,
    counterexample_window,
    inverse_cayley,
    necessary_conditions,
    pick_certificate,
    pick_matrix,
    schur_product,
    two_point_counterexample,
)
from .realization import (
    DirichletMultiplier,
    FeatureTransfer,
    RealizationModel,
    build_realization,
    defect_gram,
    evaluate_realization,
    feature_transfer,
    psd_factor,
    verify_realization,
)
from .schur import (
    HalfPlaneSchurFunction,
    Infeasible,
    ParametrizationMatrix,
    RationalSchurFunction,
    parametrization_matrix,
    parametrize_solutions,
    search_dirichlet_solution,
    solve_disc,
    solve_halfplane,
)

__version__ = "0.1.0"
