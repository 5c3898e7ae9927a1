"""Fast-rate FIR identification from slow-rate output measurements.

Identifies fast-rate finite impulse response models of linear systems from
fast-rate inputs and slow-rate (downsampled) outputs by kernel-regularized
least squares, enabling frequency-response estimation beyond the Nyquist
frequency of the output sampler.
"""

from .errors import (
    InvalidStartError,
    NumericalError,
)
from .estimator import (
    HyperparameterVector,
    RegularizedProblem,
    apply_hyperparameters,
    fit_with_evidence,
    goodness_of_fit,
    load_model,
    marginal_likelihood,
    optimize_hyperparameters,
    predict_fast_output,
    regularized_fir,
    save_model,
)
from .kernels import (
    DiagonalCorrelated,
    KernelSpec,
    KernelSum,
    ResonantPole,
    StableSpline,
    Tikhonov,
    build_kernel_matrix,
    kernel_spec_from_json,
    kernel_spec_to_json,
)
from .regressor import (
    RegressorMatrix,
    build_regressor,
    least_squares_fir,
)
from .signals import (
    FastSignal,
    FirModel,
    SlowSignal,
    downsample,
    fir_frf,
    full_band,
    random_multisine,
    random_noise,
)
from .sim import (
    NOMINAL_PLANT,
    ContinuousPlant,
    DiscretePlant,
    MonteCarloConfig,
    MonteCarloResult,
    StateSpace,
    build_plant,
    plant_frf,
    run_monte_carlo,
    simulate,
    zoh_discretize,
)

__version__ = "0.1.0"
