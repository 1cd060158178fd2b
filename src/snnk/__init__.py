"""Random-feature linearization of feedforward layers and network bundling."""

from .activations import (
    Activation,
    FourierComponent,
    FourierDecomposition,
    QuadratureNonConvergent,
    UnsupportedClosedForm,
    closed_form_ft,
    decompose,
    decomposition_for,
    numeric_ft,
    validate_decomposition,
)
from .bundling import (
    BundledNetwork,
    LayeredNetwork,
    SingularSystem,
    bundle_full,
    bundle_once,
    bundled_forward,
    chain_features,
    closed_form_regression,
    fold_following_linear,
    network,
    network_forward,
)
from .layers import (
    FflSpec,
    ReluFeatureMap,
    ShapeMismatch,
    SnnkLayer,
    TaylorSplitKernel,
    UrfFeatureMap,
    ZeroVector,
    arc_cosine_exact,
    ffl_forward,
    gated_residual_block,
    kar_karnick_estimate,
    relu_snnk_features,
    snnk_forward,
    snnk_from_ffl,
    tanh_series_coeffs,
)
from .train import (
    Dataset,
    DivergenceDetected,
    TrainConfig,
    fit_A,
    generate_blobs,
    grad_check,
)
from .urf import (
    ConfigError,
    FeatureVector,
    ProposalMismatch,
    UrfConfig,
    UrfDraws,
    kernel_estimate,
    lambda_feature,
    phi,
    psi,
    sample_draws,
)

__version__ = "0.1.0"
