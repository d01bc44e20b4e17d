"""Label-noise gradient descent laboratory for the two-patch signal-noise model."""

__version__ = "0.1.0"

from .data import (
    Dataset,
    SignalSpec,
    compute_snr,
    generate_dataset,
)
from .decomposition import (
    CoefficientState,
    iota_series,
    projection_check,
    ratio_summary,
    reconstruct_weights,
    update_coefficients,
)
from .network import (
    Network,
    activation,
    activation_derivative,
    full_batch_gradient,
    init_network,
    logistic_loss,
    loss_derivative,
    zero_one_error,
)
from .theory import (
    check_assumptions,
    concentration_suite,
    estimate_stage_times,
    iota_fixed_point,
    coefficient_envelope_monitor,
    stage2_boundedness_check,
    empirical_verdicts,
)
from .training import (
    LabelNoiseSpec,
    RunAborted,
    TrainTrace,
    sample_multipliers,
    train_step,
)

__all__ = [
    "__version__",
    "Dataset",
    "SignalSpec",
    "compute_snr",
    "generate_dataset",
    "CoefficientState",
    "iota_series",
    "projection_check",
    "ratio_summary",
    "reconstruct_weights",
    "update_coefficients",
    "Network",
    "activation",
    "activation_derivative",
    "full_batch_gradient",
    "init_network",
    "logistic_loss",
    "loss_derivative",
    "zero_one_error",
    "check_assumptions",
    "concentration_suite",
    "estimate_stage_times",
    "iota_fixed_point",
    "coefficient_envelope_monitor",
    "stage2_boundedness_check",
    "empirical_verdicts",
    "LabelNoiseSpec",
    "RunAborted",
    "TrainTrace",
    "sample_multipliers",
    "train_step",
]
