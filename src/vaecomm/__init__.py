"""Learned end-to-end communication system with classical modem baselines."""

from .baselines import (
    BaselineResult,
    Constellation,
    analytic_ber,
    analytic_ser,
    baseline_bler,
)
from .channels import ChannelModel, noise_variance
from .checkpoint import load_checkpoint, save_checkpoint
from .curves import BlerCurve, BlerPoint, wilson_interval
from .data import Dataset, generate_dataset, one_hot
from .errors import (
    CheckpointError,
    ConfigError,
    DegenerateSignalError,
    DomainError,
    NonDeterministicFunctionError,
    ShapeMismatchError,
    TrainingDivergedError,
    VaecommError,
)
from .evaluation import block_length_transfer, evaluate_bler
from .gradcheck import ComponentReport, run_all, run_component
from .losses import (
    LossBreakdown,
    beta_vae_loss,
    kl_standard_normal,
    softmax_binary_cross_entropy,
)
from .model import CommSystem, EndToEndResult, SystemConfig
from .optim import Adam
from .seeding import derive_seed
from .tensor import GradCheckReport, Tensor, finite_difference_check, no_grad
from .training import EpochRecord, TrainingLog, train

__version__ = "0.1.0"

__all__ = [
    "Adam",
    "BaselineResult",
    "BlerCurve",
    "BlerPoint",
    "ChannelModel",
    "CheckpointError",
    "CommSystem",
    "ComponentReport",
    "ConfigError",
    "Constellation",
    "Dataset",
    "DegenerateSignalError",
    "DomainError",
    "EndToEndResult",
    "EpochRecord",
    "GradCheckReport",
    "LossBreakdown",
    "NonDeterministicFunctionError",
    "ShapeMismatchError",
    "SystemConfig",
    "Tensor",
    "TrainingDivergedError",
    "TrainingLog",
    "VaecommError",
    "analytic_ber",
    "analytic_ser",
    "baseline_bler",
    "beta_vae_loss",
    "block_length_transfer",
    "derive_seed",
    "evaluate_bler",
    "finite_difference_check",
    "generate_dataset",
    "kl_standard_normal",
    "load_checkpoint",
    "no_grad",
    "noise_variance",
    "one_hot",
    "run_all",
    "run_component",
    "save_checkpoint",
    "softmax_binary_cross_entropy",
    "train",
    "wilson_interval",
    "__version__",
]
