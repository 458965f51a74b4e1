"""Regularized kernel canonical correlation analysis and its linear baseline."""

from .cca import (
    KccaConfig,
    KccaModel,
    LinearCcaModel,
    build_mln,
    correlation_table,
    fit_kcca,
    fit_linear_cca,
    load_model,
    project,
    project_linear,
    save_model,
)
from .datagen import PairedDataset, SimSpec, gen_sim1, gen_sim2
from .errors import (
    DegenerateFeatureError,
    InputError,
    NotPositiveDefiniteError,
    NumericalError,
    SingularRegularizationError,
)
from .kernels import KernelSpec, gram_matrix, parse_kernel_spec

__all__ = [
    "DegenerateFeatureError",
    "InputError",
    "KccaConfig",
    "KccaModel",
    "KernelSpec",
    "LinearCcaModel",
    "NotPositiveDefiniteError",
    "NumericalError",
    "PairedDataset",
    "SimSpec",
    "SingularRegularizationError",
    "build_mln",
    "correlation_table",
    "fit_kcca",
    "fit_linear_cca",
    "gen_sim1",
    "gen_sim2",
    "gram_matrix",
    "load_model",
    "parse_kernel_spec",
    "project",
    "project_linear",
    "save_model",
]

__version__ = "0.1.0"
