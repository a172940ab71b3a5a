"""Truncated Karhunen-Loeve expansions of square-integrable Levy processes.

The package splits into small layers: ``special`` (exponential integral, its
inverse in closed form or by table, and quadrature), ``models`` (h0 drifts,
tail integrals, the stock processes and the composite ``SplitModel``, whose
``parts`` list its signed jump parts), ``basis`` (the closed-form sine
eigenbasis, path reconstruction, and the exactly reduced anchor angles and
rotation ladders shared by both directions of the expansion), ``shotnoise``
(series samplers for the coefficient vector), ``oracles`` (independent
references on a ``SplitModel``: quadrature exponents, the batched direct
series, the series centering and brute-force integration), ``validation``
(statistical suites against them) and ``cli``.
"""

from .basis import KleBasis, reconstruct, variance_capture
from .models import (
    GeneratingTriple,
    LevyModel,
    ModelConditionError,
    SplitModel,
    TailIntegral,
    as_split,
    center,
    from_density,
    make_brownian,
    make_cp_exponential,
    make_gamma,
    make_variance_gamma,
    model_from_config,
)
from .oracles import (
    brute_force_coeffs,
    coeff_char_exponent,
    direct_series_subordinator,
    ks_two_sample,
    mixed_fourth_cumulant,
)
from .shotnoise import (
    ArrivalStream,
    CoefficientSample,
    ShotConfig,
    TruncationCapError,
    arrival_stream,
    derive_rng,
    extend_dimension,
    sample_coeffs,
    sample_coeffs_batch,
)
from .special import (
    MonotoneInverseTable,
    QuadratureError,
    build_e1_inverse,
    default_e1_inverse,
    e1_inverse,
    exp_integral_e1,
    quad,
)
from .validation import run_validation

__version__ = "0.1.0"

__all__ = [
    "ArrivalStream",
    "CoefficientSample",
    "GeneratingTriple",
    "KleBasis",
    "LevyModel",
    "ModelConditionError",
    "MonotoneInverseTable",
    "QuadratureError",
    "ShotConfig",
    "SplitModel",
    "TailIntegral",
    "TruncationCapError",
    "arrival_stream",
    "as_split",
    "brute_force_coeffs",
    "build_e1_inverse",
    "center",
    "coeff_char_exponent",
    "default_e1_inverse",
    "derive_rng",
    "direct_series_subordinator",
    "e1_inverse",
    "exp_integral_e1",
    "extend_dimension",
    "from_density",
    "ks_two_sample",
    "make_brownian",
    "make_cp_exponential",
    "make_gamma",
    "make_variance_gamma",
    "mixed_fourth_cumulant",
    "model_from_config",
    "quad",
    "reconstruct",
    "run_validation",
    "sample_coeffs",
    "sample_coeffs_batch",
    "variance_capture",
]
