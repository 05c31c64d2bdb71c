"""Positive-rate term structures driven by exponential Levy martingales.

A model is a triple: an initial discount curve, a Levy driver family, and
a deterministic tilt function phi. Bond prices are ratios of rho-weighted
integrals of Esscher martingales; options on bonds reduce to a critical
driver level plus family-specific closed forms, each cross-checkable
against exact-increment Monte Carlo.
"""

from .errors import (
    ConfigError,
    DomainError,
    NumericalError,
    QuadratureError,
    StrikeOutOfRangeError,
    UnsupportedModelError,
)
from .termstructure import (
    FlatYieldCurve,
    TermStructure,
    CurveCheck,
    CurveReport,
    validate_term_structure,
)
from .levy import (
    BrownianFamily,
    GammaFamily,
    JumpDiffusionFamily,
    LevyFamily,
    VarianceGammaFamily,
    sample_path,
    spawn_stream,
)
from .martingales import (
    ExpDecayPhi,
    GaussianBumpPhi,
    ModelState,
    PhiFunction,
    log_martingale_value,
    martingale_value,
)
from .quadrature import adaptive_integrate
from .specialfn import PsiArgs, norm_cdf, psi_integral, psi_integral_batch, reg_upper_gamma
from .curve import (
    KernelEvaluator,
    QuadratureSettings,
    RateModel,
    bond_price,
    bond_volatility,
    forward_rate,
    kernel_integral,
    phi_average,
    risk_aversion,
    risk_premium,
    short_rate,
)
from .options import (
    CallPrice,
    CriticalLevel,
    OptionSpec,
    bond_price_at,
    price_call,
    price_call_mc,
    solve_critical_level,
)
from .validation import CheckResult, ValidationReport, run_validation

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ConfigError",
    "DomainError",
    "NumericalError",
    "QuadratureError",
    "StrikeOutOfRangeError",
    "UnsupportedModelError",
    "TermStructure",
    "FlatYieldCurve",
    "CurveCheck",
    "CurveReport",
    "validate_term_structure",
    "LevyFamily",
    "BrownianFamily",
    "JumpDiffusionFamily",
    "GammaFamily",
    "VarianceGammaFamily",
    "sample_path",
    "spawn_stream",
    "PhiFunction",
    "ExpDecayPhi",
    "GaussianBumpPhi",
    "ModelState",
    "martingale_value",
    "log_martingale_value",
    "adaptive_integrate",
    "norm_cdf",
    "reg_upper_gamma",
    "PsiArgs",
    "psi_integral",
    "psi_integral_batch",
    "QuadratureSettings",
    "RateModel",
    "KernelEvaluator",
    "kernel_integral",
    "bond_price",
    "short_rate",
    "forward_rate",
    "phi_average",
    "bond_volatility",
    "risk_aversion",
    "risk_premium",
    "OptionSpec",
    "CriticalLevel",
    "CallPrice",
    "bond_price_at",
    "solve_critical_level",
    "price_call",
    "price_call_mc",
    "CheckResult",
    "ValidationReport",
    "run_validation",
]
