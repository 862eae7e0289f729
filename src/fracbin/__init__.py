"""Binary-market arbitrage laboratory.

Builds the N-period binary market driven by a long-memory random-walk
kernel, counts its arbitrage points and paths exactly, and reproduces the
large-depth asymptotics: the limiting exceedance proportion, the variance
split of the level walk, the characteristic function of the limit variable,
and the critical memory exponent separating the two almost-sure regimes.
"""

from .coefficients import (
    CoefficientTable,
    I_integrals,
    J_unscaled,
    QuadratureConfig,
    clear_table_cache,
    coefficient_table,
    coefficient_tables,
    g_coeff,
    g_unscaled,
    j_coeff,
    kernel,
    turning_point,
)
from .errors import (CapExceededError, FracbinError, NonconvergenceError, QuadratureError,
                     TruncationError)
from .hurst import (
    HurstParams,
    normalizing_constant,
    rho,
    rho_sq_total,
    solve_critical_hurst,
)
from .market import (
    ArbitrageCensus,
    DriftSpec,
    MarketSpec,
    NodeId,
    census,
    is_arbitrage,
    monotone_reach,
)
from .asymptotics import (
    McConfig,
    McEstimate,
    characteristic_function,
    exceedance_frequency,
    finite_level_proportion,
    fit_cf_decay,
    limit_proportion,
    sample_limit_variable,
    split_variances,
)

__version__ = "0.1.0"

__all__ = [
    "ArbitrageCensus", "CapExceededError", "CoefficientTable", "DriftSpec",
    "FracbinError", "HurstParams", "I_integrals", "J_unscaled", "McConfig",
    "McEstimate", "MarketSpec", "NodeId", "NonconvergenceError", "QuadratureConfig",
    "QuadratureError", "TruncationError", "census",
    "characteristic_function", "clear_table_cache", "coefficient_table",
    "coefficient_tables", "exceedance_frequency", "finite_level_proportion", "fit_cf_decay",
    "g_coeff", "g_unscaled", "is_arbitrage", "j_coeff", "kernel",
    "limit_proportion", "monotone_reach", "normalizing_constant", "rho",
    "rho_sq_total", "sample_limit_variable", "solve_critical_hurst", "split_variances",
    "turning_point",
]
