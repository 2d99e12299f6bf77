"""Elementary closed forms for integer-parameter Gauss 2F1 functions,
operator moments built on a symbolic polylogarithm basis, and 2F1
expansions of a Heun-equation family."""

from .basis import (
    BasisFunction, SymbolicCombo, combo_eval, combo_json_dict, fnj_base,
    fnj_combo, fnj_series,
)
from .heun import (
    HeunFamilyParams, HeunSpec, heun_coeff, heun_eval, heun_normalization,
    heun_ode_residual, heun_params_from, heun_series_oracle, heun_termination,
)
from .hypergeom import (
    HypergeomParams, hyp2f1_closed_12, hyp2f1_closed_1m, hyp2f1_closed_general,
    hyp2f1_closed_m1, hyp2f1_eval, hyp2f1_series,
)
from .mkz import (
    GmkzParams, Monomial, gmkz_apply, gmkz_e1, gmkz_moment_abel, ln_moment_e2,
    ln_moment_e2_direct, mkz_moment, mkz_moment_e2,
)
from .numcore import (
    DomainError, InvalidParams, NonFinite, NotConverged, SeriesResult,
    gen_binomial, pochhammer, sum_series,
)
from .polylog import polylog, polylog_derivative_series

__version__ = "0.1.0"

__all__ = [
    "BasisFunction", "SymbolicCombo", "combo_eval", "combo_json_dict",
    "fnj_base", "fnj_combo", "fnj_series",
    "HeunFamilyParams", "HeunSpec", "heun_coeff", "heun_eval",
    "heun_normalization", "heun_ode_residual", "heun_params_from",
    "heun_series_oracle", "heun_termination",
    "HypergeomParams", "hyp2f1_closed_12", "hyp2f1_closed_1m",
    "hyp2f1_closed_general", "hyp2f1_closed_m1", "hyp2f1_eval",
    "hyp2f1_series",
    "GmkzParams", "Monomial", "gmkz_apply", "gmkz_e1", "gmkz_moment_abel",
    "ln_moment_e2", "ln_moment_e2_direct", "mkz_moment", "mkz_moment_e2",
    "DomainError", "InvalidParams", "NonFinite", "NotConverged",
    "SeriesResult", "gen_binomial", "pochhammer", "sum_series",
    "polylog", "polylog_derivative_series",
    "__version__",
]
