"""Quasi-stationary distribution of the Shiryaev diffusion dR = dt + R dB
absorbed at a level A: principal eigenvalue, pdf/cdf, moment series,
Laplace transform, and a Monte Carlo cross-check, each quantity computed
by at least two independent routes.
"""

from .distribution import (
    QsdParams,
    make_params,
    qsd_cdf,
    qsd_pdf,
    stationary_cdf,
    stationary_pdf,
)
from .eigen import (
    EigenSolution,
    critical_A,
    lambda_bounds,
    principal_lambda,
    xi_of_lambda,
)
from .laplace import (
    LaplaceEval,
    laplace_bessel,
    laplace_kdf1,
    laplace_kdf2,
    laplace_moment_series,
    laplace_quadrature,
    ode_residual,
    stationary_laplace,
)
from .moments import (
    MomentSeries,
    moment_2f2,
    moment_powerseries,
    moment_series,
    moments_quadrature,
    moments_recurrence,
)
from .simulate import EmpiricalQsd, SimConfig, compare_to_analytic
from .specfun import OrderParam

__version__ = "0.1.0"

__all__ = [
    "EigenSolution", "EmpiricalQsd", "LaplaceEval", "MomentSeries",
    "OrderParam", "QsdParams", "SimConfig",
    "compare_to_analytic", "critical_A", "lambda_bounds", "laplace_bessel",
    "laplace_kdf1", "laplace_kdf2", "laplace_moment_series",
    "laplace_quadrature", "make_params", "moment_2f2", "moment_powerseries",
    "moment_series", "moments_quadrature", "moments_recurrence",
    "ode_residual", "principal_lambda", "qsd_cdf", "qsd_pdf",
    "stationary_cdf", "stationary_laplace", "stationary_pdf", "xi_of_lambda",
]
