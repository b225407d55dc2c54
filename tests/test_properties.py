"""Property tests over the supported input range: every pdf, cdf, moment
and series-Laplace evaluation ends in a finite value or a QsdError, and
every level outside the range is refused by each entry point.

The bessel and quadrature Laplace routes are left out: on the imaginary
order branch each call costs about half a second.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiryaev_qsd.distribution import qsd_cdf, qsd_pdf
from shiryaev_qsd.eigen import A_MAX, A_MIN, lambda_bounds, principal_lambda
from shiryaev_qsd.errors import DomainError, QsdError
from shiryaev_qsd.laplace import laplace_kdf1, laplace_kdf2, laplace_moment_series
from shiryaev_qsd.moments import moment_series
from shiryaev_qsd.simulate import SimConfig

levels = st.floats(math.log(A_MIN), math.log(A_MAX)).map(
    lambda t: min(max(math.exp(t), A_MIN), A_MAX))

unsupported_levels = st.one_of(
    st.sampled_from([math.inf, -math.inf, math.nan, 0.0, -0.0]),
    st.floats(max_value=A_MIN, exclude_max=True),
    st.floats(min_value=A_MAX, exclude_min=True),
)


def finite_or_refused(label, evaluate):
    try:
        value = evaluate()
    except QsdError:
        return
    assert math.isfinite(value), (label, value)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(A=levels, x_share=st.floats(0.0, 1.0), n=st.integers(0, 400),
       s=st.floats(0.0, 10.0))
def test_finite_value_or_qsd_error(params_for, A, x_share, n, s):
    p = params_for(A)
    x = x_share * A
    finite_or_refused("pdf", lambda: qsd_pdf(p, x))
    finite_or_refused("cdf", lambda: qsd_cdf(p, x))
    for method in ("recurrence", "2f2", "powerseries"):
        finite_or_refused(method, lambda: moment_series(p, n, method).values[n])
    finite_or_refused("laplace moments", lambda: laplace_moment_series(p, s).value)
    finite_or_refused("laplace kdf1", lambda: laplace_kdf1(p, s).value)
    finite_or_refused("laplace kdf2", lambda: laplace_kdf2(p, s).value)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(A=unsupported_levels)
def test_unsupported_level_is_refused_everywhere(A):
    for entry in (lambda_bounds, principal_lambda, SimConfig):
        with pytest.raises(DomainError):
            entry(A)
