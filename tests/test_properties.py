"""Property test over the supported input range: every pdf, cdf, moment
and series-Laplace evaluation ends in a finite value or a QsdError.

The bessel and quadrature Laplace routes are left out: on the imaginary
order branch each call costs about half a second.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from shiryaev_qsd.distribution import qsd_cdf, qsd_pdf
from shiryaev_qsd.eigen import A_MAX, A_MIN
from shiryaev_qsd.errors import QsdError
from shiryaev_qsd.laplace import laplace_kdf1, laplace_moment_series
from shiryaev_qsd.moments import moment_series

levels = st.floats(math.log(A_MIN), math.log(A_MAX)).map(
    lambda t: min(max(math.exp(t), A_MIN), A_MAX))


def finite_or_refused(label, evaluate):
    try:
        value = evaluate()
    except QsdError:
        return
    assert math.isfinite(value), (label, value)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(A=levels, x_share=st.floats(0.0, 1.0), n=st.integers(0, 10),
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
