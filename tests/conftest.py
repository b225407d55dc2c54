import functools

import pytest

from shiryaev_qsd import make_params, principal_lambda, specfun


@functools.lru_cache(maxsize=None)
def _cached_params(A):
    return make_params(principal_lambda(A))


@pytest.fixture(scope="session")
def params_for():
    """Factory fixture: solved-and-normalized parameters for a level A,
    cached across the whole test session."""
    return _cached_params


@pytest.fixture
def whitw_calls(monkeypatch):
    """(a, order, z) of every Whittaker W value MP actually computes, memo
    hits left out."""
    calls = []
    plain = specfun.MP.whitw

    def counting(a, b, z):
        calls.append((a, complex(b), z))
        return plain(a, b, z)

    monkeypatch.setattr(specfun.MP, "whitw", counting)
    return calls


@pytest.fixture
def bessel_calls(monkeypatch):
    """("I" or "K", order, x) of every MP.besseli and imaginary-order K
    (specfun._besselk_imaginary) value computed; patched before an
    integrand is built, so its nodes are counted too."""
    calls = []
    for kind, owner, name in (("I", specfun.MP, "besseli"),
                              ("K", specfun, "_besselk_imaginary")):
        def counting(n, x, _kind=kind, _plain=getattr(owner, name), **kwargs):
            calls.append((_kind, complex(n), x))
            return _plain(n, x, **kwargs)

        monkeypatch.setattr(owner, name, counting)
    return calls
