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
