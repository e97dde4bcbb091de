import numpy as np
import pytest


def expm_taylor(X, terms: int = 20) -> np.ndarray:
    """Reference matrix exponential: Taylor series with scaling and squaring.

    X is scaled by 2^-s until its 1-norm is at most 1/2, where 20 terms
    leave a truncation error far below double precision, and the sum is
    squared s times.
    """
    X = np.asarray(X)
    s = max(0, int(np.ceil(np.log2(max(np.linalg.norm(X, 1), 1e-300)))) + 1)
    Y = X / 2.0 ** s
    term = out = np.eye(X.shape[0], dtype=Y.dtype)
    for k in range(1, terms):
        term = term @ Y / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


@pytest.fixture
def expm_reference():
    return expm_taylor
