"""Status codes of the numpy kernels."""

import numpy as np

from symplat import _kernels


def chol_upper(gram):
    return np.ascontiguousarray(np.linalg.cholesky(gram).T)


def test_enumeration_budget_status(rng):
    gram = np.eye(4)
    r = chol_upper(gram)
    _, _, _, status = _kernels.enumerate_core(r, 100.0, np.int64(10))
    assert status == _kernels.BUDGET_EXCEEDED
