"""Numerical rank of a list of vectors via singular values."""

import numpy as np

DEFAULT_RANK_TOL = 1e-8


def numerical_rank(vectors, tol=DEFAULT_RANK_TOL):
    """Count singular values above tol * (largest singular value).

    An empty list, or a list of zero vectors, has rank 0.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    mat = np.array(vectors, dtype=float, ndmin=2)
    if mat.size == 0:
        return 0
    sv = np.linalg.svd(mat, compute_uv=False)
    if sv[0] == 0.0:
        return 0
    return int(np.count_nonzero(sv > tol * sv[0]))
