"""Reference computations shared by the tests (not collected as tests)."""

import numpy as np
from scipy import sparse


def generator_dense_nonsymmetric(gm):
    """Markov generator L = diag(1/(eps P^2)) (diag(1/D) Kalpha - I), densely.

    For verification on small instances: L is similar to Lhat via S.
    """
    ka = gm.Kalpha.toarray() if sparse.issparse(gm.Kalpha) else np.array(gm.Kalpha)
    lout = ka / gm.D[:, None]
    np.fill_diagonal(lout, lout.diagonal() - 1.0)
    lout /= gm.eps * gm.P[:, None] ** 2
    return lout


def pair_sq_dists(points, rows, cols, chunk=4_000_000):
    """Squared distances ||points[rows] - points[cols]||^2, computed in chunks."""
    out = np.empty(rows.shape[0])
    for start in range(0, rows.shape[0], chunk):
        stop = min(start + chunk, rows.shape[0])
        diff = points[rows[start:stop]] - points[cols[start:stop]]
        out[start:stop] = np.einsum("ij,ij->i", diff, diff)
    return out
