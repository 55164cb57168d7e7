"""Symmetric sparse matrices and SPD solves.

Matrices are plain ``scipy.sparse`` CSR/CSC arrays; this module adds the
operations the filter-bank pipeline needs on top of them: assembly of the
block-diagonal inner-product matrix, a positive-definite solver (sparse LU
in symmetric mode) and a factorization-free definiteness test for
Laplacian-like blocks.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla

from .graphs import keep_entries


class NotPositiveDefinite(ValueError):
    """Factorization detected that the matrix is not positive definite."""


def build_block_diag_q(m, partition):
    """Block-diagonal inner-product matrix for a bipartition.

    Keeps the within-A and within-B entries of ``m`` and zeroes every
    cross entry, leaving vertices in their original order.
    """
    f = partition.f
    return keep_entries(sp.csr_array(m), lambda i, j: f[i] == f[j])


class SpdSolver:
    """Solver for S z = y with S symmetric positive definite.

    Factorizes once with sparse LU in symmetric mode and checks positive
    definiteness from the signs of the U diagonal.  A CSC ``matrix`` is
    used as it is, with no copy; a diagonal one (n stored entries, all on
    the diagonal) takes a fast reciprocal path.

    The factor is column by column (``panel_size=1``): graph blocks fill
    only about 1.8x their nnz, too little for SuperLU's default 20-column
    panels to pay, and the fill is the same either way.

    The columns are ordered by MMD on S + S^T, and ``order`` keeps that
    elimination order: S[order][:, order] is the matrix SuperLU factored.
    A matrix already in its elimination order (``ordered=True``) factors
    in its natural order, with the same fill and no MMD pass, and has no
    ``order`` of its own.

    Release rule: drop a solver on the thread that built it.  SciPy's
    SuperLU object frees its L and U only there (SciPy 1.17 keeps its
    allocation table per thread); dropped on another thread they are never
    freed: a loop that built lazy-100k level-0 M_BB factors on a worker
    and dropped them on the main thread grew by 329 MB over 60 factors, and
    stayed flat when the worker dropped them.  Solves may run on any
    thread.
    """

    def __init__(self, matrix, ordered=False):
        matrix = sp.csc_array(matrix)
        if matrix.shape[0] != matrix.shape[1]:
            raise ValueError("matrix must be square")
        self.n = matrix.shape[0]
        self._diag = None
        self._lu = None
        self.order = None
        d = matrix.diagonal()
        if np.any(d <= 0) or not np.all(np.isfinite(d)):
            raise NotPositiveDefinite("nonpositive diagonal entry")
        if matrix.nnz == self.n:  # the n diagonal entries are all it stores
            self._diag = d
        else:
            try:
                lu = spla.splu(
                    matrix,
                    diag_pivot_thresh=0.0,
                    permc_spec="NATURAL" if ordered else "MMD_AT_PLUS_A",
                    panel_size=1,
                    options=dict(SymmetricMode=True),
                )
            except RuntimeError as e:
                raise NotPositiveDefinite(str(e)) from e
            du = lu.U.diagonal()
            # a singular PSD matrix factors with a roundoff-scale pivot
            if (np.any(du <= 0) or not np.all(np.isfinite(du))
                    or np.min(du) <= 1e-13 * np.max(du)):
                raise NotPositiveDefinite(
                    "LU factor has nonpositive or vanishing pivot"
                )
            self._lu = lu
            if not ordered:
                self.order = np.empty_like(lu.perm_c)
                self.order[lu.perm_c] = np.arange(self.n,
                                                  dtype=lu.perm_c.dtype)

    def solve(self, y):
        """Solve S z = y; y may be a vector or an (n, k) block of RHSs."""
        y = np.asarray(y, dtype=np.float64)
        if y.shape[0] != self.n:
            raise ValueError(f"rhs has dim {y.shape[0]}, expected {self.n}")
        if self._diag is not None:
            return (y.T / self._diag).T
        return self._lu.solve(y)


def check_positive_definite(diag, w):
    """Decide from structure whether diag(``diag``) - ``w`` is positive
    definite: raise NotPositiveDefinite when it is not, return True when it
    is, and return False when the structure does not decide.

    ``w`` is symmetric CSR with no diagonal.  When its entries are positive
    and every row is weakly dominant (``diag`` at least the row's sum, as
    in a principal block of a combinatorial Laplacian), the matrix is
    singular exactly when one of its connected components has no strictly
    dominant row (Taussky's theorem), which for a Laplacian block means a
    whole connected component of the graph lies inside the block.
    """
    tol = 1e-12  # relative to the diagonal: roundoff of a Laplacian row sum
    if np.any(diag <= 0) or not np.all(np.isfinite(diag)):
        raise NotPositiveDefinite("nonpositive diagonal entry")
    if w.nnz == 0:
        return True
    slack = diag - w.sum(axis=1)
    if np.any(w.data <= 0) or np.any(slack < -tol * diag):
        return False
    # w is symmetric, so its strong components are its components
    n_comp, labels = csgraph.connected_components(w, connection="strong")
    strict = np.bincount(labels, weights=slack > tol * diag, minlength=n_comp)
    if np.any(strict == 0):
        raise NotPositiveDefinite(
            "a connected component of the block has no strictly "
            "dominant row, so the block is singular"
        )
    return True


def save_matrix_market(path, m):
    """Write a symmetric sparse matrix in Matrix Market coordinate format."""
    from scipy.io import mmwrite

    mmwrite(path, sp.coo_matrix(m), symmetry="symmetric")


def load_matrix_market(path):
    from scipy.io import mmread

    return sp.csr_array(mmread(path))

