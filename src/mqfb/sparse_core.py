"""Symmetric sparse matrices, block extraction and SPD solves.

Matrices are plain ``scipy.sparse`` CSR/CSC arrays; this module adds the
operations the filter-bank pipeline needs on top of them: principal-block
extraction by vertex subset, assembly of the block-diagonal inner-product
matrix, and a positive-definite solver (sparse LU in symmetric mode).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla


class EmptyBlock(ValueError):
    """Requested principal block over an empty vertex subset."""


class NotPositiveDefinite(ValueError):
    """Factorization detected that the matrix is not positive definite."""


def spmv(m, x):
    """Sparse matrix-vector (or matrix-matrix) product with a dim check."""
    x = np.asarray(x)
    if x.shape[0] != m.shape[1]:
        raise ValueError(f"dimension mismatch: {m.shape} @ {x.shape}")
    return m @ x


def extract_principal_block(m, s):
    """Principal submatrix of ``m`` over vertex subset ``s``.

    Indices inside the block follow ascending original vertex id.
    """
    s = np.asarray(s, dtype=np.int64)
    if s.size == 0:
        raise EmptyBlock("principal block requested for empty vertex subset")
    s = np.sort(s)
    return sp.csr_array(m.tocsr()[s][:, s])


def build_block_diag_q(m, partition):
    """Block-diagonal inner-product matrix for a bipartition.

    Keeps the within-A and within-B entries of ``m`` and zeroes every
    cross entry, leaving vertices in their original order.
    """
    f = np.asarray(partition.f, dtype=np.float64)
    coo = sp.coo_array(m)
    keep = f[coo.row] == f[coo.col]
    q = sp.coo_array(
        (coo.data[keep], (coo.row[keep], coo.col[keep])), shape=m.shape
    )
    return sp.csr_array(q)


def _is_diagonal(m):
    coo = sp.coo_array(m)
    return np.all(coo.row == coo.col)


class SpdSolver:
    """Solver for S z = y with S symmetric positive definite.

    Factorizes once with sparse LU in symmetric mode and checks positive
    definiteness from the signs of the U diagonal.  Diagonal matrices take
    a fast reciprocal path.

    The factor is column by column (``panel_size=1``): graph blocks fill
    only about 1.8x their nnz, too little for SuperLU's default 20-column
    panels to pay, and the fill is the same either way.
    """

    def __init__(self, matrix):
        matrix = sp.csc_array(matrix)
        if matrix.shape[0] != matrix.shape[1]:
            raise ValueError("matrix must be square")
        self.n = matrix.shape[0]
        self._diag = None
        self._lu = None
        if _is_diagonal(matrix):
            d = matrix.diagonal()
            if np.any(d <= 0):
                raise NotPositiveDefinite("nonpositive diagonal entry")
            self._diag = d
        else:
            try:
                lu = spla.splu(
                    matrix,
                    diag_pivot_thresh=0.0,
                    permc_spec="MMD_AT_PLUS_A",
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

    def solve(self, y):
        """Solve S z = y; y may be a vector or an (n, k) block of RHSs."""
        y = np.asarray(y, dtype=np.float64)
        if y.shape[0] != self.n:
            raise ValueError(f"rhs has dim {y.shape[0]}, expected {self.n}")
        if self._diag is not None:
            return (y.T / self._diag).T
        return self._lu.solve(y)


def check_positive_definite(matrix):
    """Raise NotPositiveDefinite unless the symmetric ``matrix`` is PD.

    Diagonal matrices and weakly diagonally dominant matrices with
    nonpositive off-diagonals (principal blocks of a combinatorial
    Laplacian) are decided from their structure, without a factorization:
    such a matrix is singular exactly when one of its connected components
    has no strictly dominant row (Taussky's theorem), which for a Laplacian
    block means a whole connected component of the graph lies inside the
    block.  Any other matrix is factored once by SpdSolver.
    """
    tol = 1e-12  # relative to the diagonal: roundoff of a Laplacian row sum
    s = sp.csr_array(matrix, copy=True)
    s.sum_duplicates()
    s.eliminate_zeros()
    d = s.diagonal()
    if np.any(d <= 0) or not np.all(np.isfinite(d)):
        raise NotPositiveDefinite("nonpositive diagonal entry")
    if s.nnz == d.size:
        return
    slack = s.sum(axis=1)  # diagonal minus |off-diagonal| row sum
    if np.count_nonzero(s.data > 0) == d.size and np.all(slack >= -tol * d):
        n_comp, labels = csgraph.connected_components(s, directed=False)
        strict = np.bincount(labels, weights=slack > tol * d, minlength=n_comp)
        if np.any(strict == 0):
            raise NotPositiveDefinite(
                "a connected component of the block has no strictly "
                "dominant row, so the block is singular"
            )
        return
    SpdSolver(s)


def save_matrix_market(path, m):
    """Write a symmetric sparse matrix in Matrix Market coordinate format."""
    from scipy.io import mmwrite

    mmwrite(path, sp.coo_matrix(m), symmetry="symmetric")


def load_matrix_market(path):
    from scipy.io import mmread

    return sp.csr_array(mmread(path))

