"""Generalized graph Fourier transform with spectral folding.

The basis solves M u = lambda Q u with Q-orthonormal eigenvectors.  When Q
is the block-diagonal of M under a bipartition, flipping a signal's sign on
side B maps a lambda-eigenvector to a (2 - lambda)-eigenvector; the checks
here verify that folding, the [0, 2] spectrum range, and the forced
multiplicity at lambda = 1.

Given the partition, ``mq_eigendecompose`` builds the basis from that
structure: with Cholesky factors M_AA = L_A L_A^T and M_BB = L_B L_B^T the
pencil becomes I + [0 T; T^T 0] with T = L_A^{-1} M_AB L_B^{-T}, so one
|A| x |B| SVD of T gives every eigenpair, and folding holds by
construction.  Without it a generic n x n generalized eigensolver runs; the
checkers here verify folding independently on a basis built that way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph

from .sparse_core import NotPositiveDefinite, spmv

DENSE_CAP_DEFAULT = 4096


class DenseCapExceeded(ValueError):
    """Graph too large for the dense eigendecomposition path."""


class WrongInnerProduct(ValueError):
    """GftBasis was built with a different Q than the check assumes."""


@dataclass(frozen=True)
class GftBasis:
    """Generalized eigenpairs (U, lam), Q-orthonormal columns."""

    u: np.ndarray  # (n, n), columns are eigenvectors
    lam: np.ndarray  # (n,), nondecreasing
    q: sp.csr_array  # inner-product matrix the basis is orthonormal under

    @property
    def n(self):
        return self.lam.size


def _dense(m):
    return m.toarray() if sp.issparse(m) else np.asarray(m, dtype=np.float64)


def mq_eigendecompose(m, q, dense_cap=DENSE_CAP_DEFAULT, partition=None):
    """Solve M u = lambda Q u densely; Q must be PD.

    With ``partition``, Q must be the block-diagonal of M under it (else
    WrongInnerProduct) and the basis is built by folding from one SVD;
    otherwise by a generic generalized eigensolver.  Eigenvalues are
    nondecreasing; each eigenvector's sign is fixed so its first component
    of largest magnitude is positive.
    """
    n = m.shape[0]
    if n > dense_cap:
        raise DenseCapExceeded(f"n={n} exceeds dense cap {dense_cap}")
    q_sparse = sp.csr_array(q)
    if partition is not None:
        lam, u = _folded_eigenpairs(sp.csr_array(m), q_sparse, partition)
    else:
        try:
            lam, u = scipy.linalg.eigh(_dense(m), _dense(q))
        except scipy.linalg.LinAlgError as e:
            raise NotPositiveDefinite(str(e)) from e
    # fix signs for determinism
    piv = np.argmax(np.abs(u), axis=0)
    signs = np.sign(u[piv, np.arange(n)])
    signs[signs == 0] = 1.0
    u *= signs
    return GftBasis(u=u, lam=lam, q=q_sparse)


def _cholesky(block):
    """Lower Cholesky factor of a dense SPD block, or NotPositiveDefinite.

    A singular PSD block (a graph component wholly on one side) can factor
    with a roundoff-scale pivot; it is rejected at the relative pivot size
    SpdSolver uses.
    """
    try:
        low = scipy.linalg.cholesky(block, lower=True)
    except scipy.linalg.LinAlgError as e:
        raise NotPositiveDefinite(str(e)) from e
    piv = np.diagonal(low) ** 2
    if np.min(piv) <= 1e-13 * np.max(piv):
        raise NotPositiveDefinite("Cholesky factor has a vanishing pivot")
    return low


def _folded_eigenpairs(m, q, partition):
    """(lam, U) of the pencil (M, blockdiag(M_AA, M_BB)) from one SVD.

    With T = P diag(s) R^T, each singular triple gives the pair
    L^{-T}(p, -+r)/sqrt2 with lambda = 1 -+ s; the ||A| - |B|| singular
    vectors left over on the larger side give lambda = 1.
    """
    if partition.n != m.shape[0]:
        raise WrongInnerProduct("partition size does not match M")
    f = partition.f
    scale = max(float(np.max(np.abs(m.data))) if m.nnz else 1.0, 1.0)
    diff = sp.coo_array(m - q)
    cross = sp.coo_array(q)
    if (np.any(np.abs(diff.data[f[diff.row] == f[diff.col]]) > 1e-12 * scale)
            or np.any(cross.data[f[cross.row] != f[cross.col]] != 0)):
        raise WrongInnerProduct(
            "Q is not the block-diagonal of M under the partition")
    a, b = partition.a_idx, partition.b_idx
    rows_a = m[a]
    la = _cholesky(rows_a[:, a].toarray())
    lb = _cholesky(m[b][:, b].toarray())
    t = scipy.linalg.solve_triangular(la, rows_a[:, b].toarray(), lower=True)
    t = scipy.linalg.solve_triangular(lb, t.T, lower=True).T
    p, s, rt = scipy.linalg.svd(t, full_matrices=True, lapack_driver="gesdd")
    ua = scipy.linalg.solve_triangular(la, p, lower=True, trans="T")
    ub = scipy.linalg.solve_triangular(lb, rt.T, lower=True, trans="T")
    n, r = m.shape[0], s.size  # r = min(|A|, |B|) >= 1
    c = np.sqrt(0.5)
    u = np.zeros((n, n))
    u[a, :r] = c * ua[:, :r]
    u[b, :r] = -c * ub[:, :r]
    u[a, n - r:] = c * ua[:, r - 1::-1]
    u[b, n - r:] = c * ub[:, r - 1::-1]
    if a.size > b.size:
        u[a, r:n - r] = ua[:, r:]
    else:
        u[b, r:n - r] = ub[:, r:]
    lam = np.concatenate([1.0 - s, np.ones(n - 2 * r), 1.0 + s[::-1]])
    return lam, u


def gft_forward(basis, x):
    """x_hat = U^T Q x."""
    x = np.asarray(x)
    if x.shape[0] != basis.n:
        raise ValueError("dimension mismatch")
    return basis.u.T @ (basis.q @ x)


def gft_inverse(basis, xhat):
    """x = U x_hat."""
    xhat = np.asarray(xhat)
    if xhat.shape[0] != basis.n:
        raise ValueError("dimension mismatch")
    return basis.u @ xhat


def dense_spectral_filter(basis, kernel, x):
    """Apply U h(Lam) U^T Q to x; kernel is any callable on [0, 2]."""
    xhat = gft_forward(basis, x)
    h = kernel(basis.lam)
    return basis.u @ ((h * xhat.T).T)


class FundamentalOperator:
    """Action of Z = Q^{-1} M: one sparse mat-vec plus one SPD solve.

    ``q_solver`` is anything with ``n`` and ``solve`` for Q: an SpdSolver,
    or a BlockDiagonalSolver that never forms Q.
    """

    def __init__(self, m, q_solver):
        if m.shape[0] != q_solver.n:
            raise ValueError("M and Q dimension mismatch")
        self.m = sp.csr_array(m)
        self.q_solver = q_solver
        self.n = q_solver.n

    def apply(self, x):
        return self.q_solver.solve(spmv(self.m, x))


def _fold_vector(f, u):
    return f * u if u.ndim == 1 else (f[:, None] * u)


def verify_spectral_folding(basis, partition, tol=1e-8, m=None, group_tol=1e-6):
    """Check M (J u) = (2 - lambda) Q (J u) for every eigenpair.

    Degenerate eigenvalues are checked at the subspace level: J u is
    projected (in the Q inner product) onto the (2 - lambda)-eigenspace and
    the residual of the complement is reported.  When ``m`` is given, the
    raw generalized-eigenproblem residual is also evaluated.
    """
    if partition.n != basis.n:
        raise WrongInnerProduct("partition size does not match basis")
    f = partition.f.astype(np.float64)
    lam = basis.lam
    u = basis.u
    q = basis.q
    residuals = np.empty(basis.n)
    for k in range(basis.n):
        v = f * u[:, k]
        target = 2.0 - lam[k]
        grp = np.flatnonzero(np.abs(lam - target) <= group_tol)
        if grp.size == 0:
            residuals[k] = np.inf
            continue
        ug = u[:, grp]
        coeff = ug.T @ (q @ v)  # Q-orthonormal projection coefficients
        perp = v - ug @ coeff
        residuals[k] = np.sqrt(max(float(perp @ (q @ perp)), 0.0))
    report = {
        "max_residual": float(np.max(residuals)),
        "residuals": residuals,
        "tol": tol,
        "passed": bool(np.max(residuals) <= tol),
    }
    if m is not None:
        scale = max(float(np.max(np.abs(m.data))) if m.nnz else 1.0, 1.0)
        raw = np.empty(basis.n)
        md = _dense(m)
        qd = _dense(q)
        for k in range(basis.n):
            v = f * u[:, k]
            raw[k] = np.linalg.norm(md @ v - (2.0 - lam[k]) * (qd @ v)) / scale
        report["max_eigen_residual"] = float(np.max(raw))
        report["passed"] = report["passed"] and report["max_eigen_residual"] <= tol
    return report


def spectrum_properties(basis, partition, m=None, one_tol=1e-6):
    """Spectrum range, lambda=1 count vs the forced multiplicity bound, and
    lambda_min multiplicity vs connected-component count (Laplacian M)."""
    lam = basis.lam
    na = partition.a_idx.size
    nb = partition.b_idx.size
    ones = int(np.sum(np.abs(lam - 1.0) <= one_tol))
    report = {
        "lambda_min": float(lam[0]),
        "lambda_max": float(lam[-1]),
        "in_range": bool(lam[0] >= -1e-10 and lam[-1] <= 2.0 + 1e-10),
        "count_at_one": ones,
        "forced_one_multiplicity": abs(na - nb),
        "one_multiplicity_ok": ones >= abs(na - nb),
    }
    if m is not None:
        offdiag = sp.coo_array(m)
        mask = offdiag.row != offdiag.col
        adj = sp.coo_array(
            (np.abs(offdiag.data[mask]), (offdiag.row[mask], offdiag.col[mask])),
            shape=m.shape,
        )
        n_comp = csgraph.connected_components(adj.tocsr(), directed=False)[0]
        mult_min = int(np.sum(np.abs(lam - lam[0]) <= one_tol))
        report["components"] = int(n_comp)
        report["lambda_min_multiplicity"] = mult_min
    return report


def spectrum_is_folded(lam, tol=1e-8):
    """True when the eigenvalue multiset equals its reflection about 1."""
    lam = np.sort(np.asarray(lam))
    return bool(np.max(np.abs(lam - np.sort(2.0 - lam))) <= tol)
