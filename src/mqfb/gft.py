"""Generalized graph Fourier transform with spectral folding.

The basis solves M u = lambda Q u with Q-orthonormal eigenvectors.  When Q
is the block-diagonal of M under a bipartition, flipping a signal's sign on
side B maps a lambda-eigenvector to a (2 - lambda)-eigenvector; the checks
here verify that folding, the [0, 2] spectrum range, and the forced
multiplicity at lambda = 1.

``folded_basis`` builds the basis from the blocks M_AA, M_BA and M_BB
alone: with Cholesky factors M_AA = L_A L_A^T and M_BB = L_B L_B^T the
pencil becomes I + [0 T; T^T 0] with T = L_A^{-1} M_AB L_B^{-T}, so one
|A| x |B| SVD T = P diag(s) R^T gives every eigenpair, and folding holds by
construction.  The resulting FoldedBasis keeps only s, the dense P and R
(|A|^2 + |B|^2 floats, half of U on balanced sides) and L_A, L_B as sparse
triangular factors, and transforms in those coordinates: a forward GFT is
two sparse triangular and two half-size dense products, an inverse two
half-size products and two sparse triangular solves.  Building it makes
no back-solved eigenvectors and no n x n array; the eigenvector matrix U
is assembled only when a checker asks for ``u``.  ``mq_eigendecompose``,
a generic n x n generalized eigensolver of any (M, Q), builds an explicit
GftBasis; the checkers here verify folding independently on a basis built
that way.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
import scipy.sparse.csgraph as csgraph

from .graphs import keep_entries
from .sparse_core import NotPositiveDefinite

DENSE_CAP_DEFAULT = 4096
# eigenvalues this close count as one value: a degenerate group in the
# folding check, and the multiplicities at lambda = 1 and at lambda_min
EIGENVALUE_TIE_TOL = 1e-6


class DenseCapExceeded(ValueError):
    """Graph too large for the dense eigendecomposition path."""


class WrongInnerProduct(ValueError):
    """A basis and a partition have different sizes."""


@dataclass(frozen=True)
class GftBasis:
    """Generalized eigenpairs (U, lam), Q-orthonormal columns."""

    u: np.ndarray  # (n, n), columns are eigenvectors
    lam: np.ndarray  # (n,), nondecreasing
    q: sp.csr_array  # inner-product matrix the basis is orthonormal under

    @property
    def n(self):
        return self.lam.size

    def forward(self, x):
        return self.u.T @ (self.q @ x)

    def inverse(self, xhat):
        return self.u @ xhat


class FoldedBasis:
    """Eigenbasis of (M, blockdiag(M_AA, M_BB)) kept as its folded factors.

    With r = min(|A|, |B|), eigenvector k < r is (L_A^{-T} p_k,
    -L_B^{-T} r_k) / sqrt2 at lambda = 1 - s_k, eigenvector n-1-k is
    (L_A^{-T} p_k, L_B^{-T} r_k) / sqrt2 at 1 + s_k, and the columns of P
    or R past r (larger side only, zero on the other) sit at lambda = 1.
    ``a`` and ``b`` are the vertices of L_A's and L_B's rows.  ``u``
    assembles that n x n matrix on first access; the transforms never do.
    ``lat`` and ``lbt`` hold L_A^T and L_B^T as sparse CSR: the Cholesky
    factor of a graph's block keeps about the block's own sparsity.
    """

    def __init__(self, a, b, lat, lbt, p, s, r):
        self.a, self.b = a, b
        self.lat, self.lbt, self.p, self.s, self.r = lat, lbt, p, s, r
        n, k = a.size + b.size, s.size
        self.lam = np.concatenate([1.0 - s, np.ones(n - 2 * k), 1.0 + s[::-1]])

    @property
    def n(self):
        return self.lam.size

    def forward(self, x):
        """x_hat = U^T Q x from alpha = P^T L_A^T x_A, beta = R^T L_B^T x_B."""
        xs = _columns(x)
        alpha = self.p.T @ (self.lat @ xs[self.a])
        beta = self.r.T @ (self.lbt @ xs[self.b])
        n, k = self.n, self.s.size
        c = np.sqrt(0.5)
        xhat = np.empty((n, xs.shape[1]))
        xhat[:k] = c * (alpha[:k] - beta[:k])
        xhat[n - k:] = c * (alpha[:k] + beta[:k])[::-1]
        xhat[k:n - k] = (alpha if alpha.shape[0] > k else beta)[k:]
        return xhat.reshape(np.shape(x))

    def inverse(self, xhat):
        """x = U x_hat: recombine each pair, then x_A = L_A^{-T} P y_A and
        x_B = L_B^{-T} R y_B."""
        ys = _columns(xhat)
        n, k = self.n, self.s.size
        c = np.sqrt(0.5)
        lo, hi = ys[:k], ys[n - k:][::-1]
        a, b = self.a, self.b
        ya = np.empty((a.size, ys.shape[1]))
        yb = np.empty((b.size, ys.shape[1]))
        ya[:k] = c * (hi + lo)
        yb[:k] = c * (hi - lo)
        (ya if a.size > k else yb)[k:] = ys[k:n - k]
        x = np.empty((n, ys.shape[1]))
        x[a] = spla.spsolve_triangular(self.lat, self.p @ ya, lower=False,
                                       overwrite_b=True)
        x[b] = spla.spsolve_triangular(self.lbt, self.r @ yb, lower=False,
                                       overwrite_b=True)
        return x.reshape(np.shape(xhat))

    @functools.cached_property
    def u(self):
        """The n x n eigenvector matrix, U = U I (checkers and tests only)."""
        return self.inverse(np.eye(self.n))


def _columns(x):
    x = np.asarray(x)
    return x.reshape(x.shape[0], -1)


def _dense(m):
    return m.toarray() if sp.issparse(m) else np.asarray(m, dtype=np.float64)


def _sign_of_largest(v):
    """Sign of each column's first entry of largest magnitude."""
    return np.sign(v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])])


def mq_eigendecompose(m, q):
    """Solve M u = lambda Q u densely with a generic generalized
    eigensolver; Q must be PD and n at most DENSE_CAP_DEFAULT (else
    DenseCapExceeded, before anything is densified).

    The GftBasis's eigenvalues are nondecreasing and each eigenvector has
    its first component of largest magnitude positive.
    """
    if (n := m.shape[0]) > DENSE_CAP_DEFAULT:
        raise DenseCapExceeded(f"n={n} exceeds dense cap {DENSE_CAP_DEFAULT}")
    try:
        lam, u = scipy.linalg.eigh(_dense(m), _dense(q))
    except scipy.linalg.LinAlgError as e:
        raise NotPositiveDefinite(str(e)) from e
    u *= _sign_of_largest(u)
    return GftBasis(u=u, lam=lam, q=sp.csr_array(q))


def _cholesky(block, name):
    """Lower Cholesky factor of a dense SPD block, or NotPositiveDefinite
    naming the block.

    A singular PSD block (a graph component wholly on one side) can factor
    with a roundoff-scale pivot; it is rejected at the relative pivot size
    SpdSolver uses.
    """
    try:
        low = scipy.linalg.cholesky(block, lower=True)
    except scipy.linalg.LinAlgError as e:
        raise NotPositiveDefinite(f"{name}: {e}") from e
    piv = np.diagonal(low) ** 2
    if np.min(piv) <= 1e-13 * np.max(piv):
        raise NotPositiveDefinite(
            f"{name}: Cholesky factor has a vanishing pivot")
    return low


def folded_basis(a, b, m_aa, m_ba, m_bb):
    """FoldedBasis of the pencil (M, blockdiag(M_AA, M_BB)) from one SVD.

    ``a`` and ``b`` are the vertices of the rows of ``m_aa`` and ``m_bb``
    (``m_ba`` is M_BA with its rows and columns in those orders);
    |A| + |B| must be at most DENSE_CAP_DEFAULT (else DenseCapExceeded,
    before anything is densified).  Signs are fixed on the factors: each
    column of P has its first entry of largest magnitude positive, r_k
    flips with p_k for k < r, and R's columns past r follow the same rule
    as P's.  The eigenvalues are nondecreasing.
    """
    if (n := a.size + b.size) > DENSE_CAP_DEFAULT:
        raise DenseCapExceeded(f"n={n} exceeds dense cap {DENSE_CAP_DEFAULT}")
    la = _cholesky(_dense(m_aa), "M_AA")
    lb = _cholesky(_dense(m_bb), "M_BB")
    t = scipy.linalg.solve_triangular(la, _dense(m_ba).T, lower=True)
    t = scipy.linalg.solve_triangular(lb, t.T, lower=True).T
    lat, lbt = sp.csr_array(la.T), sp.csr_array(lb.T)
    del la, lb  # the dense factors need not live through the SVD
    p, s, rt = scipy.linalg.svd(t, full_matrices=True, lapack_driver="gesdd")
    r = rt.T
    k = s.size  # min(|A|, |B|) >= 1
    flip = _sign_of_largest(p)
    p *= flip
    r[:, :k] *= flip[:k]
    r[:, k:] *= _sign_of_largest(r[:, k:])
    return FoldedBasis(a, b, lat, lbt, p, s, r)


def gft_forward(basis, x):
    """x_hat = U^T Q x."""
    x = np.asarray(x)
    if x.shape[0] != basis.n:
        raise ValueError("dimension mismatch")
    return basis.forward(x)


def gft_inverse(basis, xhat):
    """x = U x_hat."""
    xhat = np.asarray(xhat)
    if xhat.shape[0] != basis.n:
        raise ValueError("dimension mismatch")
    return basis.inverse(xhat)


def dense_spectral_filter(basis, kernel, x):
    """Apply U h(Lam) U^T Q to x; kernel is any callable on [0, 2]."""
    xhat = gft_forward(basis, x)
    h = kernel(basis.lam)
    return basis.inverse((h * xhat.T).T)


class FundamentalOperator:
    """Action of Z = Q^{-1} M: one sparse mat-vec plus one SPD solve.

    ``q_solver`` is anything with ``n`` and ``solve`` for Q, such as an
    SpdSolver.
    """

    def __init__(self, m, q_solver):
        if m.shape[0] != q_solver.n:
            raise ValueError("M and Q dimension mismatch")
        self.m = sp.csr_array(m)
        self.q_solver = q_solver
        self.n = q_solver.n

    def apply(self, x):
        return self.q_solver.solve(self.m @ x)


def verify_spectral_folding(basis, partition, tol=1e-8, m=None):
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
        grp = np.flatnonzero(np.abs(lam - target) <= EIGENVALUE_TIE_TOL)
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


def spectrum_properties(basis, partition, m=None):
    """Spectrum range, lambda=1 count vs the forced multiplicity bound, and
    lambda_min multiplicity vs connected-component count (Laplacian M)."""
    lam = basis.lam
    na = partition.a_idx.size
    nb = partition.b_idx.size
    ones = int(np.sum(np.abs(lam - 1.0) <= EIGENVALUE_TIE_TOL))
    report = {
        "lambda_min": float(lam[0]),
        "lambda_max": float(lam[-1]),
        "in_range": bool(lam[0] >= -1e-10 and lam[-1] <= 2.0 + 1e-10),
        "count_at_one": ones,
        "forced_one_multiplicity": abs(na - nb),
        "one_multiplicity_ok": ones >= abs(na - nb),
    }
    if m is not None:
        adj = keep_entries(sp.csr_array(m), lambda i, j: i != j)
        n_comp = csgraph.connected_components(adj, directed=False)[0]
        mult_min = int(np.sum(np.abs(lam - lam[0]) <= EIGENVALUE_TIE_TOL))
        report["components"] = int(n_comp)
        report["lambda_min_multiplicity"] = mult_min
    return report


def spectrum_is_folded(lam, tol=1e-8):
    """True when the eigenvalue multiset equals its reflection about 1."""
    lam = np.sort(np.asarray(lam))
    return bool(np.max(np.abs(lam - np.sort(2.0 - lam))) <= tol)
