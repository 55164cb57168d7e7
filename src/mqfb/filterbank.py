"""Two-channel analysis/synthesis on arbitrary graphs.

Filters are scalar kernels of the generalized spectrum, applied either
densely through an explicit eigenbasis or as polynomials of the fundamental
matrix Z = Q^{-1} M (one sparse mat-vec plus one SPD solve per degree).  The
lazy bank in poly mode runs as a single lifting step that factors only M_BB.
Ships the lazy biorthogonal design and the orthogonal cosine design, plus
checkers for perfect reconstruction, Q-orthogonality and frame bounds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .gft import (
    FundamentalOperator,
    dense_spectral_filter,
    gft_forward,
    gft_inverse,
    mq_eigendecompose,
)
from .sparse_core import (
    BlockDiagonalSolver,
    SpdSolver,
    build_block_diag_q,
    check_positive_definite,
    extract_principal_block,
    spmv,
)


class NotPolynomial(ValueError):
    """Kernel family has no polynomial-in-Z implementation."""


_NAMED_KERNELS = {
    "cos_quarter": lambda lam: np.sqrt(2.0) * np.cos(np.pi * lam / 4.0),
    "sin_quarter": lambda lam: np.sqrt(2.0) * np.sin(np.pi * lam / 4.0),
}


@dataclass(frozen=True)
class Kernel:
    """Scalar spectral kernel on [0, 2].

    Either a polynomial (coefficients in ascending degree) or a named
    closed form; only these two forms exist so specs stay serializable.
    """

    coeffs: tuple | None = None
    name: str | None = None

    def __post_init__(self):
        if (self.coeffs is None) == (self.name is None):
            raise ValueError("exactly one of coeffs/name required")
        if self.name is not None and self.name not in _NAMED_KERNELS:
            raise ValueError(f"unknown kernel {self.name!r}")
        if self.coeffs is not None:
            object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))

    @property
    def is_polynomial(self):
        return self.coeffs is not None

    def __call__(self, lam):
        lam = np.asarray(lam, dtype=np.float64)
        if self.coeffs is not None:
            return np.polynomial.polynomial.polyval(lam, self.coeffs)
        return _NAMED_KERNELS[self.name](lam)


@dataclass(frozen=True)
class FilterBankSpec:
    """Four kernels plus an implementation mode ("dense" or "poly")."""

    h0: Kernel
    h1: Kernel
    g0: Kernel
    g1: Kernel
    mode: str = "poly"
    family: str = "custom"

    def __post_init__(self):
        if self.mode not in ("dense", "poly"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "poly" and not all(
            k.is_polynomial for k in (self.h0, self.h1, self.g0, self.g1)
        ):
            raise NotPolynomial("poly mode requires all four kernels polynomial")

    def kernels(self):
        return {"h0": self.h0, "h1": self.h1, "g0": self.g0, "g1": self.g1}

    def to_json(self):
        d = {"family": self.family, "mode": self.mode}
        if self.family == "custom":
            d["kernels"] = {
                k: (list(v.coeffs) if v.is_polynomial else v.name)
                for k, v in self.kernels().items()
            }
        return json.dumps(d, indent=2)

    @classmethod
    def from_json(cls, text):
        d = json.loads(text)
        family = d.get("family", "custom")
        mode = d.get("mode")
        if family == "lazy":
            return lazy_spec() if mode is None else lazy_spec(mode=mode)
        if family in ("ortho-cosine", "orthogonal-cosine"):
            return orthogonal_cosine_spec() if mode is None \
                else orthogonal_cosine_spec(mode=mode)
        kernels = {
            k: Kernel(coeffs=v) if isinstance(v, (list, tuple)) else Kernel(name=v)
            for k, v in d["kernels"].items()
        }
        return cls(mode=mode or "poly", family="custom", **kernels)


def lazy_spec(mode="poly"):
    """Degree-1 biorthogonal bank: H0 = I, H1 = Z, G0 = 2I - Z, G1 = I."""
    return FilterBankSpec(
        h0=Kernel(coeffs=(1.0,)),
        h1=Kernel(coeffs=(0.0, 1.0)),
        g0=Kernel(coeffs=(2.0, -1.0)),
        g1=Kernel(coeffs=(1.0,)),
        mode=mode,
        family="lazy",
    )


def orthogonal_cosine_spec(mode="dense"):
    """Orthogonal bank h0 = sqrt2*cos(pi lam/4), h1 = h0(2-lam), g_i = h_i."""
    if mode != "dense":
        raise NotPolynomial("orthogonal designs have no polynomial implementation")
    h0 = Kernel(name="cos_quarter")
    h1 = Kernel(name="sin_quarter")
    return FilterBankSpec(h0=h0, h1=h1, g0=h0, g1=h1, mode="dense",
                          family="ortho-cosine")


@dataclass(frozen=True)
class ChannelCoefficients:
    """Approximation on A and detail on B; |a| + |d| equals n."""

    a: np.ndarray
    d: np.ndarray


class LiftingStep:
    """The lazy bank as one predict step of the lifting scheme.

    Q is block-diagonal, so (Z x)_B = x_B + P x_A with P = M_BB^{-1} M_BA.
    Lazy analysis (H0 = I, H1 = Z) is then a = x_A, d = x_B + P x_A, and
    synthesis (G0 = 2I - Z, G1 = I) is x_A = a, x_B = d - P a: one sparse
    mat-vec and one |B|-sized SPD solve per step.  Only M_BB is factored.
    """

    def __init__(self, m, partition):
        rows_b = m[partition.b_idx]
        self.m_ba = sp.csr_array(rows_b[:, partition.a_idx])
        self.solver = SpdSolver(rows_b[:, partition.b_idx])

    def predict(self, a):
        """P a = M_BB^{-1} M_BA a."""
        return self.solver.solve(spmv(self.m_ba, a))


class FilterContext:
    """Everything needed to apply spectral filters for one (M, partition).

    Dense mode carries a GftBasis.  Poly mode carries the lazy bank's
    LiftingStep; the block-diagonal Q (checkers) and the fundamental
    operator Z = Q^{-1} M (custom polynomial kernels) are built on first
    use.  Z solves with Q by blocks: the lifting step's M_BB factor and one
    of M_AA, never a factor of the n x n Q (so Z uses the block-diagonal Q
    of M even when a different ``q`` was passed in).
    ``degree_scale`` is set when the graph degrees are known (zero-DC
    wrapping needs them).
    """

    def __init__(self, m, partition, mode, q=None, basis=None, degree_scale=None):
        self.m = sp.csr_array(m)
        self.partition = partition
        self.mode = mode
        self.basis = basis
        self.lifting = None
        self.degree_scale = degree_scale
        self._q = q
        self._z = None

    @property
    def n(self):
        return self.m.shape[0]

    @property
    def q(self):
        if self._q is None:
            self._q = build_block_diag_q(self.m, self.partition)
        return self._q

    @property
    def z(self):
        if self._z is None:
            def block_solver(idx):
                return SpdSolver(extract_principal_block(self.m, idx))

            solver_b = (self.lifting.solver if self.lifting is not None
                        else block_solver(self.partition.b_idx))
            solver = BlockDiagonalSolver(
                self.partition, block_solver(self.partition.a_idx), solver_b)
            self._z = FundamentalOperator(self.m, solver)
        return self._z


def make_context(m, partition, mode="poly", degrees=None, dense_cap=None):
    """Build a FilterContext for Q = block-diagonal of M under the partition.

    Raises NotPositiveDefinite when Q is not positive definite.  Poly mode
    decides this without Q: the A block by structure (or one factor when
    its structure is not Laplacian-like), the B block by the factor of
    M_BB that the lifting step keeps.
    """
    ctx = FilterContext(m, partition, mode, degree_scale=degrees)
    if mode == "dense":
        kwargs = {} if dense_cap is None else {"dense_cap": dense_cap}
        ctx.basis = mq_eigendecompose(ctx.m, ctx.q, partition=partition,
                                      **kwargs)
    elif mode == "poly":
        check_positive_definite(extract_principal_block(ctx.m, partition.a_idx))
        ctx.lifting = LiftingStep(ctx.m, partition)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return ctx


def apply_kernel(ctx, kernel, x):
    """Apply the spectral filter with the given scalar kernel to x."""
    if ctx.mode == "dense":
        return dense_spectral_filter(ctx.basis, kernel, x)
    if not kernel.is_polynomial:
        raise NotPolynomial("poly context cannot apply non-polynomial kernel")
    # Horner in Z
    c = kernel.coeffs
    x = np.asarray(x, dtype=np.float64)
    y = c[-1] * x
    for ck in reversed(c[:-1]):
        y = ctx.z.apply(y) + ck * x
    return y


def _lifts(spec, ctx):
    return spec.family == "lazy" and ctx.lifting is not None


def _columns(x):
    return x.reshape(x.shape[0], -1)


def _dense_analyze(ctx, h0, h1, x):
    """(U h0(Lam) U^T Q x)_A and (U h1(Lam) U^T Q x)_B from one forward GFT
    and one inverse GFT of both channels side by side."""
    basis = ctx.basis
    xhat = _columns(gft_forward(basis, x))
    c = xhat.shape[1]
    y = gft_inverse(basis, np.hstack([h0(basis.lam)[:, None] * xhat,
                                      h1(basis.lam)[:, None] * xhat]))
    tail = x.shape[1:]
    a = y[ctx.partition.a_idx, :c].reshape((-1,) + tail)
    d = y[ctx.partition.b_idx, c:].reshape((-1,) + tail)
    return ChannelCoefficients(a=a, d=d)


def _dense_synthesize(ctx, g0, g1, up_a, up_b):
    """U (g0(Lam) U^T Q up_a + g1(Lam) U^T Q up_b): both channels' forward
    GFTs side by side, then one inverse GFT."""
    basis = ctx.basis
    c = _columns(up_a).shape[1]
    xhat = gft_forward(basis, np.hstack([_columns(up_a), _columns(up_b)]))
    y = gft_inverse(basis, g0(basis.lam)[:, None] * xhat[:, :c]
                    + g1(basis.lam)[:, None] * xhat[:, c:])
    return y.reshape(up_a.shape)


def analyze(spec, ctx, x):
    """a = (H0 x) on A, d = (H1 x) on B."""
    x = np.asarray(x, dtype=np.float64)
    spec, pre, _ = _unwrap(spec, ctx)
    if pre is not None:
        x = (x.T * pre).T
    if _lifts(spec, ctx):
        a = x[ctx.partition.a_idx]
        d = x[ctx.partition.b_idx] + ctx.lifting.predict(a)
        return ChannelCoefficients(a=a, d=d)
    if ctx.mode == "dense":
        return _dense_analyze(ctx, spec.h0, spec.h1, x)
    a = apply_kernel(ctx, spec.h0, x)[ctx.partition.a_idx]
    d = apply_kernel(ctx, spec.h1, x)[ctx.partition.b_idx]
    return ChannelCoefficients(a=a, d=d)


def synthesize(spec, ctx, coeffs):
    """x = G0 upsample_A(a) + G1 upsample_B(d)."""
    spec, _, post = _unwrap(spec, ctx)
    a = np.asarray(coeffs.a, dtype=np.float64)
    d = np.asarray(coeffs.d, dtype=np.float64)
    shape = (ctx.n,) + a.shape[1:]
    if _lifts(spec, ctx):
        x = np.empty(shape)
        x[ctx.partition.a_idx] = a
        x[ctx.partition.b_idx] = d - ctx.lifting.predict(a)
    else:
        up_a = np.zeros(shape)
        up_b = np.zeros(shape)
        up_a[ctx.partition.a_idx] = a
        up_b[ctx.partition.b_idx] = d
        if ctx.mode == "dense":
            x = _dense_synthesize(ctx, spec.g0, spec.g1, up_a, up_b)
        else:
            x = apply_kernel(ctx, spec.g0, up_a) + apply_kernel(ctx, spec.g1, up_b)
    if post is not None:
        x = (x.T * post).T
    return x


# ---------------------------------------------------------------------------
# Zero-DC wrapping

@dataclass(frozen=True)
class ZeroDcSpec:
    """Degree-scaled variant: analysis sees D^{1/2} x, synthesis emits
    D^{-1/2} x, so constant inputs produce zero detail coefficients."""

    base: FilterBankSpec

    @property
    def mode(self):
        return self.base.mode

    @property
    def family(self):
        return "zero-dc:" + self.base.family


def zero_dc_wrap(spec):
    return ZeroDcSpec(base=spec)


def _unwrap(spec, ctx):
    if isinstance(spec, ZeroDcSpec):
        d = ctx.degree_scale
        if d is None:
            raise ValueError("context lacks degrees; build it with degrees=")
        if np.any(d <= 0):
            raise ValueError("zero-DC wrapping requires positive degrees")
        return spec.base, np.sqrt(d), 1.0 / np.sqrt(d)
    return spec, None, None


# ---------------------------------------------------------------------------
# Checkers

def _spectrum_for_checks(ctx, dense_cap=2048):
    """(lam, kind): the computed spectrum, or a grid on [0, 2] past the cap."""
    if ctx.basis is not None:
        return ctx.basis.lam, "computed"
    if ctx.n <= dense_cap:
        return (mq_eigendecompose(ctx.m, ctx.q, partition=ctx.partition).lam,
                "computed")
    return np.linspace(0.0, 2.0, 2001), "grid"


def pr_conditions(spec, lam):
    """Pointwise violations of the two spectral PR identities."""
    spec = spec.base if isinstance(spec, ZeroDcSpec) else spec
    h0, h1, g0, g1 = spec.h0, spec.h1, spec.g0, spec.g1
    lam = np.asarray(lam, dtype=np.float64)
    e1 = h0(lam) * g0(lam) + h1(lam) * g1(lam) - 2.0
    e2 = h0(lam) * g0(2.0 - lam) - h1(lam) * g1(2.0 - lam)
    return e1, e2


def check_pr(spec, ctx, trials=10, seed=0, tol=None):
    """Evaluate the spectral PR identities on the spectrum and run random
    round-trip trials through analyze/synthesize.

    Past 2048 nodes the identities are evaluated on a grid over [0, 2]
    instead of the computed spectrum; the report's "spectrum" says which.
    """
    if tol is None:
        tol = 1e-8 if ctx.mode == "dense" else 1e-6
    lam, spectrum = _spectrum_for_checks(ctx)
    e1, e2 = pr_conditions(spec, lam)
    rng = np.random.default_rng(seed)
    rt = 0.0
    for _ in range(trials):
        x = rng.standard_normal(ctx.n)
        xr = synthesize(spec, ctx, analyze(spec, ctx, x))
        rt = max(rt, float(np.linalg.norm(xr - x) / np.linalg.norm(x)))
    report = {
        "max_identity_violation": float(np.max(np.abs(e1))),
        "max_alias_violation": float(np.max(np.abs(e2))),
        "max_roundtrip_rel_error": rt,
        "spectrum": spectrum,
        "tol": tol,
    }
    report["passed"] = (
        report["max_identity_violation"] <= max(tol, 1e-12) * 10
        and report["max_alias_violation"] <= max(tol, 1e-12) * 10
        and rt <= tol
    )
    return report


def _q_blocks(ctx):
    qa = extract_principal_block(ctx.q, ctx.partition.a_idx)
    qb = extract_principal_block(ctx.q, ctx.partition.b_idx)
    return qa, qb


def coeff_q_inner(ctx, c1, c2):
    """Q-inner product on channel coefficients (Q permuted to block order)."""
    qa, qb = _q_blocks(ctx)
    return float(c2.a @ spmv(qa, c1.a) + c2.d @ spmv(qb, c1.d))


def q_inner(q, x, y):
    return float(y @ spmv(q, x))


def check_q_orthogonality(spec, ctx, trials=20, seed=0, tol=1e-8):
    """Parseval check <Ta x, Ta y>_Q = <x, y>_Q on random pairs, plus the
    adjoint identity Ts = Q^{-1} Ta^T Q verified as operator action."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    worst_adj = 0.0
    for _ in range(trials):
        x = rng.standard_normal(ctx.n)
        y = rng.standard_normal(ctx.n)
        cx = analyze(spec, ctx, x)
        cy = analyze(spec, ctx, y)
        lhs = coeff_q_inner(ctx, cx, cy)
        rhs = q_inner(ctx.q, x, y)
        nx = np.sqrt(max(q_inner(ctx.q, x, x), 0.0))
        ny = np.sqrt(max(q_inner(ctx.q, y, y), 0.0))
        worst = max(worst, abs(lhs - rhs) / max(nx * ny, 1e-300))
        # adjoint: <Ts c, x>_Q == <c, Ta x>_Qc for random coefficients c
        na = ctx.partition.a_idx.size
        c = ChannelCoefficients(
            a=rng.standard_normal(na), d=rng.standard_normal(ctx.n - na)
        )
        lhs_adj = q_inner(ctx.q, synthesize(spec, ctx, c), x)
        rhs_adj = coeff_q_inner(ctx, c, cx)
        worst_adj = max(worst_adj, abs(lhs_adj - rhs_adj) / max(nx, 1e-300))
    return {
        "max_parseval_violation": worst,
        "max_adjoint_violation": worst_adj,
        "tol": tol,
        "parseval_ok": worst <= tol,
        "adjoint_ok": worst_adj <= tol,
        "passed": worst <= tol and worst_adj <= tol,
    }


def frame_bounds(spec, grid_points=10_000):
    """(alpha, beta) from dense sampling of (h0^2 + h1^2)/2 on [0, 2]."""
    spec = spec.base if isinstance(spec, ZeroDcSpec) else spec
    lam = np.linspace(0.0, 2.0, grid_points)
    s = 0.5 * (spec.h0(lam) ** 2 + spec.h1(lam) ** 2)
    return float(np.sqrt(np.min(s))), float(np.sqrt(np.max(s)))
