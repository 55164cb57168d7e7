"""Two-channel analysis/synthesis on arbitrary graphs.

Filters are scalar kernels of the generalized spectrum, applied either
densely through an explicit eigenbasis or as polynomials of the fundamental
matrix Z = Q^{-1} M.  Q is the block-diagonal of M, so S = Z - I only swaps
the sides A and B and its spectrum lies in [-1, 1] by spectral folding:
poly mode sums a Chebyshev series in S by one three-term recurrence (one
product with each off-diagonal block of M and one solve with each of M_AA
and M_BB per degree), with no eigenbasis and no spectral bound.  The lazy
bank is the degree-1 recurrence, which is the lifting step: one product
with M_BA and one solve with M_BB, and M_AA is never factored.
A context cuts those blocks from the adjacency W (graphs.Operator),
checks the A block on W_AA with no factor (the normalized M_AA by its
congruence to the combinatorial one) and builds the n x n M and Q only
on first use, for dense mode and the checkers.
A plain matrix is split into an Operator too.  Ships the lazy
biorthogonal design and the orthogonal cosine design (poly by default, as
its degree-12 Chebyshev interpolant; dense mode keeps the closed form as
the reference), their zero-DC variants, plus checkers for perfect
reconstruction, Q-orthogonality and frame bounds.
"""

from __future__ import annotations

import functools
import json
from dataclasses import InitVar, dataclass, replace

import numpy as np
import scipy.sparse as sp

from .gft import _columns, gft_forward, gft_inverse, mq_eigendecompose
# not called here; perfbench's tracer wraps dense filtering under this name
from .gft import dense_spectral_filter  # noqa: F401
from .graphs import Operator
from .sparse_core import (
    NotPositiveDefinite,
    SpdSolver,
    build_block_diag_q,
    check_positive_definite,
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

    Exactly one of two forms, so specs stay serializable: ``cheb``, a
    Chebyshev series in t = lam - 1, whose interval [-1, 1] is the spectrum
    of Z - I; or ``name``, a named closed form.  ``coeffs``, a polynomial
    in lam (ascending degree), is converted to ``cheb`` once, here.
    """

    coeffs: InitVar[tuple | None] = None
    name: str | None = None
    cheb: tuple | None = None

    def __post_init__(self, coeffs):
        if sum(f is not None for f in (coeffs, self.name, self.cheb)) != 1:
            raise ValueError("exactly one of coeffs/name/cheb required")
        if self.name is not None and self.name not in _NAMED_KERNELS:
            raise ValueError(f"unknown kernel {self.name!r}")
        cheb = self.cheb
        if coeffs is not None:
            lam = np.polynomial.Polynomial([1.0, 1.0])  # lam = 1 + t
            shifted = np.polynomial.Polynomial(coeffs)(lam).coef
            cheb = np.polynomial.chebyshev.poly2cheb(shifted)
        if cheb is not None:
            object.__setattr__(self, "cheb", tuple(float(c) for c in cheb))
            if not self.cheb:
                raise ValueError("empty Chebyshev series")

    @functools.cached_property
    def chebyshev(self):
        """``cheb`` as a read-only array; a named kernel raises NotPolynomial."""
        if self.cheb is None:
            raise NotPolynomial(f"kernel {self.name!r} is not a polynomial")
        c = np.array(self.cheb)
        c.setflags(write=False)
        return c

    def __call__(self, lam):
        lam = np.asarray(lam, dtype=np.float64)
        if self.cheb is not None:
            return np.polynomial.chebyshev.chebval(lam - 1.0, self.cheb)
        return _NAMED_KERNELS[self.name](lam)

    def to_json(self):
        """A JSON value: {"cheb": [...]} or the name."""
        return self.name if self.cheb is None else {"cheb": list(self.cheb)}

    @classmethod
    def from_json(cls, v):
        """Reads to_json's values, and a monomial coefficient list."""
        if isinstance(v, dict):
            return cls(cheb=v["cheb"])
        return cls(coeffs=v) if isinstance(v, (list, tuple)) else cls(name=v)


@dataclass(frozen=True)
class FilterBankSpec:
    """Four kernels plus an implementation mode ("dense" or "poly").

    ``zero_dc`` (zero_dc_wrap) scales by C, the context Operator's
    ``congruent_diag``: analysis sees C^{1/2} x, synthesis emits C^{-1/2} x,
    and a stays in the signal domain.  C is the degrees for both Laplacian
    Operators (1 at an isolated vertex), so constants give zero details;
    for a plain matrix it is M's diagonal, so a zero-DC normalized bank
    takes normalized_operator(g), not the assembled Laplacian.
    """

    h0: Kernel
    h1: Kernel
    g0: Kernel
    g1: Kernel
    mode: str = "poly"
    family: str = "custom"
    zero_dc: bool = False

    def __post_init__(self):
        if self.mode not in ("dense", "poly"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "poly" and any(
                k.cheb is None for k in self.kernels().values()):
            raise NotPolynomial("poly mode requires all four kernels polynomial")

    def kernels(self):
        return {"h0": self.h0, "h1": self.h1, "g0": self.g0, "g1": self.g1}

    def to_json(self):
        d = {"family": self.family, "mode": self.mode}
        if self.family == "custom":
            d["kernels"] = {k: v.to_json() for k, v in self.kernels().items()}
        if self.zero_dc:
            d["zero_dc"] = True
        return json.dumps(d, indent=2)

    @classmethod
    def from_json(cls, text):
        d = json.loads(text)
        family = d.get("family", "custom")
        mode = d.get("mode")
        if family in _FAMILIES:
            spec = family_spec(family, mode)
        else:
            kernels = {k: Kernel.from_json(v) for k, v in d["kernels"].items()}
            spec = cls(mode=mode or "poly", family="custom", **kernels)
        return zero_dc_wrap(spec) if d.get("zero_dc") else spec


def family_spec(family, mode=None):
    """The named family's spec in ``mode``, or in the family's own default."""
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    return _FAMILIES[family]() if mode is None else _FAMILIES[family](mode=mode)


def zero_dc_wrap(spec):
    """``spec``'s degree-scaled variant (see FilterBankSpec)."""
    return replace(spec, zero_dc=True)


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


# Degree of the orthogonal cosine bank's Chebyshev series in t = lam - 1:
# at 12 it is within 3.1e-15 of the closed form on [-1, 1] (1.8e-12 at 10).
COSINE_CHEB_DEGREE = 12


def orthogonal_cosine_spec(mode="poly"):
    """Orthogonal bank h0 = sqrt2*cos(pi lam/4), h1 = h0(2-lam), g_i = h_i.

    Poly mode uses the degree-COSINE_CHEB_DEGREE Chebyshev interpolant of
    h0 in t = lam - 1; h1(t) = h0(-t) is the same series with its odd
    coefficients negated.  Dense mode filters with the closed forms through
    the eigenbasis and is the reference the poly bank is checked against.
    """
    if mode == "dense":
        h0, h1 = Kernel(name="cos_quarter"), Kernel(name="sin_quarter")
    else:
        c = np.polynomial.chebyshev.chebinterpolate(
            lambda t: _NAMED_KERNELS["cos_quarter"](1.0 + t), COSINE_CHEB_DEGREE)
        h0 = Kernel(cheb=c)
        h1 = Kernel(cheb=c * (-1.0) ** np.arange(c.size))
    return FilterBankSpec(h0=h0, h1=h1, g0=h0, g1=h1, mode=mode,
                          family="ortho-cosine")


_FAMILIES = {"lazy": lazy_spec, "ortho-cosine": orthogonal_cosine_spec}


@dataclass(frozen=True)
class ChannelCoefficients:
    """Approximation on A and detail on B; |a| + |d| equals n."""

    a: np.ndarray
    d: np.ndarray


class FilterContext:
    """Everything needed to apply spectral filters for one (M, partition).

    ``operator`` is ``m``, a graphs.Operator, or a plain symmetric ``m``
    split into one; the assembled M (``ctx.m``) and the block-diagonal Q
    (``ctx.q``) are built from it on first use.

    Dense mode carries a basis with ``lam``, ``forward`` and ``inverse``:
    from make_context a FoldedBasis (sparse Cholesky factors of M_AA and
    M_BB and the dense SVD factors of the folded pencil, about n^2 / 2
    floats, filtered through without forming the n x n eigenvector
    matrix), or an explicit GftBasis passed in.  It is the reference path
    and stops at the dense cap.  Poly mode carries ``m_ba`` (M_BA) and
    ``solver_b`` (the factor of M_BB), which every poly filter reads;
    ``solver_a``, the factor of M_AA that filters of degree 2 and up (or
    with a degree-1 A-side term) need, is built on first use from W_AA.
    Poly filters solve with Q by blocks, with those two factors and never
    a factor of the n x n Q (so they use the block-diagonal Q of M even
    when a different ``q`` was passed in).
    ``b_rows`` are the B vertices in the order of M_BB's rows: ``b_idx``,
    or ``b_idx[order_b]`` for an elimination order ``order_b`` of M_BB, so
    M_BA, M_BB and every B-side vector of the poly recurrence are in that
    order and the factor needs no ordering pass of its own.  Coefficients
    stay in ``b_idx`` order: analyze and synthesize gather and scatter B
    through ``b_rows``.
    """

    def __init__(self, m, partition, mode, q=None, basis=None, order_b=None):
        self.operator = m if isinstance(m, Operator) else Operator.of_matrix(m)
        self.partition = partition
        self.n = partition.n
        self.mode = mode
        self.order_b = order_b
        b = partition.b_idx
        self.b_rows = b if order_b is None else b[order_b]
        self.basis = basis
        self.m_ba = self.solver_b = None
        if q is not None:
            self.q = q

    @functools.cached_property
    def m(self):
        return self.operator.matrix()

    @functools.cached_property
    def q(self):
        return build_block_diag_q(self.m, self.partition)

    @functools.cached_property
    def _w_aa(self):
        a = self.partition.a_idx
        return self.operator.adjacency[a][:, a]

    @functools.cached_property
    def solver_a(self):
        a = self.partition.a_idx
        return _named("M_AA", SpdSolver,
                      self.operator.principal_block(self._w_aa, a))


def _named(block, build, *args, **kwargs):
    """build(*args, **kwargs); a NotPositiveDefinite it raises names
    ``block``."""
    try:
        return build(*args, **kwargs)
    except NotPositiveDefinite as e:
        raise type(e)(f"{block}: {e}") from e


def check_order(order_b, nb):
    """Raise ValueError unless ``order_b`` is a permutation of range(nb)."""
    order_b = np.asarray(order_b)
    if (order_b.shape != (nb,) or order_b.dtype.kind not in "iu"
            or not np.array_equal(np.sort(order_b), np.arange(nb))):
        raise ValueError(f"M_BB order ({order_b.dtype}{list(order_b.shape)}) "
                         f"is not a permutation of the {nb} B rows")


def make_context(m, partition, mode="poly", order_b=None):
    """Build a FilterContext for Q = block-diagonal of M under the partition.

    Raises NotPositiveDefinite, naming the block (M_AA or M_BB), when Q is
    not positive definite.  Poly mode slices W's B rows once into W_BA and
    W_BB: M_BA is W_BA negated or scaled, and M_BB goes to SpdSolver as its
    own CSC.  The A block is decided with no factor, by Taussky's test on
    diag(c_A) - W_AA (see Operator: c is the degrees for both Laplacians);
    only a plain matrix that is not Laplacian-like has M_AA factored.

    ``order_b`` is an elimination order of M_BB, such as an earlier
    context's ``solver_b.order`` (see FilterContext); one that is not a
    permutation of the B side raises ValueError.  Dense mode ignores it.
    """
    if order_b is not None:
        check_order(order_b, partition.b_idx.size)
    ctx = FilterContext(m, partition, mode, order_b=order_b)
    if mode == "dense":
        ctx.basis = mq_eigendecompose(ctx.m, ctx.q, partition=partition)
    elif mode == "poly":
        op, a, b = ctx.operator, partition.a_idx, ctx.b_rows
        w_b = op.adjacency[b]
        w_ba, w_bb = w_b[:, a], w_b[:, b]
        if op.adjacency.nnz == 2 * w_ba.nnz + w_bb.nnz:  # no edge within A
            ctx._w_aa = sp.csr_array((a.size, a.size))
        if not _named("M_AA", check_positive_definite,
                      op.congruent_diag[a], ctx._w_aa):
            ctx.solver_a  # the structure does not decide; the factor does
        w_ba.data = op.off(w_ba, b, a)
        ctx.m_ba = w_ba
        # cut in an elimination order, each row's columns come out of
        # order; sorted here, M_BB reaches SuperLU in canonical form
        w_bb.sort_indices()
        ctx.solver_b = _named("M_BB", SpdSolver, op.principal_block(w_bb, b),
                              ordered=order_b is not None)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return ctx


def _chebyshev(ctx, xa, xb, ca, cb):
    """(sum_k ca[k] T_k(S) x)_A and (sum_k cb[k] T_k(S) x)_B, where x has
    block parts xa, xb and ca, cb have equal lengths.

    S = Z - I = [[0, M_AA^{-1} M_AB], [M_BB^{-1} M_BA, 0]] because Q is the
    block-diagonal of M, and folding puts its spectrum in [-1, 1].  One
    three-term recurrence T_k = 2 S T_{k-1} - T_{k-2}: each step is one
    product with M_AB and one with M_BA and one solve on each side.  The
    last step computes a side only when that side's coefficient is
    nonzero, so the lazy bank (degree 1, no A-side term) is one product
    with M_BA and one solve with M_BB, the lifting step, and never
    factors M_AA.
    """
    m_ba = ctx.m_ba
    ya, yb = ca[0] * xa, cb[0] * xb
    prev, (ta, tb) = None, (xa, xb)
    for k in range(1, len(ca)):
        last = k == len(ca) - 1
        sa = sb = None
        if ca[k] or not last:
            sa = ctx.solver_a.solve(m_ba.T @ tb)
            if prev is not None:
                sa = 2.0 * sa - prev[0]
            ya += ca[k] * sa
        if cb[k] or not last:
            sb = ctx.solver_b.solve(m_ba @ ta)
            if prev is not None:
                sb = 2.0 * sb - prev[1]
            yb += cb[k] * sb
        prev, (ta, tb) = (ta, tb), (sa, sb)
    return ya, yb


def _series(*kernels):
    """Each kernel's Chebyshev coefficients, zero-padded to one length."""
    cs = [k.chebyshev for k in kernels]
    size = max(c.size for c in cs)
    return [np.pad(c, (0, size - c.size)) for c in cs]


def _dense_analyze(ctx, h0, h1, x):
    """(U h0(Lam) U^T Q x)_A and (U h1(Lam) U^T Q x)_B from one forward GFT
    and one inverse GFT of both channels side by side."""
    basis = ctx.basis
    xhat = _columns(gft_forward(basis, x))
    c = xhat.shape[1]
    y = gft_inverse(basis, np.hstack([h0(basis.lam)[:, None] * xhat,
                                      h1(basis.lam)[:, None] * xhat]))
    tail = x.shape[1:]
    return (y[ctx.partition.a_idx, :c].reshape((-1,) + tail),
            y[ctx.partition.b_idx, c:].reshape((-1,) + tail))


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
    pre = np.sqrt(ctx.operator.congruent_diag) if spec.zero_dc else None
    if pre is not None:
        x = (x.T * pre).T
    a_idx = ctx.partition.a_idx
    if ctx.mode == "dense":
        a, d = _dense_analyze(ctx, spec.h0, spec.h1, x)
    else:
        # a needs only the A rows of h0(S) x and d the B rows of h1(S) x, so
        # one recurrence on x carries both channels
        a, d = _chebyshev(ctx, x[a_idx], x[ctx.b_rows],
                          *_series(spec.h0, spec.h1))
        if ctx.order_b is not None:  # back to b_idx order
            d_rows, d = d, np.empty_like(d)
            d[ctx.order_b] = d_rows
    if pre is not None:
        a = (a.T / pre[a_idx]).T
    return ChannelCoefficients(a=a, d=d)


def synthesize(spec, ctx, coeffs):
    """x = G0 upsample_A(a) + G1 upsample_B(d)."""
    pre = np.sqrt(ctx.operator.congruent_diag) if spec.zero_dc else None
    a = np.asarray(coeffs.a, dtype=np.float64)
    d = np.asarray(coeffs.d, dtype=np.float64)
    if pre is not None:
        a = (a.T * pre[ctx.partition.a_idx]).T
    shape = (ctx.n,) + a.shape[1:]
    x = np.empty(shape)
    if ctx.mode == "dense":
        up_a = np.zeros(shape)
        up_b = np.zeros(shape)
        up_a[ctx.partition.a_idx] = a
        up_b[ctx.partition.b_idx] = d
        x = _dense_synthesize(ctx, spec.g0, spec.g1, up_a, up_b)
    else:
        # S swaps the sides, so T_k(S) upsample_A(a) lies on A for even k and
        # on B for odd k, and T_k(S) upsample_B(d) on the other side: one
        # recurrence on (a, d) carries both channels, each row summing the
        # g0 or the g1 series by the parity of k
        if ctx.order_b is not None and d.any():  # zeros need no gather
            d = d[ctx.order_b]
        g0, g1 = _series(spec.g0, spec.g1)
        even = np.arange(g0.size) % 2 == 0
        x[ctx.partition.a_idx], x[ctx.b_rows] = _chebyshev(
            ctx, a, d, np.where(even, g0, g1), np.where(even, g1, g0))
    if pre is not None:
        x = (x.T * (1.0 / pre)).T
    return x


# ---------------------------------------------------------------------------
# Checkers

def pr_conditions(spec, lam):
    """Pointwise violations of the two spectral PR identities."""
    h0, h1, g0, g1 = spec.h0, spec.h1, spec.g0, spec.g1
    lam = np.asarray(lam, dtype=np.float64)
    e1 = h0(lam) * g0(lam) + h1(lam) * g1(lam) - 2.0
    e2 = h0(lam) * g0(2.0 - lam) - h1(lam) * g1(2.0 - lam)
    return e1, e2


def check_pr(spec, ctx, trials=10, seed=0, tol=None):
    """Evaluate the spectral PR identities on the spectrum and run random
    round-trip trials through analyze/synthesize.

    A context without a basis (poly mode) has its identities evaluated on a
    grid over [0, 2] instead of a computed spectrum; the report's
    "spectrum" says which.
    """
    if tol is None:
        tol = 1e-8 if ctx.mode == "dense" else 1e-6
    if ctx.basis is not None:
        lam, spectrum = ctx.basis.lam, "computed"
    else:  # the PR identities hold pointwise
        lam, spectrum = np.linspace(0.0, 2.0, 2001), "grid"
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


def coeff_q_inner(ctx, c1, c2):
    """Q-inner product on channel coefficients (Q permuted to block order)."""
    a, b = ctx.partition.a_idx, ctx.partition.b_idx
    qa, qb = ctx.q[a][:, a], ctx.q[b][:, b]
    return float(c2.a @ (qa @ c1.a) + c2.d @ (qb @ c1.d))


def q_inner(q, x, y):
    return float(y @ (q @ x))


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


def frame_bounds(spec):
    """(alpha, beta) from dense sampling of (h0^2 + h1^2)/2 on [0, 2]."""
    lam = np.linspace(0.0, 2.0, 10_000)
    s = 0.5 * (spec.h0(lam) ** 2 + spec.h1(lam) ** 2)
    return float(np.sqrt(np.min(s))), float(np.sqrt(np.max(s)))
