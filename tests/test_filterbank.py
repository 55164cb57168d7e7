import json
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from mqfb import filterbank as fb
from mqfb import multires
from mqfb.filterbank import (
    ChannelCoefficients,
    FilterBankSpec,
    Kernel,
    NotPolynomial,
    analyze,
    check_pr,
    check_q_orthogonality,
    frame_bounds,
    lazy_spec,
    make_context,
    orthogonal_cosine_spec,
    pr_conditions,
    synthesize,
    zero_dc_wrap,
)
from mqfb.graphs import (
    Graph,
    Operator,
    Partition,
    bipartize,
    combinatorial_laplacian,
    combinatorial_operator,
    knn_graph,
    meet_every_component,
    normalized_laplacian,
    normalized_operator,
    random_partition,
)
from mqfb.sparse_core import NotPositiveDefinite, build_block_diag_q
from mqfb.synthetic import (
    gaussian_blob_cloud,
    random_bipartite_graph,
    random_connected_graph,
)


def comb_context(n, seed, **kw):
    g = random_connected_graph(n, seed=seed)
    m = combinatorial_laplacian(g)
    p = random_partition(n, seed)
    return make_context(m, p, **kw)


def q_min_eigenvalue(m, p):
    return np.linalg.eigvalsh(build_block_diag_q(m, p).toarray()).min()


class TestLazySpec:
    def test_pr_identity_at_zero(self):
        s = lazy_spec()
        assert s.g0(0.0) * s.h0(0.0) + s.g1(0.0) * s.h1(0.0) == 2.0

    def test_alias_identity_everywhere(self):
        lam = np.linspace(0, 2, 101)
        _, e2 = pr_conditions(lazy_spec(), lam)
        np.testing.assert_allclose(e2, 0, atol=1e-14)

    def test_biorthogonality_identities(self):
        s = lazy_spec()
        lam = np.linspace(0, 2, 1001)
        np.testing.assert_allclose(s.h0(lam), s.g1(2 - lam), atol=1e-14)
        np.testing.assert_allclose(s.h1(lam), s.g0(2 - lam), atol=1e-14)


class TestOrthogonalCosineSpec:
    def test_endpoint_values(self):
        s = orthogonal_cosine_spec(mode="dense")
        assert s.h0(0.0) == pytest.approx(np.sqrt(2))
        assert s.h1(0.0) == pytest.approx(0.0, abs=1e-15)
        assert s.h0(2.0) == pytest.approx(0.0, abs=1e-15)
        assert s.h1(2.0) == pytest.approx(np.sqrt(2))

    def test_midpoint(self):
        s = orthogonal_cosine_spec()
        assert s.h0(1.0) == pytest.approx(1.0)
        assert s.h1(1.0) == pytest.approx(1.0)
        assert s.h0(1.0) ** 2 + s.h1(1.0) ** 2 == pytest.approx(2.0)

    def test_poly_kernels_match_closed_form(self):
        poly, dense = orthogonal_cosine_spec(), orthogonal_cosine_spec(mode="dense")
        assert poly.mode == "poly" and poly.h0.cheb is not None
        lam = np.linspace(0.0, 2.0, 2001)
        for k in ("h0", "h1", "g0", "g1"):
            err = np.abs(poly.kernels()[k](lam) - dense.kernels()[k](lam))
            assert np.max(err) <= 5e-15, k

    def test_poly_matches_dense(self):
        g = random_connected_graph(200, seed=24)
        m = combinatorial_laplacian(g)
        p = random_partition(200, 24)
        ctx = make_context(m, p)  # one context serves both specs
        poly, dense = orthogonal_cosine_spec(), orthogonal_cosine_spec(mode="dense")
        x = np.random.default_rng(24).standard_normal((200, 3))
        cp = analyze(poly, ctx, x)
        cd = analyze(dense, ctx, x)
        for got, want in ((cp.a, cd.a), (cp.d, cd.d)):
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        xp = synthesize(poly, ctx, cd)
        xd = synthesize(dense, ctx, cd)
        assert np.linalg.norm(xp - xd) <= 1e-12 * np.linalg.norm(xd)


class TestAnalyzeSynthesize:
    def test_lazy_low_channel_is_subsample(self):
        ctx = comb_context(30, 1)
        x = np.random.default_rng(0).standard_normal(30)
        c = analyze(lazy_spec(), ctx, x)
        np.testing.assert_array_equal(c.a, x[ctx.partition.a_idx])

    def test_constant_signal_zero_detail(self):
        ctx = comb_context(30, 2)
        c = analyze(lazy_spec(), ctx, np.ones(30))
        assert np.max(np.abs(c.d)) < 1e-12

    def test_modes_agree_on_polynomial_spec(self):
        # a poly spec and its dense twin on one context
        g = random_connected_graph(60, seed=3)
        m = combinatorial_laplacian(g)
        p = random_partition(60, 3)
        ctx = make_context(m, p)
        x = np.random.default_rng(1).standard_normal(60)
        cd = analyze(lazy_spec(mode="dense"), ctx, x)
        cp = analyze(lazy_spec(), ctx, x)
        np.testing.assert_allclose(cd.a, cp.a, rtol=0, atol=1e-9)
        np.testing.assert_allclose(cd.d, cp.d, rtol=0, atol=1e-9)
        np.testing.assert_allclose(synthesize(lazy_spec(mode="dense"), ctx, cp),
                                   synthesize(lazy_spec(), ctx, cp),
                                   rtol=0, atol=1e-9)

    def test_zero_coefficients_zero_signal(self):
        ctx = comb_context(20, 4)
        na = ctx.partition.a_idx.size
        c = ChannelCoefficients(a=np.zeros(na), d=np.zeros(20 - na))
        assert np.max(np.abs(synthesize(lazy_spec(), ctx, c))) == 0.0

    def test_lazy_roundtrip_sparse_path(self):
        ctx = comb_context(500, 5)
        x = np.random.default_rng(2).standard_normal(500)
        xr = synthesize(lazy_spec(), ctx, analyze(lazy_spec(), ctx, x))
        assert np.linalg.norm(xr - x) <= 1e-8 * np.linalg.norm(x)

    def test_ortho_roundtrip_dense_path(self):
        ctx = comb_context(200, 6)
        spec = orthogonal_cosine_spec(mode="dense")
        x = np.random.default_rng(3).standard_normal(200)
        xr = synthesize(spec, ctx, analyze(spec, ctx, x))
        assert np.linalg.norm(xr - x) <= 1e-8 * np.linalg.norm(x)

    def test_critical_sampling(self):
        for n, seed in [(30, 1), (75, 2), (120, 3)]:
            ctx = comb_context(n, seed)
            c = analyze(lazy_spec(), ctx, np.random.default_rng(seed).standard_normal(n))
            assert c.a.shape[0] + c.d.shape[0] == n

    def test_multichannel_signals(self):
        ctx = comb_context(40, 7)
        x = np.random.default_rng(4).standard_normal((40, 3))
        xr = synthesize(lazy_spec(), ctx, analyze(lazy_spec(), ctx, x))
        np.testing.assert_allclose(xr, x, atol=1e-10)


class TestLifting:
    def test_matches_dense_lazy_bank(self):
        for n, seed in [(30, 1), (60, 3), (75, 2), (120, 3)]:
            ctx = comb_context(n, seed)
            x = np.random.default_rng(seed).standard_normal((n, 2))
            cp = analyze(lazy_spec(), ctx, x)
            # the degree-1 recurrence is the lifting step: M_AA unfactored
            assert "solver_a" not in vars(ctx)
            cd = analyze(lazy_spec(mode="dense"), ctx, x)
            np.testing.assert_allclose(cp.a, cd.a, atol=1e-10)
            np.testing.assert_allclose(cp.d, cd.d, atol=1e-10)
            np.testing.assert_allclose(synthesize(lazy_spec(), ctx, cd),
                                       synthesize(lazy_spec(mode="dense"),
                                                  ctx, cd),
                                       atol=1e-10)

    def test_lazy_kernels_factor_only_m_bb(self, monkeypatch):
        """The lazy bank and a custom spec with its kernels both take the
        lifting step, building one SpdSolver (M_BB) per context across
        analysis and synthesis, with bit-identical outputs."""
        built = []
        real = fb.SpdSolver

        def counting(a, *args, **kwargs):
            built.append(a.shape)
            return real(a, *args, **kwargs)

        monkeypatch.setattr(fb, "SpdSolver", counting)
        lazy = lazy_spec()
        custom = FilterBankSpec(h0=lazy.h0, h1=lazy.h1, g0=lazy.g0, g1=lazy.g1)
        assert custom.family == "custom"
        x = np.random.default_rng(23).standard_normal((200, 3))
        outs = []
        for spec in (lazy, custom):
            built.clear()
            ctx = comb_context(200, 23)
            c = analyze(spec, ctx, x)
            outs.append((c.a, c.d, synthesize(spec, ctx, c)))
            nb = ctx.partition.b_idx.size
            assert built == [(nb, nb)]
        for u, v in zip(*outs):
            np.testing.assert_array_equal(u, v)

    def test_pipeline_factors_only_b_blocks(self, monkeypatch):
        shapes = []
        splu = spla.splu

        def counting(a, *args, **kwargs):
            shapes.append(a.shape)
            return splu(a, *args, **kwargs)

        monkeypatch.setattr(spla, "splu", counting)
        pc = gaussian_blob_cloud(20_000, seed=0)
        tree = multires.decompose(pc, lazy_spec(), k=5, levels=5, seed=0)
        b_sizes = [(lv.details.shape[0],) * 2 for lv in tree.levels]
        assert len(b_sizes) == 5
        assert shapes == b_sizes
        shapes.clear()
        rec = multires.reconstruct(tree)
        assert shapes == b_sizes[::-1]
        rel = np.linalg.norm(rec - pc.attributes) / np.linalg.norm(pc.attributes)
        assert rel <= 1e-10

    def test_custom_kernels_solve_q_by_blocks(self, monkeypatch):
        import mqfb.filterbank as fbm

        def no_q(*args, **kwargs):
            raise AssertionError("the n x n Q was assembled")

        shapes = []
        splu = spla.splu

        def counting(a, *args, **kwargs):
            shapes.append(a.shape)
            return splu(a, *args, **kwargs)

        g = random_connected_graph(120, seed=23)
        m = combinatorial_laplacian(g)
        p = random_partition(120, 23)
        monkeypatch.setattr(fbm, "build_block_diag_q", no_q)
        monkeypatch.setattr(spla, "splu", counting)
        ctx = make_context(m, p)
        custom = FilterBankSpec(h0=Kernel(coeffs=(1.0, 0.5)),
                                h1=Kernel(coeffs=(0.0, 1.0, -0.25)),
                                g0=Kernel(coeffs=(2.0, -1.0)),
                                g1=Kernel(coeffs=(1.0,)))
        x = np.random.default_rng(23).standard_normal((120, 2))
        cp = analyze(custom, ctx, x)
        na, nb = p.a_idx.size, p.b_idx.size
        assert sorted(shapes) == sorted([(nb, nb), (na, na)])
        dense = replace(custom, mode="dense")  # its twin on the same context
        cd = analyze(dense, ctx, x)
        np.testing.assert_allclose(cp.a, cd.a, rtol=0, atol=1e-9)
        np.testing.assert_allclose(cp.d, cd.d, rtol=0, atol=1e-9)
        np.testing.assert_allclose(synthesize(custom, ctx, cp),
                                   synthesize(dense, ctx, cp),
                                   rtol=0, atol=1e-9)

    def test_component_wholly_on_a_rejected(self):
        # two disjoint connected graphs; the second lies entirely on side A
        g1 = random_connected_graph(20, seed=31)
        g2 = random_connected_graph(12, seed=32)
        adj = sp.csr_array(sp.block_diag([g1.adjacency, g2.adjacency]))
        m = combinatorial_laplacian(Graph(adj))
        f = np.where(np.arange(32) % 2 == 0, 1, -1)
        f[20:] = 1
        p = Partition(f)
        assert q_min_eigenvalue(m, p) < 1e-10
        with pytest.raises(NotPositiveDefinite):
            make_context(m, p)
        with pytest.raises(NotPositiveDefinite):
            make_context(m, Partition(-f))
        f[20] = -1  # one vertex of the second graph on B makes Q > 0
        make_context(m, Partition(f))

    def test_acceptance_matches_q_definiteness(self):
        # many small components: random partitions often strand one
        rng = np.random.default_rng(41)
        blocks = [random_connected_graph(int(rng.integers(2, 6)), seed=s).adjacency
                  for s in range(12)]
        m = combinatorial_laplacian(Graph(sp.csr_array(sp.block_diag(blocks))))
        n = m.shape[0]
        outcomes = set()
        for seed in range(40):
            p = random_partition(n, seed)
            pd = q_min_eigenvalue(m, p) > 1e-10
            try:
                make_context(m, p)
                accepted = True
            except NotPositiveDefinite:
                accepted = False
            assert accepted == pd
            outcomes.add(accepted)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("form", ["operator", "matrix"])
    def test_acceptance_matches_q_definiteness_normalized(self, form):
        # the normalized M_AA is congruent to the combinatorial one, so the
        # operator's A block is decided by the same test, with no factor
        rng = np.random.default_rng(41)
        blocks = [random_connected_graph(int(rng.integers(2, 6)), seed=s).adjacency
                  for s in range(12)]
        g = Graph(sp.csr_array(sp.block_diag(blocks)))
        m = normalized_laplacian(g)
        op = normalized_operator(g) if form == "operator" else m
        outcomes = set()
        for seed in range(40):
            p = random_partition(g.n, seed)
            pd = q_min_eigenvalue(m, p) > 1e-10
            try:
                ctx = make_context(op, p)
                accepted = True
            except NotPositiveDefinite:
                accepted = False
            assert accepted == pd
            if accepted and form == "operator":
                assert "solver_a" not in vars(ctx)
            outcomes.add(accepted)
        assert outcomes == {True, False}


@pytest.fixture(scope="module")
def graph_20k():
    """The level-0 KNN graph of a 20k cloud and its repaired partition."""
    g = knn_graph(gaussian_blob_cloud(20_000, seed=0), 5)
    return g, meet_every_component(random_partition(g.n, 0), g.meta["labels"])


@pytest.mark.parametrize("name", ["comb", "norm", "bipartized-norm"])
def test_blocks_from_the_graph_equal_laplacian_slices(graph_20k, name,
                                                      monkeypatch):
    """M_BA, M_BB and the ortho bank's M_AA, cut from W, are bit-equal to
    the blocks cut from the assembled Laplacian: the CSR M_BA the context
    keeps, and the CSC blocks SpdSolver factors."""
    g, p = graph_20k
    if name == "comb":
        op, lap = combinatorial_operator(g), combinatorial_laplacian(g)
    else:
        if name == "bipartized-norm":
            g = bipartize(g, p)
        op = normalized_operator(g, allow_isolated=True)
        lap = normalized_laplacian(g, allow_isolated=True)
    factored = []
    real = fb.SpdSolver

    def recording(matrix, ordered=False):
        factored.append(matrix)
        return real(matrix, ordered=ordered)

    monkeypatch.setattr(fb, "SpdSolver", recording)
    ctx = make_context(op, p)
    ctx.solver_a
    a, b = p.a_idx, p.b_idx
    want = [sp.csr_array(lap[b][:, a]), sp.csc_array(lap[b][:, b]),
            sp.csc_array(lap[a][:, a])]
    for got, ref in zip([ctx.m_ba] + factored, want, strict=True):
        assert got.format == ref.format
        for attr in ("indptr", "indices", "data"):
            x, y = getattr(got, attr), getattr(ref, attr)
            assert x.dtype == y.dtype and np.array_equal(x, y), attr


@pytest.mark.parametrize("mode", ["dense", "poly"])
@pytest.mark.parametrize("laplacian", [combinatorial_laplacian,
                                       normalized_laplacian])
def test_a_plain_matrix_context_holds_the_input(mode, laplacian):
    """A plain matrix is split into an Operator, whose assembly ``ctx.m``
    and block-diagonal ``ctx.q`` have the input's values, also after a
    filter in either mode has run on the context."""
    g = random_connected_graph(40, seed=3)
    m, p = laplacian(g), random_partition(40, 3)
    ctx = make_context(m, p)
    analyze(lazy_spec(mode), ctx, np.ones(40))
    assert isinstance(ctx.operator, Operator)
    np.testing.assert_array_equal(ctx.m.toarray(), m.toarray())
    np.testing.assert_array_equal(ctx.q.toarray(),
                                  build_block_diag_q(m, p).toarray())


@pytest.mark.parametrize("operator", ["matrix", "operator"])
def test_a_context_built_the_public_way_filters(operator):
    """``mqfb.FilterContext(m, partition)`` is a whole context: a poly and a
    dense spec both reconstruct through it, and it equals make_context's."""
    import mqfb

    g = random_connected_graph(30, seed=5)
    m = (combinatorial_laplacian(g) if operator == "matrix"
         else combinatorial_operator(g))
    p = random_partition(30, 5)
    ctx, ref = mqfb.FilterContext(m, p), make_context(m, p)
    x = np.random.default_rng(5).standard_normal((30, 2))
    for spec in (lazy_spec(), orthogonal_cosine_spec(mode="dense")):
        coeffs = analyze(spec, ctx, x)
        want = analyze(spec, ref, x)
        np.testing.assert_array_equal(coeffs.a, want.a)
        np.testing.assert_array_equal(coeffs.d, want.d)
        np.testing.assert_allclose(synthesize(spec, ctx, coeffs), x,
                                   rtol=0, atol=1e-10)


@pytest.mark.parametrize("spec", [lazy_spec(), orthogonal_cosine_spec()],
                         ids=["lazy", "ortho-poly"])
def test_an_elimination_order_cuts_m_bb_in_that_order(graph_20k, spec):
    """A context given M_BB's elimination order cuts M_BA and M_BB in that
    order and factors with the same fill and no order of its own, while
    analyze and synthesize keep the details in b_idx order."""
    g, p = graph_20k
    op, lap = combinatorial_operator(g), combinatorial_laplacian(g)
    first = make_context(op, p)
    order = first.solver_b.order
    ctx = make_context(op, p, order_b=order)
    b, a = p.b_idx[order], p.a_idx
    np.testing.assert_array_equal(ctx.b_rows, b)
    assert abs(ctx.m_ba - sp.csr_array(lap[b][:, a])).max() == 0
    assert ctx.solver_b.order is None
    assert ctx.solver_b._lu.nnz == first.solver_b._lu.nnz
    x = np.random.default_rng(0).standard_normal((g.n, 3))
    got, want = analyze(spec, ctx, x), analyze(spec, first, x)
    np.testing.assert_allclose(got.a, want.a, rtol=0, atol=1e-12)
    np.testing.assert_allclose(got.d, want.d, rtol=0, atol=1e-12)
    for c in (got, fb.ChannelCoefficients(a=got.a, d=np.zeros_like(got.d))):
        np.testing.assert_allclose(synthesize(spec, ctx, c),
                                   synthesize(spec, first, c),
                                   rtol=0, atol=1e-11)
    np.testing.assert_allclose(synthesize(spec, ctx, got), x,
                               rtol=0, atol=1e-11)


class TestCheckPr:
    def test_lazy_passes(self):
        ctx = comb_context(50, 8)
        rep = check_pr(lazy_spec(mode="dense"), ctx)
        assert rep["passed"]
        assert rep["max_identity_violation"] <= 1e-12
        assert rep["spectrum"] == "computed"

    def test_poly_context_checks_on_the_grid(self, monkeypatch):
        def no_eigh(*args, **kwargs):
            raise AssertionError("check_pr built an eigendecomposition")

        monkeypatch.setattr(fb, "mq_eigendecompose", no_eigh)
        ctx = comb_context(60, 8)
        for spec in (lazy_spec(), orthogonal_cosine_spec()):
            rep = check_pr(spec, ctx, trials=2)
            assert rep["spectrum"] == "grid"
            assert rep["passed"], rep

    def test_grid_reported_past_dense_cap(self):
        ctx = comb_context(2100, 22)
        rep = check_pr(lazy_spec(), ctx, trials=2)
        assert rep["spectrum"] == "grid"
        assert rep["passed"]

    def test_broken_spec_detected(self):
        broken = FilterBankSpec(
            h0=Kernel(coeffs=(1.0,)),
            h1=Kernel(coeffs=(0.0, 1.0)),
            g0=Kernel(coeffs=(2.1, -1.0)),  # 2 - lam + 0.1
            g1=Kernel(coeffs=(1.0,)),
            mode="dense",
        )
        ctx = comb_context(50, 9)
        rep = check_pr(broken, ctx)
        assert not rep["passed"]
        assert rep["max_identity_violation"] == pytest.approx(0.1, rel=1e-6)

    def test_ortho_passes_many_graphs(self):
        spec = orthogonal_cosine_spec(mode="dense")
        for seed in range(20):
            ctx = comb_context(40, seed + 50)
            rep = check_pr(spec, ctx, trials=3)
            assert rep["passed"], rep

    def test_pr_iff_roundtrip(self):
        # a spec violating the spectral identities must fail the round trip too
        rng = np.random.default_rng(11)
        for seed in range(5):
            coeffs = {
                k: Kernel(coeffs=tuple(rng.uniform(-1, 1, 2)))
                for k in ("h0", "h1", "g0", "g1")
            }
            spec = FilterBankSpec(**coeffs, mode="dense")
            ctx = comb_context(60, seed + 200)
            rep = check_pr(spec, ctx, trials=5)
            analytic_ok = (rep["max_identity_violation"] <= 1e-8
                           and rep["max_alias_violation"] <= 1e-8)
            roundtrip_ok = rep["max_roundtrip_rel_error"] <= 1e-8
            assert analytic_ok == roundtrip_ok


class TestQOrthogonality:
    def test_ortho_on_bipartite_identity_q(self):
        g, p = random_bipartite_graph(40, seed=5)
        ctx = make_context(normalized_laplacian(g), p)
        np.testing.assert_allclose(ctx.q.toarray(), np.eye(40), atol=1e-12)
        rep = check_q_orthogonality(orthogonal_cosine_spec(mode="dense"), ctx)
        assert rep["passed"]

    def test_ortho_on_arbitrary_graph(self):
        ctx = comb_context(60, 12)
        rep = check_q_orthogonality(orthogonal_cosine_spec(mode="dense"), ctx)
        assert rep["passed"]

    def test_lazy_fails_within_frame_bounds(self):
        ctx = comb_context(60, 13)
        lazy = lazy_spec(mode="dense")
        rep = check_q_orthogonality(lazy, ctx)
        assert not rep["passed"]
        alpha, beta = frame_bounds(lazy)
        # norm ratios stay inside the frame-bound interval
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.standard_normal(60)
            c = analyze(lazy, ctx, x)
            from mqfb.filterbank import coeff_q_inner, q_inner

            ratio = np.sqrt(coeff_q_inner(ctx, c, c) / q_inner(ctx.q, x, x))
            assert alpha - 1e-6 <= ratio <= beta + 1e-6

    def test_q_inner_rejects_a_mismatched_length(self):
        ctx = comb_context(20, 12)
        with pytest.raises(ValueError):
            fb.q_inner(ctx.q, np.ones(21), np.ones(20))

    def test_orthogonal_implies_pr(self):
        spec = orthogonal_cosine_spec(mode="dense")
        for seed in range(5):
            ctx = comb_context(50, seed + 300)
            if check_q_orthogonality(spec, ctx)["passed"]:
                assert check_pr(spec, ctx, trials=3)["passed"]


class TestFrameBounds:
    def test_orthogonal_cosine_tight(self):
        alpha, beta = frame_bounds(orthogonal_cosine_spec())
        assert alpha == pytest.approx(1.0, abs=1e-9)
        assert beta == pytest.approx(1.0, abs=1e-9)

    def test_lazy_closed_form(self):
        alpha, beta = frame_bounds(lazy_spec())
        assert alpha**2 == pytest.approx(0.5, abs=1e-6)
        assert beta**2 == pytest.approx(2.5, abs=1e-6)

    def test_constant_kernels(self):
        spec = FilterBankSpec(
            h0=Kernel(coeffs=(1.0,)), h1=Kernel(coeffs=(1.0,)),
            g0=Kernel(coeffs=(1.0,)), g1=Kernel(coeffs=(1.0,)),
        )
        alpha, beta = frame_bounds(spec)
        assert alpha == pytest.approx(1.0)
        assert beta == pytest.approx(1.0)


class TestZeroDc:
    def test_constant_input_zero_detail_bipartite(self):
        # bipartite, M = L gives Q = D and Z = random-walk Laplacian, so the
        # plain lazy bank already kills constants in the high-pass channel
        g, p = random_bipartite_graph(40, seed=6)
        lap = combinatorial_laplacian(g)
        ctx = make_context(lap, p)
        c = analyze(lazy_spec(), ctx, np.ones(40))
        assert np.max(np.abs(c.d)) <= 1e-10

    def test_wrapped_normalized_bank_zero_detail(self):
        # the degrees come from the operator, so the bank is given
        # normalized_operator(g), not the assembled Laplacian
        g, p = random_bipartite_graph(40, seed=16)
        ctx = make_context(normalized_operator(g), p)
        c = analyze(zero_dc_wrap(lazy_spec()), ctx, np.ones(40))
        assert np.max(np.abs(c.d)) <= 1e-10

    def test_wrapped_roundtrip(self):
        ctx = comb_context(80, 14)
        spec = zero_dc_wrap(lazy_spec())
        x = np.random.default_rng(5).standard_normal(80)
        xr = synthesize(spec, ctx, analyze(spec, ctx, x))
        assert np.linalg.norm(xr - x) <= 1e-8 * np.linalg.norm(x)

    @staticmethod
    def z_times(ctx, x):
        """Z x from the poly context: with h0 = h1 = Z, analyze returns
        a = (Z x)_A and d = (Z x)_B."""
        z = Kernel(coeffs=(0.0, 1.0))
        c = analyze(FilterBankSpec(h0=z, h1=z, g0=z, g1=z), ctx, x)
        zx = np.empty(ctx.n)
        zx[ctx.partition.a_idx], zx[ctx.partition.b_idx] = c.a, c.d
        return zx

    def test_bipartite_fundamental_is_random_walk(self):
        g, p = random_bipartite_graph(30, seed=7)
        lap = combinatorial_laplacian(g)
        ctx = make_context(lap, p)
        x = np.random.default_rng(6).standard_normal(30)
        zx = self.z_times(ctx, x)
        np.testing.assert_allclose(zx, (lap @ x) / g.degrees, atol=1e-10)

    def test_wrapped_normalized_operator_is_random_walk(self):
        # D^{-1/2} (normalized Laplacian) D^{1/2} == D^{-1} L
        g, p = random_bipartite_graph(30, seed=17)
        d = g.degrees
        ctx = make_context(normalized_laplacian(g), p)
        lap = combinatorial_laplacian(g)
        x = np.random.default_rng(7).standard_normal(30)
        wrapped = self.z_times(ctx, np.sqrt(d) * x) / np.sqrt(d)
        np.testing.assert_allclose(wrapped, (lap @ x) / d, atol=1e-10)

    @pytest.mark.parametrize("mode", ["poly", "dense"])
    def test_low_pass_in_signal_domain(self, mode):
        # the lazy low-pass is the identity on A, and a comes back unscaled
        ctx = comb_context(60, 18)
        x = np.random.default_rng(8).standard_normal((60, 3))
        a = analyze(zero_dc_wrap(lazy_spec(mode)), ctx, x).a
        want = x[ctx.partition.a_idx]
        assert np.linalg.norm(a - want) <= 1e-12 * np.linalg.norm(want)

    def test_negative_degree_raises(self):
        # the degrees zero-DC scales by are M's diagonal, so a negative one
        # is rejected with its block before any filter runs
        g = random_connected_graph(20, seed=9)
        p = random_partition(20, 9)
        d = g.degrees.copy()
        d[3] = -1.0
        block = "M_AA" if p.f[3] == 1 else "M_BB"
        with pytest.raises(NotPositiveDefinite, match=block):
            make_context(Operator(d, g.adjacency), p)


class TestSpecSerialization:
    def test_named_families_roundtrip(self):
        for spec in (lazy_spec(), orthogonal_cosine_spec()):
            back = FilterBankSpec.from_json(spec.to_json())
            assert back.family == spec.family
            assert back.mode == spec.mode

    def test_custom_polynomial_roundtrip(self):
        spec = FilterBankSpec(
            h0=Kernel(coeffs=(1.0, 0.5)), h1=Kernel(coeffs=(0.0, 1.0)),
            g0=Kernel(coeffs=(2.0, -1.0)), g1=Kernel(coeffs=(1.0,)),
        )
        back = FilterBankSpec.from_json(spec.to_json())
        lam = np.linspace(0, 2, 11)
        for k in ("h0", "h1", "g0", "g1"):
            np.testing.assert_allclose(
                back.kernels()[k](lam), spec.kernels()[k](lam)
            )

    def test_custom_chebyshev_roundtrip(self):
        ortho = orthogonal_cosine_spec()
        spec = FilterBankSpec(h0=ortho.h0, h1=Kernel(cheb=(0.5, -0.25, 0.125)),
                              g0=ortho.g0, g1=Kernel(coeffs=(1.0, 2.0)))
        back = FilterBankSpec.from_json(spec.to_json())
        assert back == spec

    @pytest.mark.parametrize("base", [
        lazy_spec(), orthogonal_cosine_spec(mode="dense"),
        FilterBankSpec(h0=Kernel(coeffs=(1.0, 0.5)),
                       h1=Kernel(cheb=(0.0, 1.0)),
                       g0=Kernel(coeffs=(2.0, -1.0)),
                       g1=Kernel(name="cos_quarter"), mode="dense"),
    ], ids=["lazy", "ortho-dense", "custom"])
    def test_zero_dc_spec_roundtrip(self, base):
        spec = zero_dc_wrap(base)
        assert spec.zero_dc and not base.zero_dc
        assert json.loads(spec.to_json())["zero_dc"] is True
        assert "zero_dc" not in json.loads(base.to_json())
        assert FilterBankSpec.from_json(spec.to_json()) == spec
        assert FilterBankSpec.from_json(base.to_json()) == base

    def test_monomials_are_converted_to_their_chebyshev_series(self):
        # with lam = 1 + t, 2 - lam + 3 lam^2 = 4 + 5 t + 3 t^2, which is
        # 5.5 T0 + 5 T1 + 1.5 T2
        k = Kernel(coeffs=[2.0, -1.0, 3.0])
        assert k == Kernel(cheb=(5.5, 5.0, 1.5))
        assert k.to_json() == {"cheb": [5.5, 5.0, 1.5]}
        lam = np.linspace(0.0, 2.0, 9)
        np.testing.assert_allclose(k(lam), 2.0 - lam + 3.0 * lam**2,
                                   rtol=0, atol=1e-13)

    def test_an_empty_series_is_rejected(self):
        # a spec read from JSON with an empty list used to reach analyze
        # and fail there with an IndexError
        for text in ('{"cheb": []}', '[]'):
            with pytest.raises(ValueError):
                Kernel.from_json(json.loads(text))

    def test_a_list_form_custom_kernel_still_loads(self):
        text = json.dumps({"family": "custom", "mode": "poly", "kernels": {
            "h0": [1.0], "h1": [0.0, 1.0], "g0": [2.0, -1.0], "g1": [1.0]}})
        spec = FilterBankSpec.from_json(text)
        lazy = lazy_spec()
        for name in ("h0", "h1", "g0", "g1"):
            assert spec.kernels()[name] == lazy.kernels()[name]

    def test_poly_mode_requires_polynomials(self):
        with pytest.raises(NotPolynomial):
            FilterBankSpec(
                h0=Kernel(name="cos_quarter"), h1=Kernel(name="sin_quarter"),
                g0=Kernel(name="cos_quarter"), g1=Kernel(name="sin_quarter"),
                mode="poly",
            )
