import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from mqfb.gft import (
    DENSE_CAP_DEFAULT,
    DenseCapExceeded,
    FundamentalOperator,
    GftBasis,
    WrongInnerProduct,
    dense_spectral_filter,
    folded_basis,
    gft_forward,
    gft_inverse,
    mq_eigendecompose,
    spectrum_is_folded,
    spectrum_properties,
    verify_spectral_folding,
)
from mqfb.filterbank import Kernel, make_context
from mqfb.graphs import (
    Graph,
    Partition,
    bipartize,
    combinatorial_laplacian,
    normalized_laplacian,
    random_partition,
)
from mqfb.sparse_core import NotPositiveDefinite, SpdSolver, build_block_diag_q
from mqfb.synthetic import random_bipartite_graph, random_connected_graph


def triangle_laplacian():
    return sp.csr_array(np.array([[2.0, -1, -1], [-1, 2, -1], [-1, -1, 2]]))


def basis_for(m, p):
    q = build_block_diag_q(m, p)
    return mq_eigendecompose(m, q), q


class TestEigendecompose:
    def test_2x2_analytic(self):
        m = sp.csr_array(np.array([[1.0, -1], [-1, 1]]))
        b = mq_eigendecompose(m, sp.csr_array(sp.eye(2)))
        np.testing.assert_allclose(b.lam, [0, 2], atol=1e-12)
        s = 1 / np.sqrt(2)
        np.testing.assert_allclose(np.abs(b.u), [[s, s], [s, s]], atol=1e-12)

    def test_triangle_block_q_spectrum(self):
        p = Partition([1, -1, -1])
        b, _ = basis_for(triangle_laplacian(), p)
        np.testing.assert_allclose(b.lam, [0, 1, 2], atol=1e-10)

    def test_q_orthonormality_and_residual(self):
        g = random_connected_graph(80, seed=3)
        m = combinatorial_laplacian(g)
        p = random_partition(80, 3)
        b, q = basis_for(m, p)
        gram = b.u.T @ (q @ b.u)
        assert np.max(np.abs(gram - np.eye(80))) <= 1e-8
        scale = np.max(np.abs(m.toarray()))
        res = m.toarray() @ b.u - (q.toarray() @ b.u) * b.lam
        assert np.max(np.linalg.norm(res, axis=0)) <= 1e-8 * scale

    def test_bipartite_spectrum_symmetric_about_one(self):
        g, _ = random_bipartite_graph(40, seed=2)
        lam = mq_eigendecompose(
            normalized_laplacian(g), sp.csr_array(sp.eye(40))
        ).lam
        np.testing.assert_allclose(np.sort(lam), np.sort(2 - lam), atol=1e-8)

    def test_dense_cap(self):
        # the cap is checked before anything is densified
        m = sp.eye(DENSE_CAP_DEFAULT + 1, format="csr")
        with pytest.raises(DenseCapExceeded):
            mq_eigendecompose(m, m)


def sided_partition(n, n_a, seed):
    """Random partition with exactly n_a vertices on side A."""
    f = -np.ones(n, dtype=np.int8)
    f[np.random.default_rng(seed).permutation(n)[:n_a]] = 1
    return Partition(f)


def assert_folded_matches_generic(m, p, seed):
    ctx = make_context(m, p)
    q = ctx.q
    folded = ctx.basis
    generic = mq_eigendecompose(m, q)
    np.testing.assert_allclose(folded.lam, generic.lam, rtol=0, atol=1e-10)
    assert np.all(np.diff(folded.lam) >= 0)
    n = m.shape[0]
    md, qd, u = m.toarray(), q.toarray(), folded.u
    assert np.max(np.abs(u.T @ qd @ u - np.eye(n))) <= 1e-10
    assert np.max(np.abs(md @ u - (qd @ u) * folded.lam)) <= 1e-10
    x = np.random.default_rng(seed).standard_normal((n, 2))
    xhat = gft_forward(folded, x)
    expected = u.T @ (qd @ x)
    assert np.max(np.abs(xhat - expected)) <= 1e-12 * np.max(np.abs(expected))
    y = gft_inverse(folded, xhat)
    assert np.max(np.abs(y - u @ xhat)) <= 1e-12 * np.max(np.abs(y))
    assert np.linalg.norm(y - x) <= 1e-12 * np.linalg.norm(x)
    np.testing.assert_allclose(gft_forward(folded, x[:, 0]), xhat[:, 0],
                               rtol=0, atol=1e-12 * np.max(np.abs(xhat)))
    for name in ("cos_quarter", "sin_quarter"):
        k = Kernel(name=name)
        np.testing.assert_allclose(dense_spectral_filter(folded, k, x),
                                   dense_spectral_filter(generic, k, x),
                                   rtol=0, atol=1e-10 * np.max(np.abs(x)))
    return folded


class TestFoldedBasis:
    """A context's folded basis against the generic eigensolver."""

    @pytest.mark.parametrize("share", [0.7, 0.3, 0.5])
    def test_battery_both_laplacians(self, share):
        rng = np.random.default_rng(int(share * 10))
        for trial in range(8):
            n = 2 * int(rng.integers(5, 75))
            g = random_connected_graph(n, p=0.1, seed=trial)
            p = sided_partition(n, int(round(share * n)), trial)
            for lap in (combinatorial_laplacian, normalized_laplacian):
                b = assert_folded_matches_generic(lap(g), p, trial)
                assert spectrum_is_folded(b.lam)
                rep = spectrum_properties(b, p)
                assert rep["count_at_one"] >= rep["forced_one_multiplicity"]

    def test_bipartized_identity_q(self):
        for seed in range(4):
            g = random_connected_graph(60, p=0.15, seed=seed)
            p = random_partition(60, seed)
            m = normalized_laplacian(bipartize(g, p), allow_isolated=True)
            np.testing.assert_allclose(build_block_diag_q(m, p).toarray(),
                                       np.eye(60), atol=1e-14)
            assert_folded_matches_generic(m, p, seed)

    def test_passes_independent_folding_check(self):
        g = random_connected_graph(90, seed=5)
        m = combinatorial_laplacian(g)
        p = random_partition(90, 5)
        ctx = make_context(m, p)
        b = GftBasis(u=ctx.basis.u, lam=ctx.basis.lam, q=ctx.q)
        assert verify_spectral_folding(b, p, tol=1e-8, m=m)["passed"]

    def test_component_wholly_on_one_side_rejected(self):
        # weighted blocks: a singular one can factor with a roundoff pivot
        g1 = random_connected_graph(20, seed=31)
        g2 = random_connected_graph(12, seed=32)
        adj = sp.csr_array(sp.block_diag([g1.adjacency, g2.adjacency]))
        m = combinatorial_laplacian(Graph(adj))
        f = np.where(np.arange(32) % 2 == 0, 1, -1)
        f[20:] = 1
        for p in (Partition(f), Partition(-f)):
            a, b = p.a_idx, p.b_idx
            with pytest.raises(NotPositiveDefinite):
                folded_basis(a, b, m[a][:, a], m[b][:, a], m[b][:, b])
        f[20] = -1
        assert_folded_matches_generic(m, Partition(f), 0)


class TestSpectralFolding:
    def test_two_node_path(self):
        m = sp.csr_array(np.array([[1.0, -1], [-1, 1]]))
        p = Partition([1, -1])
        b, _ = basis_for(m, p)
        rep = verify_spectral_folding(b, p, m=m)
        assert rep["passed"]
        assert rep["max_residual"] <= 1e-12

    def test_triangle_hand_computation(self):
        # J[1,1,1] = [1,-1,-1]; L @ [1,-1,-1] = [4,-2,-2] = 2 * Q @ [1,-1,-1]
        m = triangle_laplacian()
        p = Partition([1, -1, -1])
        q = build_block_diag_q(m, p)
        v = np.array([1.0, -1, -1])
        np.testing.assert_allclose(m @ v, [4, -2, -2])
        np.testing.assert_allclose(m @ v, 2 * (q @ v))

    def test_random_graph_battery(self):
        rng = np.random.default_rng(0)
        for trial in range(30):
            n = int(rng.integers(10, 200))
            g = random_connected_graph(n, p=0.1, seed=trial)
            m = combinatorial_laplacian(g)
            p = random_partition(n, trial)
            b, _ = basis_for(m, p)
            rep = verify_spectral_folding(b, p, tol=1e-8, m=m)
            assert rep["passed"], rep["max_residual"]
            assert spectrum_is_folded(b.lam)

    def test_wrong_partition_size(self):
        m = triangle_laplacian()
        p = Partition([1, -1, -1])
        b, _ = basis_for(m, p)
        with pytest.raises(WrongInnerProduct):
            verify_spectral_folding(b, Partition([1, -1]))

    def test_folding_involution(self):
        g = random_connected_graph(30, seed=9)
        p = random_partition(30, 9)
        f = p.f.astype(float)
        b, _ = basis_for(combinatorial_laplacian(g), p)
        for k in range(30):
            np.testing.assert_allclose(f * (f * b.u[:, k]), b.u[:, k])
            assert abs((2 - (2 - b.lam[k])) - b.lam[k]) <= 1e-15


class TestSpectrumProperties:
    def test_unbalanced_forces_ones(self):
        n = 100
        g = random_connected_graph(n, seed=13)
        m = combinatorial_laplacian(g)
        f = np.full(n, -1)
        f[:70] = 1
        p = Partition(f)
        b, _ = basis_for(m, p)
        rep = spectrum_properties(b, p, m=m)
        assert rep["count_at_one"] >= 40
        assert rep["one_multiplicity_ok"]

    def test_balanced_path_no_forced_one(self):
        m = sp.csr_array(np.array([[1.0, -1], [-1, 1]]))
        p = Partition([1, -1])
        b, _ = basis_for(m, p)
        rep = spectrum_properties(b, p)
        assert rep["forced_one_multiplicity"] == 0

    def test_two_disjoint_triangles(self):
        tri = triangle_laplacian().toarray()
        m = sp.csr_array(scipy.linalg.block_diag(tri, tri))
        p = Partition([1, -1, -1, 1, -1, -1])
        b, _ = basis_for(m, p)
        rep = spectrum_properties(b, p, m=m)
        assert rep["components"] == 2
        assert rep["lambda_min_multiplicity"] == 2


class TestFundamentalOperator:
    def _setup(self, n=50, seed=21):
        g = random_connected_graph(n, seed=seed)
        m = combinatorial_laplacian(g)
        p = random_partition(n, seed)
        q = build_block_diag_q(m, p)
        return m, q, FundamentalOperator(m, SpdSolver(q))

    def test_constant_maps_to_zero(self):
        _, _, z = self._setup()
        assert np.max(np.abs(z.apply(np.ones(50)))) < 1e-12

    def test_eigenvector_action(self):
        m, q, z = self._setup()
        b = mq_eigendecompose(m, q)
        for k in (1, 10, 49):
            u = b.u[:, k]
            err = np.linalg.norm(z.apply(u) - b.lam[k] * u)
            assert err <= 1e-8 * np.linalg.norm(u)

    def test_bipartite_random_walk_laplacian(self):
        g, p = random_bipartite_graph(30, seed=4)
        lap = combinatorial_laplacian(g)
        q = build_block_diag_q(lap, p)
        # for bipartite graphs the block diagonal of L is D
        np.testing.assert_allclose(q.toarray(), np.diag(g.degrees), atol=1e-12)
        z = FundamentalOperator(lap, SpdSolver(q))
        x = np.random.default_rng(0).standard_normal(30)
        expected = (lap @ x) / g.degrees
        np.testing.assert_allclose(z.apply(x), expected, atol=1e-10)


class TestTransforms:
    def _basis(self, n=50, seed=17):
        g = random_connected_graph(n, seed=seed)
        m = combinatorial_laplacian(g)
        p = random_partition(n, seed)
        return basis_for(m, p)[0]

    def test_unit_vector_forward(self):
        b = self._basis()
        xhat = gft_forward(b, b.u[:, 7])
        e7 = np.zeros(50)
        e7[7] = 1
        np.testing.assert_allclose(xhat, e7, atol=1e-10)

    def test_roundtrip(self):
        b = self._basis()
        x = np.random.default_rng(1).standard_normal(50)
        err = np.linalg.norm(gft_inverse(b, gft_forward(b, x)) - x)
        assert err <= 1e-10 * np.linalg.norm(x)

    def test_parseval_q_norm(self):
        b = self._basis()
        x = np.random.default_rng(2).standard_normal(50)
        xhat = gft_forward(b, x)
        assert abs(xhat @ xhat - x @ (b.q @ x)) <= 1e-8 * (x @ (b.q @ x))


class TestDenseSpectralFilter:
    def _setup(self, n=40, seed=23):
        g = random_connected_graph(n, seed=seed)
        m = combinatorial_laplacian(g)
        p = random_partition(n, seed)
        b, q = basis_for(m, p)
        return m, q, b

    def test_constant_kernel_is_identity(self):
        _, _, b = self._setup()
        x = np.random.default_rng(0).standard_normal(40)
        np.testing.assert_allclose(
            dense_spectral_filter(b, lambda lam: np.ones_like(lam), x), x,
            atol=1e-10,
        )

    def test_lambda_kernel_matches_fundamental(self):
        m, q, b = self._setup()
        z = FundamentalOperator(m, SpdSolver(q))
        x = np.random.default_rng(1).standard_normal(40)
        y1 = dense_spectral_filter(b, lambda lam: lam, x)
        np.testing.assert_allclose(y1, z.apply(x), atol=1e-8)

    def test_projection_idempotent(self):
        _, _, b = self._setup()
        kern = lambda lam: (lam < 1.0).astype(float)
        x = np.random.default_rng(2).standard_normal(40)
        once = dense_spectral_filter(b, kern, x)
        twice = dense_spectral_filter(b, kern, once)
        np.testing.assert_allclose(twice, once, atol=1e-8)
