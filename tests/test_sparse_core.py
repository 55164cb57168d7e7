import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from mqfb.filterbank import make_context
from mqfb.sparse_core import (
    NotPositiveDefinite,
    SpdSolver,
    build_block_diag_q,
    check_positive_definite,
    load_matrix_market,
    save_matrix_market,
)
from mqfb.graphs import (
    Partition,
    combinatorial_laplacian,
    knn_graph,
    meet_every_component,
    random_partition,
)
from mqfb.synthetic import gaussian_blob_cloud, random_connected_graph


def triangle_laplacian():
    return sp.csr_array(np.array([[2.0, -1, -1], [-1, 2, -1], [-1, -1, 2]]))


class TestExtractPrincipalBlock:
    def test_preserves_symmetry_and_psd(self):
        rng = np.random.default_rng(5)
        for seed in range(10):
            n = int(rng.integers(20, 200))
            g = random_connected_graph(n, seed=seed)
            m = combinatorial_laplacian(g)
            s = rng.choice(n, size=max(2, n // 3), replace=False)
            block = m[s][:, s]
            assert (block != block.T).nnz == 0
            dense = block.toarray()
            w = np.linalg.eigvalsh(dense)
            assert w[0] >= -1e-10 * np.max(np.abs(dense))


class TestBuildBlockDiagQ:
    def test_triangle(self):
        p = Partition([1, -1, -1])
        q = build_block_diag_q(triangle_laplacian(), p)
        np.testing.assert_allclose(
            q.toarray(), [[2, 0, 0], [0, 2, -1], [0, -1, 2]]
        )

    def test_two_node_path(self):
        m = sp.csr_array(np.array([[1.0, -1], [-1, 1]]))
        q = build_block_diag_q(m, Partition([1, -1]))
        np.testing.assert_allclose(q.toarray(), np.eye(2))

    def test_bipartite_normalized_gives_identity(self):
        from mqfb.graphs import normalized_laplacian
        from mqfb.synthetic import random_bipartite_graph

        g, p = random_bipartite_graph(30, seed=3)
        q = build_block_diag_q(normalized_laplacian(g), p)
        np.testing.assert_allclose(q.toarray(), np.eye(30), atol=1e-12)

    def test_symmetric_same_size(self):
        g = random_connected_graph(50, seed=9)
        m = combinatorial_laplacian(g)
        p = Partition(np.where(np.arange(50) % 3 == 0, 1, -1))
        q = build_block_diag_q(m, p)
        assert q.shape == m.shape
        assert (q != q.T).nnz == 0


class TestSpdSolve:
    def test_identity(self):
        solver = SpdSolver(sp.eye(5).tocsc())
        y = np.arange(5.0)
        np.testing.assert_allclose(solver.solve(y), y)

    def test_row_sum_one_matrix(self):
        solver = SpdSolver(sp.csc_array(np.array([[2.0, -1], [-1, 2]])))
        np.testing.assert_allclose(solver.solve(np.array([1.0, 1.0])), [1, 1])

    def test_matches_dense_oracle(self):
        g = random_connected_graph(50, seed=11)
        m = combinatorial_laplacian(g)
        p = Partition(np.where(np.random.default_rng(1).random(50) < 0.5, 1, -1))
        q = build_block_diag_q(m, p)
        rng = np.random.default_rng(2)
        y = rng.standard_normal(50)
        expected = np.linalg.solve(q.toarray(), y)
        z = SpdSolver(q).solve(y)
        assert np.linalg.norm(z - expected) <= 1e-10 * np.linalg.norm(expected)

    def test_not_positive_definite(self):
        g = random_connected_graph(20, seed=4)
        m = combinatorial_laplacian(g)  # singular: nullspace of constants
        with pytest.raises(NotPositiveDefinite):
            SpdSolver(m)

    def test_indefinite_diagonal(self):
        with pytest.raises(NotPositiveDefinite):
            SpdSolver(sp.diags([1.0, -1.0]).tocsc())

    def test_roundtrip_with_spmv(self):
        rng = np.random.default_rng(6)
        for seed in range(5):
            n = int(rng.integers(50, 1000))
            g = random_connected_graph(n, seed=seed + 100)
            m = combinatorial_laplacian(g)
            f = np.where(rng.random(n) < 0.5, 1, -1)
            if np.all(f == f[0]):
                f[0] = -f[0]
            q = build_block_diag_q(m, Partition(f))
            solver = SpdSolver(q)
            x = rng.standard_normal(n)
            err = np.linalg.norm(solver.solve(q @ x) - x)
            assert err <= 1e-9 * np.linalg.norm(x)

    def test_rhs_dim_mismatch(self):
        solver = SpdSolver(sp.eye(4).tocsc())
        with pytest.raises(ValueError):
            solver.solve(np.ones(5))


class TestSpdSolverAtScale:
    """SpdSolver on a 20k-point level against SuperLU's default panels."""

    @pytest.fixture(scope="class")
    def level(self):
        g = knn_graph(gaussian_blob_cloud(20_000, seed=0), 5)
        labels = g.meta["labels"]
        p = meet_every_component(random_partition(g.n, 0), labels)
        return combinatorial_laplacian(g), p, labels

    def test_matches_default_panel_factor(self, level):
        m, p, _ = level
        m_bb = sp.csc_array(m[p.b_idx][:, p.b_idx])
        solver = SpdSolver(m_bb)
        panels = spla.splu(m_bb, diag_pivot_thresh=0.0,
                           permc_spec="MMD_AT_PLUS_A",
                           options=dict(SymmetricMode=True))
        fill = solver._lu.L.nnz + solver._lu.U.nnz
        assert fill == panels.L.nnz + panels.U.nnz
        y = np.random.default_rng(0).standard_normal((m_bb.shape[0], 3))
        z = solver.solve(y)
        ref = panels.solve(y)
        assert np.linalg.norm(z - ref) <= 1e-13 * np.linalg.norm(ref)
        assert np.linalg.norm(m_bb @ z - y) <= 1e-14 * np.linalg.norm(y)

    def test_whole_component_block_is_singular(self, level):
        m, _, labels = level
        whole = np.flatnonzero(labels == np.argmax(np.bincount(labels)))
        block = m[whole][:, whole]
        assert block.shape[0] > 5000
        with pytest.raises(NotPositiveDefinite):
            SpdSolver(block)


class TestCheckPositiveDefinite:
    def test_laplacian_blocks_agree_with_eigenvalues(self):
        rng = np.random.default_rng(3)
        # a path 0-1-2 plus an isolated edge 3-4 as separate components
        w = sp.csr_array(sp.block_diag([
            sp.csr_array(np.array([[0, 1.0, 0], [1, 0, 2], [0, 2, 0]])),
            sp.csr_array(np.array([[0, 3.0], [3, 0]])),
        ]))
        d = w.sum(axis=1)
        lap = sp.csr_array(sp.diags(d) - w)
        for _ in range(30):
            s = np.flatnonzero(rng.random(5) < 0.6)
            if s.size == 0:
                continue
            block = lap[s][:, s]
            pd = np.linalg.eigvalsh(block.toarray()).min() > 1e-12
            if pd:
                assert check_positive_definite(d[s], w[s][:, s]) is True
            else:
                with pytest.raises(NotPositiveDefinite):
                    check_positive_definite(d[s], w[s][:, s])

    def test_diagonal(self):
        assert check_positive_definite(np.array([1.0, 2.0]),
                                       sp.csr_array((2, 2))) is True
        with pytest.raises(NotPositiveDefinite):
            check_positive_definite(np.array([1.0, 0.0]), sp.csr_array((2, 2)))

    def test_other_structure_is_factored(self):
        # positive off-diagonals: not a Laplacian block, so the structure
        # does not decide, and make_context factors such an M_AA instead
        w = sp.csr_array(np.array([[0, -0.9], [-0.9, 0]]))
        assert check_positive_definite(np.ones(2), w) is False
        m = np.array([[1.0, 0.9, -0.1], [0.9, 1, -0.1], [-0.1, -0.1, 1]])
        p = Partition([1, 1, -1])
        assert "solver_a" in vars(make_context(sp.csr_array(m), p))
        m[0, 1] = m[1, 0] = 2.0
        with pytest.raises(NotPositiveDefinite, match="^M_AA: "):
            make_context(sp.csr_array(m), p)


def test_matrix_market_roundtrip(tmp_path):
    m = triangle_laplacian()
    path = tmp_path / "tri.mtx"
    save_matrix_market(path, m)
    loaded = load_matrix_market(path)
    np.testing.assert_allclose(loaded.toarray(), m.toarray())
