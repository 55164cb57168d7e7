import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from mqfb.sparse_core import (
    EmptyBlock,
    NotPositiveDefinite,
    SpdSolver,
    build_block_diag_q,
    check_positive_definite,
    extract_principal_block,
    load_matrix_market,
    save_matrix_market,
    spmv,
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
    def test_triangle_subset(self):
        block = extract_principal_block(triangle_laplacian(), [1, 2])
        np.testing.assert_allclose(block.toarray(), [[2, -1], [-1, 2]])

    def test_full_subset_is_identity_case(self):
        m = triangle_laplacian()
        block = extract_principal_block(m, [0, 1, 2])
        np.testing.assert_array_equal(block.toarray(), m.toarray())

    def test_scalar_block(self):
        m = sp.csr_array(np.array([[1.0, -1], [-1, 1]]))
        block = extract_principal_block(m, [0])
        np.testing.assert_allclose(block.toarray(), [[1.0]])

    def test_empty_subset_raises(self):
        with pytest.raises(EmptyBlock):
            extract_principal_block(triangle_laplacian(), [])

    def test_preserves_symmetry_and_psd(self):
        rng = np.random.default_rng(5)
        for seed in range(10):
            n = int(rng.integers(20, 200))
            g = random_connected_graph(n, seed=seed)
            m = combinatorial_laplacian(g)
            s = rng.choice(n, size=max(2, n // 3), replace=False)
            block = extract_principal_block(m, s)
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
            err = np.linalg.norm(solver.solve(spmv(q, x)) - x)
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
        m_bb = sp.csc_array(extract_principal_block(m, p.b_idx))
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
        block = extract_principal_block(m, whole)
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
        lap = sp.csr_array(sp.diags(np.asarray(w.sum(axis=1)).ravel()) - w)
        for _ in range(30):
            s = np.flatnonzero(rng.random(5) < 0.6)
            if s.size == 0:
                continue
            block = extract_principal_block(lap, s)
            pd = np.linalg.eigvalsh(block.toarray()).min() > 1e-12
            if pd:
                check_positive_definite(block)
            else:
                with pytest.raises(NotPositiveDefinite):
                    check_positive_definite(block)

    def test_diagonal(self):
        check_positive_definite(sp.diags([1.0, 2.0]))
        with pytest.raises(NotPositiveDefinite):
            check_positive_definite(sp.diags([1.0, 0.0]))

    def test_other_structure_is_factored(self):
        # positive off-diagonals: not a Laplacian block
        check_positive_definite(sp.csr_array(np.array([[1.0, 0.9], [0.9, 1]])))
        with pytest.raises(NotPositiveDefinite):
            check_positive_definite(sp.csr_array(np.array([[1.0, 2], [2, 1]])))


class TestSpmv:
    def test_zero_matrix(self):
        m = sp.csr_array((3, 3))
        np.testing.assert_array_equal(spmv(m, np.ones(3)), np.zeros(3))

    def test_identity(self):
        x = np.array([1.0, 2, 3])
        np.testing.assert_array_equal(spmv(sp.eye(3).tocsr(), x), x)

    def test_triangle_hand_expansion(self):
        # row 0: 2*1 - (-1) - (-1) = 4
        y = spmv(triangle_laplacian(), np.array([1.0, -1, -1]))
        np.testing.assert_allclose(y, [4, -2, -2])

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            spmv(triangle_laplacian(), np.ones(4))


def test_matrix_market_roundtrip(tmp_path):
    m = triangle_laplacian()
    path = tmp_path / "tri.mtx"
    save_matrix_market(path, m)
    loaded = load_matrix_market(path)
    np.testing.assert_allclose(loaded.toarray(), m.toarray())

