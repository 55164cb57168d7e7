import numpy as np
import pytest
import scipy.sparse as sp
from scipy.spatial import cKDTree

from mqfb.graphs import (
    Partition,
    PointCloud,
    ZeroDegree,
    bipartize,
    combinatorial_laplacian,
    knn_graph,
    load_ply,
    meet_every_component,
    normalized_laplacian,
    random_partition,
    save_ply,
)
from mqfb.synthetic import random_connected_graph


def triangle_graph():
    from mqfb.graphs import Graph

    adj = sp.csr_array(np.array([[0.0, 1, 1], [1, 0, 1], [1, 1, 0]]))
    return Graph(adj)


class TestPointCloud:
    def test_rejects_nan(self):
        pos = np.zeros((3, 3))
        pos[1, 1] = np.nan
        with pytest.raises(ValueError):
            PointCloud(pos, np.zeros((3, 1)))

    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            PointCloud(np.zeros((1, 3)), np.zeros((1, 1)))


class TestPly:
    def test_ascii_with_colors(self, tmp_path):
        path = tmp_path / "tri.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 3\n"
            "property float x\nproperty float y\nproperty float z\n"
            "property uchar red\nproperty uchar green\nproperty uchar blue\n"
            "end_header\n"
            "0 0 0 255 0 0\n1 0 0 0 255 0\n0 1 0 0 0 255\n"
        )
        pc = load_ply(path)
        assert pc.n == 3
        assert pc.channels == 3
        np.testing.assert_allclose(pc.attributes[0], [255, 0, 0])

    def test_ascii_without_colors(self, tmp_path):
        path = tmp_path / "bare.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 2\n"
            "property double x\nproperty double y\nproperty double z\n"
            "end_header\n0 0 0\n1 1 1\n"
        )
        pc = load_ply(path)
        assert pc.n == 2
        assert pc.channels == 0

    def test_binary_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        pc = PointCloud(rng.standard_normal((10, 3)),
                        rng.integers(0, 256, (10, 3)).astype(float))
        path = tmp_path / "rt.ply"
        save_ply(path, pc)
        back = load_ply(path)
        np.testing.assert_array_equal(back.positions, pc.positions)
        np.testing.assert_array_equal(back.attributes, pc.attributes)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.ply"
        path.write_text("not a ply\n")
        with pytest.raises(ValueError):
            load_ply(path)

    @pytest.mark.parametrize("fmt", ["ascii", "binary_little_endian"])
    def test_vertex_after_another_element_is_rejected(self, tmp_path, fmt):
        header = (f"ply\nformat {fmt} 1.0\nelement camera 1\n"
                  "property float view_x\nproperty float view_y\n"
                  "element vertex 2\nproperty double x\nproperty double y\n"
                  "property double z\nend_header\n").encode("ascii")
        if fmt == "ascii":
            body = b"0.5 0.5\n0 0 0\n1 1 1\n"
        else:
            body = (np.array([0.5, 0.5], "<f4").tobytes()
                    + np.array([[0.0, 0, 0], [1, 1, 1]], "<f8").tobytes())
        path = tmp_path / "camera_first.ply"
        path.write_bytes(header + body)
        with pytest.raises(ValueError, match="vertex element must come first"):
            load_ply(path)

    @pytest.mark.parametrize("row", ["0 0", "0 0 0 7"],
                             ids=["too_few", "too_many"])
    def test_ascii_row_with_the_wrong_value_count(self, tmp_path, row):
        path = tmp_path / "short.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 2\nproperty double x\n"
            f"property double y\nproperty double z\nend_header\n1 2 3\n{row}\n"
        )
        n = len(row.split())
        with pytest.raises(ValueError, match=(
                f"short.ply: PLY vertex row 1 has {n} values, expected 3")):
            load_ply(path)

    def test_missing_coordinates(self, tmp_path):
        path = tmp_path / "noz.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property float x\nproperty float y\nend_header\n0 0\n"
        )
        with pytest.raises(ValueError):
            load_ply(path)


class TestKnnGraph:
    def test_collinear_hand_example(self):
        pos = np.array([[0.0, 0, 0], [1, 0, 0], [3, 0, 0]])
        pc = PointCloud(pos, np.empty((3, 0)))
        g = knn_graph(pc, k=1)
        adj = g.adjacency.toarray()
        expected = np.zeros((3, 3))
        expected[0, 1] = expected[1, 0] = 1.0
        expected[1, 2] = expected[2, 1] = 0.5
        np.testing.assert_allclose(adj, expected)

    def test_two_points(self):
        pc = PointCloud(np.array([[0.0, 0, 0], [0, 0, 2]]), np.empty((2, 0)))
        g = knn_graph(pc, k=1)
        np.testing.assert_allclose(g.adjacency.toarray(), [[0, 0.5], [0.5, 0]])

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(12)
        pos = rng.uniform(0, 1, (1000, 3))
        pc = PointCloud(pos, np.empty((1000, 0)))
        g = knn_graph(pc, k=5)
        # exhaustive pairwise-distance oracle
        d2 = np.sum((pos[:, None, :] - pos[None, :, :]) ** 2, axis=2)
        np.fill_diagonal(d2, np.inf)
        nn = np.argsort(d2, axis=1)[:, :5]
        oracle = sp.lil_array((1000, 1000))
        for i in range(1000):
            for j in nn[i]:
                w = 1.0 / np.sqrt(d2[i, j])
                oracle[i, j] = w
                oracle[j, i] = w
        diff = np.abs((g.adjacency - oracle.tocsr()).toarray())
        assert diff.max() < 1e-9

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(7)
        pos = rng.standard_normal((40, 3))
        pc = PointCloud(pos, np.empty((40, 0)))
        g = knn_graph(pc, k=3)
        perm = rng.permutation(40)
        g2 = knn_graph(PointCloud(pos[perm], np.empty((40, 0))), k=3)
        a1 = g.adjacency.toarray()[np.ix_(perm, perm)]
        np.testing.assert_allclose(g2.adjacency.toarray(), a1, atol=1e-12)

    def test_duplicate_points_clamped(self):
        pos = np.zeros((4, 3))
        pos[2:] = [[5, 0, 0], [0, 5, 0]]  # first two points coincide
        g = knn_graph(PointCloud(pos, np.empty((4, 0))), k=1)
        assert np.all(np.isfinite(g.adjacency.data))

    def test_all_points_coincide(self):
        # no bounding box to scale the distance floor by
        g = knn_graph(PointCloud(np.ones((6, 3)), np.empty((6, 0))), k=2)
        assert np.all(np.isfinite(g.adjacency.data))
        assert np.all(g.adjacency.data > 0)

    def test_component_labels_kept(self):
        pos = np.vstack([np.zeros((3, 3)), np.full((4, 3), 10.0)])
        pos += np.random.default_rng(3).normal(0, 0.1, pos.shape)
        g = knn_graph(PointCloud(pos, np.empty((7, 0))), k=2)
        assert g.meta["components"] == 2
        labels = g.meta["labels"]
        assert len(set(labels[:3])) == len(set(labels[3:])) == 1
        assert labels[0] != labels[3]

    def test_k_too_large(self):
        pc = PointCloud(np.random.default_rng(0).standard_normal((3, 3)),
                        np.empty((3, 0)))
        with pytest.raises(ValueError):
            knn_graph(pc, k=3)


class TestLaplacians:
    def test_triangle_combinatorial(self):
        lap = combinatorial_laplacian(triangle_graph())
        np.testing.assert_allclose(
            lap.toarray(), [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]
        )

    def test_single_edge(self):
        from mqfb.graphs import Graph

        g = Graph(sp.csr_array(np.array([[0.0, 1], [1, 0]])))
        np.testing.assert_allclose(
            combinatorial_laplacian(g).toarray(), [[1, -1], [-1, 1]]
        )
        np.testing.assert_allclose(
            normalized_laplacian(g).toarray(), [[1, -1], [-1, 1]]
        )

    def test_row_sums_zero(self):
        g = random_connected_graph(80, seed=2)
        lap = combinatorial_laplacian(g)
        assert np.max(np.abs(lap @ np.ones(80))) < 1e-12

    def test_triangle_normalized(self):
        lap = normalized_laplacian(triangle_graph())
        expected = np.eye(3) - 0.5 * triangle_graph().adjacency.toarray()
        np.testing.assert_allclose(lap.toarray(), expected)

    def test_normalized_nullvector(self):
        g = random_connected_graph(60, seed=5)
        lap = normalized_laplacian(g)
        v = np.sqrt(g.degrees)
        assert np.linalg.norm(lap @ v) < 1e-10 * np.linalg.norm(v)

    def test_isolated_vertex_raises(self):
        from mqfb.graphs import Graph

        adj = sp.lil_array((3, 3))
        adj[0, 1] = adj[1, 0] = 1.0
        with pytest.raises(ZeroDegree):
            normalized_laplacian(Graph(sp.csr_array(adj.tocsr())))

    def test_combinatorial_psd(self):
        rng = np.random.default_rng(8)
        for seed in range(5):
            g = random_connected_graph(50, seed=seed)
            lap = combinatorial_laplacian(g)
            scale = np.max(np.abs(lap.toarray()))
            for _ in range(10):
                x = rng.standard_normal(50)
                assert x @ (lap @ x) >= -1e-10 * scale * (x @ x)


class TestRandomPartition:
    def test_n2_forced_split(self):
        for seed in range(20):
            p = random_partition(2, seed)
            assert p.a_idx.size == 1 and p.b_idx.size == 1

    def test_deterministic(self):
        p1 = random_partition(100, 42)
        p2 = random_partition(100, 42)
        np.testing.assert_array_equal(p1.f, p2.f)

    def test_binomial_concentration(self):
        n = 10_000
        bound = 3 * np.sqrt(n) / 2
        hits = sum(
            abs(random_partition(n, seed).a_idx.size - n / 2) < bound
            for seed in range(100)
        )
        assert hits >= 95  # ~99.7% expected inside 3 sigma

    def test_partition_validation(self):
        with pytest.raises(ValueError):
            Partition([1, 1, 1])
        with pytest.raises(ValueError):
            Partition([1, 0, -1])


class TestMeetEveryComponent:
    # components {0, 1, 2}, {3, 4}, {5, 6, 7} and the single vertex {8}
    labels = np.array([0, 0, 0, 1, 1, 2, 2, 2, 3])

    def test_draw_meeting_every_component_unchanged(self):
        p = Partition([1, -1, 1, -1, 1, 1, 1, -1, 1])
        assert meet_every_component(p, self.labels) is p

    def test_lowest_index_vertex_moves_across(self):
        p = Partition([1, 1, 1, -1, -1, -1, 1, -1, -1])
        got = meet_every_component(p, self.labels)
        np.testing.assert_array_equal(got.f, [-1, 1, 1, 1, -1, -1, 1, -1, -1])

    def test_single_vertex_component_left_as_drawn(self):
        for side in (1, -1):
            p = Partition([1, -1, 1, -1, 1, 1, -1, 1, side])
            assert meet_every_component(p, self.labels) is p

    def test_every_component_meets_both_sides(self):
        rng = np.random.default_rng(5)
        labels = rng.permutation(np.repeat(np.arange(40), 5))
        for seed in range(20):
            f = meet_every_component(random_partition(200, seed), labels).f
            for c in np.unique(labels):
                assert set(f[labels == c]) == {1, -1}


class TestBipartize:
    def test_triangle(self):
        p = Partition([1, -1, -1])
        bg = bipartize(triangle_graph(), p)
        adj = bg.adjacency.toarray()
        assert adj[1, 2] == 0 and adj[2, 1] == 0
        assert adj[0, 1] == 1 and adj[0, 2] == 1

    def test_already_bipartite_unchanged(self):
        from mqfb.synthetic import random_bipartite_graph

        g, p = random_bipartite_graph(30, seed=1)
        bg = bipartize(g, p)
        np.testing.assert_allclose(
            bg.adjacency.toarray(), g.adjacency.toarray()
        )

    def test_all_surviving_edges_cross(self):
        g = random_connected_graph(100, seed=6)
        p = random_partition(100, 6)
        bg = bipartize(g, p)
        coo = sp.coo_array(bg.adjacency)
        assert np.all(p.f[coo.row] != p.f[coo.col])

    def test_idempotent(self):
        g = random_connected_graph(60, seed=7)
        p = random_partition(60, 7)
        once = bipartize(g, p)
        twice = bipartize(once, p)
        np.testing.assert_allclose(
            twice.adjacency.toarray(), once.adjacency.toarray()
        )


# ---------------------------------------------------------------------------
# Bit-identity with the reference formulas: a row-order KD-tree query, the
# COO round trip and the sparse-matmul Laplacians

def knn_row_order(pos, k):
    """The KNN graph from a row-order query, then setdiag/eliminate_zeros."""
    n = pos.shape[0]
    dist, idx = cKDTree(pos).query(pos, k=k + 1)
    self_mask = idx == np.arange(n)[:, None]
    drop = self_mask & (np.cumsum(self_mask, axis=1) == 1)
    drop[~self_mask.any(axis=1), -1] = True
    keep = ~drop
    bbox = pos.max(axis=0) - pos.min(axis=0)
    floor = 1e-9 * max(float(np.linalg.norm(bbox)), np.finfo(float).tiny)
    w = 1.0 / np.maximum(dist[keep], floor)
    rows = np.repeat(np.arange(n), k)
    adj = sp.coo_array((w, (rows, idx[keep])), shape=(n, n)).tocsr()
    adj = adj.maximum(adj.T)
    adj.setdiag(0)
    adj.eliminate_zeros()
    return sp.csr_array(adj)


def bipartize_coo(adj, p):
    coo = sp.coo_array(adj)
    keep = p.f[coo.row] != p.f[coo.col]
    return sp.coo_array((coo.data[keep], (coo.row[keep], coo.col[keep])),
                        shape=adj.shape).tocsr()


def row_sums(adj):
    return np.asarray(adj.sum(axis=1)).ravel()


def combinatorial_diags(adj):
    return sp.csr_array(sp.diags(row_sums(adj)) - adj)


def normalized_matmul(adj):
    d = row_sums(adj)
    dis = np.zeros_like(d)
    dis[d > 0] = 1.0 / np.sqrt(d[d > 0])
    s = sp.diags(dis)
    return sp.csr_array(sp.eye(adj.shape[0]) - s @ adj @ s)


def assert_same_csr(got, want, index_dtype=None):
    """Same values and order in each CSR array; the index arrays of ``got``
    have ``index_dtype`` (default: that of ``want``)."""
    for part in ("indptr", "indices", "data"):
        a, b = getattr(got, part), getattr(want, part)
        dtype = b.dtype if index_dtype is None or part == "data" else index_dtype
        assert a.dtype == dtype, part
        assert np.array_equal(a, b), part


def assert_canonical(m, diagonal):
    """Sorted, duplicate-free rows, no explicit zeros, diagonal as asked."""
    for i in range(m.shape[0]):
        cols = m.indices[m.indptr[i]:m.indptr[i + 1]]
        assert np.all(np.diff(cols) > 0)
    assert np.all(m.data != 0)
    rows = np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))
    assert np.any(rows == m.indices) == diagonal


def _blob(n, seed=0):
    return np.random.default_rng(seed).standard_normal((n, 3))


def _line(n):
    t = np.linspace(0.0, 1.0, n)
    return np.column_stack([t, 2 * t, -t])


CLOUDS = {
    # name -> (positions, k)
    "blob": (_blob(300), 5),
    "doubled": (np.tile(_blob(80, 1), (2, 1)), 4),
    "tripled": (np.repeat(_blob(60, 2), 3, axis=0), 5),
    # 12 coincident points and k + 1 = 4: most of their rows miss self
    "coincident": (np.vstack([np.zeros((12, 3)), _blob(40, 3)]), 3),
    "collinear": (_line(50), 3),
    "n_is_k_plus_1": (_blob(6, 4), 5),
}


@pytest.mark.parametrize("name", sorted(CLOUDS))
class TestBitIdentity:
    def _graph(self, name):
        pos, k = CLOUDS[name]
        return knn_graph(PointCloud(pos, np.empty((len(pos), 0))), k)

    def test_knn_matches_row_order_query(self, name):
        pos, k = CLOUDS[name]
        g = self._graph(name)
        want = knn_row_order(pos, k)
        # the reference's COO round trip gives int64 indices; knn_graph's
        # are int32 (int64 only past 2^31), as the Laplacians' are
        assert_same_csr(g.adjacency, want, index_dtype=np.int32)
        assert_canonical(g.adjacency, diagonal=False)
        n_comp = sp.csgraph.connected_components(want, directed=False)[0]
        assert g.meta["components"] == n_comp

    def test_laplacians_match_reference(self, name):
        g = self._graph(name)
        for lap, want in (
            (combinatorial_laplacian(g), combinatorial_diags(g.adjacency)),
            (normalized_laplacian(g), normalized_matmul(g.adjacency)),
        ):
            assert_same_csr(lap, want)
            assert_canonical(lap, diagonal=True)

    def test_bipartize_with_isolated_vertices(self, name):
        g = self._graph(name)
        # side A is the first half of the vertices, so on the line (and
        # wherever a vertex sees only its own side) bipartizing isolates
        p = Partition(np.where(np.arange(g.n) < g.n // 2, 1, -1))
        bg = bipartize(g, p)
        want = bipartize_coo(g.adjacency, p)
        assert_same_csr(bg.adjacency, want)
        assert_canonical(bg.adjacency, diagonal=False)
        isolated = int(np.sum(row_sums(want) <= 0))
        assert bg.meta["isolated_after_bipartize"] == isolated
        assert_same_csr(normalized_laplacian(bg, allow_isolated=True),
                        normalized_matmul(bg.adjacency))
        assert_same_csr(combinatorial_laplacian(bg),
                        combinatorial_diags(bg.adjacency))


def test_bipartize_case_has_isolated_vertices():
    pos, k = CLOUDS["collinear"]
    g = knn_graph(PointCloud(pos, np.empty((len(pos), 0))), k)
    p = Partition(np.where(np.arange(g.n) < g.n // 2, 1, -1))
    assert bipartize(g, p).meta["isolated_after_bipartize"] > 0


def test_coincident_cloud_has_rows_without_self():
    pos, k = CLOUDS["coincident"]
    idx = cKDTree(pos).query(pos, k=k + 1)[1]
    assert np.any(~(idx == np.arange(len(pos))[:, None]).any(axis=1))
