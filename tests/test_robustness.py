"""Clouds that real scans produce go through the pipeline.

Separated clusters (many connected components), repeated and coincident
points, collinear and coplanar clouds, tiny clouds and n = k + 1 all
round-trip through decompose -> reconstruct in the lazy, bipartite-baseline
and orthogonal-cosine (poly, its default mode) arms: each level's partition
meets every connected component, so Q > 0 by construction.  The property
tests are derandomized, so every run draws the same examples.
"""

import json
import zlib

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mqfb import filterbank as fb
from mqfb import graphs as gb
from mqfb.cli import EXIT_OK, main
from mqfb.gft import DENSE_CAP_DEFAULT
from mqfb.multires import (
    CorruptTree,
    decompose,
    load_tree,
    reconstruct,
    save_tree,
)
from mqfb.synthetic import gaussian_blob_cloud

ARMS = {
    "lazy": (fb.lazy_spec(), False),
    "baseline": (fb.lazy_spec(), True),
    "ortho-cosine": (fb.orthogonal_cosine_spec(), False),
}


def separated_clusters(rng, clusters, size):
    """``clusters`` tight blobs of ``size`` points, 100 apart or more."""
    centers = 100.0 * np.arange(clusters)[:, None] * rng.uniform(1, 2, 3)
    jitter = rng.normal(0, 0.01, (clusters, size, 3))
    return (centers[:, None, :] + jitter).reshape(-1, 3)


@st.composite
def clouds(draw):
    """(shape name, positions, k) for one of the awkward cloud shapes."""
    shape = draw(st.sampled_from(["clusters", "repeated", "coincident",
                                  "collinear", "coplanar", "tiny",
                                  "k_plus_1"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(1, 8))
    if shape == "clusters":
        pos = separated_clusters(rng, draw(st.integers(2, 40)),
                                 draw(st.integers(2, 8)))
    elif shape == "repeated":
        base = rng.uniform(0, 1, (draw(st.integers(2, 150)), 3))
        pos = np.repeat(base, draw(st.sampled_from([2, 3])), axis=0)
    elif shape == "coincident":
        pos = np.tile(rng.uniform(-5, 5, 3), (draw(st.integers(2, 60)), 1))
    elif shape == "collinear":
        t = rng.uniform(0, 10, draw(st.integers(2, 300)))
        pos = t[:, None] * rng.normal(size=3) + rng.normal(size=3)
    elif shape == "coplanar":
        uv = rng.uniform(0, 10, (draw(st.integers(2, 300)), 2))
        pos = uv @ rng.normal(size=(2, 3)) + rng.normal(size=3)
    elif shape == "tiny":
        pos = rng.uniform(0, 1, (draw(st.integers(2, 6)), 3))
    else:
        pos = rng.uniform(0, 1, (k + 1, 3))
    return shape, pos, k


@pytest.mark.parametrize("arm", list(ARMS))
@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(case=clouds())
def test_awkward_clouds_round_trip(arm, case):
    shape, pos, k = case
    n = pos.shape[0]
    spec, baseline = ARMS[arm]
    assert n <= DENSE_CAP_DEFAULT  # the dense arm's limit
    x = np.random.default_rng(n).uniform(0, 255, (n, 3))
    tree = decompose(gb.PointCloud(pos, x), spec, k=k, levels=4, seed=n,
                     baseline=baseline)
    assert tree.coefficient_count == n
    rec = reconstruct(tree)
    rel = np.linalg.norm(rec - x) / np.linalg.norm(x)
    assert rel <= 1e-8, (shape, n, k, rel)


@pytest.mark.parametrize("cloud, arm", [
    ("300_clusters_of_6", "lazy"),
    ("300_clusters_of_6", "baseline"),
    ("300_clusters_of_6", "ortho-cosine"),
    ("2000_points_x3", "lazy"),
    ("2000_points_x3", "baseline"),  # 6000 points: past the dense cap
])
def test_component_heavy_clouds_round_trip(cloud, arm):
    # each failed at level 0 in the (M, Q) arms while decompose redrew
    # a random bipartition up to 20 times
    rng = np.random.default_rng(0)
    if cloud == "300_clusters_of_6":
        pos = separated_clusters(rng, 300, 6)
    else:
        pos = np.repeat(rng.uniform(0, 1, (2000, 3)), 3, axis=0)
    n = pos.shape[0]
    g = gb.knn_graph(gb.PointCloud(pos, np.empty((n, 0))), 5)
    assert g.meta["components"] >= 300
    spec, baseline = ARMS[arm]
    x = rng.uniform(0, 255, (n, 3))
    tree = decompose(gb.PointCloud(pos, x), spec, k=5,
                     levels=3 if arm == "ortho-cosine" else 7, seed=0,
                     baseline=baseline)
    rec = reconstruct(tree)
    assert np.linalg.norm(rec - x) / np.linalg.norm(x) <= 1e-8


def test_one_partition_per_level(monkeypatch):
    rng = np.random.default_rng(0)
    pc = gb.PointCloud(separated_clusters(rng, 300, 6),
                       rng.uniform(0, 255, (1800, 3)))
    draws = []
    random_partition = gb.random_partition

    def counted(n, seed):
        draws.append(n)
        return random_partition(n, seed)

    monkeypatch.setattr(gb, "random_partition", counted)
    tree = decompose(pc, fb.lazy_spec(), k=5, levels=5, seed=0)
    assert draws == [lv.partition.n for lv in tree.levels]
    assert len(draws) == 5


def test_clustered_ply_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    ply = tmp_path / "clusters.ply"
    gb.save_ply(ply, gb.PointCloud(separated_clusters(rng, 300, 6),
                                   rng.uniform(0, 255, (1800, 3))))
    tree_dir = tmp_path / "t"
    assert main(["decompose", "--input", str(ply), "--k", "5", "--levels",
                 "5", "--out", str(tree_dir)]) == EXIT_OK
    out = tmp_path / "rec.bin"
    assert main(["reconstruct", "--input", str(tree_dir),
                 "--out", str(out)]) == EXIT_OK
    want = gb.load_ply(ply).attributes
    rec = np.fromfile(out, dtype="<f8").reshape(want.shape)
    assert np.linalg.norm(rec - want) / np.linalg.norm(want) <= 1e-8


@pytest.fixture(scope="module")
def level_20k():
    """(M, partition) of the level-0 KNN graph of a 20k cloud."""
    pc = gaussian_blob_cloud(20_000, seed=0)
    lv = decompose(pc, fb.lazy_spec(), k=5, levels=1, seed=0).levels[0]
    return gb.combinatorial_laplacian(gb.Graph(lv.adjacency)), lv.partition


def test_folding_past_the_dense_cap(level_20k):
    """Extreme pairs of the level-0 (M, Q) pencil of a 20k cloud fold.

    M u = lam Q u implies M (J u) = (2 - lam) Q (J u) with J = diag(f).
    The pairs come from a matrix-free eigsh that solves with Q by blocks.
    """
    m, partition = level_20k
    ctx = fb.make_context(m, partition)
    a, b = partition.a_idx, partition.b_idx

    def q_solve(y):
        z = np.empty_like(y)
        z[a] = ctx.solver_a.solve(y[a])
        z[b] = ctx.solver_b.solve(y[b])
        return z

    n = m.shape[0]
    assert n > DENSE_CAP_DEFAULT
    minv = spla.LinearOperator((n, n), matvec=q_solve, dtype=np.float64)
    lam, u = spla.eigsh(m, k=4, M=ctx.q, Minv=minv, which="LA")
    assert np.all(lam > 1.0) and np.all(lam <= 2.0 + 1e-8)
    f = partition.f.astype(np.float64)
    for j in range(lam.size):
        v = f * u[:, j]
        qv = ctx.q @ v
        rel = np.linalg.norm(m @ v - (2.0 - lam[j]) * qv) / np.linalg.norm(qv)
        assert rel <= 1e-10, (lam[j], rel)


def test_q_parseval_past_the_dense_cap(level_20k):
    """The poly orthogonal bank is Q-orthogonal and PR on a 20k level."""
    m, partition = level_20k
    assert m.shape[0] > DENSE_CAP_DEFAULT
    ctx = fb.make_context(m, partition)
    spec = fb.orthogonal_cosine_spec()
    rep = fb.check_q_orthogonality(spec, ctx)
    assert rep["passed"], rep
    rep = fb.check_pr(spec, ctx, trials=3)
    assert rep["passed"] and rep["spectrum"] == "grid", rep


def test_zero_dc_baseline_runs_past_isolated_vertices(tmp_path):
    """bipartize leaves vertices with no cross edge (degree 0), which the
    zero-DC scaling passes through unscaled."""
    pc = gaussian_blob_cloud(5000, seed=0)
    tree = decompose(pc, fb.zero_dc_wrap(fb.lazy_spec()), k=10, levels=7,
                     seed=0, baseline=True)
    lv = tree.levels[0]
    knn = gb.knn_graph(gb.PointCloud(pc.positions, np.empty((pc.n, 0))), 10)
    g = gb.bipartize(knn, lv.partition)
    assert (g.adjacency != lv.adjacency).nnz == 0
    assert g.meta["isolated_after_bipartize"] > 0
    save_tree(tree, tmp_path / "t")
    rec = reconstruct(load_tree(tmp_path / "t"))
    x = pc.attributes
    assert np.linalg.norm(rec - x) <= 1e-8 * np.linalg.norm(x)


@pytest.fixture(scope="module")
def tree_500(tmp_path_factory):
    """A saved 500-point lazy tree: its directory, arrays and meta.json."""
    path = tmp_path_factory.mktemp("tree_500")
    save_tree(decompose(gaussian_blob_cloud(500, seed=0), fb.lazy_spec(),
                        k=5, levels=3, seed=0), path)
    with np.load(path / "tree.npz") as z:
        arrays = dict(z)
    return path, arrays, json.loads((path / "meta.json").read_text())


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(data=st.data())
def test_a_rewritten_array_loads_or_raises_cleanly(tree_500, data):
    """One member overwritten with arbitrary values of its shape and dtype,
    its crc32 updated in meta.json, either decodes or raises CorruptTree or
    ValueError: never IndexError, KeyError, TypeError or a crash."""
    path, arrays, meta = tree_500
    name = data.draw(st.sampled_from(sorted(arrays)))
    new = data.draw(hnp.arrays(arrays[name].dtype, arrays[name].shape))
    np.savez(path / "tree.npz", **{**arrays, name: new})
    spec = dict(meta["arrays"][name], crc32=zlib.crc32(new))
    (path / "meta.json").write_text(json.dumps(
        {**meta, "arrays": {**meta["arrays"], name: spec}}))
    try:
        reconstruct(load_tree(path))
    except (CorruptTree, ValueError):
        pass
