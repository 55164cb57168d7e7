"""Acceptance battery: one test per release criterion, each printing a
PASS/FAIL line with the measured quantities."""

import csv
import time

import numpy as np
import pytest
import scipy.sparse as sp

from mqfb import filterbank as fb
from mqfb import graphs as gb
from mqfb import multires as mr
from mqfb.gft import (
    mq_eigendecompose,
    spectrum_is_folded,
    spectrum_properties,
    verify_spectral_folding,
)
from mqfb.sparse_core import build_block_diag_q
from mqfb.synthetic import (
    gaussian_blob_cloud,
    random_bipartite_graph,
    random_connected_graph,
)


def _report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _random_graph_battery(count, seed, nmin=10, nmax=200):
    """Mix of Erdos-Renyi and KNN graphs, always connected."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = int(rng.integers(nmin, nmax + 1))
        if i % 2 == 0:
            yield n, random_connected_graph(n, p=0.1, seed=int(rng.integers(2**32)))
        else:
            for _ in range(50):
                pc = gb.PointCloud(rng.uniform(0, 1, (n, 3)), np.empty((n, 0)))
                g = gb.knn_graph(pc, k=4)
                if g.meta["components"] == 1:
                    break
            yield n, g


def test_criterion_1_spectral_folding():
    t0 = time.perf_counter()
    worst_fold = 0.0
    lam_lo, lam_hi = np.inf, -np.inf
    folded = True
    for n, g in _random_graph_battery(200, seed=1):
        m = gb.combinatorial_laplacian(g)
        p = gb.random_partition(n, n + 7)
        q = build_block_diag_q(m, p)
        b = mq_eigendecompose(m, q)
        rep = verify_spectral_folding(b, p, tol=1e-8)
        worst_fold = max(worst_fold, rep["max_residual"])
        lam_lo = min(lam_lo, b.lam[0])
        lam_hi = max(lam_hi, b.lam[-1])
        folded = folded and spectrum_is_folded(b.lam, tol=1e-8)
    elapsed = time.perf_counter() - t0
    ok = (worst_fold <= 1e-8 and lam_lo >= -1e-10 and lam_hi <= 2 + 1e-10
          and folded and elapsed < 120)
    _report(
        "criterion 1 (spectral folding, 200 graphs)", ok,
        f"max residual {worst_fold:.2e}, spectrum [{lam_lo:.2e}, {lam_hi:.10f}], "
        f"multiset folded {folded}, {elapsed:.1f}s",
    )


def test_criterion_2_lambda_one_multiplicity():
    rng = np.random.default_rng(2)
    worst_margin = np.inf
    ok = True
    for case in range(50):
        n = int(rng.integers(20, 120))
        g = random_connected_graph(n, p=0.15, seed=case + 500)
        # forced unbalanced split: 70-90% of vertices on side A
        na = int(n * rng.uniform(0.7, 0.9))
        f = np.full(n, -1)
        f[rng.choice(n, na, replace=False)] = 1
        p = gb.Partition(f)
        m = gb.combinatorial_laplacian(g)
        b = mq_eigendecompose(m, build_block_diag_q(m, p))
        rep = spectrum_properties(b, p)
        margin = rep["count_at_one"] - rep["forced_one_multiplicity"]
        worst_margin = min(worst_margin, margin)
        ok = ok and rep["one_multiplicity_ok"]
    _report(
        "criterion 2 (lambda=1 multiplicity, 50 unbalanced cases)", ok,
        f"min(count_at_one - ||A|-|B||) = {worst_margin}",
    )


def test_criterion_3_perfect_reconstruction():
    rng = np.random.default_rng(3)
    lazy = fb.lazy_spec()
    worst_lazy = 0.0
    for case in range(50):
        n = int(rng.integers(100, 2001))
        g = random_connected_graph(n, p=min(0.1, 800 / n**1.5 + 0.004),
                                  seed=case + 900)
        m = gb.combinatorial_laplacian(g)
        p = gb.random_partition(n, case)
        ctx = fb.make_context(m, p, mode="poly")
        x = rng.standard_normal(n)
        xr = fb.synthesize(lazy, ctx, fb.analyze(lazy, ctx, x))
        worst_lazy = max(worst_lazy, np.linalg.norm(xr - x) / np.linalg.norm(x))
    ortho = fb.orthogonal_cosine_spec()
    worst_ortho = 0.0
    for case in range(20):
        n = int(rng.integers(50, 501))
        g = random_connected_graph(n, p=0.1, seed=case + 1300)
        m = gb.combinatorial_laplacian(g)
        p = gb.random_partition(n, case + 31)
        ctx = fb.make_context(m, p, mode="dense")
        x = rng.standard_normal(n)
        xr = fb.synthesize(ortho, ctx, fb.analyze(ortho, ctx, x))
        worst_ortho = max(worst_ortho, np.linalg.norm(xr - x) / np.linalg.norm(x))
    ok = worst_lazy <= 1e-8 and worst_ortho <= 1e-8
    _report(
        "criterion 3 (perfect reconstruction)", ok,
        f"lazy sparse max rel err {worst_lazy:.2e} (50 graphs), "
        f"ortho dense max rel err {worst_ortho:.2e} (20 graphs)",
    )


def test_criterion_4_parseval():
    rng = np.random.default_rng(4)
    ortho = fb.orthogonal_cosine_spec()
    worst = 0.0
    worst_adj = 0.0
    for case in range(10):
        n = int(rng.integers(40, 200))
        g = random_connected_graph(n, p=0.12, seed=case + 1700)
        m = gb.combinatorial_laplacian(g)
        p = gb.random_partition(n, case + 77)
        ctx = fb.make_context(m, p, mode="dense")
        rep = fb.check_q_orthogonality(ortho, ctx, trials=100, seed=case,
                                       tol=1e-8)
        worst = max(worst, rep["max_parseval_violation"])
        worst_adj = max(worst_adj, rep["max_adjoint_violation"])
    ok = worst <= 1e-8 and worst_adj <= 1e-8
    _report(
        "criterion 4 (Parseval + adjoint identity)", ok,
        f"max Parseval violation {worst:.2e}, max adjoint violation "
        f"{worst_adj:.2e} over 10 graphs x 100 pairs",
    )


def test_criterion_5_bipartite_specialization():
    worst_q = 0.0
    worst_fold = 0.0
    worst_dc = 0.0
    for case in range(20):
        n = 30 + 3 * case
        g, p = random_bipartite_graph(n, seed=case + 2100)
        # normalized Laplacian: Q must be exactly I, folding is Prop-1 style
        nl = gb.normalized_laplacian(g)
        q = build_block_diag_q(nl, p)
        worst_q = max(worst_q, np.max(np.abs(q.toarray() - np.eye(n))))
        b = mq_eigendecompose(nl, q)
        rep = verify_spectral_folding(b, p, tol=1e-8)
        worst_fold = max(worst_fold, rep["max_residual"])
        # combinatorial Laplacian: Q = D and constants give zero detail
        lap = gb.combinatorial_laplacian(g)
        qd = build_block_diag_q(lap, p)
        dd = np.abs(qd.toarray() - np.diag(g.degrees)).max()
        worst_q = max(worst_q, dd)
        ctx = fb.make_context(lap, p, mode="poly")
        c = fb.analyze(fb.lazy_spec(), ctx, np.ones(n))
        worst_dc = max(worst_dc, np.max(np.abs(c.d)))
    ok = worst_q <= 1e-12 and worst_fold <= 1e-8 and worst_dc <= 1e-10
    _report(
        "criterion 5 (bipartite specialization, 20 graphs)", ok,
        f"max |Q - expected| {worst_q:.2e}, folding residual {worst_fold:.2e}, "
        f"zero-DC detail {worst_dc:.2e}",
    )


def test_criterion_6_frame_bounds():
    a_lazy, b_lazy = fb.frame_bounds(fb.lazy_spec())
    a_o, b_o = fb.frame_bounds(fb.orthogonal_cosine_spec())
    bounds_ok = (abs(a_lazy**2 - 0.5) <= 1e-6 and abs(b_lazy**2 - 2.5) <= 1e-6
                 and abs(a_o - 1) <= 1e-9 and abs(b_o - 1) <= 1e-9)
    rng = np.random.default_rng(6)
    g = random_connected_graph(150, p=0.1, seed=2500)
    m = gb.combinatorial_laplacian(g)
    p = gb.random_partition(150, 13)
    ctx = fb.make_context(m, p, mode="dense")
    lazy = fb.lazy_spec()
    lo, hi = np.inf, -np.inf
    for _ in range(1000):
        x = rng.standard_normal(150)
        c = fb.analyze(lazy, ctx, x)
        ratio = np.sqrt(fb.coeff_q_inner(ctx, c, c) / fb.q_inner(ctx.q, x, x))
        lo, hi = min(lo, ratio), max(hi, ratio)
    inside = a_lazy - 1e-6 <= lo and hi <= b_lazy + 1e-6
    ok = bounds_ok and inside
    _report(
        "criterion 6 (frame bounds)", ok,
        f"lazy alpha^2 {a_lazy**2:.8f}, beta^2 {b_lazy**2:.8f}; ortho "
        f"alpha {a_o:.10f}, beta {b_o:.10f}; measured ratios in "
        f"[{lo:.6f}, {hi:.6f}]",
    )


@pytest.fixture(scope="module")
def big_cloud_run():
    pc = gaussian_blob_cloud(100_000, seed=7)
    t0 = time.perf_counter()
    tree = mr.decompose(pc, fb.lazy_spec(), k=5, levels=7, seed=7)
    rec = mr.reconstruct(tree)
    elapsed = time.perf_counter() - t0
    return pc, tree, rec, elapsed


def test_criterion_7_iterated_pipeline(big_cloud_run, tmp_path):
    pc, tree, rec, elapsed = big_cloud_run
    rel = np.linalg.norm(rec - pc.attributes) / np.linalg.norm(pc.attributes)
    counts_ok = tree.coefficient_count == pc.n
    # relative arm timing on a smaller benchmark cloud
    def arm_time(k, baseline, repeats=2):
        cloud = gaussian_blob_cloud(50_000, seed=8)
        best = np.inf
        for _ in range(repeats):
            t0 = time.perf_counter()
            mr.decompose(cloud, fb.lazy_spec(), k=k, levels=7, seed=8,
                         baseline=baseline)
            best = min(best, time.perf_counter() - t0)
        return best

    t_prop = arm_time(5, False)
    t_b10 = arm_time(10, True)
    t_b20 = arm_time(20, True)
    faster = t_prop < t_b10 and t_prop < t_b20
    ok = rel <= 1e-6 and counts_ok and elapsed < 60 and faster
    _report(
        "criterion 7 (iterated pipeline, n=1e5, L=7)", ok,
        f"rel err {rel:.2e}, counts exact {counts_ok}, {elapsed:.1f}s "
        f"(<60s); arms: proposed K=5 {t_prop:.1f}s vs bipartite K=10 "
        f"{t_b10:.1f}s, K=20 {t_b20:.1f}s",
    )


def test_criterion_8_energy_compaction(tmp_path):
    pc = gaussian_blob_cloud(20_000, seed=9)
    rows = []
    results = {}
    for arm, k, baseline in (("proposed", 5, False), ("bfb-k10", 10, True),
                             ("bfb-k20", 20, True)):
        tree = mr.decompose(pc, fb.lazy_spec(), k=k, levels=7, seed=9,
                            baseline=baseline)
        per_keep = {}
        for j in (0, 1, 7):
            res = mr.linear_approximation(tree, 2.0**-j, pc.attributes)
            per_keep[j] = res
            rows.append([arm, k, res.m_over_n] + list(res.psnr))
        results[arm] = per_keep
    csv_path = tmp_path / "energy_compaction.csv"
    with open(csv_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["arm", "K", "m_over_n", "psnr_r", "psnr_g", "psnr_b"])
        w.writerows(rows)
    lossless_ok = all(np.min(r[0].psnr) >= 120 for r in results.values())
    mono_ok = all(np.all(r[1].psnr > r[7].psnr) for r in results.values())
    ok = lossless_ok and mono_ok
    detail = ", ".join(
        f"{arm}: keep=1 {np.min(r[0].psnr):.0f}dB, 1/2 {np.mean(r[1].psnr):.1f}dB,"
        f" 1/128 {np.mean(r[7].psnr):.1f}dB"
        for arm, r in results.items()
    )
    _report(
        "criterion 8 (energy compaction, CSV at "
        f"{csv_path.name})", ok, detail,
    )
