import gc
import json
import os
import signal
import sys
import threading
import time
import weakref
import zlib

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from scipy.sparse import csgraph

from mqfb import filterbank as fb
from mqfb import graphs as gb
from mqfb import multires
from mqfb.gft import DENSE_CAP_DEFAULT, DenseCapExceeded, FoldedBasis
from mqfb.multires import (
    CorruptTree,
    DecompositionTree,
    LevelRecord,
    decompose,
    linear_approximation,
    load_tree,
    psnr,
    reconstruct,
    save_tree,
)
from mqfb.sparse_core import NotPositiveDefinite
from mqfb.synthetic import gaussian_blob_cloud


def small_cloud(n=400, seed=0):
    return gaussian_blob_cloud(n, seed=seed)


class TestDecompose:
    def test_single_level_counts(self):
        pc = small_cloud()
        tree = decompose(pc, fb.lazy_spec(), k=4, levels=1, seed=1)
        assert len(tree.levels) == 1
        assert tree.root.shape[0] + tree.levels[0].details.shape[0] == pc.n

    def test_critical_sampling_across_levels(self):
        pc = small_cloud()
        for levels in (1, 3, 5):
            tree = decompose(pc, fb.lazy_spec(), k=4, levels=levels, seed=2)
            assert tree.coefficient_count == pc.n

    def test_constant_attribute_zero_details(self):
        pc = small_cloud()
        const = gb.PointCloud(pc.positions, np.full((pc.n, 2), 7.0))
        tree = decompose(const, fb.lazy_spec(), k=4, levels=4, seed=3)
        for lv in tree.levels:
            assert np.max(np.abs(lv.details)) <= 1e-8

    def test_constant_attribute_zero_details_zero_dc_baseline(self):
        pc = small_cloud(800)
        const = gb.PointCloud(pc.positions, np.full((pc.n, 1), 3.0))
        spec = fb.zero_dc_wrap(fb.lazy_spec())
        tree = decompose(const, spec, k=10, levels=3, seed=4, baseline=True)
        for lv in tree.levels:
            assert np.max(np.abs(lv.details)) <= 1e-8

    def test_early_stop_recorded(self):
        pc = small_cloud(40)
        tree = decompose(pc, fb.lazy_spec(), k=4, levels=10, seed=5)
        assert tree.meta["stopped_early_at"] is not None
        assert tree.coefficient_count == pc.n

    def test_determinism(self):
        pc = small_cloud()
        t1 = decompose(pc, fb.lazy_spec(), k=4, levels=3, seed=6)
        t2 = decompose(pc, fb.lazy_spec(), k=4, levels=3, seed=6)
        np.testing.assert_array_equal(t1.root, t2.root)
        for a, b in zip(t1.levels, t2.levels):
            np.testing.assert_array_equal(a.details, b.details)
            np.testing.assert_array_equal(a.partition.f, b.partition.f)

    def test_knn_worker_is_joined(self, monkeypatch):
        # at 20k points levels 1 and 2 build their KNN graphs on the
        # pipeline worker, one thread that outlives the call; no job of a
        # call is still running when the call returns or raises
        pc = gaussian_blob_cloud(20_000, seed=0)
        assert pc.n // 4 > multires.PIPELINE_MIN_POINTS
        knn_graph = gb.knn_graph
        started, release = threading.Event(), threading.Event()
        workers, running = set(), []

        def held_knn(cloud, k):
            if threading.current_thread() is threading.main_thread():
                return knn_graph(cloud, k)
            workers.add(threading.get_ident())
            running.append(cloud.n)
            started.set()
            release.wait(timeout=60)
            try:
                return knn_graph(cloud, k)
            finally:
                running.remove(cloud.n)

        monkeypatch.setattr(gb, "knn_graph", held_knn)
        release.set()
        for _ in range(2):
            decompose(pc, fb.lazy_spec(), k=5, levels=3, seed=0)
            assert running == []
        assert len(workers) == 1

        # level 0's context fails while level 1's KNN graph is in flight
        started.clear()
        release.clear()
        in_flight = []

        def failing_context(*args, **kwargs):
            assert started.wait(timeout=60)
            in_flight.append(len(running))
            release.set()
            raise NotPositiveDefinite("boom")

        monkeypatch.setattr(fb, "make_context", failing_context)
        with pytest.raises(NotPositiveDefinite, match=r"^level 0: boom$") as e:
            decompose(pc, fb.lazy_spec(), k=5, levels=3, seed=0)
        assert e.type is NotPositiveDefinite
        assert in_flight == [1]
        assert running == []
        assert len(workers) == 1


@pytest.fixture(scope="module")
def cloud_20k():
    return gaussian_blob_cloud(20_000, seed=0)


@pytest.fixture(scope="module")
def clusters_20k():
    """Four separated clusters of 5000 points: every level of a tree has
    several connected components."""
    rng = np.random.default_rng(0)
    pos = (100.0 * np.arange(4)[:, None, None]
           + rng.normal(0, 1, (4, 5000, 3))).reshape(-1, 3)
    return gb.PointCloud(pos, rng.uniform(0, 255, (20_000, 3)))


def _with_a_component_on_b(tree, ell):
    """A copy of ``tree`` whose level-``ell`` partition puts one whole
    connected component on side B, so M_BB is singular there (its factor
    has a vanishing pivot).  Both sides keep their sizes."""
    levels = list(tree.levels)
    lv = levels[ell]
    _, labels = csgraph.connected_components(lv.adjacency, directed=False)
    f = lv.partition.f.copy()
    on_b = np.bincount(labels[f == -1], minlength=labels.max() + 1)
    on_b[labels[0]] = 0
    other = np.argmax(on_b)  # the component with the most B vertices
    off_side = np.flatnonzero((labels == labels[0]) & (f == 1))
    elsewhere = np.flatnonzero((labels == other) & (f == -1))
    assert off_side.size < elsewhere.size
    f[off_side] = -1
    f[elsewhere[:off_side.size]] = 1
    # the recorded order is of the old B side: factor with MMD instead
    levels[ell] = LevelRecord(partition=gb.Partition(f),
                              adjacency=lv.adjacency, details=lv.details)
    return DecompositionTree(levels=levels, root=tree.root, meta=tree.meta)


def _inline_reconstruct(tree):
    """reconstruct(tree), every level on the calling thread."""
    spec = multires._spec_from_meta(tree.meta)
    x = tree.root
    for i in reversed(range(len(tree.levels))):
        lv = tree.levels[i]
        ctx = multires._level_context(i, spec, lv.adjacency, lv.partition,
                                      tree.meta, lv.order_b)
        x = fb.synthesize(spec, ctx, fb.ChannelCoefficients(a=x, d=lv.details))
    return x


class _TrackedFactor:
    """A SuperLU factor (which takes no weak reference) behind a proxy
    that does."""

    def __init__(self, lu):
        self._lu = lu

    def __getattr__(self, name):
        return getattr(self._lu, name)


class TestPipelineWorker:
    """Decode and the sweep build level 0's context on the pipeline worker
    while the calling thread builds and synthesizes levels L-1..1 (see the
    multires docstring); here from 20k points on."""

    @pytest.fixture(autouse=True)
    def level0_ahead(self, monkeypatch):
        monkeypatch.setattr(multires, "LEVEL0_AHEAD_MIN_POINTS", 20_000)

    @pytest.fixture
    def factors(self, monkeypatch):
        """Every SuperLU factor made, also by a SpdSolver that then raises,
        as [shape, building thread, freeing thread or None while alive]."""
        out = []
        splu = spla.splu

        def recording(matrix, *args, **kwargs):
            lu = _TrackedFactor(splu(matrix, *args, **kwargs))
            rec = [matrix.shape, threading.get_ident(), None]
            out.append(rec)
            # the finalizer runs on the thread that drops the factor
            weakref.finalize(lu, lambda: rec.__setitem__(
                2, threading.get_ident()))
            return lu

        monkeypatch.setattr(spla, "splu", recording)
        return out

    @pytest.fixture(scope="class")
    def trees(self, cloud_20k, clusters_20k):
        """A 3-level tree of each cloud, per spec family."""
        return {(cloud, spec.family): decompose(pc, spec, k=5, levels=3,
                                                seed=0)
                for cloud, pc in [("blobs", cloud_20k),
                                  ("clusters", clusters_20k)]
                for spec in (fb.lazy_spec(), fb.orthogonal_cosine_spec())}

    @pytest.mark.parametrize("sweep, singular, boom, raises", [
        (False, (), None, None), (True, (), None, None),
        # level 0's SpdSolver raises on the worker with the factor still in
        # its frame, three links down the exception chain; the coarsest
        # failing level comes first
        (False, (1,), None, "level 1: M_BB: "),
        (False, (0,), None, "level 0: M_BB: "),
        (False, (0, 1), None, "level 1: M_BB: "),
        (False, (), 1, "level 1: boom"),
        (False, (), 0, "level 0: boom"),
    ], ids=["reconstruct", "sweep", "level 1 singular", "level 0 singular",
            "levels 0 and 1 singular", "level 1 synthesis raises",
            "level 0 synthesis raises"])
    @pytest.mark.parametrize("family", ["lazy", "ortho-cosine"])
    def test_each_factor_is_freed_on_the_thread_that_built_it(
            self, trees, family, sweep, singular, boom, raises, factors,
            monkeypatch):
        tree = trees["clusters" if singular else "blobs", family]
        assert tree.levels[0].partition.n >= multires.LEVEL0_AHEAD_MIN_POINTS
        for ell in singular:
            tree = _with_a_component_on_b(tree, ell)
        want = None if raises else _inline_reconstruct(tree)
        factors.clear()
        main = threading.get_ident()
        synthesize = fb.synthesize

        def failing_synthesis(spec, ctx, coeffs):
            if boom is not None and (ctx.partition
                                     is tree.levels[boom].partition):
                raise ValueError(f"level {boom}: boom")
            return synthesize(spec, ctx, coeffs)

        monkeypatch.setattr(fb, "synthesize", failing_synthesis)
        try:
            if sweep:
                got = linear_approximation(tree, 1.0, np.zeros((20_000, 3)))
                np.testing.assert_array_equal(got.attributes, want)
            else:
                np.testing.assert_array_equal(reconstruct(tree), want)
            assert raises is None
        except (ValueError, NotPositiveDefinite) as e:
            assert raises is not None and str(e).startswith(raises), e
        gc.collect()  # what the calling thread's error held, freed there
        assert all(f[2] == f[1] for f in factors), factors
        # only level 0's M_BB is factored on the worker; M_AA, where a filter
        # needs it, is factored on first use by the calling thread
        nb = tree.levels[0].partition.b_idx.size
        for shape, built, _ in factors:
            assert (shape == (nb, nb)) is (built != main)
        if singular:  # the failing factor was made and tracked
            nb = tree.levels[max(singular)].partition.b_idx.size
            assert (nb, nb) in [f[0] for f in factors]

    def test_callers_on_several_threads_share_the_worker(self, cloud_20k,
                                                          factors):
        """Four threads decode at once through the one worker, with a short
        switch interval: each gets the sequential output, and every factor
        is freed on the thread that built it."""
        tree = decompose(cloud_20k, fb.lazy_spec(), k=5, levels=3, seed=0)
        want = reconstruct(tree)
        factors.clear()
        got, errors = [], []

        def decode():
            try:
                for _ in range(3):
                    got.append(reconstruct(tree))
            except Exception as e:  # reported below
                errors.append(e)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=decode) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(got) == 12 and all(np.array_equal(g, want) for g in got)
        assert len(factors) == 12 * len(tree.levels)
        assert all(f[2] == f[1] for f in factors), factors

    def test_a_forked_child_runs_the_pipeline(self, cloud_20k):
        """The child gets a worker of its own: the parent's has no thread
        behind it there."""
        pc = cloud_20k
        reconstruct(decompose(pc, fb.lazy_spec(), k=5, levels=3, seed=0))
        pid = os.fork()
        if pid == 0:  # the child: exit 0 only if the pipeline completes
            code = 1
            try:
                signal.alarm(60)
                tree = decompose(pc, fb.lazy_spec(), k=5, levels=3, seed=0)
                rec = reconstruct(tree)
                code = 0 if np.allclose(rec, pc.attributes) else 2
            finally:
                os._exit(code)
        deadline = time.monotonic() + 90
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0:
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child did not finish in 90 s")
            time.sleep(0.05)
        assert os.waitstatus_to_exitcode(done[1]) == 0


class TestReconstruct:
    def test_roundtrip_lazy(self):
        pc = gaussian_blob_cloud(10_000, seed=7)
        tree = decompose(pc, fb.lazy_spec(), k=5, levels=7, seed=7)
        rec = reconstruct(tree)
        rel = np.linalg.norm(rec - pc.attributes) / np.linalg.norm(pc.attributes)
        assert rel <= 1e-6

    def test_roundtrip_orthogonal_dense(self):
        pc = small_cloud(300)
        spec = fb.orthogonal_cosine_spec(mode="dense")
        tree = decompose(pc, spec, k=4, levels=3, seed=8)
        rec = reconstruct(tree)
        rel = np.linalg.norm(rec - pc.attributes) / np.linalg.norm(pc.attributes)
        assert rel <= 1e-8

    def test_orthogonal_dense_at_pipeline_scale(self, monkeypatch):
        # dense filtering works in the folded factors and never assembles U
        def no_u(basis):
            raise AssertionError("dense filtering assembled the n x n U")

        monkeypatch.setattr(FoldedBasis, "u", property(no_u))
        pc = gaussian_blob_cloud(2000, seed=0)
        spec = fb.orthogonal_cosine_spec(mode="dense")
        tree = decompose(pc, spec, k=5, levels=3, seed=0)
        rec = reconstruct(tree)
        rel = np.linalg.norm(rec - pc.attributes) / np.linalg.norm(pc.attributes)
        assert rel <= 1e-8
        res = linear_approximation(tree, 0.5, pc.attributes)
        assert res.m_over_n < 1.0 and np.all(np.isfinite(res.psnr))
        # the level-0 context decompose filtered with is Q-orthogonal
        lv = tree.levels[0]
        g = gb.Graph(lv.adjacency)
        ctx = fb.make_context(gb.combinatorial_laplacian(g), lv.partition)
        rep = fb.check_q_orthogonality(spec, ctx, trials=3)
        assert rep["passed"], rep

    def test_roundtrip_baseline(self):
        pc = small_cloud(600)
        tree = decompose(pc, fb.lazy_spec(), k=10, levels=3, seed=9,
                         baseline=True)
        rec = reconstruct(tree)
        rel = np.linalg.norm(rec - pc.attributes) / np.linalg.norm(pc.attributes)
        assert rel <= 1e-8

    def test_zero_tree_gives_zero(self):
        pc = small_cloud()
        tree = decompose(pc, fb.lazy_spec(), k=4, levels=2, seed=10)
        tree.root[:] = 0.0
        for lv in tree.levels:
            lv.details[:] = 0.0
        assert np.max(np.abs(reconstruct(tree))) == 0.0

    def test_per_level_energy_bookkeeping_orthogonal(self):
        # each analysis step preserves the Q-norm under that level's Q
        pc = small_cloud(250)
        spec = fb.orthogonal_cosine_spec(mode="dense")
        pos = pc.positions
        x = pc.attributes
        seeds = np.random.SeedSequence(11).spawn(3)
        for ell in range(3):
            n = pos.shape[0]
            g = gb.knn_graph(gb.PointCloud(pos, np.empty((n, 0))), 4)
            p = gb.random_partition(n, seeds[ell])
            m = gb.combinatorial_laplacian(g)
            ctx = fb.make_context(m, p)
            c = fb.analyze(spec, ctx, x)
            for ch in range(x.shape[1]):
                ein = x[:, ch] @ (ctx.q @ x[:, ch])
                cc = fb.ChannelCoefficients(a=c.a[:, ch], d=c.d[:, ch])
                eout = fb.coeff_q_inner(ctx, cc, cc)
                assert abs(ein - eout) <= 1e-6 * max(ein, 1.0)
            pos, x = pos[p.a_idx], c.a


class TestDenseFromTheBlocks:
    """A dense spec filters through the basis each context folds from the
    same M_AA, M_BA and M_BB the poly path cuts from W."""

    def test_no_filter_assembles_the_full_m_or_q(self, monkeypatch):
        def no_assembly(*args, **kwargs):
            raise AssertionError("the n x n M or Q was assembled")

        monkeypatch.setattr(gb.Operator, "matrix", no_assembly)
        monkeypatch.setattr(fb, "build_block_diag_q", no_assembly)
        pc = small_cloud(300)
        spec = fb.orthogonal_cosine_spec(mode="dense")
        tree = decompose(pc, spec, k=4, levels=3, seed=8)
        rec = reconstruct(tree)
        rel = np.linalg.norm(rec - pc.attributes) / np.linalg.norm(pc.attributes)
        assert rel <= 1e-8
        for j in range(len(tree.levels) + 1):
            res = linear_approximation(tree, 2.0**-j, pc.attributes)
            np.testing.assert_array_equal(res.attributes,
                                          reconstruct(tree, drop_finest=j))
        lv = tree.levels[0]
        op = gb.combinatorial_operator(gb.Graph(lv.adjacency))
        rep = fb.check_pr(spec, fb.make_context(op, lv.partition), trials=3)
        assert rep["passed"] and rep["spectrum"] == "computed", rep

    def test_past_the_dense_cap_names_the_level(self):
        pc = gaussian_blob_cloud(DENSE_CAP_DEFAULT + 100, seed=0)
        with pytest.raises(DenseCapExceeded,
                           match=f"level 0: n={pc.n} exceeds dense cap"):
            decompose(pc, fb.orthogonal_cosine_spec(mode="dense"), k=5,
                      levels=2, seed=0)


class TestLinearApproximation:
    def test_keep_one_is_lossless(self):
        pc = small_cloud()
        tree = decompose(pc, fb.lazy_spec(), k=4, levels=4, seed=12)
        res = linear_approximation(tree, 1.0, pc.attributes)
        assert res.m_over_n == 1.0
        assert np.min(res.psnr) >= 120.0

    def test_keep_smallest_uses_root_only(self):
        pc = small_cloud()
        tree = decompose(pc, fb.lazy_spec(), k=4, levels=4, seed=13)
        res = linear_approximation(tree, 2.0**-4, pc.attributes)
        expected_m = tree.root.shape[0]
        assert res.m_over_n == pytest.approx(expected_m / pc.n)

    def test_drop_finest_zeroes_finest_details(self):
        pc = small_cloud(600)
        lazy = fb.lazy_spec()
        for spec, kwargs in [
            (lazy, dict(k=4)),
            (lazy, dict(k=10, baseline=True)),
            (fb.zero_dc_wrap(lazy), dict(k=10, baseline=True)),
            (fb.orthogonal_cosine_spec(), dict(k=4)),
        ]:
            tree = decompose(pc, spec, levels=3, seed=16, **kwargs)
            rec = reconstruct(tree)
            assert (np.linalg.norm(rec - pc.attributes)
                    <= 1e-6 * np.linalg.norm(pc.attributes))
            for j in range(len(tree.levels) + 1):
                clipped = DecompositionTree(
                    levels=[LevelRecord(lv.partition, lv.adjacency,
                                        np.zeros_like(lv.details) if i < j
                                        else lv.details, lv.order_b)
                            for i, lv in enumerate(tree.levels)],
                    root=tree.root, meta=tree.meta)
                expected = reconstruct(clipped)
                np.testing.assert_array_equal(
                    reconstruct(tree, drop_finest=j), expected)
                res = linear_approximation(tree, 2.0**-j, pc.attributes)
                np.testing.assert_array_equal(res.attributes, expected)

    def test_sweep_sees_edits_to_the_tree(self):
        pc = small_cloud()
        tree = decompose(pc, fb.lazy_spec(), k=4, levels=3, seed=17)
        first = linear_approximation(tree, 0.5, pc.attributes)
        assert not any(np.shares_memory(first.attributes, out)
                       for out in tree._sweep.outputs)
        first.attributes[:] = 0.0
        np.testing.assert_array_equal(
            linear_approximation(tree, 0.5, pc.attributes).attributes,
            reconstruct(tree, drop_finest=1))
        for edit in (lambda: tree.levels[0].details.fill(0.0),  # in place
                     lambda: setattr(tree, "root", tree.root + 1.0)):
            edit()
            for j in range(len(tree.levels) + 1):
                res = linear_approximation(tree, 2.0**-j, pc.attributes)
                np.testing.assert_array_equal(res.attributes,
                                              reconstruct(tree, drop_finest=j))

    def test_sweep_builds_each_context_once(self, monkeypatch):
        pc = small_cloud()
        calls = {"make_context": 0, "synthesize": 0}
        for name in calls:
            def counted(*args, _real=getattr(fb, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(fb, name, counted)
        # in any keep order, the root-only keep first included
        for order in ([0, 1, 2, 3], [2, 0, 1, 3], [3, 2, 1, 0]):
            tree = decompose(pc, fb.lazy_spec(), k=4, levels=3, seed=18)
            levels = len(tree.levels)
            assert sorted(order) == list(range(levels + 1))
            calls.update(make_context=0, synthesize=0)
            first = linear_approximation(tree, 2.0**-order[0], pc.attributes)
            # the first keep runs the whole sweep in one pass: level i
            # synthesizes the full stream and one stream per keep j > i
            passes = sum(levels - i + 1 for i in range(levels))
            assert calls == {"make_context": levels, "synthesize": passes}
            # the memo keeps outputs only, no level context
            assert len(tree._sweep.outputs) == levels + 1
            assert not any(isinstance(v, fb.FilterContext)
                           for v in vars(tree._sweep).values())
            np.testing.assert_array_equal(
                first.attributes, reconstruct(tree, drop_finest=order[0]))
            calls.update(make_context=0, synthesize=0)
            for j in order[1:]:
                res = linear_approximation(tree, 2.0**-j, pc.attributes)
                np.testing.assert_array_equal(res.attributes,
                                              tree._sweep.outputs[j])
            assert calls == {"make_context": 0, "synthesize": 0}

    @pytest.mark.parametrize("spec", [
        fb.lazy_spec(), fb.orthogonal_cosine_spec(),
        fb.zero_dc_wrap(fb.lazy_spec())], ids=["lazy", "ortho", "zero-dc"])
    @pytest.mark.parametrize("replace", ["adjacency", "partition"])
    def test_sweep_never_uses_a_stale_context(self, spec, replace):
        pc = small_cloud()
        tree = decompose(pc, spec, k=4, levels=3, seed=19)
        before = [reconstruct(tree, drop_finest=j)
                  for j in range(len(tree.levels) + 1)]
        linear_approximation(tree, 0.5, pc.attributes)
        memo = tree._sweep
        assert len(memo.outputs) == len(tree.levels) + 1
        lv = tree.levels[0]
        if replace == "adjacency":
            # squared weights change every filter, lazy included (a uniform
            # scale of M would leave its prediction step unchanged)
            lv.adjacency = lv.adjacency.power(2)
        else:
            # swap one vertex across, keeping both side sizes
            f = lv.partition.f.copy()
            f[[lv.partition.a_idx[0], lv.partition.b_idx[0]]] *= -1
            lv.partition = gb.Partition(f)
        for j in range(len(tree.levels) + 1):
            res = linear_approximation(tree, 2.0**-j, pc.attributes)
            assert tree._sweep is not memo
            expected = reconstruct(tree, drop_finest=j)
            np.testing.assert_array_equal(res.attributes, expected)
            assert not np.array_equal(expected, before[j])

    def test_sweep_drops_its_outputs_when_an_order_is_replaced(self):
        pc = small_cloud()
        tree = decompose(pc, fb.lazy_spec(), k=4, levels=3, seed=19)
        linear_approximation(tree, 0.5, pc.attributes)
        memo = tree._sweep
        lv = tree.levels[0]
        # another valid elimination order: the same block, another factor
        lv.order_b = lv.order_b[::-1].copy()
        for j in range(len(tree.levels) + 1):
            res = linear_approximation(tree, 2.0**-j, pc.attributes)
            assert tree._sweep is not memo
            np.testing.assert_array_equal(res.attributes,
                                          reconstruct(tree, drop_finest=j))

    def test_coarser_keep_not_better(self):
        pc = gaussian_blob_cloud(2000, seed=14)
        tree = decompose(pc, fb.lazy_spec(), k=5, levels=5, seed=14)
        half = linear_approximation(tree, 0.5, pc.attributes)
        tiny = linear_approximation(tree, 2.0**-5, pc.attributes)
        assert np.all(half.psnr > tiny.psnr)


class TestPsnr:
    def test_exact_match_capped(self):
        x = np.ones((10, 2))
        np.testing.assert_array_equal(psnr(x, x), [999.0, 999.0])

    def test_mse_equals_peak_squared(self):
        x = np.zeros((4, 1))
        y = np.full((4, 1), 255.0)
        np.testing.assert_allclose(psnr(x, y), [0.0])

    def test_hand_arithmetic(self):
        x = np.zeros((3, 1))
        y = np.full((3, 1), 5.0)  # MSE = 25
        np.testing.assert_allclose(psnr(x, y), [10 * np.log10(255**2 / 25)])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            psnr(np.zeros((3, 1)), np.zeros((4, 1)))

    def test_a_nan_channel_reads_nan_not_the_cap(self):
        x = np.zeros((500, 3))
        y = x.copy()
        y[7, 1] = np.nan
        y[:, 2] += 1.0
        got = psnr(x, y)
        assert got[0] == 999.0 and np.isnan(got[1])
        assert got[2] == pytest.approx(10 * np.log10(255**2))


class TestTreeSerialization:
    def test_roundtrip_bit_exact(self, tmp_path):
        pc = small_cloud()
        tree = decompose(pc, fb.lazy_spec(), k=4, levels=3, seed=15)
        save_tree(tree, tmp_path / "tree")
        loaded = load_tree(tmp_path / "tree")
        np.testing.assert_array_equal(loaded.root, tree.root)
        for a, b in zip(loaded.levels, tree.levels):
            np.testing.assert_array_equal(a.details, b.details)
            np.testing.assert_array_equal(a.partition.f, b.partition.f)
        rec = reconstruct(loaded)
        np.testing.assert_array_equal(rec, reconstruct(tree))

    def test_dense_ortho_tree_reconstructs_through_dense_path(
            self, tmp_path, monkeypatch):
        # trees written before ortho-cosine defaulted to poly mode say "dense"
        pc = small_cloud(300)
        tree = decompose(pc, fb.orthogonal_cosine_spec(mode="dense"), k=4,
                         levels=2, seed=15)
        want = reconstruct(tree)
        save_tree(tree, tmp_path / "tree")
        loaded = load_tree(tmp_path / "tree")
        assert loaded.meta["mode"] == "dense"
        assert json.loads(loaded.meta["spec"])["mode"] == "dense"
        built = []
        folded_basis = fb.folded_basis

        def recording(a, b, *blocks):
            built.append(a.size + b.size)
            return folded_basis(a, b, *blocks)

        monkeypatch.setattr(fb, "folded_basis", recording)
        np.testing.assert_array_equal(reconstruct(loaded), want)
        assert built == [lv.partition.n for lv in loaded.levels[::-1]]

    def test_zero_dc_tree_in_the_older_meta_layout_loads(self, tmp_path):
        """A zero-DC tree whose meta.json holds the base spec and a
        separate "zero_dc" key, as trees were written before the spec
        carried the flag, loads as zero-DC and decodes."""
        pc = small_cloud(500)
        spec = fb.zero_dc_wrap(fb.lazy_spec())
        tree = decompose(pc, spec, k=10, levels=3, seed=4, baseline=True)
        assert json.loads(tree.meta["spec"])["zero_dc"] is True
        save_tree(tree, tmp_path)
        meta = json.loads((tmp_path / "meta.json").read_text())
        meta["spec"] = fb.lazy_spec().to_json()
        assert meta["zero_dc"] is True
        (tmp_path / "meta.json").write_text(json.dumps(meta, indent=2))
        loaded = load_tree(tmp_path)
        assert multires._spec_from_meta(loaded.meta) == spec
        rec = reconstruct(loaded)
        np.testing.assert_array_equal(rec, reconstruct(tree))
        rel = np.linalg.norm(rec - pc.attributes) / np.linalg.norm(pc.attributes)
        assert rel <= 1e-10

    @pytest.mark.parametrize("baseline", [False, True])
    def test_roundtrip_bit_exact_at_20k(self, tmp_path, baseline,
                                        monkeypatch):
        pc = gaussian_blob_cloud(20_000, seed=0)
        tree = decompose(pc, fb.lazy_spec(), k=5, levels=4, seed=0,
                         baseline=baseline)
        # levels 1 and 2 built their KNN graphs on the worker thread; the
        # same call with every graph built inline gives the same tree
        assert pc.n // 4 > multires.PIPELINE_MIN_POINTS
        monkeypatch.setattr(multires, "PIPELINE_MIN_POINTS", pc.n + 1)
        inline = decompose(pc, fb.lazy_spec(), k=5, levels=4, seed=0,
                           baseline=baseline)
        save_tree(tree, tmp_path / "tree")
        assert sorted(p.name for p in (tmp_path / "tree").iterdir()) == [
            "meta.json", "tree.npz"]
        loaded = load_tree(tmp_path / "tree")
        assert loaded.meta == tree.meta == inline.meta
        assert len(loaded.levels) == len(inline.levels) == len(tree.levels) == 4
        for other in (loaded, inline):
            np.testing.assert_array_equal(other.root, tree.root)
            for a, b in zip(other.levels, tree.levels):
                for part in ("indptr", "indices", "data"):
                    np.testing.assert_array_equal(getattr(a.adjacency, part),
                                                  getattr(b.adjacency, part))
                np.testing.assert_array_equal(a.partition.f, b.partition.f)
                np.testing.assert_array_equal(a.details, b.details)
                assert (a.order_b is None) == (b.order_b is None) == baseline
                np.testing.assert_array_equal(a.order_b, b.order_b)
        np.testing.assert_array_equal(reconstruct(loaded), reconstruct(tree))

    def test_checksum_catches_a_rewritten_array(self, tmp_path):
        # a tree.npz rewritten with one changed value is a valid zip file, so
        # only the crc32 in meta.json can tell
        tree = decompose(small_cloud(), fb.lazy_spec(), k=4, levels=2, seed=1)
        save_tree(tree, tmp_path)
        npz = tmp_path / "tree.npz"
        with np.load(npz) as z:
            arrays = dict(z)
        arrays["level_00/weights"][7] *= 2
        np.savez(npz, **arrays)
        with pytest.raises(CorruptTree, match="level_00/weights.*crc32"):
            load_tree(tmp_path)

    def test_shape_mismatch_names_the_array(self, tmp_path):
        tree = decompose(small_cloud(), fb.lazy_spec(), k=4, levels=2, seed=1)
        save_tree(tree, tmp_path)
        meta_path = tmp_path / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["arrays"]["level_01/details"]["shape"][0] += 1
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(CorruptTree, match="tree.npz: array 'level_01/details'"):
            load_tree(tmp_path)


def _rewrite_array(path, name, array):
    """Replace one array of a saved tree, or drop it when ``array`` is
    None, with a matching spec and crc32 in meta.json, so only
    load_tree's own checks can tell."""
    npz = path / "tree.npz"
    with np.load(npz) as z:
        arrays = dict(z)
    meta = json.loads((path / "meta.json").read_text())
    if array is None:
        del arrays[name], meta["arrays"][name]
    else:
        arrays[name] = array = np.ascontiguousarray(array)
        meta["arrays"][name] = {"shape": list(array.shape),
                                "dtype": array.dtype.str,
                                "crc32": zlib.crc32(array)}
    np.savez(npz, **arrays)
    (path / "meta.json").write_text(json.dumps(meta))


class TestEliminationOrders:
    """Each level's M_BB order, kept from decompose's factor, saved and
    checked on load."""

    def test_order_b_is_stored_in_the_smallest_unsigned_dtype(self, tmp_path):
        tree = decompose(small_cloud(), fb.lazy_spec(), k=4, levels=3, seed=5)
        save_tree(tree, tmp_path)
        loaded = load_tree(tmp_path)
        for a, b in zip(loaded.levels, tree.levels):
            assert a.order_b.dtype == np.uint8  # |B| <= 256
            np.testing.assert_array_equal(a.order_b, b.order_b)

    def test_no_order_where_m_bb_is_diagonal(self):
        pc = small_cloud()
        tree = decompose(pc, fb.lazy_spec(), k=10, levels=2, seed=5,
                         baseline=True)
        assert all(lv.order_b is None for lv in tree.levels)
        # every context factors M_BB, so a dense tree records orders too
        tree = decompose(pc, fb.orthogonal_cosine_spec(mode="dense"), k=4,
                         levels=2, seed=5)
        assert all(lv.order_b is not None for lv in tree.levels)

    def test_tree_without_orders_decodes_through_mmd(self, tmp_path,
                                                      monkeypatch):
        """A tree.npz with no order arrays, as the format was written
        before orders were stored, loads and decodes bit-identically to
        decode with MMD-ordered factors."""
        pc = small_cloud()
        tree = decompose(pc, fb.lazy_spec(), k=4, levels=3, seed=6)
        save_tree(tree, tmp_path)
        for i in range(len(tree.levels)):
            _rewrite_array(tmp_path, f"level_{i:02d}/order_b", None)
        loaded = load_tree(tmp_path)
        assert all(lv.order_b is None for lv in loaded.levels)
        for lv in tree.levels:
            lv.order_b = None
        specs = []
        splu = spla.splu

        def recording(a, **kwargs):
            specs.append(kwargs["permc_spec"])
            return splu(a, **kwargs)

        monkeypatch.setattr(spla, "splu", recording)
        np.testing.assert_array_equal(reconstruct(loaded), reconstruct(tree))
        assert specs == ["MMD_AT_PLUS_A"] * 2 * len(tree.levels)

    @pytest.mark.parametrize("corrupt", [
        "duplicate", "two_dimensional", "signed", "short"])
    def test_load_rejects_a_bad_order(self, tmp_path, corrupt):
        tree = decompose(small_cloud(), fb.lazy_spec(), k=4, levels=2, seed=7)
        save_tree(tree, tmp_path)
        order = load_tree(tmp_path).levels[1].order_b.copy()
        if corrupt == "duplicate":
            order[0] = order[1]
        elif corrupt == "two_dimensional":
            order = order[:, None]
        elif corrupt == "signed":
            order = order.astype(np.int16)
        else:
            order = order[:-1]
        _rewrite_array(tmp_path, "level_01/order_b", order)
        with pytest.raises(CorruptTree,
                           match="tree.npz: array 'level_01/order_b'"):
            load_tree(tmp_path)

    def test_load_rejects_a_duplicate_through_the_cli(self, tmp_path, capsys):
        from mqfb.cli import EXIT_IO, main

        tree = decompose(small_cloud(), fb.lazy_spec(), k=4, levels=2, seed=7)
        save_tree(tree, tmp_path / "t")
        order = tree.levels[0].order_b.astype(np.uint8)
        order[-1] = order[0]
        _rewrite_array(tmp_path / "t", "level_00/order_b", order)
        code = main(["reconstruct", "--input", str(tmp_path / "t"),
                     "--out", str(tmp_path / "x.bin")])
        assert code == EXIT_IO
        assert (f"array 'level_00/order_b': M_BB order (uint8[{order.size}]) "
                f"is not a permutation of the {order.size} B rows"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("corrupt", ["duplicate", "short"])
    def test_an_order_that_does_not_fit_names_the_level(self, corrupt):
        tree = decompose(small_cloud(), fb.lazy_spec(), k=4, levels=3, seed=8)
        lv = tree.levels[1]
        if corrupt == "duplicate":
            lv.order_b = lv.order_b.copy()
            lv.order_b[0] = lv.order_b[1]
        else:
            lv.order_b = lv.order_b[1:]
        with pytest.raises(ValueError, match="level 1: M_BB order"):
            reconstruct(tree)


def _index_past_n(a):
    a["level_00/indices"][0] = a["level_00/indptr"].size - 1
    return "level_00/indices"


def _decreasing_indptr(a):
    a["level_00/indptr"][1] = a["level_00/indptr"][2] + 1
    return "level_00/indptr"


def _short_side_a(a):
    a["level_01/side_a"] = a["level_01/side_a"][:-1]
    return "level_01/side_a"


def _short_details(a):
    a["level_01/details"] = a["level_01/details"][:-1]
    return "level_01/details"


def _extra_channel(a):
    a["level_02/details"] = np.hstack([a["level_02/details"]] * 2)
    return "level_02/details"


def _long_level(a):
    a["level_01/indptr"] = np.append(a["level_01/indptr"],
                                     a["level_01/indptr"][-1])
    return "level_01/indptr"


def _short_root(a):
    a["root"] = a["root"][:-1]
    return "root"


def _missing_member(a):
    del a["level_01/side_a"]
    return "level_01/side_a"


def _nan_weight(a):
    a["level_00/weights"][3] = np.nan
    return "level_00/weights"


def _inf_weight(a):
    a["level_01/weights"][0] = np.inf
    return "level_01/weights"


def _zero_weight(a):
    a["level_00/weights"][-1] = 0.0
    return "level_00/weights"


def _negated_weights(a):
    a["level_02/weights"] = -a["level_02/weights"]
    return "level_02/weights"


def _diagonal_entry(a):
    indptr = a["level_00/indptr"]
    row = np.flatnonzero(np.diff(indptr))[0]
    a["level_00/indices"][indptr[row]] = row
    return "level_00/indices"


def _entry_below_the_diagonal(a):
    indptr = a["level_01/indptr"]
    row = np.flatnonzero(np.diff(indptr))[-1]
    a["level_01/indices"][indptr[row]] = row - 1
    return "level_01/indices"


class TestLoadChecksTheArraysFit:
    """Arrays that pass their crc32 (rewritten with a matching spec in
    meta.json) but do not fit together make `mqfb reconstruct` exit 3 with
    the array's name, not crash or fail inside numpy or SciPy."""

    @pytest.mark.parametrize("corrupt", [
        _index_past_n, _decreasing_indptr, _short_side_a, _short_details,
        _extra_channel, _long_level, _short_root, _missing_member,
        _nan_weight, _inf_weight, _zero_weight, _negated_weights,
        _diagonal_entry, _entry_below_the_diagonal])
    def test_reconstruct_exits_3_naming_the_array(self, tmp_path, capsys,
                                                  corrupt):
        from mqfb.cli import EXIT_IO, main

        tree = decompose(small_cloud(), fb.lazy_spec(), k=4, levels=3, seed=9)
        save_tree(tree, tmp_path / "t")
        with np.load(tmp_path / "t" / "tree.npz") as z:
            arrays = dict(z)
        name = corrupt(arrays)
        _rewrite_array(tmp_path / "t", name, arrays.get(name))
        code = main(["reconstruct", "--input", str(tmp_path / "t"),
                     "--out", str(tmp_path / "x.bin")])
        assert code == EXIT_IO
        err = capsys.readouterr().err
        assert "tree.npz: array" in err and f"{name!r}" in err, err

    @pytest.mark.parametrize("weight", [-1.0, 0.0])
    def test_bipartite_tree_weights_are_checked(self, tmp_path, weight):
        # the bipartite arm's M_BB is diagonal, so such weights decoded
        tree = decompose(small_cloud(), fb.lazy_spec(), k=10, levels=2,
                         seed=9, baseline=True)
        save_tree(tree, tmp_path)
        with np.load(tmp_path / "tree.npz") as z:
            w = z["level_00/weights"] * weight
        _rewrite_array(tmp_path, "level_00/weights", w)
        with pytest.raises(CorruptTree, match="'level_00/weights'"):
            load_tree(tmp_path)

    @pytest.mark.parametrize("n", ["400", -1, 401])
    def test_a_point_count_that_does_not_fit_is_rejected(self, tmp_path, n):
        tree = decompose(small_cloud(), fb.lazy_spec(), k=4, levels=3, seed=9)
        save_tree(tree, tmp_path)
        meta = json.loads((tmp_path / "meta.json").read_text())
        meta["n"] = n
        (tmp_path / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(CorruptTree, match="'n' is|'level_00/indptr'"):
            load_tree(tmp_path)


@pytest.fixture(scope="module")
def traced_20k(tmp_path_factory):
    """A lazy 20k-point decompose (k=5, L=4), save, load, decode and sweep,
    with every splu call recorded by stage as (permc_spec, n, nnz(L+U))."""
    calls = {}
    stage = []
    splu = spla.splu

    def recording(a, **kwargs):
        lu = splu(a, **kwargs)
        calls.setdefault(stage[-1], []).append(
            (kwargs["permc_spec"], a.shape[0], lu.nnz))
        return lu

    pc = gaussian_blob_cloud(20_000, seed=0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spla, "splu", recording)
        stage.append("decompose")
        tree = decompose(pc, fb.lazy_spec(), k=5, levels=4, seed=0)
        path = tmp_path_factory.mktemp("tree")
        save_tree(tree, path)
        loaded = load_tree(path)
        stage.append("decode")
        decoded = {"fresh": reconstruct(tree), "loaded": reconstruct(loaded)}
        stage.append("sweep")
        for j in range(len(tree.levels) + 1):
            linear_approximation(tree, 2.0**-j, pc.attributes)
    return pc, tree, loaded, decoded, calls


class TestOrdersAt20k:
    def test_decode_and_sweep_factors_keep_the_decompose_fill(self,
                                                              traced_20k):
        _, tree, _, _, calls = traced_20k
        fill = {n: nnz for _, n, nnz in calls["decompose"]}
        assert len(fill) == len(tree.levels) == 4
        for stage in ("decode", "sweep"):
            assert calls[stage]
            assert all(fill[n] == nnz for _, n, nnz in calls[stage])

    def test_round_trip(self, traced_20k):
        pc, _, _, decoded, _ = traced_20k
        for out in decoded.values():
            assert (np.linalg.norm(out - pc.attributes)
                    <= 1e-14 * np.linalg.norm(pc.attributes))
        np.testing.assert_array_equal(decoded["loaded"], decoded["fresh"])

    def test_mmd_runs_once_per_level_in_decompose_only(self, traced_20k):
        _, tree, loaded, _, calls = traced_20k
        assert ([spec for spec, _, _ in calls["decompose"]]
                == ["MMD_AT_PLUS_A"] * len(tree.levels))
        # two decodes and one sweep: three factors per level
        assert ([spec for spec, _, _ in calls["decode"] + calls["sweep"]]
                == ["NATURAL"] * 3 * len(tree.levels))
        for lv in loaded.levels:
            assert lv.order_b.dtype == np.min_scalar_type(lv.order_b.size - 1)
