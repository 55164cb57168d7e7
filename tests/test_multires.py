import json

import numpy as np
import pytest

from mqfb import filterbank as fb
from mqfb import graphs as gb
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


class TestReconstruct:
    def test_roundtrip_lazy(self):
        pc = gaussian_blob_cloud(10_000, seed=7)
        tree = decompose(pc, fb.lazy_spec(), k=5, levels=7, seed=7)
        rec = reconstruct(tree)
        rel = np.linalg.norm(rec - pc.attributes) / np.linalg.norm(pc.attributes)
        assert rel <= 1e-6

    def test_roundtrip_orthogonal_dense(self):
        pc = small_cloud(300)
        spec = fb.orthogonal_cosine_spec()
        tree = decompose(pc, spec, k=4, levels=3, seed=8)
        rec = reconstruct(tree)
        rel = np.linalg.norm(rec - pc.attributes) / np.linalg.norm(pc.attributes)
        assert rel <= 1e-8

    def test_orthogonal_dense_at_pipeline_scale(self):
        pc = gaussian_blob_cloud(2000, seed=0)
        spec = fb.orthogonal_cosine_spec()
        tree = decompose(pc, spec, k=5, levels=3, seed=0)
        rec = reconstruct(tree)
        rel = np.linalg.norm(rec - pc.attributes) / np.linalg.norm(pc.attributes)
        assert rel <= 1e-8
        # the level-0 context decompose filtered with is Q-orthogonal
        lv = tree.levels[0]
        g = gb.Graph(lv.adjacency)
        ctx = fb.make_context(gb.combinatorial_laplacian(g), lv.partition,
                              mode="dense")
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
        spec = fb.orthogonal_cosine_spec()
        pos = pc.positions
        x = pc.attributes
        seeds = np.random.SeedSequence(11).spawn(3)
        for ell in range(3):
            n = pos.shape[0]
            g = gb.knn_graph(gb.PointCloud(pos, np.empty((n, 0))), 4)
            p = gb.random_partition(n, seeds[ell])
            m = gb.combinatorial_laplacian(g)
            ctx = fb.make_context(m, p, mode="dense")
            c = fb.analyze(spec, ctx, x)
            for ch in range(x.shape[1]):
                ein = x[:, ch] @ (ctx.q @ x[:, ch])
                cc = fb.ChannelCoefficients(a=c.a[:, ch], d=c.d[:, ch])
                eout = fb.coeff_q_inner(ctx, cc, cc)
                assert abs(ein - eout) <= 1e-6 * max(ein, 1.0)
            pos, x = pos[p.a_idx], c.a


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
                                        else lv.details)
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
                       for out in tree._sweep.outputs.values())
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

    def test_sweep_costs_two_passes(self, monkeypatch):
        pc = small_cloud()
        tree = decompose(pc, fb.lazy_spec(), k=4, levels=3, seed=18)
        calls = {"make_context": 0, "synthesize": 0}
        for name in calls:
            def counted(*args, _real=getattr(fb, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(fb, name, counted)
        levels = len(tree.levels)
        linear_approximation(tree, 0.25, pc.attributes)
        # one keep costs what reconstruct costs
        assert calls == {"make_context": levels, "synthesize": levels}
        for j in range(levels + 1):
            linear_approximation(tree, 2.0**-j, pc.attributes)
        # every other keep comes from one more pass
        assert calls["make_context"] == 2 * levels

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

    @pytest.mark.parametrize("baseline", [False, True])
    def test_roundtrip_bit_exact_at_20k(self, tmp_path, baseline):
        pc = gaussian_blob_cloud(20_000, seed=0)
        tree = decompose(pc, fb.lazy_spec(), k=5, levels=4, seed=0,
                         baseline=baseline)
        save_tree(tree, tmp_path / "tree")
        assert sorted(p.name for p in (tmp_path / "tree").iterdir()) == [
            "meta.json", "tree.npz"]
        loaded = load_tree(tmp_path / "tree")
        assert loaded.meta == tree.meta
        np.testing.assert_array_equal(loaded.root, tree.root)
        assert len(loaded.levels) == len(tree.levels) == 4
        for a, b in zip(loaded.levels, tree.levels):
            for part in ("indptr", "indices", "data"):
                np.testing.assert_array_equal(getattr(a.adjacency, part),
                                              getattr(b.adjacency, part))
            np.testing.assert_array_equal(a.partition.f, b.partition.f)
            np.testing.assert_array_equal(a.details, b.details)
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
