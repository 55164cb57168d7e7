import csv
import json
import shutil

import numpy as np
import pytest
import scipy.sparse.csgraph as csgraph

from mqfb import cli
from mqfb import filterbank as fb
from mqfb import graphs as gb
from mqfb.cli import (
    EXIT_CHECK_FAILED,
    EXIT_IO,
    EXIT_NUMERICAL,
    EXIT_OK,
    main,
)
from mqfb.gft import FoldedBasis
from mqfb.multires import (
    decompose,
    linear_approximation,
    load_tree,
    reconstruct,
    save_tree,
)
from mqfb.sparse_core import NotPositiveDefinite


def test_verify_small_battery(tmp_path):
    report = tmp_path / "report.json"
    code = main(["verify", "--graphs", "8", "--nmax", "60",
                 "--out", str(report)])
    assert code == EXIT_OK
    data = json.loads(report.read_text())
    assert data["passed"]
    assert data["graphs"] == 8
    assert "config" in data and data["config"]["seed"] == 0


def test_verify_misuse_identity_q_fails(tmp_path):
    report = tmp_path / "mis.json"
    code = main(["verify", "--graphs", "4", "--nmax", "40",
                 "--misuse-identity-q", "--out", str(report)])
    assert code == EXIT_CHECK_FAILED
    data = json.loads(report.read_text())
    assert not data["passed"]


def _scale_b_side_of_chebyshev(monkeypatch):
    chebyshev = fb._chebyshev

    def wrong(*args):
        ya, yb = chebyshev(*args)
        return ya, 1.01 * yb

    monkeypatch.setattr(fb, "_chebyshev", wrong)


def _scale_folded_forward(monkeypatch):
    forward = FoldedBasis.forward
    monkeypatch.setattr(FoldedBasis, "forward",
                        lambda self, x: 1.01 * forward(self, x))


@pytest.mark.parametrize("family", ["lazy", "ortho-cosine"])
@pytest.mark.parametrize("break_filter", [_scale_folded_forward,
                                          _scale_b_side_of_chebyshev],
                         ids=["dense", "poly"])
def test_verify_checks_the_filters_the_pipeline_ships(
        tmp_path, monkeypatch, family, break_filter):
    """PR and Parseval run through a pipeline context, in both modes: a
    folded basis or a Chebyshev recurrence 1 % off fails the battery."""
    break_filter(monkeypatch)
    report = tmp_path / "report.json"
    code = main(["verify", "--graphs", "3", "--nmax", "40", "--family",
                 family, "--out", str(report)])
    assert code == EXIT_CHECK_FAILED
    assert json.loads(report.read_text())["failing"] == 3


def test_verify_tol_reaches_every_check(tmp_path, monkeypatch):
    seen = []

    def recording(module, name):
        check = getattr(module, name)

        def wrapper(*args, tol, **kwargs):
            seen.append((name, tol))
            return check(*args, tol=tol, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for name in ("verify_spectral_folding", "spectrum_is_folded"):
        recording(cli, name)
    for name in ("check_pr", "check_q_orthogonality"):
        recording(fb, name)
    code = main(["verify", "--graphs", "2", "--nmax", "30", "--tol", "1e-7",
                 "--out", str(tmp_path / "r.json")])
    assert code == EXIT_OK
    assert {name for name, _ in seen} == {
        "verify_spectral_folding", "spectrum_is_folded", "check_pr",
        "check_q_orthogonality"}
    assert all(tol == 1e-7 for _, tol in seen), seen


def test_decompose_reconstruct_roundtrip(tmp_path):
    tree_dir = tmp_path / "tree"
    code = main(["decompose", "--synthetic", "2000", "--k", "5",
                 "--levels", "4", "--seed", "3",
                 "--out", str(tree_dir),
                 "--report", str(tmp_path / "dec.json")])
    assert code == EXIT_OK
    report = json.loads((tmp_path / "dec.json").read_text())
    assert report["seconds"] > 0 and report["sweep_seconds"] > 0
    csv_path = str(tree_dir) + "_psnr.csv"
    with open(csv_path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5  # keep = 1, 1/2, ..., 1/16
    assert float(rows[0]["m_over_n"]) == 1.0
    assert float(rows[0]["psnr_r"]) >= 120.0

    out = tmp_path / "rec.bin"
    code = main(["reconstruct", "--input", str(tree_dir),
                 "--out", str(out),
                 "--report", str(tmp_path / "rec.json")])
    assert code == EXIT_OK
    rec = np.fromfile(out, dtype="<f8").reshape(2000, 3)
    from mqfb.synthetic import gaussian_blob_cloud

    pc = gaussian_blob_cloud(2000, seed=3)
    rel = np.linalg.norm(rec - pc.attributes) / np.linalg.norm(pc.attributes)
    assert rel <= 1e-6


def test_decompose_baseline_arm(tmp_path):
    code = main(["decompose", "--synthetic", "1500", "--k", "10",
                 "--levels", "3", "--baseline", "bipartite",
                 "--out", str(tmp_path / "bfb")])
    assert code == EXIT_OK
    with open(str(tmp_path / "bfb") + "_psnr.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["family"] == "lazy-bfb"


def test_decompose_determinism(tmp_path):
    for name in ("a", "b"):
        main(["decompose", "--synthetic", "800", "--k", "4", "--levels", "2",
              "--seed", "9", "--out", str(tmp_path / name)])
    ra = load_tree(tmp_path / "a").root
    rb = load_tree(tmp_path / "b").root
    np.testing.assert_array_equal(ra, rb)


def test_reconstruct_missing_tree(tmp_path):
    code = main(["reconstruct", "--input", str(tmp_path / "nope"),
                 "--out", str(tmp_path / "x.bin")])
    assert code == EXIT_IO


def test_ply_input(tmp_path):
    from mqfb.graphs import save_ply
    from mqfb.synthetic import gaussian_blob_cloud

    pc = gaussian_blob_cloud(500, seed=1)
    ply = tmp_path / "cloud.ply"
    save_ply(ply, pc)
    code = main(["decompose", "--input", str(ply), "--k", "4",
                 "--levels", "2", "--out", str(tmp_path / "t")])
    assert code == EXIT_OK


def _write_binary_ply(path, pc, colour_type, colours):
    fields = [(c, "<f8") for c in "xyz"] + [
        (c, "<" + colours.dtype.str[1:]) for c in ("red", "green", "blue")]
    rec = np.empty(pc.n, dtype=fields)
    rec["x"], rec["y"], rec["z"] = pc.positions.T
    rec["red"], rec["green"], rec["blue"] = colours.T
    header = ("ply\nformat binary_little_endian 1.0\n"
              f"element vertex {pc.n}\n"
              + "".join(f"property double {c}\n" for c in "xyz")
              + "".join(f"property {colour_type} {c}\n"
                        for c in ("red", "green", "blue"))
              + "end_header\n")
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        rec.tofile(fh)


def test_psnr_of_16_bit_colours_is_against_65535(tmp_path):
    """The same cloud with 8-bit colours and with 16-bit ones (x 257) gives
    the same PSNR at every keep: each against its own type's peak."""
    from mqfb.synthetic import gaussian_blob_cloud

    pc = gaussian_blob_cloud(1000, seed=2)
    rgb = np.clip(np.rint(pc.attributes), 0, 255).astype(np.uint8)
    rows = {}
    for bits, colour_type, colours in [(8, "uchar", rgb),
                                       (16, "ushort", rgb * np.uint16(257))]:
        ply = tmp_path / f"c{bits}.ply"
        _write_binary_ply(ply, pc, colour_type, colours)
        assert gb.load_ply(ply).peak == 2.0 ** bits - 1
        out, report = tmp_path / f"t{bits}", tmp_path / f"r{bits}.json"
        code = main(["decompose", "--input", str(ply), "--k", "5",
                     "--levels", "3", "--out", str(out), "--report",
                     str(report)])
        assert code == EXIT_OK
        with open(str(out) + "_psnr.csv") as fh:
            rows[bits] = list(csv.DictReader(fh))
    assert len(rows[8]) == len(rows[16]) == 4
    for r8, r16 in zip(rows[8][1:], rows[16][1:]):
        assert float(r16["m_over_n"]) == float(r8["m_over_n"])
        for c in ("psnr_r", "psnr_g", "psnr_b"):
            assert 20.0 < float(r16[c]) == pytest.approx(float(r8[c]),
                                                         abs=1e-9)


@pytest.mark.parametrize("row", ["0 0", "0 0 0 7"],
                         ids=["too_few", "too_many"])
def test_ply_row_with_the_wrong_value_count(tmp_path, capsys, row):
    ply = tmp_path / "bad.ply"
    ply.write_text("ply\nformat ascii 1.0\nelement vertex 1\n"
                   "property double x\nproperty double y\n"
                   f"property double z\nend_header\n{row}\n")
    code = main(["decompose", "--input", str(ply), "--k", "4",
                 "--levels", "1", "--out", str(tmp_path / "t")])
    assert code == EXIT_CHECK_FAILED
    n = len(row.split())
    assert (f"invalid input: {ply}: PLY vertex row 0 has {n} values, "
            "expected 3") in capsys.readouterr().err
    assert not (tmp_path / "t").exists()


def test_decompose_rejects_a_nan_attribute(tmp_path, capsys):
    ply = tmp_path / "nan.ply"
    rows = "".join(f"{i} {i * i} {i % 3} 1 {'nan' if i == 5 else 2} 3\n"
                   for i in range(20))
    ply.write_text("ply\nformat ascii 1.0\nelement vertex 20\n"
                   + "".join(f"property double {c}\n" for c in "xyz")
                   + "".join(f"property float {c}\n"
                             for c in ("red", "green", "blue"))
                   + f"end_header\n{rows}")
    code = main(["decompose", "--input", str(ply), "--k", "4",
                 "--levels", "1", "--out", str(tmp_path / "t")])
    assert code == EXIT_CHECK_FAILED
    assert ("invalid input: attributes contain NaN/Inf"
            in capsys.readouterr().err)
    assert not (tmp_path / "t").exists()


def test_decompose_names_the_failing_level(tmp_path, capsys, monkeypatch):
    make_context = fb.make_context
    calls = []

    def fail_at_level_1(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise NotPositiveDefinite("vanishing pivot")
        return make_context(*args, **kwargs)

    monkeypatch.setattr(fb, "make_context", fail_at_level_1)
    code = main(["decompose", "--synthetic", "600", "--k", "4", "--levels",
                 "3", "--out", str(tmp_path / "t")])
    assert code == EXIT_NUMERICAL
    assert "level 1: vanishing pivot" in capsys.readouterr().err
    assert not (tmp_path / "t").exists()


def test_decompose_names_the_level_past_the_dense_cap(tmp_path, capsys):
    code = main(["decompose", "--synthetic", "6000", "--family",
                 "ortho-cosine", "--mode", "dense", "--levels", "2",
                 "--out", str(tmp_path / "t")])
    assert code == EXIT_CHECK_FAILED
    assert "level 0: n=6000 exceeds dense cap 4096" in capsys.readouterr().err


def _saved_tree_with_a_component_on(side, path):
    """A saved 2-level tree whose level-1 partition puts one whole
    connected component on ``side`` (+1 for A, -1 for B); returns the
    attributes."""
    # four separated clusters, so level 1 has several components
    rng = np.random.default_rng(0)
    pos = (100.0 * np.arange(4)[:, None, None]
           + rng.normal(0, 1, (4, 60, 3))).reshape(-1, 3)
    colors = rng.uniform(0, 255, (240, 3))
    tree = decompose(gb.PointCloud(pos, colors), fb.lazy_spec(), k=4,
                     levels=2, seed=0)
    # move the component onto the side, and as many of that side's
    # vertices of other components off it, so both sides keep their sizes
    lv = tree.levels[1]
    _, labels = csgraph.connected_components(lv.adjacency, directed=False)
    f = lv.partition.f.copy()
    off_side = np.flatnonzero((labels == labels[0]) & (f == -side))
    elsewhere = np.flatnonzero((labels != labels[0]) & (f == side))
    f[off_side] = side
    f[elsewhere[:off_side.size]] = -side
    lv.partition = gb.Partition(f)
    save_tree(tree, path)
    return colors


def test_reconstruct_names_the_failing_level(tmp_path, capsys):
    colors = _saved_tree_with_a_component_on(-1, tmp_path / "t")
    with pytest.raises(NotPositiveDefinite, match="^level 1: "):
        linear_approximation(load_tree(tmp_path / "t"), 0.5, colors)
    capsys.readouterr()
    code = main(["reconstruct", "--input", str(tmp_path / "t"),
                 "--out", str(tmp_path / "rec.bin")])
    assert code == EXIT_NUMERICAL
    assert "numerical failure: level 1: " in capsys.readouterr().err


def test_reconstruct_checks_side_a_of_a_loaded_tree(tmp_path, capsys):
    """A whole component on side A makes M_AA singular: the A-side check
    still guards a loaded tree, and the error names the level and block."""
    _saved_tree_with_a_component_on(1, tmp_path / "t")
    with pytest.raises(NotPositiveDefinite, match="^level 1: M_AA: "):
        reconstruct(load_tree(tmp_path / "t"))
    capsys.readouterr()
    code = main(["reconstruct", "--input", str(tmp_path / "t"),
                 "--out", str(tmp_path / "rec.bin")])
    assert code == EXIT_NUMERICAL == 4
    assert "level 1: M_AA: " in capsys.readouterr().err


@pytest.mark.parametrize("baseline, want", [("none", "comb"),
                                             ("bipartite", "norm")])
def test_decompose_reports_the_operator_it_ran(tmp_path, baseline, want):
    assert main(["decompose", "--synthetic", "300", "--k", "6", "--levels",
                 "1", "--baseline", baseline, "--out", str(tmp_path / "t"),
                 "--report", str(tmp_path / "r.json")]) == EXIT_OK
    meta = json.loads((tmp_path / "t" / "meta.json").read_text())
    report = json.loads((tmp_path / "r.json").read_text())
    assert meta["operator"] == report["config"]["operator"] == want


def test_decompose_rejects_comb_with_the_baseline(tmp_path, capsys):
    code = main(["decompose", "--synthetic", "300", "--k", "6", "--levels",
                 "1", "--baseline", "bipartite", "--operator", "comb",
                 "--out", str(tmp_path / "t")])
    assert code == EXIT_CHECK_FAILED
    assert ("the bipartite baseline runs on operator 'norm', not 'comb'"
            in capsys.readouterr().err)
    assert not (tmp_path / "t").exists()


def test_decompose_rejects_tol(tmp_path):
    # the direct solver has no tolerance, so decompose offers no --tol
    with pytest.raises(SystemExit) as exc:
        main(["decompose", "--synthetic", "600", "--levels", "2",
              "--tol", "1e-7", "--out", str(tmp_path / "t")])
    assert exc.value.code == 2
    assert not (tmp_path / "t").exists()


def test_decompose_mode_honoured_for_ortho(tmp_path):
    for mode in ("poly", "dense"):
        code = main(["decompose", "--synthetic", "300", "--k", "4",
                     "--levels", "1", "--family", "ortho-cosine",
                     "--mode", mode, "--out", str(tmp_path / mode)])
        assert code == EXIT_OK
        meta = json.loads((tmp_path / mode / "meta.json").read_text())
        assert meta["mode"] == mode
        assert json.loads(meta["spec"])["mode"] == mode


def test_ortho_decompose_past_the_dense_cap_roundtrips(tmp_path):
    # poly mode, the default for ortho-cosine, has no dense cap
    tree_dir = tmp_path / "t"
    assert main(["decompose", "--synthetic", "6000", "--family",
                 "ortho-cosine", "--levels", "2",
                 "--out", str(tree_dir)]) == EXIT_OK
    assert main(["reconstruct", "--input", str(tree_dir),
                 "--out", str(tmp_path / "rec.bin")]) == EXIT_OK
    from mqfb.synthetic import gaussian_blob_cloud

    want = gaussian_blob_cloud(6000, seed=0).attributes
    rec = np.fromfile(tmp_path / "rec.bin", dtype="<f8").reshape(want.shape)
    assert np.linalg.norm(rec - want) <= 1e-8 * np.linalg.norm(want)


@pytest.fixture(scope="module")
def saved_tree(tmp_path_factory):
    tree_dir = tmp_path_factory.mktemp("saved") / "tree"
    assert main(["decompose", "--synthetic", "600", "--k", "4", "--levels",
                 "2", "--out", str(tree_dir)]) == EXIT_OK
    return tree_dir


def _reconstruct(tree_dir, tmp_path, capsys):
    capsys.readouterr()
    code = main(["reconstruct", "--input", str(tree_dir),
                 "--out", str(tmp_path / "rec.bin")])
    return code, capsys.readouterr().err


def _copy_tree(src, tmp_path):
    dst = tmp_path / "tree"
    shutil.copytree(src, dst)
    return dst


def test_reconstruct_truncated_tree(saved_tree, tmp_path, capsys):
    tree_dir = _copy_tree(saved_tree, tmp_path)
    npz = tree_dir / "tree.npz"
    npz.write_bytes(npz.read_bytes()[: npz.stat().st_size // 2])
    code, err = _reconstruct(tree_dir, tmp_path, capsys)
    assert code == EXIT_IO
    assert str(npz) in err


def test_reconstruct_flipped_byte(saved_tree, tmp_path, capsys):
    tree_dir = _copy_tree(saved_tree, tmp_path)
    npz = tree_dir / "tree.npz"
    details = load_tree(tree_dir).levels[1].details
    raw = bytearray(npz.read_bytes())
    at = raw.find(details.tobytes())
    assert at > 0
    raw[at + 3] ^= 0x10
    npz.write_bytes(bytes(raw))
    code, err = _reconstruct(tree_dir, tmp_path, capsys)
    assert code == EXIT_IO
    assert str(npz) in err and "level_01/details" in err


def test_reconstruct_missing_npz(saved_tree, tmp_path, capsys):
    tree_dir = _copy_tree(saved_tree, tmp_path)
    (tree_dir / "tree.npz").unlink()
    code, err = _reconstruct(tree_dir, tmp_path, capsys)
    assert code == EXIT_IO
    assert "tree.npz" in err


@pytest.mark.parametrize("version", [0, None])
def test_reconstruct_unknown_format_version(saved_tree, tmp_path, capsys,
                                            version):
    tree_dir = _copy_tree(saved_tree, tmp_path)
    meta_path = tree_dir / "meta.json"
    meta = json.loads(meta_path.read_text())
    if version is None:
        del meta["format_version"]
    else:
        meta["format_version"] = version
    meta_path.write_text(json.dumps(meta))
    code, err = _reconstruct(tree_dir, tmp_path, capsys)
    assert code == EXIT_CHECK_FAILED
    assert str(meta_path) in err and "mqfb decompose" in err


@pytest.mark.parametrize("key", ["spec", "operator", "baseline", "mode", "n",
                                 "kernels"])
def test_reconstruct_incomplete_meta(saved_tree, tmp_path, capsys, key):
    tree_dir = _copy_tree(saved_tree, tmp_path)
    meta_path = tree_dir / "meta.json"
    meta = json.loads(meta_path.read_text())
    if key == "kernels":
        # a family this version does not know, without its kernels
        meta["spec"] = json.dumps({"family": "unknown", "mode": "poly"})
    else:
        del meta[key]
    meta_path.write_text(json.dumps(meta))
    code, err = _reconstruct(tree_dir, tmp_path, capsys)
    assert code == EXIT_IO
    assert str(meta_path) in err and repr(key) in err


@pytest.mark.parametrize("key, value", [("operator", "foo"),
                                        ("operator", None),
                                        ("baseline", 1),
                                        ("baseline", "true")])
def test_reconstruct_rejects_a_bad_operator_or_baseline(
        saved_tree, tmp_path, capsys, key, value):
    # an unknown operator used to decode as "comb"
    tree_dir = _copy_tree(saved_tree, tmp_path)
    meta_path = tree_dir / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta[key] = value
    meta_path.write_text(json.dumps(meta))
    code, err = _reconstruct(tree_dir, tmp_path, capsys)
    assert code == EXIT_IO
    assert str(meta_path) in err and f"{key!r} is {value!r}" in err, err

