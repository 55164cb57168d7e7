import csv
import json
import shutil

import numpy as np
import pytest

from mqfb.cli import (
    EXIT_CHECK_FAILED,
    EXIT_IO,
    EXIT_OK,
    main,
)
from mqfb.multires import load_tree


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


def test_decompose_rejects_tol(tmp_path):
    # the direct solver has no tolerance, so decompose offers no --tol
    with pytest.raises(SystemExit) as exc:
        main(["decompose", "--synthetic", "600", "--levels", "2",
              "--tol", "1e-7", "--out", str(tmp_path / "t")])
    assert exc.value.code == 2
    assert not (tmp_path / "t").exists()


def test_decompose_mode_honoured_for_ortho(tmp_path, capsys):
    code = main(["decompose", "--synthetic", "300", "--k", "4",
                 "--levels", "1", "--family", "ortho-cosine",
                 "--mode", "poly", "--out", str(tmp_path / "t")])
    assert code == EXIT_CHECK_FAILED
    assert "no polynomial implementation" in capsys.readouterr().err
    assert not (tmp_path / "t").exists()


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
