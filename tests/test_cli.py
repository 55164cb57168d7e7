import csv
import json

import numpy as np
import pytest

from mqfb.cli import (
    EXIT_CHECK_FAILED,
    EXIT_IO,
    EXIT_OK,
    main,
)


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
    ra = np.fromfile(tmp_path / "a" / "root.bin")
    rb = np.fromfile(tmp_path / "b" / "root.bin")
    np.testing.assert_array_equal(ra, rb)


def test_reconstruct_missing_tree(tmp_path):
    code = main(["reconstruct", "--input", str(tmp_path / "nope"),
                 "--out", str(tmp_path / "x.bin")])
    assert code == EXIT_IO


def test_bench_accounting(tmp_path):
    out = tmp_path / "bench.csv"
    code = main(["bench", "--frames", "1", "--n", "3000", "--levels", "3",
                 "--baseline-k", "10", "--out", str(out)])
    assert code == EXIT_OK
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert {r["arm"] for r in rows} == {"proposed", "bipartite"}
    for r in rows:
        stages = sum(float(r[s]) for s in
                     ("knn", "laplacian", "partition", "filter"))
        assert stages <= float(r["total"]) * 1.1


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
