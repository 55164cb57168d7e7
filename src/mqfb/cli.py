"""Command-line entry point: verify / decompose / reconstruct.

Every report embeds the resolved run configuration so reruns with the same
flags reproduce all non-timing fields.  Exit codes: 0 success,
2 validation/check failure (including a tree in an unknown format),
3 IO error (including a missing, truncated or corrupted tree file),
4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time

import numpy as np

from . import __version__
from . import filterbank as fb
from . import graphs as gb
from . import multires as mr
from . import synthetic
from .gft import mq_eigendecompose, spectrum_is_folded, spectrum_properties, \
    verify_spectral_folding
from .sparse_core import NotPositiveDefinite, build_block_diag_q

EXIT_OK = 0
EXIT_CHECK_FAILED = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4


def _config_dict(args):
    cfg = {k: v for k, v in vars(args).items() if k != "func"}
    cfg["version"] = __version__
    return cfg


def _np_default(o):
    if isinstance(o, (np.bool_,)):
        return bool(o)
    if isinstance(o, np.integer):
        return int(o)
    if isinstance(o, np.floating):
        return float(o)
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not JSON serializable: {type(o)}")


def _write_json(path, payload):
    if path:
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, default=_np_default)
    else:
        json.dump(payload, sys.stdout, indent=2, default=_np_default)
        sys.stdout.write("\n")


def cmd_verify(args):
    """Seeded battery: spectral folding, spectrum properties, PR, Parseval."""
    rng = np.random.default_rng(args.seed)
    # the battery builds dense contexts, so it checks the dense reference specs
    spec = fb.family_spec(args.family, mode="dense")
    ortho = fb.orthogonal_cosine_spec(mode="dense")
    results = []
    all_ok = True
    for trial in range(args.graphs):
        n = int(rng.integers(args.nmin, args.nmax + 1))
        g = synthetic.random_connected_graph(n, p=0.1, seed=int(rng.integers(2**32)))
        p = gb.random_partition(n, int(rng.integers(2**32)))
        if args.operator == "norm":
            m = gb.normalized_laplacian(g)
        else:
            m = gb.combinatorial_laplacian(g)
        if args.misuse_identity_q:
            import scipy.sparse as sp
            q = sp.csr_array(sp.eye(n))
        else:
            q = build_block_diag_q(m, p)
        basis = mq_eigendecompose(m, q)
        fold = verify_spectral_folding(basis, p, tol=args.tol, m=m)
        props = spectrum_properties(basis, p, m=m)
        folded = spectrum_is_folded(basis.lam, tol=args.tol)
        ctx = fb.FilterContext(m=m, q=q, partition=p, mode="dense", basis=basis)
        pr = fb.check_pr(spec, ctx, trials=3, seed=trial)
        parseval = fb.check_q_orthogonality(ortho, ctx, trials=5, seed=trial)
        ok = (fold["passed"] and props["in_range"] and folded
              and props["one_multiplicity_ok"] and pr["passed"]
              and parseval["passed"])
        all_ok = all_ok and ok
        results.append({
            "n": n,
            "folding_max_residual": fold["max_residual"],
            "spectrum_in_range": props["in_range"],
            "spectrum_folded": folded,
            "count_at_one": props["count_at_one"],
            "forced_one_multiplicity": props["forced_one_multiplicity"],
            "pr_roundtrip": pr["max_roundtrip_rel_error"],
            "parseval_violation": parseval["max_parseval_violation"],
            "passed": ok,
        })
    failing = [r for r in results if not r["passed"]]
    report = {
        "config": _config_dict(args),
        "graphs": len(results),
        "passed": all_ok,
        "failing": len(failing),
        "results": results,
    }
    _write_json(args.out, report)
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def _load_or_make_cloud(args):
    if args.input:
        return gb.load_ply(args.input)
    return synthetic.gaussian_blob_cloud(args.synthetic, seed=args.seed)


def cmd_decompose(args):
    pc = _load_or_make_cloud(args)
    if pc.channels == 0:
        print("input has no attribute channels", file=sys.stderr)
        return EXIT_CHECK_FAILED
    spec = fb.family_spec(args.family, mode=args.mode)
    t0 = time.perf_counter()
    tree = mr.decompose(
        pc, spec, k=args.k, levels=args.levels, seed=args.seed,
        operator=args.operator, baseline=args.baseline == "bipartite",
    )
    seconds = time.perf_counter() - t0
    args.operator = tree.meta["operator"]  # the report shows the resolved one
    mr.save_tree(tree, args.out)
    rows = []
    realized_levels = len(tree.levels)
    t_sweep = time.perf_counter()
    for j in range(realized_levels + 1):
        res = mr.linear_approximation(tree, 2.0 ** (-j), pc.attributes)
        rows.append({
            "frame": args.input or f"synthetic-{pc.n}",
            "K": args.k,
            "L": args.levels,
            "family": tree.meta["family"]
                      + ("-bfb" if args.baseline == "bipartite" else ""),
            "m_over_n": res.m_over_n,
            "psnr_r": res.psnr[0],
            "psnr_g": res.psnr[min(1, pc.channels - 1)],
            "psnr_b": res.psnr[min(2, pc.channels - 1)],
            "seconds": seconds,
        })
    sweep_seconds = time.perf_counter() - t_sweep
    csv_path = args.out.rstrip("/") + "_psnr.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    _write_json(args.report, {"config": _config_dict(args),
                              "levels_realized": realized_levels,
                              "coefficients": tree.coefficient_count,
                              "seconds": seconds,
                              "sweep_seconds": sweep_seconds,
                              "csv": csv_path})
    return EXIT_OK


def cmd_reconstruct(args):
    tree = mr.load_tree(args.input)
    rec = mr.reconstruct(tree)
    np.asarray(rec, dtype="<f8").tofile(args.out)
    _write_json(args.report, {"config": _config_dict(args),
                              "n": int(rec.shape[0]),
                              "channels": int(rec.shape[1]),
                              "output": args.out})
    return EXIT_OK


def build_parser():
    ap = argparse.ArgumentParser(
        prog="mqfb",
        description="Graph filter-banks via the (M,Q)-GFT and spectral folding",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run the seeded invariant battery")
    v.add_argument("--graphs", type=int, default=100)
    v.add_argument("--nmin", type=int, default=10)
    v.add_argument("--nmax", type=int, default=150)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--family", default="lazy", choices=["lazy", "ortho-cosine"])
    v.add_argument("--operator", default="comb", choices=["comb", "norm"])
    v.add_argument("--tol", type=float, default=1e-8)
    v.add_argument("--misuse-identity-q", action="store_true",
                   help="force Q=I regardless of the partition (folding "
                        "is expected to fail on non-bipartite graphs)")
    v.add_argument("--out", default=None)
    v.set_defaults(func=cmd_verify)

    d = sub.add_parser("decompose", help="iterated decomposition of a cloud")
    d.add_argument("--input", default=None, help="PLY file")
    d.add_argument("--synthetic", type=int, default=10_000,
                   help="generate a synthetic cloud of this size instead")
    d.add_argument("--k", type=int, default=5)
    d.add_argument("--levels", type=int, default=7)
    d.add_argument("--seed", type=int, default=0)
    d.add_argument("--family", default="lazy", choices=["lazy", "ortho-cosine"])
    d.add_argument("--operator", default=None, choices=["comb", "norm"],
                   help="default: norm with --baseline bipartite, else comb")
    d.add_argument("--mode", default=None, choices=["dense", "poly"],
                   help="filter implementation (default: the family's own, "
                        "poly; dense is the eigenbasis reference, <= 4096 "
                        "nodes per level)")
    d.add_argument("--baseline", default="none", choices=["none", "bipartite"])
    d.add_argument("--out", required=True, help="tree output directory")
    d.add_argument("--report", default=None)
    d.set_defaults(func=cmd_decompose)

    r = sub.add_parser("reconstruct", help="invert a saved decomposition tree")
    r.add_argument("--input", required=True, help="tree directory")
    r.add_argument("--out", required=True, help="binary float64 output")
    r.add_argument("--report", default=None)
    r.set_defaults(func=cmd_reconstruct)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as e:
        if isinstance(e, NotPositiveDefinite):
            print(f"numerical failure: {e}", file=sys.stderr)
            return EXIT_NUMERICAL
        if isinstance(e, OSError):
            print(f"io error: {e}", file=sys.stderr)
            return EXIT_IO
        print(f"invalid input: {e}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
