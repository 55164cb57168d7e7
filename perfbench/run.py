"""mqfb benchmark: time to solution for encode, decode and the PSNR sweep.

Run from the repository root:

    python3 perfbench/run.py --workload lazy-100k --seed 0 --seconds 40 --trace 0

The process builds the workload's cloud from --seed, then repeats the whole
pipeline (see workloads.py) while the next pass still fits in --seconds,
checks every pass's outputs, and prints each metric by name and unit.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  --trace 0 reports the end-to-end metrics;
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics, writing spans and the per-level breakdown to
.perfbench_work/trace-<workload>-seed<seed>.json.

Every run is one fresh process, so setup_s and peak_rss_mb are per run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback

# numpy and mqfb are imported inside functions: their import is part of the
# set-up that main() and setup_probe.py time
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS")
SETUP_PROBES = 3

E2E_UNITS = {
    "setup_s": "s", "encode_s": "s", "save_s": "s", "load_s": "s",
    "decode_s": "s", "sweep_s": "s", "total_s": "s", "tree_bytes": "bytes",
    "peak_rss_mb": "MB", "psnr_m8_db": "dB",
}
# per-layer metric -> (span name, field of Tracer.totals()); see README.md
LAYER_FIELDS = {
    "graphs.knn_s": ("graphs.knn", "s"),
    "graphs.knn_calls": ("graphs.knn", "calls"),
    "graphs.edges": ("graphs.knn", "edges"),
    "graphs.laplacian_s": ("graphs.laplacian", "s"),
    "graphs.laplacian_calls": ("graphs.laplacian", "calls"),
    "graphs.partition_draws": ("graphs.partition", "calls"),
    "sparse_core.q_build_s": ("sparse_core.q_build", "s"),
    "sparse_core.factor_s": ("sparse_core.factor", "s"),
    "sparse_core.factor_calls": ("sparse_core.splu", "calls"),
    "sparse_core.factor_fill_nnz": ("sparse_core.splu", "fill_nnz"),
    "sparse_core.solve_s": ("sparse_core.solve", "s"),
    "sparse_core.solve_calls": ("sparse_core.solve", "calls"),
    "sparse_core.mm_write_s": ("sparse_core.mm_write", "s"),
    "sparse_core.mm_read_s": ("sparse_core.mm_read", "s"),
    "filterbank.make_context_s": ("filterbank.make_context", "s"),
    "filterbank.make_context_calls": ("filterbank.make_context", "calls"),
    "filterbank.analyze_s": ("filterbank.analyze", "s"),
    "filterbank.synthesize_s": ("filterbank.synthesize", "s"),
    "filterbank.synthesize_calls": ("filterbank.synthesize", "calls"),
    "gft.z_apply_calls": ("gft.z_apply", "calls"),
    "gft.eigh_s": ("gft.eigh", "s"),
    "gft.eigh_calls": ("gft.eigh", "calls"),
    "gft.dense_filter_s": ("gft.dense_filter", "s"),
    "multires.decompose_s": ("multires.decompose", "s"),
    "multires.reconstruct_s": ("multires.reconstruct", "s"),
    "multires.reconstruct_calls": ("multires.reconstruct", "calls"),
    "multires.linear_approximation_s": ("multires.linear_approximation", "s"),
    "multires.save_tree_s": ("multires.save_tree", "s"),
    "multires.load_tree_s": ("multires.load_tree", "s"),
}
# every timed layer also reports its self time as <metric>_self_s
SELF_TIMED = [m for m, (_, f) in LAYER_FIELDS.items() if f == "s"]


def cap_threads():
    """Cap BLAS/OpenMP pools at nproc; must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        cur = os.environ.get(var, "")
        cap = min(int(cur), nproc) if cur.isdigit() and int(cur) > 0 else nproc
        os.environ[var] = str(cap)
    return nproc


def fail(message):
    """Exit 2 without a result line."""
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_library():
    """Import mqfb from this checkout's src/; exit 2 when it is not there."""
    sys.path.insert(0, SRC)
    try:
        import mqfb
    except ImportError as e:
        fail(f"cannot import mqfb from {SRC}: {e}")
    if not os.path.abspath(mqfb.__file__).startswith(SRC + os.sep):
        fail(f"mqfb resolved outside {SRC}: {mqfb.__file__}")


def blas_threads():
    """Thread count of each loaded OpenBLAS, read through its C API."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower() and ".so" in line})
    out = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads",
                    "scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = fn()
                break
    return out


def environment(nproc):
    import numpy
    import scipy

    def blas(mod):
        try:
            b = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{b.get('name')} {b.get('version')}"
        except (TypeError, KeyError):
            return "unknown"

    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "blas_threads": blas_threads(),
        "thread_env": {v: os.environ[v] for v in THREAD_VARS},
    }


def probe_setup(workload, seed):
    """Set-up seconds measured in a fresh interpreter (setup_probe.py)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), workload,
         str(seed)],
        capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def median(values):
    import numpy as np

    return float(np.median(values))


def check_trace(tracer, out, ref):
    """Failures particular to a traced pass (out is None when it raised)."""
    import numpy as np

    from tracer import wrappers_left

    failed = ["wrappers_left"] if wrappers_left() else []
    if out is None:
        return failed
    tracer.assign_levels(out["level_sizes"])
    if sum(t["self_s"] for t in tracer.totals().values()) > out["total_s"]:
        failed.append("self_time_accounting")
    if ref is None or not (
            np.array_equal(out["decoded"], ref["decoded"])
            and all(np.array_equal(a, b) for a, b in
                    zip(out["sweep_psnr"], ref["sweep_psnr"]))):
        failed.append("traced_output_differs")
    return failed


def layer_metrics(tracer, out):
    """Per-layer metrics of one traced pass."""
    totals = tracer.totals()
    m = {}
    for metric, (span, fld) in LAYER_FIELDS.items():
        m[metric] = float(totals.get(span, {}).get(fld, 0))
        if metric in SELF_TIMED:
            m[metric[:-2] + "_self_s"] = float(
                totals.get(span, {}).get("self_s", 0.0))
    draws = m["graphs.partition_draws"]
    m["graphs.partition_accept_ratio"] = (
        out["levels_realized"] / draws if draws else 0.0)
    m["trace.self_sum_s"] = sum(t["self_s"] for t in totals.values())
    m["trace.total_s"] = out["total_s"]
    return m


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    nproc = cap_threads()
    t0 = time.perf_counter()
    import_library()
    from workloads import WORKLOADS, check_outputs, psnr_m8_db, run_pipeline
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; "
             f"choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    pc = wl.cloud(args.seed)
    setups = [time.perf_counter() - t0]
    setups += [probe_setup(wl.name, args.seed) for _ in range(SETUP_PROBES)]

    traced = bool(args.trace)
    if traced:
        from tracer import Tracer
    run_dir = os.path.join(WORK, f"run-{os.getpid()}")
    tree_dir = os.path.join(run_dir, "tree")
    os.makedirs(run_dir, exist_ok=True)

    # each pass: traced?, pipeline output (None if it raised), failed checks,
    # tracer; a traced run alternates untraced and traced passes
    passes = []
    ref = None  # first completed untraced output; traced passes must match it
    start = time.perf_counter()
    longest = 0.0
    try:
        while True:
            is_traced = traced and len(passes) % 2 == 1
            p = {"traced": is_traced, "out": None, "failed": [],
                 "tracer": Tracer() if is_traced else None}
            t = time.perf_counter()
            try:
                if p["traced"]:
                    with p["tracer"]:
                        p["out"] = run_pipeline(wl, pc, args.seed, tree_dir,
                                                io_repeat=False)
                else:
                    p["out"] = run_pipeline(wl, pc, args.seed, tree_dir,
                                            io_repeat=not traced)
                p["failed"] = check_outputs(wl, pc, args.seed, p["out"])
            except Exception:  # a failed pass is counted, the run goes on
                traceback.print_exc()
                p["failed"] = ["pipeline_raised"]
            if p["traced"]:
                p["failed"] += check_trace(p["tracer"], p["out"], ref)
            elif ref is None:
                ref = p["out"]
            passes.append(p)
            longest = max(longest, time.perf_counter() - t)
            enough = len(passes) >= (2 if traced else 1)
            if enough and time.perf_counter() - start + longest > args.seconds:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    plain = [p["out"] for p in passes
             if not p["traced"] and p["out"] is not None]
    if not plain:
        fail("no untraced pass completed")
    settings = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "n": wl.n, "family": wl.family, "k": wl.k,
        "levels": wl.levels, "baseline": wl.baseline,
        "levels_realized": plain[0]["levels_realized"],
        "passes": len(passes), "io_pairs": [o["io_pairs"] for o in plain],
        **environment(nproc),
    }
    print("settings " + json.dumps(settings, sort_keys=True))
    for p in passes:
        if p["failed"]:
            kind = "traced" if p["traced"] else "untraced"
            print(f"check failed ({kind} pass): " + ", ".join(p["failed"]),
                  file=sys.stderr)

    if traced:
        done = [p for p in passes if p["traced"] and p["out"] is not None]
        per_pass = [layer_metrics(p["tracer"], p["out"]) for p in done]
        metrics = {}
        if per_pass:
            metrics = {k: median([m[k] for m in per_pass])
                       for k in per_pass[0]}
            metrics["trace.overhead_s"] = (
                metrics["trace.total_s"]
                - median([o["total_s"] for o in plain]))
        units = {k: ("s" if k.endswith("_s") else
                     "ratio" if k.endswith("_ratio") else "count")
                 for k in metrics}
        write_trace(wl, args.seed, done, per_pass)
    else:
        metrics = {k: median([o[k] for o in plain])
                   for k in ("encode_s", "save_s", "load_s", "decode_s",
                             "sweep_s", "total_s", "tree_bytes")}
        metrics["setup_s"] = median(setups)
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        metrics["psnr_m8_db"] = median([psnr_m8_db(o) for o in plain])
        units = E2E_UNITS

    attempted = len(passes)
    n_failed = sum(1 for p in passes if p["failed"])
    for name in sorted(metrics):
        print(f"{name} = {metrics[name]!r} {units[name]}")
    print(f"error_rate = {n_failed / attempted!r} ratio "
          f"({n_failed} of {attempted} passes failed a check)")
    print(json.dumps({
        "correct": n_failed == 0,
        "attempted": attempted,
        "failed": n_failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in sorted(metrics.items())},
    }))
    return 0


def write_trace(wl, seed, done, per_pass):
    """Spans, per-level breakdown and metrics of every traced pass."""
    os.makedirs(WORK, exist_ok=True)
    path = os.path.join(WORK, f"trace-{wl.name}-seed{seed}.json")
    with open(path, "w") as fh:
        json.dump({
            "workload": wl.name, "seed": seed,
            "passes": [{"metrics": m, "levels": p["tracer"].per_level(),
                        "spans": p["tracer"].records()}
                       for p, m in zip(done, per_pass)],
        }, fh)
    print(f"trace written to {os.path.relpath(path, ROOT)} "
          f"({len(done)} traced passes)")


if __name__ == "__main__":
    sys.exit(main())
