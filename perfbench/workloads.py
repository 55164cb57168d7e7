"""The benchmark's workloads and the pipeline one iteration runs.

Every workload is a synthetic Gaussian-blob cloud made from the run's seed
and pushed through the public library API: decompose, save_tree, load_tree,
reconstruct of the loaded tree, and the linear-approximation PSNR sweep
over keep = 2^-j, j = 0..L_realized (the sweep `mqfb decompose` writes).
"""

from __future__ import annotations

import gc
import os
import shutil
import time
from dataclasses import dataclass

import numpy as np

from mqfb import filterbank as fb
from mqfb import multires as mr
from mqfb import synthetic

# a decoded tree must give back the input attributes to this relative error
DECODE_REL_TOL = 1e-8
# psnr_m8_db must match the pinned value on a pinned seed to this many dB
PSNR_REF_TOL_DB = 0.01
# save and load repeat until their pairs took this long (at most IO_MAX_PAIRS)
# so that the millisecond-scale IO of a small tree is not a single sample
IO_MIN_SECONDS = 0.25
IO_MAX_PAIRS = 8
# keep fraction whose mean-channel PSNR is the quality metric
PSNR_KEEP_J = 3


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    family: str  # "lazy" (poly mode) or "ortho-cosine" (dense mode)
    k: int
    levels: int
    baseline: bool  # bipartite filter-bank baseline of Narang & Ortega
    why: str
    psnr_ref_db: dict  # seed -> pinned mean-channel PSNR at keep = 1/8

    def spec(self):
        if self.family == "lazy":
            return fb.lazy_spec()
        return fb.orthogonal_cosine_spec()

    def cloud(self, seed):
        return synthetic.gaussian_blob_cloud(self.n, seed=seed)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="lazy-100k", n=100_000, family="lazy", k=5, levels=7,
        baseline=False,
        why="the proposed (M, Q) lazy bank at 100k points; the only workload "
            "bound by the sparse SPD factorization (splu) and KNN",
        psnr_ref_db={0: 42.401, 1: 44.338},
    ),
    Workload(
        name="bipartite-100k", n=100_000, family="lazy", k=10, levels=7,
        baseline=True,
        why="the bipartite filter-bank baseline at 100k points; Q = I skips "
            "factorization, so KNN and the normalized Laplacian dominate",
        psnr_ref_db={0: 16.230, 1: 15.485},
    ),
    Workload(
        name="ortho-2k", n=2000, family="ortho-cosine", k=5, levels=3,
        baseline=False,
        why="the orthogonal cosine bank in dense mode at 2k points; the only "
            "workload that runs the dense generalized eigensolver in gft",
        psnr_ref_db={0: 31.397, 1: 36.463},
    ),
)}

# the seed a later change confirms its claim on, beside the seeds it was
# developed against
CONFIRM_SEED = 1


def _dir_bytes(path):
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def run_pipeline(wl, pc, seed, tree_dir, io_repeat=True):
    """One timed pass through the pipeline; returns times and outputs.

    With io_repeat, save and load repeat (alternating) and the median of
    each is reported; otherwise each runs once, so every timed call happens
    exactly once per pass.
    """
    gc.collect()
    spec = wl.spec()
    t = time.perf_counter()
    tree = mr.decompose(pc, spec, k=wl.k, levels=wl.levels, seed=seed,
                        baseline=wl.baseline)
    encode_s = time.perf_counter() - t

    saves, loads = [], []
    while True:
        shutil.rmtree(tree_dir, ignore_errors=True)
        t = time.perf_counter()
        mr.save_tree(tree, tree_dir)
        saves.append(time.perf_counter() - t)
        t = time.perf_counter()
        loaded = mr.load_tree(tree_dir)
        loads.append(time.perf_counter() - t)
        if (not io_repeat or len(saves) >= IO_MAX_PAIRS
                or sum(saves) + sum(loads) >= IO_MIN_SECONDS):
            break
    tree_bytes = _dir_bytes(tree_dir)

    t = time.perf_counter()
    decoded = mr.reconstruct(loaded)
    decode_s = time.perf_counter() - t

    t = time.perf_counter()
    sweep = [mr.linear_approximation(tree, 2.0 ** -j, pc.attributes)
             for j in range(len(tree.levels) + 1)]
    sweep_s = time.perf_counter() - t

    save_s = float(np.median(saves))
    load_s = float(np.median(loads))
    return {
        "encode_s": encode_s,
        "save_s": save_s,
        "load_s": load_s,
        "decode_s": decode_s,
        "sweep_s": sweep_s,
        "total_s": encode_s + save_s + load_s + decode_s + sweep_s,
        "io_pairs": len(saves),
        "tree_bytes": tree_bytes,
        "levels_realized": len(tree.levels),
        "level_sizes": [lv.partition.n for lv in tree.levels],
        "coefficient_count": tree.coefficient_count,
        "decoded": decoded,
        "sweep_psnr": [r.psnr for r in sweep],
    }


def check_outputs(wl, pc, seed, out):
    """Names of the output checks this pass failed (empty when all hold)."""
    failed = []
    x = pc.attributes
    rec = out["decoded"]
    if rec.shape != x.shape or not (
            np.linalg.norm(rec - x) <= DECODE_REL_TOL * np.linalg.norm(x)):
        failed.append("decode_roundtrip")
    if out["coefficient_count"] != pc.n:
        failed.append("coefficient_count")
    ps = out["sweep_psnr"]
    if any(np.any(ps[j + 1] > ps[j]) for j in range(len(ps) - 1)):
        failed.append("psnr_monotone")
    if len(ps) <= PSNR_KEEP_J:
        failed.append("levels_realized")
    elif seed in wl.psnr_ref_db and not (
            abs(psnr_m8_db(out) - wl.psnr_ref_db[seed]) <= PSNR_REF_TOL_DB):
        failed.append("psnr_reference")
    return failed


def psnr_m8_db(out):
    return float(np.mean(out["sweep_psnr"][PSNR_KEEP_J]))
