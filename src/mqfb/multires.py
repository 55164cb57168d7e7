"""Iterated L-level decomposition of point-cloud attributes.

Each level builds a fresh KNN graph on the current points, forms the
variation operator and its block-diagonal Q from a random bipartition,
runs one analysis step, and recurses on the low-pass (A-side) points.
The bipartite baseline additionally drops within-side edges and switches
to the normalized Laplacian with Q = I.  The PSNR sweep synthesizes every
keep in one upward pass and memoizes only its outputs.  A tree is saved as
a directory of two files: meta.json and one uncompressed tree.npz.

M_BB is ordered once per level: decompose factors it with MMD and records
the elimination order (LevelRecord.order_b, saved as level_XX/order_b),
and decode and the sweep build their contexts with that order, so they
factor M_BB with no ordering pass.  Their factors then differ from
decompose's in the last bits (round trip about 1e-16).  A tree saved
without orders decodes with MMD-ordered factors.

decompose overlaps two stages: once level ell's partition is repaired,
level ell+1's points are fixed, and their KNN graph (int32 indices) is
built on one worker thread while level ell builds its context, factors
and filters on the calling thread.  Levels under PIPELINE_MIN_POINTS build
their graphs inline.  Every other step keeps its sequential order on the
calling thread, so outputs are bit-identical to an all-inline run.  No
SuperLU factor runs on the worker: building contexts there raised
lazy-100k peak memory from about 236 MB to 355 MB (level 0 during decode)
and 600 MB (coarse levels ahead during decompose), likely because what a
thread allocates stays in its own malloc arena.
"""

from __future__ import annotations

import copy
import json
import os
import zipfile
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import filterbank as fb
from . import graphs as gb
# the Matrix Market helpers are no longer called here; perfbench's tracer
# still wraps them under these names
from .sparse_core import load_matrix_market, save_matrix_market  # noqa: F401

MIN_LEVEL_POINTS = 4
# a level smaller than this builds its KNN graph inline: on 2 cores the
# worker saved nothing measurable for next levels of 1000-2000 points and
# won from about 3000 (decompose of 2000-16000-point clouds)
PIPELINE_MIN_POINTS = 4_000


@dataclass
class LevelRecord:
    partition: gb.Partition
    adjacency: sp.csr_array  # graph actually filtered (post-bipartize for BFB)
    details: np.ndarray  # (|B|, c)
    # M_BB's elimination order from decompose's factor (None when M_BB is
    # diagonal or the mode is dense): later contexts factor with no MMD pass
    order_b: np.ndarray | None = None


@dataclass
class DecompositionTree:
    levels: list  # of LevelRecord, level 0 is the finest
    root: np.ndarray  # (m, c) approximation coefficients
    meta: dict = field(default_factory=dict)
    # the PSNR sweep's outputs, memoized by linear_approximation
    _sweep: _SweepMemo | None = field(default=None, init=False, repr=False,
                                      compare=False)

    @property
    def coefficient_count(self):
        return self.root.shape[0] + sum(lv.details.shape[0] for lv in self.levels)


def _spec_from_meta(meta):
    spec = fb.FilterBankSpec.from_json(meta["spec"])
    return fb.zero_dc_wrap(spec) if meta.get("zero_dc") else spec


def _level_context(ell, adjacency, partition, meta, order_b=None):
    """Level ell's FilterContext; a failure to build it names the level."""
    try:
        g = gb.Graph(adjacency)
        if meta["operator"] == "norm":
            op = gb.normalized_operator(g, allow_isolated=meta["baseline"])
        else:
            op = gb.combinatorial_operator(g)
        return fb.make_context(op, partition, mode=meta["mode"],
                               order_b=order_b)
    except ValueError as e:
        raise type(e)(f"level {ell}: {e}") from e


def _knn_graph(pos, k):
    return gb.knn_graph(gb.PointCloud(pos, np.empty((pos.shape[0], 0))), k)


def decompose(pc, spec, k, levels, seed, operator=None, baseline=False):
    """Run the iterated analysis filter-bank on the attribute channels.

    Level ell+1's KNN graph is built on a worker thread while level ell
    factors and filters (see the module docstring); the worker is joined
    before this returns or raises.
    """
    if levels < 1:
        raise ValueError("levels must be >= 1")
    if pc.channels < 1:
        raise ValueError("point cloud has no attribute channels")
    if operator is None:
        operator = "norm" if baseline else "comb"  # BFB: normalized, Q = I
    elif baseline and operator != "norm":
        raise ValueError(f"the bipartite baseline runs on operator 'norm', "
                         f"not {operator!r}")
    meta = {
        "n": pc.n,
        "channels": pc.channels,
        "L": levels,
        "k": k,
        "seed": seed,
        "operator": operator,
        "baseline": bool(baseline),
        "mode": spec.mode,
        "spec": spec.to_json(),
        "zero_dc": spec.zero_dc,
        "family": spec.family,
        "min_level_points": MIN_LEVEL_POINTS,
        "stopped_early_at": None,
    }
    seeds = np.random.SeedSequence(seed).spawn(levels)
    pos = pc.positions
    x = pc.attributes
    records = []
    with ThreadPoolExecutor(max_workers=1) as ahead:
        graph = None  # the future of this level's KNN graph, if any
        for ell in range(levels):
            n = pos.shape[0]
            if n < MIN_LEVEL_POINTS or n <= k:
                meta["stopped_early_at"] = ell
                break
            g_full = (_knn_graph(pos, k) if graph is None
                      else graph.result())
            p = gb.meet_every_component(gb.random_partition(n, seeds[ell]),
                                        g_full.meta["labels"])
            g = gb.bipartize(g_full, p) if baseline else g_full
            pos = pos[p.a_idx]
            graph = None
            if (ell + 1 < levels and pos.shape[0] > k
                    and pos.shape[0] >= PIPELINE_MIN_POINTS):
                graph = ahead.submit(_knn_graph, pos, k)
            ctx = _level_context(ell, g.adjacency, p, meta)
            coeffs = fb.analyze(spec, ctx, x)
            records.append(LevelRecord(
                partition=p, adjacency=g.adjacency,
                details=np.atleast_2d(coeffs.d),
                order_b=getattr(ctx.solver_b, "order", None)))
            x = coeffs.a
    return DecompositionTree(levels=records, root=np.atleast_2d(x), meta=meta)


def _synthesize_up(tree, drops):
    """reconstruct(tree, drop_finest=j) for every j in drops, in one pass.

    Each level's context is built once and freed once its level is done.
    Variant j zeroes the details of levels i < j, so at level i every
    variant with j <= i is still the full reconstruction and shares one
    stream; a variant gets its own synthesis from the level where its
    details are first zeroed.  Every synthesis sees the same inputs as a
    single-variant pass, so results are bit-identical.
    """
    meta = tree.meta
    spec = _spec_from_meta(meta)
    drops = list(drops)
    shared = tree.root
    split = {}  # j -> its own stream, once its details have been zeroed
    for i in reversed(range(len(tree.levels))):
        lv = tree.levels[i]
        ctx = _level_context(i, lv.adjacency, lv.partition, meta, lv.order_b)

        def up(x, d):
            return fb.synthesize(spec, ctx, fb.ChannelCoefficients(a=x, d=d))

        for j in drops:
            if j > i and j not in split:
                split[j] = shared
        if split:
            zeros = np.zeros_like(lv.details)
            split = {j: up(x, zeros) for j, x in split.items()}
        if any(j <= i for j in drops):
            shared = up(shared, lv.details)
    return [split.get(j, shared) for j in drops]


def reconstruct(tree, drop_finest=0):
    """Invert decompose level-by-level from the root upward.

    drop_finest=j synthesizes with the detail coefficients of the j finest
    levels set to zero.
    """
    return _synthesize_up(tree, [drop_finest])[0]


class _SweepMemo:
    """reconstruct(tree, drop_finest=j) for every j, with what it was
    computed from.

    The outputs come from one _synthesize_up pass over every keep, which
    frees each level's context once its level is done; only the outputs
    are kept.  Holds a copy of the meta and of every coefficient array, and
    the level, partition, adjacency and order_b objects (compared by
    identity).  So edits of the meta or the coefficients, in place or not,
    and replaced level, partition, adjacency or order_b objects are seen
    and the memo is dropped.
    """

    def __init__(self, tree):
        self.outputs = _synthesize_up(tree, range(len(tree.levels) + 1))
        self.meta = copy.deepcopy(tree.meta)
        self.levels = [(lv, lv.partition, lv.adjacency, lv.order_b)
                       for lv in tree.levels]
        self.root = np.array(tree.root)
        self.details = [np.array(lv.details) for lv in tree.levels]

    def matches(self, tree):
        return (
            self.meta == tree.meta
            and len(self.levels) == len(tree.levels)
            and all(r[0] is lv and r[1] is lv.partition and r[2] is lv.adjacency
                    and r[3] is lv.order_b
                    for r, lv in zip(self.levels, tree.levels))
            and np.array_equal(self.root, tree.root)
            and all(np.array_equal(d, lv.details)
                    for d, lv in zip(self.details, tree.levels))
        )


@dataclass
class ApproximationResult:
    keep: float  # requested fraction
    m_over_n: float  # realized fraction from partition sizes
    attributes: np.ndarray
    psnr: np.ndarray  # per channel, dB


def psnr(x, y, peak=255.0):
    """Per-channel 10 log10(peak^2 / MSE), at most 999 dB (an exact match)."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    if x.shape != y.shape:
        raise ValueError("shape mismatch")
    mse = np.mean((x - y) ** 2, axis=0)
    out = np.full(mse.shape, 999.0)
    nz = mse > 0
    out[nz] = np.minimum(10.0 * np.log10(peak**2 / mse[nz]), 999.0)
    return out


def linear_approximation(tree, keep, original, peak=255.0):
    """Reconstruct keeping only coefficients at and below a cutoff scale.

    keep is a nominal fraction from {2^-L, ..., 1/2, 1}: the j finest
    detail levels are zeroed where keep = 2^-j.  The realized m/n comes
    from actual partition sizes.  The first call on a tree computes every
    keep of the sweep in one upward pass, which builds each level's context
    once and frees it after its level, and memoizes only the outputs; they
    are reused while the tree's levels and coefficients are unchanged, and
    a change drops them.  For a single keep, reconstruct(tree,
    drop_finest=j) costs less than this first call.
    """
    if not (0 < keep <= 1):
        raise ValueError("keep must be in (0, 1]")
    j = min(int(round(-np.log2(keep))), len(tree.levels))
    if tree._sweep is None or not tree._sweep.matches(tree):
        tree._sweep = _SweepMemo(tree)
    rec = tree._sweep.outputs[j].copy()
    zeroed = sum(lv.details.shape[0] for lv in tree.levels[:j])
    n = tree.meta["n"]
    return ApproximationResult(
        keep=keep,
        m_over_n=(n - zeroed) / n,
        attributes=rec,
        psnr=psnr(original, rec, peak=peak),
    )


# ---------------------------------------------------------------------------
# Tree serialization: meta.json + one uncompressed tree.npz

FORMAT_VERSION = 1
META_FILE = "meta.json"
ARRAYS_FILE = "tree.npz"


class TreeFormatError(ValueError):
    """The tree directory was written in a layout this version cannot read."""


class CorruptTree(OSError):
    """A tree file is missing, truncated or fails its shape or checksum."""


def _tree_arrays(tree):
    """Name -> array for everything tree.npz holds.

    Each adjacency is kept as its strict upper triangle in CSR (the graphs
    are symmetric with an empty diagonal), each partition as its A-side
    mask packed eight vertices to a byte, and each M_BB elimination order,
    when the level has one, in the smallest unsigned dtype that holds
    |B| - 1.
    """
    arrays = {"root": np.asarray(tree.root, dtype="<f8")}
    for i, lv in enumerate(tree.levels):
        u = gb.keep_entries(sp.csr_array(lv.adjacency), lambda r, c: c > r)
        wide = max(u.shape[0], u.nnz) >= 2**31
        idx = "<i8" if wide else "<i4"
        arrays.update({
            f"level_{i:02d}/indptr": u.indptr.astype(idx),
            f"level_{i:02d}/indices": u.indices.astype(idx),
            f"level_{i:02d}/weights": u.data.astype("<f8"),
            f"level_{i:02d}/side_a": np.packbits(lv.partition.f == 1),
            f"level_{i:02d}/details": np.asarray(lv.details, dtype="<f8"),
        })
        if lv.order_b is not None:
            top = np.min_scalar_type(lv.order_b.size - 1)  # |B| - 1
            arrays[f"level_{i:02d}/order_b"] = lv.order_b.astype(
                f"<u{top.itemsize}")
    return arrays


def _write_arrays(fname, arrays):
    """Write ``arrays`` to an uncompressed npz; return each one's spec."""
    arrays = {k: np.ascontiguousarray(a) for k, a in arrays.items()}
    np.savez(fname, **arrays)
    return {k: {"shape": list(a.shape), "dtype": a.dtype.str,
                "crc32": zlib.crc32(a)}
            for k, a in arrays.items()}


def save_tree(tree, path):
    """Write ``tree`` as ``path``/meta.json and ``path``/tree.npz.

    meta.json holds the tree's meta, FORMAT_VERSION and, for every array in
    tree.npz, its shape, dtype and zlib crc32, which load_tree checks.
    """
    os.makedirs(path, exist_ok=True)
    meta = dict(tree.meta)
    meta["format_version"] = FORMAT_VERSION
    meta["arrays"] = _write_arrays(os.path.join(path, ARRAYS_FILE),
                                   _tree_arrays(tree))
    with open(os.path.join(path, META_FILE), "w") as fh:
        json.dump(meta, fh, indent=2)


def _read_meta(path):
    fname = os.path.join(path, META_FILE)
    with open(fname) as fh:
        try:
            meta = json.load(fh)
        except ValueError as e:
            raise CorruptTree(f"{fname}: not valid JSON ({e})") from e
    if not isinstance(meta, dict):
        raise CorruptTree(f"{fname}: not a JSON object")
    version = meta.pop("format_version", None)
    if version != FORMAT_VERSION:
        raise TreeFormatError(
            f"{fname}: tree format_version {version!r} is not "
            f"{FORMAT_VERSION}; re-run `mqfb decompose` to rewrite the tree"
        )
    if not isinstance(meta.get("arrays"), dict):
        raise CorruptTree(f"{fname}: no array list")
    for key in ("spec", "operator", "baseline", "mode", "n"):
        if key not in meta:
            raise CorruptTree(f"{fname}: no {key!r} key")
    if type(meta["n"]) is not int or meta["n"] < 0:
        raise CorruptTree(f"{fname}: 'n' is {meta['n']!r}, not a point count")
    try:
        _spec_from_meta(meta)
    except (KeyError, TypeError, AttributeError, ValueError) as e:
        raise CorruptTree(f"{fname}: unreadable 'spec' key ({e!r})") from e
    return meta


def _read_arrays(fname, spec):
    """Every array listed in ``spec``, checked against its shape and crc32."""
    out = {}
    try:
        with np.load(fname) as npz:
            for name, want in spec.items():
                try:
                    a = npz[name]
                except (KeyError, ValueError, EOFError, zipfile.BadZipFile,
                        zlib.error) as e:
                    raise CorruptTree(
                        f"{fname}: array {name!r} is unreadable ({e})") from e
                if (list(a.shape) != want.get("shape")
                        or a.dtype.str != want.get("dtype")):
                    raise CorruptTree(
                        f"{fname}: array {name!r} is {a.dtype.str}{list(a.shape)},"
                        f" meta.json says {want.get('dtype')}{want.get('shape')}")
                if zlib.crc32(a) != want.get("crc32"):
                    raise CorruptTree(
                        f"{fname}: array {name!r} fails its crc32 checksum")
                out[name] = a
    except (zipfile.BadZipFile, EOFError, ValueError) as e:
        raise CorruptTree(f"{fname}: not a readable npz file ({e})") from e
    return out


def _level_from_arrays(fname, key, arrays, n, channels):
    """Level ``key``'s LevelRecord, checked to fit ``n`` and ``channels``."""
    def check(ok, member, why):
        if not ok:
            raise CorruptTree(f"{fname}: array {key + member!r}: {why}")

    for member in ("indptr", "indices", "weights", "side_a"):
        check(key + member in arrays, member, "missing from the tree")
    indptr, packed = arrays[key + "indptr"], arrays[key + "side_a"]
    # checked here: SciPy's check_format skips indptr's order at nnz 0
    nnz = arrays[key + "indices"].size
    check(indptr.shape == (n + 1,) and indptr[0] == 0 and indptr[-1] == nnz
          and np.all(indptr[1:] >= indptr[:-1]), "indptr",
          f"is not a row pointer from 0 to {nnz} over {n} rows")
    try:
        u = sp.csr_array((arrays[key + "weights"], arrays[key + "indices"],
                          indptr), shape=(n, n))
        u.check_format(full_check=True)
    except (ValueError, TypeError) as e:
        raise CorruptTree(f"{fname}: arrays '{key}indptr', '{key}indices' and "
                          f"'{key}weights' are not a CSR of {n} rows: {e}") from e
    check(packed.dtype == np.uint8 and packed.shape == ((n + 7) // 8,),
          "side_a", f"{packed.dtype}{list(packed.shape)} does not pack {n} "
          f"vertices")
    f = np.where(np.unpackbits(packed, count=n), 1, -1)
    check(abs(f.sum()) < n, "side_a", "one side of the partition is empty")
    partition = gb.Partition(f)
    details, nb = arrays[key + "details"], partition.b_idx.size
    check(details.shape == (nb, channels), "details", f"shape "
          f"{list(details.shape)}, not the {[nb, channels]} of its B side")
    order_b = arrays.get(key + "order_b")
    if order_b is not None:
        try:
            if order_b.dtype.kind != "u":
                raise ValueError(f"dtype {order_b.dtype} is not unsigned")
            fb.check_order(order_b, nb)
        except ValueError as e:
            check(False, "order_b", e)
    return LevelRecord(partition=partition, adjacency=sp.csr_array(u + u.T),
                       details=details, order_b=order_b)


def load_tree(path):
    """Read a tree written by save_tree.

    A missing, truncated or corrupted file raises an OSError that names it
    (and the array, when one array is at fault); a directory written in
    another layout raises TreeFormatError.  The arrays must also fit: each
    level's CSR, side mask and details, and sizes chained from meta's n.
    """
    meta = _read_meta(path)
    fname = os.path.join(path, ARRAYS_FILE)
    arrays = _read_arrays(fname, meta.pop("arrays"))
    root = arrays.get("root")
    if root is None or root.ndim != 2:
        raise CorruptTree(f"{fname}: array 'root' is missing or not 2-D")
    levels, n = [], meta["n"]
    while (key := f"level_{len(levels):02d}/") + "details" in arrays:
        levels.append(_level_from_arrays(fname, key, arrays, n, root.shape[1]))
        n = levels[-1].partition.a_idx.size
    if root.shape[0] != n:
        raise CorruptTree(f"{fname}: array 'root' has {root.shape[0]} rows, "
                          f"not the {n} vertices of the coarsest level")
    return DecompositionTree(levels=levels, root=root, meta=meta)
