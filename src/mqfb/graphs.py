"""Graph and variation-operator construction from point clouds.

Covers PLY ingestion, symmetric KNN graphs with inverse-distance weights,
combinatorial and normalized Laplacians (as Operators or assembled),
random bipartitions (repaired to meet every connected component) and the
bipartized baseline (cross edges).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.spatial import cKDTree


class ZeroDegree(ValueError):
    """Normalized Laplacian requested on a graph with an isolated vertex."""


@dataclass(frozen=True)
class PointCloud:
    """3D points with per-point attribute channels (possibly zero channels).

    ``peak`` is the largest value a channel can take, the peak of its PSNR:
    255 for 8-bit colours, 65535 for 16-bit ones (see load_ply).
    """

    positions: np.ndarray  # (n, 3) float64
    attributes: np.ndarray  # (n, c) float64, c >= 0
    peak: float = 255.0

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=np.float64)
        att = np.asarray(self.attributes, dtype=np.float64)
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise ValueError("positions must be (n, 3)")
        if pos.shape[0] < 2:
            raise ValueError("need at least 2 points")
        if not np.all(np.isfinite(pos)):
            raise ValueError("positions contain NaN/Inf")
        if att.ndim == 1:
            att = att[:, None]
        if att.shape[0] != pos.shape[0]:
            raise ValueError("attributes length mismatch")
        if not np.all(np.isfinite(att)):
            raise ValueError("attributes contain NaN/Inf")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "attributes", att)

    @property
    def n(self):
        return self.positions.shape[0]

    @property
    def channels(self):
        return self.attributes.shape[1]


@dataclass(frozen=True)
class Graph:
    """Undirected weighted graph: symmetric nonnegative adjacency, no loops."""

    adjacency: sp.csr_array
    meta: dict = field(default_factory=dict)

    @property
    def n(self):
        return self.adjacency.shape[0]

    @cached_property
    def degrees(self):
        """Weighted degrees (row sums of W), computed once per graph."""
        return np.asarray(self.adjacency.sum(axis=1)).ravel()


@dataclass(frozen=True)
class Partition:
    """Bipartition of {0..n-1} given by a +/-1 indicator (+1 means side A)."""

    f: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.f, dtype=np.int8)
        if not np.all(np.abs(f) == 1):
            raise ValueError("indicator entries must be +1 or -1")
        if np.all(f == 1) or np.all(f == -1):
            raise ValueError("both sides of the partition must be nonempty")
        object.__setattr__(self, "f", f)

    @property
    def n(self):
        return self.f.size

    @property
    def a_idx(self):
        return np.flatnonzero(self.f == 1)

    @property
    def b_idx(self):
        return np.flatnonzero(self.f == -1)


# ---------------------------------------------------------------------------
# PLY input/output

_PLY_TYPES = {
    "char": "i1", "int8": "i1",
    "uchar": "u1", "uint8": "u1",
    "short": "i2", "int16": "i2",
    "ushort": "u2", "uint16": "u2",
    "int": "i4", "int32": "i4",
    "uint": "u4", "uint32": "u4",
    "float": "f4", "float32": "f4",
    "double": "f8", "float64": "f8",
}


def _parse_ply_header(fh):
    magic = fh.readline().strip()
    if magic != b"ply":
        raise ValueError("not a PLY file (missing 'ply' magic)")
    fmt = None
    elements = []  # list of (name, count, [(prop_name, dtype_code)])
    while True:
        line = fh.readline()
        if not line:
            raise ValueError("unexpected EOF in PLY header")
        tokens = line.decode("ascii", "replace").strip().split()
        if not tokens or tokens[0] == "comment":
            continue
        if tokens[0] == "format":
            fmt = tokens[1]
        elif tokens[0] == "element":
            elements.append((tokens[1], int(tokens[2]), []))
        elif tokens[0] == "property":
            if not elements:
                raise ValueError("property before element in PLY header")
            if tokens[1] == "list":
                elements[-1][2].append((tokens[-1], "list", tokens[2], tokens[3]))
            else:
                if tokens[1] not in _PLY_TYPES:
                    raise ValueError(f"unsupported PLY type {tokens[1]!r}")
                elements[-1][2].append((tokens[2], _PLY_TYPES[tokens[1]]))
        elif tokens[0] == "end_header":
            break
    if fmt not in ("ascii", "binary_little_endian"):
        raise ValueError(f"unsupported PLY format {fmt!r}")
    return fmt, elements


def load_ply(path):
    """Read a PLY point cloud (ascii or binary little-endian).

    Requires x, y, z vertex properties; red/green/blue become attribute
    channels when present, stored as-is without normalization, and the
    cloud's ``peak`` is the largest value of their type when it is an
    unsigned integer (65535 for ushort), else 255.
    """
    with open(path, "rb") as fh:
        fmt, elements = _parse_ply_header(fh)
        vertex = next((e for e in elements if e[0] == "vertex"), None)
        if vertex is None:
            raise ValueError("PLY file has no vertex element")
        if vertex is not elements[0]:
            # vertex data is read right after the header
            raise ValueError("PLY vertex element must come first")
        _, count, props = vertex
        if any(p[1] == "list" for p in props):
            raise ValueError("list properties on vertex element unsupported")
        names = [p[0] for p in props]
        for c in ("x", "y", "z"):
            if c not in names:
                raise ValueError(f"PLY vertex element missing property {c!r}")
        if fmt == "binary_little_endian":
            dtype = np.dtype([(p[0], "<" + p[1]) for p in props])
            data = np.fromfile(fh, dtype=dtype, count=count)
        else:
            dtype = np.dtype([(p[0], p[1]) for p in props])
            rows = []
            while len(rows) < count:
                line = fh.readline()
                if not line:
                    break
                values = line.split()
                if not values:
                    continue
                if len(values) != len(props):
                    raise ValueError(
                        f"{path}: PLY vertex row {len(rows)} has "
                        f"{len(values)} values, expected {len(props)}")
                rows.append(tuple(values))
            data = np.array(rows, dtype=dtype)
        if data.shape[0] != count:
            raise ValueError("PLY vertex data truncated")
    positions = np.column_stack([data["x"], data["y"], data["z"]]).astype(np.float64)
    rgb, peak = ("red", "green", "blue"), 255.0
    if all(c in names for c in rgb):
        attrs = np.column_stack([data[c] for c in rgb]).astype(np.float64)
        peak = max(float(np.iinfo(t).max) if t.kind == "u" else peak
                   for t in (data.dtype[c] for c in rgb))
    else:
        attrs = np.empty((count, 0))
    return PointCloud(positions, attrs, peak)


def save_ply(path, pc):
    """Write a point cloud as binary little-endian PLY; colors are emitted
    when channels == 3."""
    has_color = pc.channels == 3
    header = ["ply", "format binary_little_endian 1.0",
              f"element vertex {pc.n}"]
    header += [f"property double {c}" for c in "xyz"]
    if has_color:
        header += [f"property uchar {c}" for c in ("red", "green", "blue")]
    header.append("end_header")
    fields = [("x", "<f8"), ("y", "<f8"), ("z", "<f8")]
    if has_color:
        fields += [("red", "u1"), ("green", "u1"), ("blue", "u1")]
    rec = np.empty(pc.n, dtype=np.dtype(fields))
    rec["x"], rec["y"], rec["z"] = pc.positions.T
    if has_color:
        rgb = np.clip(np.rint(pc.attributes), 0, 255).astype(np.uint8)
        rec["red"], rec["green"], rec["blue"] = rgb.T
    with open(path, "wb") as fh:
        fh.write(("\n".join(header) + "\n").encode("ascii"))
        rec.tofile(fh)


# ---------------------------------------------------------------------------
# Graph construction

def knn_graph(pc, k):
    """Symmetric-union KNN graph with inverse-distance weights.

    An edge (i, j) exists when i is among the k nearest neighbors of j or
    vice versa; w_ij = 1/dist with distances floored at 1e-9 of the
    bounding-box diagonal (1 when all points coincide) so duplicate points
    stay finite.

    The points are queried in the KD-tree's own leaf order (consecutive
    queries walk the same nodes), split over every core.  A point's
    neighbor list does not depend on the query order, so the graph is
    bit-identical to a row-order query: canonical CSR (sorted indices, no
    diagonal entries, no explicit zeros) with int32 indices (int64 only
    past 2^31).  The directed graph is built as CSR straight from the
    query, k entries per row, and the query arrays are freed before the
    symmetric union.
    """
    pos = pc.positions
    n = pos.shape[0]
    if k < 1:
        raise ValueError("k must be >= 1")
    if n <= k:
        raise ValueError("need more points than neighbors")
    tree = cKDTree(pos)
    order = tree.indices
    dist, idx = tree.query(pos[order], k=k + 1, workers=-1)
    # drop the self match of each row (usually the first column; under
    # duplicate-point ties self may sit elsewhere or be absent entirely, in
    # which case the farthest neighbor goes); a row's neighbors are
    # distinct, so this leaves k off-diagonal entries per row
    drop = idx == order[:, None]
    drop[~drop.any(axis=1), -1] = True
    keep = ~drop
    bbox = pos.max(axis=0) - pos.min(axis=0)
    floor = 1e-9 * (float(np.linalg.norm(bbox)) or 1.0)
    # leaf-order query row i is vertex order[i]'s row; sort each row's k
    # neighbors so the CSR is canonical
    itype = np.int32 if 2 * n * k < 2**31 else np.int64
    cols = np.empty((n, k), dtype=itype)
    cols[order] = idx[keep].reshape(n, k)
    w = np.empty((n, k))
    w[order] = (1.0 / np.maximum(dist[keep], floor)).reshape(n, k)
    del tree, order, dist, idx, drop, keep
    by_col = np.argsort(cols, axis=1)
    adj = sp.csr_array((np.take_along_axis(w, by_col, axis=1).ravel(),
                        np.take_along_axis(cols, by_col, axis=1).ravel(),
                        np.arange(0, n * k + 1, k, dtype=itype)),
                       shape=(n, n))  # weights finite and > 0
    del cols, w, by_col
    adj = adj.maximum(adj.T)  # symmetric union; equal weights either way
    # on a symmetric graph the strong components are the components, and
    # the strong search needs no transpose
    n_comp, labels = sp.csgraph.connected_components(adj, connection="strong")
    return Graph(adj, meta={"k": k, "components": n_comp, "labels": labels})


def _diagonal_plus(diag, off, w):
    """diag(``diag``) + the matrix with values ``off`` on the pattern of ``w``.

    One canonical CSR with int32 indices (int64 only past 2^31): zero
    diagonal entries are left out, and ``w`` has no diagonal of its own.
    """
    n = w.shape[0]
    idx = np.int32 if max(n, w.nnz + n) < 2**31 else np.int64
    x = sp.csr_array((off, w.indices.astype(idx, copy=False),
                      w.indptr.astype(idx, copy=False)),
                     shape=w.shape)
    return sp.diags_array(diag, format="csr") + x


@dataclass(frozen=True)
class Operator:
    """Variation operator M = diag(``diag``) + O, held as its parts.

    O lies on the pattern of the symmetric ``adjacency`` W (no diagonal):
    O = -W, or O = -S W S with S = diag(``scale``), so a block of M is cut
    from W's block.  M = S (diag(c) - W) S with c = ``congruent_diag``.
    """

    diag: np.ndarray
    adjacency: sp.csr_array
    scale: np.ndarray | None = None

    @property
    def congruent_diag(self):
        return self.diag if self.scale is None else self.diag / self.scale**2

    @classmethod
    def of_matrix(cls, m):
        """A symmetric matrix split into its diagonal and W = -(the rest)."""
        m = sp.csr_array(m, copy=True)
        m.sum_duplicates()
        w = keep_entries(m, lambda i, j: i != j)
        w.eliminate_zeros()
        return cls(m.diagonal(), -w)

    def off(self, w, rows=slice(None), cols=slice(None), transpose=False):
        """O's values on ``w`` = W[rows][:, cols], in ``w``'s entry order;
        ``transpose`` gives O's values at the mirrored entries, so ``w``'s
        pattern with them is the transpose of O's block, bit for bit."""
        if self.scale is None:
            return -w.data
        r = np.repeat(self.scale[rows], np.diff(w.indptr))
        c = self.scale[cols][w.indices]
        return -(w.data * c * r) if transpose else -(w.data * r * c)

    def matrix(self):
        """M assembled as one canonical CSR."""
        w = self.adjacency
        return _diagonal_plus(self.diag, self.off(w), w)

    def principal_block(self, w, idx):
        """M[idx][:, idx] as CSC, from ``w`` = W[idx][:, idx]: the CSR of
        its transpose, transposed without a copy, bit-equal to the CSC of
        the block cut from the assembled M."""
        return _diagonal_plus(self.diag[idx], self.off(w, idx, idx, True), w).T


def combinatorial_operator(g):
    """D - W, as an Operator."""
    return Operator(g.degrees, g.adjacency)


def normalized_operator(g, allow_isolated=False):
    """I - D^{-1/2} W D^{-1/2}, as an Operator; see normalized_laplacian.

    An isolated vertex's scale is 1: it has no entry of W to scale, and
    its congruent diagonal entry is then 1, the row it keeps.
    """
    d = g.degrees
    iso = d <= 0
    if np.any(iso) and not allow_isolated:
        raise ZeroDegree(f"{int(iso.sum())} isolated vertices")
    return Operator(np.ones(g.n), g.adjacency,
                    1.0 / np.sqrt(np.where(iso, 1.0, d)))


def combinatorial_laplacian(g):
    """L = D - W."""
    return combinatorial_operator(g).matrix()


def normalized_laplacian(g, allow_isolated=False):
    """I - D^{-1/2} W D^{-1/2}; unit diagonal, eigenvalues in [0, 2].

    Isolated vertices have no well-defined normalization; by default they
    raise, but the bipartite-baseline path sets their row/column to the
    identity row (allow_isolated=True).
    """
    return normalized_operator(g, allow_isolated).matrix()


def random_partition(n, seed):
    """Fair i.i.d. bipartition; resampled whole until both sides nonempty."""
    if n < 2:
        raise ValueError("need n >= 2")
    rng = np.random.default_rng(seed)
    while True:
        f = np.where(rng.random(n) < 0.5, 1, -1).astype(np.int8)
        if np.any(f == 1) and np.any(f == -1):
            return Partition(f)


def meet_every_component(p, labels):
    """Move the lowest-index vertex of each component (of 2+ vertices, by
    ``labels``) that lies wholly on one side across, so that a Laplacian's
    M_AA and M_BB are positive definite; ``p`` itself when none does."""
    size = np.bincount(labels)
    on_a = np.bincount(labels, weights=p.f == 1, minlength=size.size)
    flip = (size > 1) & ((on_a == 0) | (on_a == size))
    if not flip.any():
        return p
    first = np.unique(labels, return_index=True)[1]
    f = p.f.copy()
    f[first[flip]] *= -1
    return Partition(f)


def keep_entries(w, keep):
    """CSR ``w`` cut to its stored entries (i, j) where ``keep(i, j)`` holds.

    ``keep`` takes the row and column index arrays of the stored entries
    and returns a boolean mask; the cut is O(nnz) and keeps the order of
    ``w``'s entries.
    """
    rows = np.repeat(np.arange(w.shape[0]), np.diff(w.indptr))
    mask = keep(rows, w.indices)
    indptr = np.zeros_like(w.indptr)
    np.cumsum(np.bincount(rows[mask], minlength=w.shape[0]), out=indptr[1:])
    return sp.csr_array((w.data[mask], w.indices[mask], indptr), shape=w.shape)


def bipartize(g, p):
    """Keep only edges crossing the (A, B) cut; weights preserved."""
    adj = keep_entries(g.adjacency, lambda i, j: p.f[i] != p.f[j])
    meta = dict(g.meta)
    meta["isolated_after_bipartize"] = int(np.sum(np.diff(adj.indptr) == 0))
    return Graph(adj, meta=meta)
