"""Graph and variation-operator construction from point clouds.

Covers PLY ingestion, symmetric KNN graphs with inverse-distance weights,
combinatorial and normalized Laplacians, random bipartitions, and the
bipartized baseline graph (cross edges only).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.spatial import cKDTree


class ZeroDegree(ValueError):
    """Normalized Laplacian requested on a graph with an isolated vertex."""


@dataclass(frozen=True)
class PointCloud:
    """3D points with per-point attribute channels (possibly zero channels)."""

    positions: np.ndarray  # (n, 3) float64
    attributes: np.ndarray  # (n, c) float64, c >= 0

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
    channels when present, stored as-is without normalization.
    """
    with open(path, "rb") as fh:
        fmt, elements = _parse_ply_header(fh)
        vertex = next((e for e in elements if e[0] == "vertex"), None)
        if vertex is None:
            raise ValueError("PLY file has no vertex element")
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
                line = line.strip()
                if line:
                    rows.append(tuple(line.split()))
            data = np.array(rows, dtype=dtype)
        if data.shape[0] != count:
            raise ValueError("PLY vertex data truncated")
    positions = np.column_stack([data["x"], data["y"], data["z"]]).astype(np.float64)
    if all(c in names for c in ("red", "green", "blue")):
        attrs = np.column_stack(
            [data["red"], data["green"], data["blue"]]
        ).astype(np.float64)
    else:
        attrs = np.empty((count, 0))
    return PointCloud(positions, attrs)


def save_ply(path, pc, binary=True):
    """Write a point cloud as PLY; colors are emitted when channels == 3."""
    has_color = pc.channels == 3
    fmt = "binary_little_endian" if binary else "ascii"
    header = ["ply", f"format {fmt} 1.0", f"element vertex {pc.n}"]
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
        if binary:
            rec.tofile(fh)
        else:
            for r in rec:
                vals = [repr(float(r[c])) for c in "xyz"]
                if has_color:
                    vals += [str(int(r[c])) for c in ("red", "green", "blue")]
                fh.write((" ".join(vals) + "\n").encode("ascii"))


# ---------------------------------------------------------------------------
# Graph construction

def knn_graph(pc, k):
    """Symmetric-union KNN graph with inverse-distance weights.

    An edge (i, j) exists when i is among the k nearest neighbors of j or
    vice versa; w_ij = 1/dist with distances floored at 1e-9 of the
    bounding-box diagonal so duplicate points stay finite.
    """
    pos = pc.positions
    n = pos.shape[0]
    if k < 1:
        raise ValueError("k must be >= 1")
    if n <= k:
        raise ValueError("need more points than neighbors")
    tree = cKDTree(pos)
    dist, idx = tree.query(pos, k=k + 1)
    # drop one self match per row (usually the first column; under
    # duplicate-point ties self may sit elsewhere or be absent entirely)
    self_mask = idx == np.arange(n)[:, None]
    drop = self_mask & (np.cumsum(self_mask, axis=1) == 1)
    no_self = ~self_mask.any(axis=1)
    drop[no_self, -1] = True
    keep = ~drop
    rows = np.repeat(np.arange(n), k)
    cols = idx[keep]
    dists = dist[keep]
    bbox = pos.max(axis=0) - pos.min(axis=0)
    floor = 1e-9 * max(float(np.linalg.norm(bbox)), np.finfo(float).tiny)
    w = 1.0 / np.maximum(dists, floor)
    adj = sp.coo_array((w, (rows, cols)), shape=(n, n)).tocsr()
    adj = adj.maximum(adj.T)  # symmetric union; equal weights either way
    adj.setdiag(0)
    adj.eliminate_zeros()
    n_comp = sp.csgraph.connected_components(adj, directed=False)[0]
    return Graph(sp.csr_array(adj), meta={"k": k, "components": n_comp})


def degrees(g):
    return np.asarray(g.adjacency.sum(axis=1)).ravel()


def combinatorial_laplacian(g):
    """L = D - W."""
    w = g.adjacency
    d = degrees(g)
    return sp.csr_array(sp.diags(d) - w)


def normalized_laplacian(g, allow_isolated=False):
    """I - D^{-1/2} W D^{-1/2}; unit diagonal, eigenvalues in [0, 2].

    Isolated vertices have no well-defined normalization; by default they
    raise, but the bipartite-baseline path sets their row/column to the
    identity row (allow_isolated=True).
    """
    d = degrees(g)
    iso = d <= 0
    if np.any(iso) and not allow_isolated:
        raise ZeroDegree(f"{int(iso.sum())} isolated vertices")
    dis = np.zeros_like(d)
    dis[~iso] = 1.0 / np.sqrt(d[~iso])
    s = sp.diags(dis)
    lap = sp.eye(g.n) - s @ g.adjacency @ s
    lap = sp.csr_array(lap)
    return lap


def random_partition(n, seed):
    """Fair i.i.d. bipartition; resampled whole until both sides nonempty."""
    if n < 2:
        raise ValueError("need n >= 2")
    rng = np.random.default_rng(seed)
    while True:
        f = np.where(rng.random(n) < 0.5, 1, -1).astype(np.int8)
        if np.any(f == 1) and np.any(f == -1):
            return Partition(f)


def bipartize(g, p):
    """Keep only edges crossing the (A, B) cut; weights preserved."""
    f = p.f.astype(np.float64)
    coo = sp.coo_array(g.adjacency)
    keep = f[coo.row] != f[coo.col]
    adj = sp.coo_array(
        (coo.data[keep], (coo.row[keep], coo.col[keep])), shape=g.adjacency.shape
    ).tocsr()
    d = np.asarray(adj.sum(axis=1)).ravel()
    meta = dict(g.meta)
    meta["isolated_after_bipartize"] = int(np.sum(d <= 0))
    return Graph(sp.csr_array(adj), meta=meta)
