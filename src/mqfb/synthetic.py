"""Synthetic point clouds and random graphs for tests and benchmarks."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .graphs import Graph, Partition, PointCloud


def gaussian_blob_cloud(n, seed=0):
    """Mixture of 8 unit Gaussians, centred in [-10, 10]^3, with a smooth
    RGB color field.

    Colors vary sinusoidally with position, scaled into [0, 255], so the
    attribute signal is smooth on any proximity graph.
    """
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-10.0, 10.0, size=(8, 3))
    labels = rng.integers(0, 8, size=n)
    pos = centers[labels] + rng.standard_normal((n, 3))
    freqs = rng.uniform(0.05, 0.15, size=(3, 3))
    phases = rng.uniform(0, 2 * np.pi, size=3)
    attrs = 127.5 * (1.0 + np.sin(pos @ freqs.T + phases))
    return PointCloud(pos, attrs)


def random_connected_graph(n, p=0.1, seed=0):
    """Erdos-Renyi graph made connected by chaining the components, with
    edge weights uniform in [0.5, 2].

    Edges missing for connectivity are added along a random spanning path,
    so the result is always connected without resampling loops.
    """
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(iu.size) < p
    rows = list(iu[keep])
    cols = list(ju[keep])
    order = rng.permutation(n)
    adj = sp.coo_array((np.ones(len(rows)), (rows, cols)), shape=(n, n)).tocsr()
    n_comp, labels = sp.csgraph.connected_components(
        adj + adj.T, directed=False)
    if n_comp > 1:
        # connect consecutive vertices of the shuffled order across components
        seen = {}
        prev = None
        for v in order:
            c = labels[v]
            if c not in seen:
                if prev is not None:
                    rows.append(min(prev, v))
                    cols.append(max(prev, v))
                seen[c] = v
                prev = v
    w = rng.uniform(0.5, 2.0, len(rows))
    adj = sp.coo_array((w, (rows, cols)), shape=(n, n)).tocsr()
    adj = adj + adj.T
    adj.setdiag(0)
    adj.eliminate_zeros()
    return Graph(sp.csr_array(adj))


def random_bipartite_graph(n, seed=0, p=0.3):
    """Random connected bipartite graph plus the partition it respects."""
    rng = np.random.default_rng(seed)
    while True:
        f = np.where(rng.random(n) < 0.5, 1, -1).astype(np.int8)
        if np.any(f == 1) and np.any(f == -1):
            break
    a = np.flatnonzero(f == 1)
    b = np.flatnonzero(f == -1)
    rows, cols = [], []
    for i in a:
        picks = b[rng.random(b.size) < p]
        if picks.size == 0:
            picks = b[[rng.integers(b.size)]]
        rows += [i] * picks.size
        cols += list(picks)
    # every B vertex needs a neighbor too
    deg_b = np.zeros(n)
    for j in cols:
        deg_b[j] += 1
    for j in b:
        if deg_b[j] == 0:
            rows.append(int(a[rng.integers(a.size)]))
            cols.append(int(j))
    w = rng.uniform(0.5, 2.0, len(rows))
    adj = sp.coo_array((w, (rows, cols)), shape=(n, n)).tocsr()
    adj = adj + adj.T
    adj.setdiag(0)
    adj.eliminate_zeros()
    g = Graph(sp.csr_array(adj))
    n_comp = sp.csgraph.connected_components(g.adjacency, directed=False)[0]
    if n_comp > 1:
        return random_bipartite_graph(n, seed + 10_007, min(2 * p, 1.0))
    return g, Partition(f)
