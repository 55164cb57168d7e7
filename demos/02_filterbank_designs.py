"""Two-channel filter-bank designs: lazy (biorthogonal) and orthogonal cosine.

Both are perfect reconstruction on any graph and any vertex partition.  The
lazy bank runs as a degree-1 polynomial of the fundamental matrix (one
sparse mat-vec plus one sparse SPD solve).  The orthogonal bank preserves
the Q-norm; on the sparse path it is a degree-12 Chebyshev series in
Z - I, whose spectrum folding puts in [-1, 1], and it matches the dense
eigenbasis reference to roundoff.
"""

import numpy as np

from mqfb import (
    analyze,
    check_pr,
    check_q_orthogonality,
    combinatorial_laplacian,
    frame_bounds,
    lazy_spec,
    make_context,
    orthogonal_cosine_spec,
    random_partition,
    synthesize,
)
from mqfb.synthetic import random_connected_graph

n = 300
g = random_connected_graph(n, p=0.05, seed=7)
m = combinatorial_laplacian(g)
p = random_partition(n, seed=7)
x = np.random.default_rng(0).standard_normal(n)

# lazy bank on the sparse path
ctx_poly = make_context(m, p, mode="poly")
lazy = lazy_spec()
coeffs = analyze(lazy, ctx_poly, x)
xr = synthesize(lazy, ctx_poly, coeffs)
print(f"lazy: |a|={coeffs.a.size}, |d|={coeffs.d.size} (critically sampled)")
print(f"lazy round-trip rel error: "
      f"{np.linalg.norm(xr - x) / np.linalg.norm(x):.3e}")

# orthogonal bank on the sparse path, against the dense reference
ortho = orthogonal_cosine_spec()
rep = check_pr(ortho, ctx_poly)
print(f"ortho PR round-trip: {rep['max_roundtrip_rel_error']:.3e}")
rep = check_q_orthogonality(ortho, ctx_poly)
print(f"ortho Parseval violation: {rep['max_parseval_violation']:.3e}")
ctx_dense = make_context(m, p, mode="dense")
c_poly = analyze(ortho, ctx_poly, x)
c_dense = analyze(orthogonal_cosine_spec(mode="dense"), ctx_dense, x)
gap = max(np.linalg.norm(c_poly.a - c_dense.a) / np.linalg.norm(c_dense.a),
          np.linalg.norm(c_poly.d - c_dense.d) / np.linalg.norm(c_dense.d))
print(f"ortho poly vs dense analysis rel difference: {gap:.3e}")

# the lazy bank trades orthogonality for a degree-1 implementation;
# its Q-norm distortion is bounded by the frame bounds
for name, spec in (("lazy", lazy), ("ortho", ortho)):
    alpha, beta = frame_bounds(spec)
    print(f"{name}: frame bounds alpha={alpha:.4f}, beta={beta:.4f}")
