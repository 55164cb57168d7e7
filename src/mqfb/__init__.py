"""Two-channel perfect-reconstruction filter-banks on arbitrary graphs.

The library builds graph Fourier transforms from generalized eigenproblems
M u = lambda Q u, where M is a positive semi-definite variation operator and
Q is the block-diagonal of M induced by a vertex bipartition.  The resulting
transform satisfies a spectral folding property that yields orthogonal and
biorthogonal critically-sampled filter-banks on graphs that need not be
bipartite, with an efficient sparse implementation (one sparse mat-vec plus
one SPD solve per filtering step) and an iterated multiresolution pipeline
for 3D point-cloud attributes.
"""

__version__ = "0.1.0"

from .sparse_core import NotPositiveDefinite, SpdSolver, build_block_diag_q
from .graphs import (
    Partition,
    PointCloud,
    ZeroDegree,
    bipartize,
    combinatorial_laplacian,
    knn_graph,
    load_ply,
    normalized_laplacian,
    random_partition,
    save_ply,
)
from .gft import (
    FundamentalOperator,
    GftBasis,
    dense_spectral_filter,
    gft_forward,
    gft_inverse,
    mq_eigendecompose,
    spectrum_properties,
    verify_spectral_folding,
)
from .filterbank import (
    FilterBankSpec,
    FilterContext,
    Kernel,
    analyze,
    check_pr,
    check_q_orthogonality,
    frame_bounds,
    lazy_spec,
    make_context,
    orthogonal_cosine_spec,
    synthesize,
    zero_dc_wrap,
)
from .multires import (
    DecompositionTree,
    decompose,
    linear_approximation,
    load_tree,
    psnr,
    reconstruct,
    save_tree,
)
from .synthetic import gaussian_blob_cloud
