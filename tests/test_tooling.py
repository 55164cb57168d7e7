"""The benchmark's tracer still wraps names the library defines, and the
pipeline factors with one configuration.

perfbench/tracer.py replaces library attributes by name, so deleting or
renaming one of them breaks traced benchmark runs (``perfbench/run.py
--trace``).  The tracer is imported by path, since the default test run
does not collect perfbench/.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from mqfb import filterbank as fb
from mqfb import multires as mr
from mqfb.synthetic import gaussian_blob_cloud

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while they are built
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("spec", [fb.lazy_spec(), fb.orthogonal_cosine_spec(),
                                  fb.orthogonal_cosine_spec(mode="dense")],
                         ids=["lazy", "ortho-poly", "ortho-dense"])
def test_tracer_installs_and_removes(tracer_module, spec, tmp_path):
    originals = [owner.__dict__[attr]
                 for owner, attr, *_ in tracer_module.TARGETS]
    pc = gaussian_blob_cloud(300, seed=0)
    tracer = tracer_module.Tracer()
    with tracer:
        tree = mr.decompose(pc, spec, k=5, levels=3, seed=0)
        mr.save_tree(tree, tmp_path / "tree")
        loaded = mr.load_tree(tmp_path / "tree")
        rec = mr.reconstruct(loaded)
        for j in range(len(tree.levels) + 1):
            mr.linear_approximation(tree, 2.0**-j, pc.attributes)
    assert tracer_module.wrappers_left() == []
    assert [owner.__dict__[attr]
            for owner, attr, *_ in tracer_module.TARGETS] == originals
    assert np.linalg.norm(rec - pc.attributes) <= 1e-8 * np.linalg.norm(
        pc.attributes)
    totals = tracer.totals()
    levels = len(tree.levels)
    # decompose, reconstruct and the one-pass sweep build a context per level
    assert totals["filterbank.make_context"]["calls"] == 3 * levels
    assert totals["filterbank.analyze"]["calls"] == levels
    assert totals["multires.linear_approximation"]["calls"] == levels + 1


@pytest.mark.parametrize("spec", [fb.lazy_spec(), fb.orthogonal_cosine_spec()],
                         ids=["lazy", "ortho-poly"])
def test_every_factor_uses_the_spd_solver_settings(spec, monkeypatch):
    """No second factor configuration: every splu call in decompose,
    reconstruct and the sweep gets SpdSolver's keyword arguments."""
    calls = []
    splu = spla.splu

    def recording_splu(a, **kwargs):
        calls.append(kwargs)
        return splu(a, **kwargs)

    monkeypatch.setattr(spla, "splu", recording_splu)
    pc = gaussian_blob_cloud(300, seed=0)
    tree = mr.decompose(pc, spec, k=5, levels=3, seed=0)
    mr.reconstruct(tree)
    for j in range(len(tree.levels) + 1):
        mr.linear_approximation(tree, 2.0**-j, pc.attributes)
    assert calls
    assert all(kw == dict(diag_pivot_thresh=0.0, permc_spec="MMD_AT_PLUS_A",
                          panel_size=1, options=dict(SymmetricMode=True))
               for kw in calls)
