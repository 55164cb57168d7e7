"""The benchmark's tracer still wraps names the library defines, the
pipeline factors with one configuration, a context takes no Q or basis of
its own, and the library imports nothing it does not use.

perfbench/tracer.py replaces library attributes by name, so deleting or
renaming one of them breaks traced benchmark runs (``perfbench/run.py
--trace``).  The tracer is imported by path, since the default test run
does not collect perfbench/.
"""

import ast
import importlib.util
import inspect
import sys
import types
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from mqfb import filterbank as fb
from mqfb import multires as mr
from mqfb.synthetic import gaussian_blob_cloud

ROOT = Path(__file__).resolve().parent.parent
TRACER_PATH = ROOT / "perfbench" / "tracer.py"
LIBRARY_MODULES = sorted(p for p in (ROOT / "src" / "mqfb").glob("*.py")
                         if p.name != "__init__.py")


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
    reconstruct and the sweep gets SpdSolver's keyword arguments.
    decompose orders with MMD; decode and the sweep factor each level's
    M_BB in the order decompose recorded (NATURAL), and only the ortho
    bank's M_AA, which has no recorded order, is ordered there."""
    calls = []
    splu = spla.splu

    def recording_splu(a, **kwargs):
        calls.append(kwargs)
        return splu(a, **kwargs)

    monkeypatch.setattr(spla, "splu", recording_splu)
    pc = gaussian_blob_cloud(300, seed=0)
    tree = mr.decompose(pc, spec, k=5, levels=3, seed=0)
    encode = calls[:]
    calls.clear()
    mr.reconstruct(tree)
    for j in range(len(tree.levels) + 1):
        mr.linear_approximation(tree, 2.0**-j, pc.attributes)
    assert all(lv.order_b is not None for lv in tree.levels)
    assert encode and calls

    def others(kw):
        return {k: v for k, v in kw.items() if k != "permc_spec"}

    assert all(others(kw) == dict(diag_pivot_thresh=0.0, panel_size=1,
                                  options=dict(SymmetricMode=True))
               for kw in encode + calls)
    assert all(kw["permc_spec"] == "MMD_AT_PLUS_A" for kw in encode)
    natural = [kw for kw in calls if kw["permc_spec"] == "NATURAL"]
    # one reconstruct plus one sweep: two contexts per level
    assert len(natural) == 2 * len(tree.levels)
    mmd = len(calls) - len(natural)
    assert mmd == (0 if spec.family == "lazy" else 2 * len(tree.levels))


@pytest.mark.parametrize("path", LIBRARY_MODULES, ids=lambda p: p.stem)
def test_every_import_is_used(tracer_module, path):
    """A name a module imports is used there or is one the tracer wraps
    on that module, so a deletion leaves no import behind."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    traced = {attr for owner, attr, *_ in tracer_module.TARGETS
              if isinstance(owner, types.ModuleType)
              and owner.__name__ == f"mqfb.{path.stem}"}
    assert imported - used - traced == set()


# calls that start a thread or a process, by the name they are called by
THREAD_STARTERS = {"Thread", "Timer", "ThreadPoolExecutor",
                   "ProcessPoolExecutor", "Process", "Pool",
                   "start_new_thread", "fork"}


def _calls(node, where="<module>"):
    """(name of the innermost function around it, call) for every call."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _calls(child, child.name)
            continue
        if isinstance(child, ast.Call):
            yield where, child
        yield from _calls(child, where)


def test_threads_start_in_one_place():
    """src/ starts threads in exactly one place, the pipeline worker, so a
    per-call worker cannot come back unnoticed (see the multires
    docstring: one worker per process, and factors freed where built)."""
    found = []
    for path in LIBRARY_MODULES + [ROOT / "src" / "mqfb" / "__init__.py"]:
        for where, call in _calls(ast.parse(path.read_text())):
            f = call.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(
                f, "id", None)
            if name in THREAD_STARTERS:
                found.append((path.stem, where, name))
    assert found == [("multires", "_new_worker", "ThreadPoolExecutor")]
    assert mr._worker._max_workers == 1


def test_a_context_takes_no_q_or_basis_of_its_own():
    """A context's Q is the block-diagonal of its M and its dense basis is
    folded from its own blocks, so every filter, in the pipeline and in
    ``mqfb verify``, runs on the one (M, Q) pair it was built from."""
    assert str(inspect.signature(fb.FilterContext)) == (
        "(m, partition, order_b=None)")
