"""Self-checks of the benchmark and its tracer on clouds of a few hundred points.

Run from the repository root: python3 -m pytest -q perfbench
"""

import json
import os

import numpy as np
import pytest

import run

run.import_library()

from tracer import TARGETS, Tracer, wrappers_left  # noqa: E402
from workloads import WORKLOADS, Workload, check_outputs, run_pipeline  # noqa: E402

TINY = {
    "tiny-lazy": Workload("tiny-lazy", 600, "lazy", 5, 3, False, "", {}),
    "tiny-bipartite": Workload("tiny-bipartite", 600, "lazy", 10, 3, True,
                               "", {}),
    "tiny-ortho": Workload("tiny-ortho", 240, "ortho-cosine", 5, 3, False,
                           "", {}),
}
SEED = 3


def _passes(wl, tmp_path):
    pc = wl.cloud(SEED)
    plain = run_pipeline(wl, pc, SEED, str(tmp_path / "a"), io_repeat=False)
    tracer = Tracer()
    with tracer:
        traced = run_pipeline(wl, pc, SEED, str(tmp_path / "b"),
                              io_repeat=False)
    tracer.assign_levels(traced["level_sizes"])
    return pc, plain, traced, tracer


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_output_is_bit_identical(name, tmp_path):
    wl = TINY[name]
    pc, plain, traced, _ = _passes(wl, tmp_path)
    assert check_outputs(wl, pc, SEED, plain) == []
    assert np.array_equal(traced["decoded"], plain["decoded"])
    for a, b in zip(traced["sweep_psnr"], plain["sweep_psnr"]):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("name", sorted(TINY))
def test_self_times_fit_in_traced_total(name, tmp_path):
    _, _, traced, tracer = _passes(TINY[name], tmp_path)
    totals = tracer.totals()
    self_sum = sum(t["self_s"] for t in totals.values())
    assert 0 < self_sum <= traced["total_s"]
    assert all(s.self_s >= -1e-9 for s in tracer.spans)
    levels = tracer.per_level()
    assert [lv["n"] for lv in levels] == traced["level_sizes"]
    assert all(lv["nnz"] > 0 for lv in levels)


def test_counts_follow_the_pipeline(tmp_path):
    _, _, traced, tracer = _passes(TINY["tiny-lazy"], tmp_path)
    t = tracer.totals()
    levels = traced["levels_realized"]
    # decompose, decode and L + 1 sweep reconstructions build one context
    # per level each
    assert t["filterbank.make_context"]["calls"] == levels * (levels + 3)
    assert t["sparse_core.splu"]["calls"] == levels * (levels + 3)
    assert t["graphs.knn"]["calls"] == levels
    _, _, _, bfb = _passes(TINY["tiny-bipartite"], tmp_path)
    assert "sparse_core.splu" not in bfb.totals()  # Q = I takes the fast path
    _, _, _, ortho = _passes(TINY["tiny-ortho"], tmp_path)
    assert ortho.totals()["gft.eigh"]["calls"] == levels * (levels + 3)


def test_wrappers_are_removed_even_on_error():
    originals = [owner.__dict__[attr] for owner, attr, *_ in TARGETS]
    with pytest.raises(ZeroDivisionError):
        with Tracer():
            assert len(wrappers_left()) == len(TARGETS)
            1 / 0
    assert wrappers_left() == []
    assert [owner.__dict__[attr] for owner, attr, *_ in TARGETS] == originals


@pytest.mark.parametrize("trace", [0, 1])
def test_run_reports_every_declared_metric(trace, tmp_path, monkeypatch,
                                           capsys):
    for var in run.THREAD_VARS:
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(run, "WORK", str(tmp_path))
    monkeypatch.setattr(run, "probe_setup", lambda workload, seed: 0.5)
    monkeypatch.setitem(WORKLOADS, "tiny-lazy", TINY["tiny-lazy"])
    assert run.main(["--workload", "tiny-lazy", "--seed", str(SEED),
                     "--seconds", "0.01", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    declared = bench["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == (2 if trace else 1)
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        metrics = result["metrics"]
        assert metrics["filterbank.make_context_calls"]["value"] == 18
        assert metrics["trace.self_sum_s"]["value"] <= \
            metrics["trace.total_s"]["value"]
        assert "trace.overhead_s" in metrics
        assert os.path.exists(
            tmp_path / f"trace-tiny-lazy-seed{SEED}.json")
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())
