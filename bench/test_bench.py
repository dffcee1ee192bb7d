"""Self-tests of the benchmark: run with ``python -m pytest bench``.

They run every workload at tiny scale, show that the oracles catch a
corrupted answer, check that traced spans nest, and check that
``BENCHMARK.json`` and the benchmark's own metric table agree.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import metrics  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from cobwebs import cobweb  # noqa: E402


def tiny_run(workload, tmp_path, seed=3, tracer=None):
    cli = workloads.CliRunner(ROOT, str(tmp_path)) if workload == "cli-oneshot" else None
    tally = run.Tally()
    if cli is not None:
        cli.tracer = tracer
    run.execute(workloads.generate(workload, seed, 1, tiny=True, cli=cli)[0], tally,
                tracer=tracer)
    return tally


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_workload_answers_match_oracles(workload, tmp_path):
    tally = tiny_run(workload, tmp_path)
    assert tally.attempted > 0
    assert tally.errors == []


def test_flipped_zeta_bit_is_caught(monkeypatch, tmp_path):
    original = cobweb.zeta_matrix

    def flipped(p):
        z = original(p).copy()
        z[0, -1] = not z[0, -1]
        return z

    monkeypatch.setattr(cobweb, "zeta_matrix", flipped)
    errors = tiny_run("cobweb-session", tmp_path).errors
    assert errors and all("zeta" in e or "staircase" in e for e in errors)


def test_path_count_off_by_one_is_caught(monkeypatch, tmp_path):
    original = cobweb.count_paths
    monkeypatch.setattr(cobweb, "count_paths", lambda d, x, y: original(d, x, y) + 1)
    for workload in ("cobweb-session", "general-dag"):
        errors = tiny_run(workload, tmp_path).errors
        assert errors and all("count_paths" in e for e in errors)


def test_wrong_cli_output_is_caught():
    res = workloads.CliResult(0, "0 1\n0 0\n", "")
    assert workloads._expect(res, 0, workloads.grid_text(np.array([[0, 1], [0, 0]]))) is None
    assert workloads._expect(res, 0, workloads.grid_text(np.array([[0, 1], [0, 1]])))
    assert workloads._expect(res, 1, "0 1\n0 0\n")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_spans_nest_within_their_parents(workload, tmp_path):
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        tally = tiny_run(workload, tmp_path, tracer=tracer)
    finally:
        uninstall()
    assert tally.errors == []
    names = {s.name for s in tracer.spans}
    assert any(name.startswith("boolmat.") for name in names)
    for s in tracer.spans:
        assert s.start_ns <= s.end_ns
        if s.parent >= 0:
            parent = tracer.spans[s.parent]
            assert parent.start_ns <= s.start_ns and s.end_ns <= parent.end_ns
    assert min(spans.self_times_ns(tracer.spans)) >= 0
    layer = spans.per_layer(tracer.spans, passes=1)
    assert layer["boolmat.bool_product.calls"] > 0


def test_install_wraps_every_binding_and_uninstall_restores_them():
    from cobwebs import boolmat, digraph, njoin

    before = (boolmat.bool_product, digraph.bool_product, njoin.bool_product,
              cobweb.closure_series, cobweb.CobwebPoset.__dict__["zeta"])
    uninstall = spans.install(spans.Tracer())
    try:
        assert digraph.bool_product is njoin.bool_product is boolmat.bool_product
        assert boolmat.bool_product is not before[0]
        assert cobweb.closure_series is boolmat.closure_series is not before[3]
    finally:
        uninstall()
    after = (boolmat.bool_product, digraph.bool_product, njoin.bool_product,
             cobweb.closure_series, cobweb.CobwebPoset.__dict__["zeta"])
    assert all(a is b for a, b in zip(before, after))


def test_manifest_is_reproducible_from_the_seed():
    first = workloads.manifest(5, [g for d in workloads.generate("general-dag", 5, 2) for g in d])
    again = workloads.manifest(5, [g for d in workloads.generate("general-dag", 5, 2) for g in d])
    other = workloads.manifest(6, [g for d in workloads.generate("general-dag", 6, 2) for g in d])
    assert first == again
    assert first["digest"] != other["digest"]


def test_benchmark_json_mirrors_the_metric_table():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    expected = metrics.benchmark_spec()
    assert spec["end_to_end"] == expected["end_to_end"]
    assert spec["per_layer"] == expected["per_layer"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_run_prints_every_end_to_end_metric():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "general-dag",
         "--seed", "4", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0
    assert last["attempted"] >= run.MIN_REQUESTS
    assert set(last["metrics"]) == {m.name for m in metrics.END_TO_END}
    assert all(m["value"] > 0 for m in last["metrics"].values())


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cobweb-session", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
