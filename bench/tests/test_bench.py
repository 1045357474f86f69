"""Tests of the benchmark itself: seeded inputs, golden coverage, failure
counting, speed scaling, cold-state isolation and the trace wrappers.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

for _workload in workloads.WORKLOADS:
    run.import_cylkit(_workload)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
GOLDENS = run.load_goldens(BENCH / "goldens.json")
COUNT_SUFFIXES = (".calls", ".candidates", ".sum")


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, dict | None, str]:
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600, check=False)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return proc.returncode, result, proc.stderr


def counts(layers: dict) -> dict:
    return {k: v for k, v in layers.items() if k.endswith(COUNT_SUFFIXES)}


def clear_memos():
    for mod in tracer._cylkit_modules():
        for key, value in vars(mod).items():
            if isinstance(value, dict) and key.endswith(("_MEMO", "_CACHE")):
                value.clear()


# -- inputs ------------------------------------------------------------------------


def test_same_seed_gives_identical_ops():
    for workload in workloads.WORKLOADS:
        a = workloads.make_ops(workload, 7)
        b = workloads.make_ops(workload, 7)
        assert [op[0] for op in a] == [op[0] for op in b]
        orders_a = workloads.pass_orders(a, 7)
        orders_b = workloads.pass_orders(b, 7)
        for _ in range(2):
            assert ([op[0] for op in next(orders_a)]
                    == [op[0] for op in next(orders_b)])


def test_different_seed_gives_different_random_words():
    a = {op[0] for op in workloads.make_ops("expand-cold", 1)}
    b = {op[0] for op in workloads.make_ops("expand-cold", 2)}
    assert a != b
    assert len(a) == len(b)


def test_pool_words_are_reduced():
    from cylkit.affine import AffinePermutation

    for (n, ell), words in workloads.expand_pool().items():
        assert len(set(words)) == workloads.POOL_PER_CELL
        for word in words:
            assert len(word) == ell
            assert AffinePermutation.from_word(n, word).length == ell


def test_goldens_cover_every_op():
    for workload in workloads.WORKLOADS:
        every = {op[0] for op in workloads.all_ops(workload)}
        assert every <= GOLDENS.keys(), workload
        for seed in range(20):
            assert {op[0] for op in workloads.make_ops(workload, seed)} <= every


# -- the result line and failure counting -------------------------------------------


def _pass(workload: str, ops, goldens=GOLDENS, trace=None) -> run.Tally:
    tally = run.Tally()
    run.run_pass(workload, ops, goldens, tally, trace)
    return tally


def test_result_line_names_the_end_to_end_metrics():
    code, result, _ = bench("--workload", "gw-table", "--seed", "3",
                            "--seconds", "0", "--trace", "0")
    assert code == 0
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(workloads.make_ops("gw-table", 3))
    spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec


def test_expand_cold_metrics_on_a_few_ops():
    tally = _pass("expand-cold", workloads.make_ops("expand-cold", 3)[:12])
    assert (tally.attempted, tally.failed, len(tally.latencies)) == (12, 0, 12)
    metrics = run.e2e_metrics(tally, 0.1)
    assert {k: unit for k, (_, unit) in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(value > 0 for value, _ in metrics.values())


@pytest.mark.parametrize("workload", ["expand-cold", "oracle"])
def test_corrupted_goldens_count_as_failures(tmp_path, capfd, workload):
    corrupt = {"digests": {k: "0" * len(v) for k, v in GOLDENS.items()}}
    path = tmp_path / "goldens.json"
    path.write_text(json.dumps(corrupt))
    tally = _pass(workload, workloads.make_ops(workload, 1)[:4],
                  run.load_goldens(path))
    assert (tally.attempted, tally.failed, len(tally.latencies)) == (4, 4, 4)
    assert "digest mismatch" in capfd.readouterr().err


def _failing_runner(kind: str, fail):
    good = workloads.RUNNERS[kind]
    calls = []

    def runner(args):
        calls.append(args)
        if len(calls) == 3:
            fail()
        return good(args)

    return runner


def _exit_from_cli():
    from cylkit import cli

    cli.main(["expand", "--no-such-option"])


def test_system_exit_in_an_op_is_one_failed_op(monkeypatch, capfd):
    monkeypatch.setitem(workloads.RUNNERS, "oracle",
                        _failing_runner("oracle", _exit_from_cli))
    ops = [op for op in workloads.make_ops("oracle", 1) if op[1] == "oracle"][:6]
    tally = _pass("oracle", ops)
    assert (tally.attempted, tally.failed, len(tally.latencies)) == (6, 1, 6)
    assert "SystemExit" in capfd.readouterr().err


def test_a_dead_child_keeps_the_ops_it_finished(monkeypatch):
    monkeypatch.setitem(workloads.RUNNERS, "gw",
                        _failing_runner("gw", lambda: os._exit(3)))
    tally = _pass("gw-table", workloads.make_ops("gw-table", 1)[:6])
    assert (tally.attempted, tally.failed, len(tally.latencies)) == (6, 4, 2)


# -- speed scaling -------------------------------------------------------------------


def test_scale_uses_the_probes_around_an_op():
    probes = ([(t, 0.0004) for t in (0.0, 0.05)]
              + [(t, 0.0008) for t in (1.0, 1.05, 1.1, 1.15)])
    scale = speed.Scale(probes)
    assert scale.factor(1.02, 1.08) == pytest.approx(0.5)
    assert scale.factor(0.01, 0.02) == pytest.approx(
        speed.REFERENCE_S / statistics.median([0.0004, 0.0004, 0.0008, 0.0008]))
    with pytest.raises(ValueError):
        speed.Scale([]).factor(0.0, 1.0)


def test_an_op_is_charged_its_cpu_time_at_most_its_wall_time():
    assert run.op_time(0.030, 0.021) == 0.021
    assert run.op_time(0.030, 0.055) == 0.030


def test_latencies_are_scaled_by_the_probes():
    tally = _pass("oracle", workloads.make_ops("oracle", 1)[:20])
    assert len(tally.raw_latencies) == len(tally.latencies) == 20
    ratios = [s / r for s, r in zip(tally.latencies, tally.raw_latencies)]
    assert all(0.2 < x < 5 for x in ratios)


def test_metrics_of_a_run_where_every_child_died():
    tally = run.Tally()
    tally.add([("a", "expand", None)] * 3, [], None, 1024)
    assert (tally.attempted, tally.failed) == (3, 3)
    metrics = run.e2e_metrics(tally, 0.1)
    assert metrics["latency_p50_ms"][0] == metrics["ops_per_s"][0] == 0.0
    assert metrics["peak_rss_mb"][0] == 1.0


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    code, result, stderr = bench("--workload", "oracle", "--seed", "1",
                                 "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert code != 0
    assert result is None
    assert "no cylkit sources" in stderr


# -- tracing -------------------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_matches_goldens_and_repeats_counts(workload):
    order = next(workloads.pass_orders(workloads.make_ops(workload, 5), 5))[:15]
    runs = []
    for _ in range(2):
        plain, traced, absent = run.run_traced(workload, order, GOLDENS)
        assert absent == []
        for tally in (*plain, traced):
            assert (tally.attempted, tally.failed) == (15, 0)
        metrics = run.layer_metrics(plain, traced)
        assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
        runs.append(counts({k: v for k, (v, _) in metrics.items()}))
    assert runs[0] == runs[1]


def _traced_counts(ops) -> dict[str, dict]:
    trace = tracer.Tracer()
    trace.install()
    tally = run.Tally()
    try:
        run.run_pass("expand-cold", ops, GOLDENS, tally, trace)
    finally:
        trace.uninstall()
    assert tally.failed == 0
    return {op_id: counts(layers) for op_id, layers in tally.per_op_layers.items()}


def test_expand_cold_query_counts_do_not_depend_on_earlier_queries():
    ops = workloads.make_ops("expand-cold", 4)
    query = next(op for op in ops if op[0].startswith("expand:n=6"))
    others = [op for op in ops if op[0].startswith("expand:n=5")][:3]
    alone = _traced_counts([query])[query[0]]
    after = _traced_counts(others + [query])[query[0]]
    assert alone["affine.max_cyclic_factor.calls"] > 0
    assert alone == after


def test_fork_refused_when_memo_tables_are_warm():
    from cylkit import stanley
    from cylkit.affine import AffinePermutation

    stanley.expand_affine_schur(AffinePermutation.from_word(4, (0, 2, 1)))
    try:
        assert tracer.memo_entries() > 0
        with pytest.raises(SystemExit):
            run.run_pass("expand-cold", workloads.make_ops("expand-cold", 1)[:1],
                         GOLDENS, run.Tally())
    finally:
        clear_memos()
    assert tracer.memo_entries() == 0


def test_missing_targets_are_absent_not_fatal():
    from cylkit import affine, stanley

    original = affine.shape_of
    gone = (("gone.function", "cylkit.affine", "no_such_function", ("calls",)),
            ("gone.module", "cylkit.no_such_module", "f", ("calls",)),
            ("gone.method", "cylkit.affine", "AffinePermutation.no_such", ("calls",)))
    trace = tracer.Tracer(tracer.TARGETS + gone)
    trace.install()
    try:
        assert trace.absent == [g[0] for g in gone]
        assert affine.shape_of is not original
        assert stanley.shape_of is affine.shape_of
        stanley.expand_affine_schur(affine.AffinePermutation.from_word(4, (0, 2, 1)))
        layers = trace.aggregate()
    finally:
        trace.uninstall()
        clear_memos()
    assert affine.shape_of is original and stanley.shape_of is original
    assert not any(key.startswith("gone.") for key in layers)
    assert layers["stanley.expand_affine_schur.calls"] == 1
    assert layers["affine.shape_of.calls"] > 0
