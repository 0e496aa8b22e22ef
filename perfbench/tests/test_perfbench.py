"""The benchmark's own tests: every workload at toy scale, and every
correctness gate tripped by a planted wrong answer.

Run from the root of the checkout::

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import common
import ingest_stream
import mine_yeast
import serve_queries
from common import Ledger
from run import declared_metrics

END_TO_END = set(declared_metrics(trace=False))
PER_LAYER = set(declared_metrics(trace=True))

MINE_TOY = {"gen": {"n_genes": 400, "n_conditions": 40}, "smin": 3}
INGEST_TOY = {"gen": {"n_genes": 200, "n_conditions": 80}, "tail": 5, "smin": 3}
SERVE_TOY = {"gen": {"n_genes": 200, "n_conditions": 40}}
CELLS = [f"{m}.{b}" for m in mine_yeast.MINERS for b in mine_yeast.BACKENDS]


def test_tail_needs_ten_samples_beyond():
    assert common.tail(list(range(10))) is None
    value, percentile = common.tail(list(range(1, 101)))
    assert value == 90 and percentile == 90.0
    value, percentile = common.tail(list(range(1, 2001)))
    assert value == 1980 and percentile == 99.0


def test_family_digest_ignores_order():
    a = common.family_digest([(("b", "a"), 3), (("c",), 2)])
    b = common.family_digest([(("c",), 2), (("a", "b"), 3)])
    assert a == b
    assert a != common.family_digest([(("a", "b"), 3), (("c",), 3)])


def test_round_trip_rejects_tuple_labels_written_with_str(tmp_path):
    # What format_fimi does with ('g48', '+'): one label, two tokens.
    rows = [[str(("g48", "+")), str(("g7", "-"))], [str(("g48", "+"))]]
    with pytest.raises(ValueError):
        common.round_trip(rows, tmp_path / "bad.fimi")
    good = [[common.token(("g48", "+")), common.token(("g7", "-"))], [common.token(("g48", "+"))]]
    assert common.round_trip(good, tmp_path / "good.fimi").n_items == 2


def test_timing_proxy_forwards_unchanged():
    from repro.datasets.gene_expression import yeast_compendium
    from repro.kernels import get_backend
    from repro.mining import mine

    db = yeast_compendium(n_genes=300, n_conditions=40, seed=2)
    for name in mine_yeast.BACKENDS:
        proxy = common.make_timing_backend(get_backend(name))
        assert proxy.name == name and proxy.vectorized == get_backend(name).vectorized
        for algorithm in ("ista", "eclat"):
            plain = mine(db, 3, algorithm=algorithm, backend=name).labeled()
            assert mine(db, 3, algorithm=algorithm, backend=proxy).labeled() == plain
        assert sum(proxy.calls.values()) > 0


# -- mine-yeast ---------------------------------------------------------------


def test_mine_yeast_toy(tmp_path):
    ledger = Ledger()
    mine_yeast.run(ledger, 5, 0.0, False, tmp_path, MINE_TOY)
    assert ledger.failed == 0 and ledger.attempted == len(CELLS)
    assert {f"{cell}_s" for cell in CELLS} <= set(ledger.metrics)
    assert END_TO_END - {"ops_ok_ratio"} <= set(ledger.metrics)
    cells = [ledger.metrics[f"{cell}_s"][0] for cell in CELLS]
    assert ledger.metrics["work_s"][0] == pytest.approx(sum(cells))
    assert ledger.metrics["tail_ms"][0] == pytest.approx(1000 * max(cells))


def test_mine_yeast_traced_toy(tmp_path):
    ledger = Ledger()
    mine_yeast.run(ledger, 5, 0.0, True, tmp_path, MINE_TOY)
    assert ledger.failed == 0 and ledger.attempted == 2 * len(CELLS)
    for cell in CELLS:
        for part in ("recode_s", "mine_s", "kernels_s", "interp_s", "report_s",
                     "unaccounted_s", "trace_overhead_s", "intersections"):
            assert f"{cell}.{part}" in ledger.metrics
    assert ledger.metrics["lcm.bitint.kernels_s"][0] == 0.0
    assert any(name.startswith("kernels.") for name in ledger.metrics)
    assert PER_LAYER <= set(ledger.metrics)
    assert ledger.metrics["kernels_s"][0] == pytest.approx(
        sum(ledger.metrics[f"{cell}.kernels_s"][0] for cell in CELLS))


def test_mine_yeast_perturbed_digest_fails(tmp_path, monkeypatch):
    real = mine_yeast.setup

    def perturbed(*args):
        inputs = real(*args)
        inputs.reference = "0" + inputs.reference[1:]
        return inputs

    monkeypatch.setattr(mine_yeast, "setup", perturbed)
    ledger = Ledger()
    mine_yeast.run(ledger, 5, 0.0, False, tmp_path, MINE_TOY)
    assert ledger.failed == len(CELLS)
    assert not any(f"{cell}_s" in ledger.metrics for cell in CELLS)
    assert "work_s" not in ledger.metrics


def test_mine_yeast_mislabelled_backend_fails(tmp_path, monkeypatch):
    import repro.kernels

    real = repro.kernels.selection_report

    def mislabelled(name=None):
        report = real("bitint" if name == "numpy" else name)
        report["requested"] = name
        return report

    monkeypatch.setattr(repro.kernels, "selection_report", mislabelled)
    ledger = Ledger()
    mine_yeast.run(ledger, 5, 0.0, False, tmp_path, MINE_TOY)
    numpy_cells = [cell for cell in CELLS if cell.endswith(".numpy")]
    assert ledger.failed == len(numpy_cells)
    assert not any(f"{cell}_s" in ledger.metrics for cell in numpy_cells)
    assert all(f"{cell}_s" in ledger.metrics for cell in CELLS if cell.endswith(".bitint"))
    assert "work_s" not in ledger.metrics


# -- ingest-stream --------------------------------------------------------------


def test_ingest_stream_toy(tmp_path):
    ledger = Ledger()
    ingest_stream.run(ledger, 5, 0.0, False, tmp_path, INGEST_TOY)
    assert ledger.failed == 0 and ledger.attempted > 1
    assert {"ingest_tps", "recover_s"} <= set(ledger.metrics)
    assert END_TO_END - {"ops_ok_ratio"} <= set(ledger.metrics)


def test_ingest_stream_traced_toy(tmp_path):
    ledger = Ledger()
    ingest_stream.run(ledger, 5, 0.0, True, tmp_path, INGEST_TOY)
    assert ledger.failed == 0
    assert ledger.metrics["serving.streaming.replayed_records"][0] == INGEST_TOY["tail"]
    assert ledger.metrics["core.incremental.extend_s"][0] > 0
    assert PER_LAYER <= set(ledger.metrics)
    assert ledger.metrics["kernels_s"][0] > 0 and ledger.metrics["engine_s"][0] > 0


def test_ingest_stream_wrong_recovery_fails(tmp_path, monkeypatch):
    real = ingest_stream.setup

    def perturbed(*args):
        inputs = real(*args)
        inputs.reference = "0" + inputs.reference[1:]
        return inputs

    monkeypatch.setattr(ingest_stream, "setup", perturbed)
    ledger = Ledger()
    ingest_stream.run(ledger, 5, 0.0, False, tmp_path, INGEST_TOY)
    assert ledger.failed == 1
    assert "recover_s" not in ledger.metrics and "op_ms" not in ledger.metrics


# -- serve-queries --------------------------------------------------------------


def test_serve_queries_toy(tmp_path):
    ledger = Ledger()
    serve_queries.run(ledger, 5, 1.5, True, tmp_path, SERVE_TOY)
    assert ledger.failed == 0 and ledger.attempted > 50
    for name in ("query.capacity_qps", "query.light.p50_ms", "core.incremental.memo_hit_ratio",
                 "serving.server.overhead_ms", "serving.queries.interp_s"):
        assert name in ledger.metrics
    assert 0 < ledger.metrics["core.incremental.memo_hit_ratio"][0] < 1
    assert (END_TO_END - {"ops_ok_ratio"}) | PER_LAYER <= set(ledger.metrics)
    assert ledger.metrics["around_s"][0] > 0


def test_serve_queries_wrong_body_fails(tmp_path, monkeypatch):
    real = serve_queries.get

    def tampered(port, target, timeout=30.0):
        status, body = real(port, target, timeout)
        if target.startswith("/support_of"):
            body = body.replace(b'"lines":["', b'"lines":["9')
        return status, body

    monkeypatch.setattr(serve_queries, "get", tampered)
    ledger = Ledger()
    serve_queries.run(ledger, 5, 1.5, False, tmp_path, SERVE_TOY)
    assert 0 < ledger.failed < ledger.attempted
    assert all("support_of" in failure for failure in ledger.failures)


# -- the command ------------------------------------------------------------------


def test_command_refuses_a_checkout_without_the_package(tmp_path):
    root = Path(common.ROOT)
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    shutil.copytree(root / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mine-yeast", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_result_line_keeps_declared_metrics_only():
    ledger = Ledger()
    ledger.op(True)
    ledger.metric("setup_s", 1.5, "s")
    ledger.metric("other", 2.0, "s")
    line = json.loads(ledger.result_line({"setup_s": "s"}))
    assert line == {"correct": True, "attempted": 1, "failed": 0,
                    "metrics": {"setup_s": {"value": 1.5, "unit": "s"}}}


def test_command_prints_no_result_when_a_declared_metric_is_missing(monkeypatch, capsys):
    import run

    def partial(name, ledger, seed, seconds, trace, work):
        ledger.op(True)
        ledger.metric("setup_s", 1.0, "s")

    monkeypatch.setattr(run, "run_workload", partial)
    assert run.main(["--workload", "ingest-stream", "--seed", "1", "--seconds", "1"]) == 1
    detail = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert "correct" not in detail
    assert set(detail["missing_metrics"]) == END_TO_END - {"setup_s", "ops_ok_ratio"}
