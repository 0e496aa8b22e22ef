"""Tests for the benchmark harness."""

import math
import os
import time

import pytest

import repro.bench.harness as harness
from repro.bench.harness import (
    CELL_STATUSES,
    Measurement,
    SweepResult,
    _measure_cell,
    compare_kernel_baselines,
    run_kernel_microbench,
    run_sweep,
)
from repro.runtime import MiningInterrupted

from ..conftest import db_from_strings


@pytest.fixture
def db():
    return db_from_strings(["abc", "abd", "acd", "bcd", "ab", "cd"])


class TestRunSweep:
    def test_basic_sweep(self, db):
        sweep = run_sweep(db, [1, 2, 3], ["ista", "lcm"], dataset="toy")
        assert sweep.smin_values == [3, 2, 1]
        for algorithm in ("ista", "lcm"):
            for smin in (1, 2, 3):
                cell = sweep.get(algorithm, smin)
                assert cell is not None
                assert cell.seconds >= 0.0
                assert cell.n_closed > 0

    def test_results_consistent_across_algorithms(self, db):
        sweep = run_sweep(db, [2], ["ista", "carpenter-table", "fpgrowth"])
        counts = {alg: sweep.get(alg, 2).n_closed for alg in sweep.algorithms}
        assert len(set(counts.values())) == 1

    def test_verify_mode(self, db):
        run_sweep(db, [1, 2], ["ista"], verify=True)

    def test_time_limit_skips_lower_supports(self, db):
        sweep = run_sweep(db, [3, 1], ["ista"], time_limit=0.0)
        assert not sweep.get("ista", 3).skipped  # first cell always runs
        assert sweep.get("ista", 1).skipped

    def test_algorithm_options_forwarded(self, db):
        sweep = run_sweep(
            db, [2], ["ista"], algorithm_options={"ista": {"prune": False}}
        )
        assert sweep.get("ista", 2).n_closed > 0

    def test_invalid_repeats_rejected(self, db):
        with pytest.raises(ValueError):
            run_sweep(db, [1], ["ista"], repeats=0)


class TestSweepResultViews:
    @pytest.fixture
    def sweep(self, db):
        return run_sweep(db, [1, 2], ["ista", "lcm"], dataset="toy")

    def test_series(self, sweep):
        series = sweep.series("ista")
        assert len(series) == 2
        assert all(value is not None for value in series)

    def test_winner_returns_an_algorithm(self, sweep):
        assert sweep.winner(1) in ("ista", "lcm")

    def test_crossover(self, sweep):
        # with both finishing everywhere, crossover is defined whenever
        # one of them is faster at some support
        result = sweep.crossover("ista", "lcm")
        assert result is None or result in (1, 2)

    def test_format_table_variants(self, sweep):
        for value in ("seconds", "log", "closed", "intersections"):
            table = sweep.format_table(value)
            assert "smin" in table
            assert "ista" in table

    def test_format_table_marks_skipped(self, db):
        sweep = run_sweep(db, [3, 1], ["ista"], time_limit=0.0)
        assert "--" in sweep.format_table()


class TestMeasurement:
    def test_log_seconds(self):
        cell = Measurement("x", 1, 10.0, 5, {})
        assert cell.log_seconds == pytest.approx(1.0)

    def test_log_of_zero_is_minus_inf(self):
        cell = Measurement("x", 1, 0.0, 5, {})
        assert cell.log_seconds == -math.inf

    def test_default_status_is_ok(self):
        assert Measurement("x", 1, 1.0, 5, {}).status == "ok"
        assert "ok" in CELL_STATUSES


class TestCellStatuses:
    """A worker crash must be reported as crashed — never as a budget trip."""

    @pytest.fixture
    def db(self):
        return db_from_strings(["abc", "abd", "acd", "bcd", "ab", "cd"])

    def test_ok(self, db):
        status, measurement = _measure_cell(db, 2, "ista", {}, 1, 60.0, "process")
        assert status == "ok"
        assert measurement[1] > 0

    def test_crashed_worker(self, db, monkeypatch):
        # the fork inherits the monkeypatched mine and dies without a
        # report: the pipe EOF must classify the cell as crashed
        monkeypatch.setattr(harness, "mine", lambda *a, **k: os._exit(1))
        status, measurement = _measure_cell(db, 2, "ista", {}, 1, 60.0, "process")
        assert status == "crashed"
        assert measurement is None

    def test_budget_trip_in_worker(self, db, monkeypatch):
        def trip(*args, **kwargs):
            raise MiningInterrupted("budget exceeded", algorithm="ista")

        monkeypatch.setattr(harness, "mine", trip)
        status, measurement = _measure_cell(db, 2, "ista", {}, 1, 60.0, "process")
        assert status == "budget"
        assert measurement is None

    def test_timeout_hard_kill(self, db, monkeypatch):
        monkeypatch.setattr(harness, "mine", lambda *a, **k: time.sleep(60))
        status, measurement = _measure_cell(db, 2, "ista", {}, 1, 0.05, "process")
        assert status == "timeout"
        assert measurement is None

    def test_guard_isolation_budget(self, db):
        # hard_limit 0 makes the in-process guard trip at its first poll
        status, measurement = _measure_cell(db, 1, "ista", {}, 1, 0.0, "guard")
        assert status == "budget"
        assert measurement is None

    def test_run_sweep_records_status(self, db, monkeypatch):
        def trip(*args, **kwargs):
            raise MiningInterrupted("budget exceeded", algorithm="ista")

        monkeypatch.setattr(harness, "mine", trip)
        sweep = run_sweep(db, [3, 1], ["ista"], time_limit=0.001, isolation="guard")
        assert sweep.get("ista", 3).status == "budget"
        assert sweep.get("ista", 3).skipped
        assert sweep.get("ista", 1).status == "skipped"


class TestKernelMicrobench:
    def test_structure_and_parity_of_backends(self):
        report = run_kernel_microbench(n_rows=16, n_bits=96, repeats=1)
        assert set(report["backends"]) >= {"bitint", "numpy"}
        for case, timings in report["cases"].items():
            assert timings["bitint"] >= 0.0
            assert "speedup:numpy" in timings
        assert report["summary"]["geomean_speedup"] > 0

    def test_compare_passes_against_itself(self):
        report = run_kernel_microbench(n_rows=8, n_bits=64, repeats=1)
        assert compare_kernel_baselines(report, report) == []
        assert compare_kernel_baselines(report, report, mode="seconds") == []

    def test_compare_flags_speedup_regression(self):
        report = run_kernel_microbench(n_rows=8, n_bits=64, repeats=1)
        slower = {
            "cases": {
                case: {
                    key: (value * 0.1 if key.startswith("speedup:") else value)
                    for key, value in timings.items()
                }
                for case, timings in report["cases"].items()
            },
            "summary": report["summary"],
        }
        failures = compare_kernel_baselines(report, slower, tolerance=0.5)
        assert failures
        assert all("speedup" in failure for failure in failures)

    def test_compare_flags_missing_case(self):
        report = run_kernel_microbench(n_rows=8, n_bits=64, repeats=1)
        fresh = {"cases": {}, "summary": {"geomean_speedup": 1.0}}
        assert compare_kernel_baselines(report, fresh)

    def test_require_speedup(self):
        report = run_kernel_microbench(n_rows=8, n_bits=64, repeats=1)
        failures = compare_kernel_baselines(
            report, report, require_speedup=1e9
        )
        assert any("geomean" in failure for failure in failures)

    def test_compare_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            compare_kernel_baselines({}, {}, mode="wallclock")
        with pytest.raises(ValueError):
            compare_kernel_baselines({}, {}, tolerance=-1.0)


class TestCaseFloors:
    """Per-case speedup floors: CLI-passed and baseline-committed."""

    @staticmethod
    def record(**cases):
        """A minimal microbench record with the given speedup ratios."""
        return {
            "backends": ["bitint", "numpy", "native"],
            "cases": {
                case: {f"speedup:{name}": value for name, value in ratios.items()}
                for case, ratios in cases.items()
            },
            "summary": {"geomean_speedup": 1.0},
        }

    def test_bare_floor_binds_every_backend(self):
        fresh = self.record(alpha={"numpy": 2.0, "native": 1.2})
        assert not compare_kernel_baselines(
            fresh, fresh, per_case_floors={"alpha": 1.1}
        )
        failures = compare_kernel_baselines(
            fresh, fresh, per_case_floors={"alpha": 1.5}
        )
        assert len(failures) == 1
        assert "speedup:native" in failures[0]

    def test_backend_floor_binds_one_ratio(self):
        fresh = self.record(alpha={"numpy": 1.2, "native": 4.0})
        assert not compare_kernel_baselines(
            fresh, fresh, per_case_floors={"alpha@native": 3.0}
        )
        failures = compare_kernel_baselines(
            fresh, fresh, per_case_floors={"alpha@numpy": 3.0}
        )
        assert len(failures) == 1
        assert "speedup:numpy" in failures[0]

    def test_backend_floor_skipped_when_backend_absent(self):
        fresh = self.record(alpha={"numpy": 1.2})
        fresh["backends"] = ["bitint", "numpy"]
        assert not compare_kernel_baselines(
            fresh, fresh, per_case_floors={"alpha@native": 100.0}
        )

    def test_committed_floors_apply_automatically(self):
        fresh = self.record(alpha={"native": 2.0})
        baseline = self.record(alpha={"native": 2.0})
        baseline["floors"] = {"alpha@native": 3.0}
        failures = compare_kernel_baselines(baseline, fresh)
        assert len(failures) == 1
        assert "floor 3.00x" in failures[0]

    def test_cli_floor_overrides_committed(self):
        fresh = self.record(alpha={"native": 2.0})
        baseline = self.record(alpha={"native": 2.0})
        baseline["floors"] = {"alpha@native": 3.0}
        assert not compare_kernel_baselines(
            baseline, fresh, per_case_floors={"alpha@native": 1.5}
        )

    def test_floor_skipped_when_case_restricted_out(self):
        baseline = self.record(
            alpha={"native": 2.0}, beta={"native": 2.0}
        )
        baseline["floors"] = {"beta@native": 100.0, "beta": 100.0}
        fresh = self.record(alpha={"native": 2.0})
        fresh["case_filter"] = ["alpha"]
        assert not compare_kernel_baselines(baseline, fresh)

    def test_floor_on_derived_case_survives_restriction(self):
        # A case present in a restricted fresh run even though its
        # name is not in the case_filter — the floor must still bind.
        baseline = self.record(family={"native": 4.0})
        baseline["floors"] = {"family@native": 3.0}
        fresh = self.record(family={"native": 2.0})
        fresh["case_filter"] = ["member_a", "member_b"]
        failures = compare_kernel_baselines(baseline, fresh)
        assert len(failures) == 1
        assert "floor 3.00x" in failures[0]

    def test_missing_case_fails_floor_without_restriction(self):
        fresh = self.record(alpha={"native": 2.0})
        failures = compare_kernel_baselines(
            fresh, fresh, per_case_floors={"ghost": 1.0}
        )
        assert len(failures) == 1
        assert "no speedup recorded" in failures[0]
