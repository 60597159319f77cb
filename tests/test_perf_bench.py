"""The repro.perf benchmark subsystem: registry, reports, regression gate.

The heavy fixture construction (smoke-scale pre-training) is exercised by
the perf-smoke CI job, not here — these tests pin the harness semantics:
benchmark/ratio registry consistency (against the committed baseline
too), timing mechanics on synthetic benchmarks, report round-trips, and
the gate's regression arithmetic.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.perf import (
    BASELINE_PATH,
    BENCHMARKS,
    RATIO_DEFINITIONS,
    Benchmark,
    PerfError,
    benchmark_names,
    build_report,
    compare_reports,
    compute_ratios,
    load_report,
    time_benchmark,
    write_report,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


class TestRegistry:
    def test_names_are_unique(self):
        names = benchmark_names()
        assert len(set(names)) == len(names)

    def test_every_ratio_references_registered_benchmarks(self):
        names = set(benchmark_names())
        for ratio, (slow, fast) in RATIO_DEFINITIONS.items():
            assert slow in names, (ratio, slow)
            assert fast in names, (ratio, fast)
            assert slow != fast, ratio

    def test_every_hot_path_has_a_ratio(self):
        # Every benchmark is one side of a gated pair: a timing nothing
        # compares is a number nobody can regress.
        ratio_benches = {name for pair in RATIO_DEFINITIONS.values() for name in pair}
        for bench in BENCHMARKS:
            assert bench.name in ratio_benches, bench.name

    def test_committed_baseline_covers_exactly_the_defined_ratios(self):
        # The gate is set equality between a run and the baseline; this
        # pins the committed file to the registry without timing anything.
        baseline = load_report(REPO_ROOT / BASELINE_PATH)
        assert set(baseline["ratios"]) == set(RATIO_DEFINITIONS)
        assert set(baseline["benchmarks"]) == set(benchmark_names())

    def test_repeats_are_positive(self):
        for bench in BENCHMARKS:
            assert bench.repeats >= 1


class TestTiming:
    def _counting_benchmark(self, calls):
        return Benchmark(
            name="probe",
            hot_path="test",
            description="records its invocations",
            run=lambda fixtures: calls.append(fixtures),
            repeats=4,
        )

    def test_time_benchmark_repeats_and_reports(self):
        calls: list = []
        result = time_benchmark(self._counting_benchmark(calls), "fx")
        assert len(calls) == 4
        assert calls == ["fx"] * 4
        assert result["repeats"] == 4
        assert 0 <= result["min_seconds"] <= result["seconds"] <= result["max_seconds"]
        assert result["hot_path"] == "test"

    def test_compute_ratios_skips_incomplete_pairs(self):
        results = {
            "ged_assign_exhaustive": {"seconds": 2.0},
            "ged_assign_pruned": {"seconds": 0.5},
            "gnn_encode_per_sample": {"seconds": 1.0},   # partner missing
        }
        ratios = compute_ratios(results)
        assert ratios == {"ged_assign_speedup": 4.0}


def _report(ratios):
    return build_report({}, ratios)


class TestReportRoundTrip:
    def test_write_and_load(self, tmp_path):
        report = _report({"ged_assign_speedup": 3.0})
        path = write_report(report, tmp_path / "bench.json")
        loaded = load_report(path)
        assert loaded["ratios"] == {"ged_assign_speedup": 3.0}
        assert loaded["format"] == "repro.perf"

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(PerfError, match="does not exist"):
            load_report(tmp_path / "nope.json")

    def test_load_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(PerfError, match="not valid JSON"):
            load_report(path)

    def test_load_foreign_json(self, tmp_path):
        path = tmp_path / "foreign.json"
        path.write_text(json.dumps({"hello": "world"}))
        with pytest.raises(PerfError, match="not a repro.perf report"):
            load_report(path)


class TestRegressionGate:
    def test_pass_when_ratios_hold(self):
        baseline = _report({"a_speedup": 4.0})
        current = _report({"a_speedup": 3.9})
        assert compare_reports(current, baseline) == []

    def test_improvements_always_pass(self):
        baseline = _report({"a_speedup": 4.0})
        current = _report({"a_speedup": 40.0})
        assert compare_reports(current, baseline) == []

    def test_fails_beyond_tolerance(self):
        baseline = _report({"a_speedup": 4.0})
        current = _report({"a_speedup": 2.9})     # floor at 25% is 3.0
        violations = compare_reports(current, baseline)
        assert len(violations) == 1
        assert "a_speedup" in violations[0]
        assert "regressed" in violations[0]

    def test_tolerance_is_configurable(self):
        baseline = _report({"a_speedup": 4.0})
        current = _report({"a_speedup": 2.9})
        assert compare_reports(current, baseline, tolerance=0.5) == []

    def test_missing_ratio_is_a_violation(self):
        baseline = _report({"a_speedup": 4.0})
        current = _report({})
        violations = compare_reports(current, baseline)
        assert len(violations) == 1
        assert "missing" in violations[0]

    def test_unbaselined_ratio_is_a_violation(self):
        # A defined ratio the baseline never recorded must not ride
        # along ungated behind "perf gate ok".
        name = next(iter(RATIO_DEFINITIONS))
        baseline = _report({"a_speedup": 4.0})
        current = _report({"a_speedup": 4.0, name: 7.0})
        violations = compare_reports(current, baseline)
        assert len(violations) == 1
        assert name in violations[0]
        assert "not in the baseline" in violations[0]

    def test_bad_tolerance_rejected(self):
        report = _report({})
        with pytest.raises(PerfError, match="tolerance"):
            compare_reports(report, report, tolerance=1.5)


class TestPerfCli:
    def test_list_exits_zero_and_names_every_benchmark(self, capsys):
        assert main(["perf", "--list"]) == 0
        out = capsys.readouterr().out
        for name in benchmark_names():
            assert name in out

    def test_only_with_update_baseline_exits_two(self, capsys):
        # A partial baseline would hollow out the gate for every
        # unselected ratio; the combination is refused outright.
        code = main([
            "perf", "--only", "ged_assign_pruned", "--update-baseline",
        ])
        assert code == 2
        assert "--only" in capsys.readouterr().err

    def test_unknown_only_exits_two(self, capsys):
        # Validated before fixtures are built: instant, one line.
        code = main(["perf", "--only", "no_such_bench"])
        assert code == 2
        err = capsys.readouterr().err
        assert "no_such_bench" in err
        assert err.count("\n") == 1

    def test_missing_explicit_baseline_exits_two(self, tmp_path, capsys):
        # Validated before any fixture construction: the failure is
        # immediate and one line, never a traceback after a full timing run.
        code = main([
            "perf", "--baseline", str(tmp_path / "missing.json"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "missing.json" in err
        assert err.count("\n") == 1

    def test_bad_tolerance_exits_two(self, capsys):
        code = main(["perf", "--tolerance", "1.5"])
        assert code == 2
        assert "tolerance" in capsys.readouterr().err

    def test_missing_default_baseline_exits_two(
        self, tmp_path, monkeypatch, capsys
    ):
        # Run from a directory without benchmarks/perf_baseline.json: the
        # gate must refuse, never print "gate skipped" and exit 0.
        monkeypatch.chdir(tmp_path)
        code = main(["perf"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:")
        assert BASELINE_PATH in err and "--update-baseline" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "perf_report.json").exists()

    @pytest.mark.parametrize("option", ["--smoke", "--gate-absolute"])
    def test_removed_options_are_unknown(self, option, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["perf", option])
        assert excinfo.value.code == 2
        assert option in capsys.readouterr().err
