"""Tests for the perf-trajectory gate (benchmarks/perf/history/)."""

import json

import pytest

from repro.cli import main
from repro.harness.trajectory import (
    RETIRED_BENCHMARKS,
    best_speedups,
    check_point,
    format_check,
    load_history,
    record_point,
)


def suite_payload(**speedups):
    benchmarks = {
        name: {"speedup": value, "units_per_sec": value * 1000.0,
               "seconds": 1.0, "results_match": True}
        for name, value in speedups.items()
    }
    benchmarks["xpaxos_closed_loop"] = {
        "commits_per_wall_sec": 5_000.0, "deterministic": True,
        "seconds": 1.0}
    return {"schema": 1, "suite": "perf", "host": {}, "params": {},
            "benchmarks": benchmarks}


class TestHistory:
    def test_empty_history_passes_and_seeds(self, tmp_path):
        payload = suite_payload(broadcast_storm=2.0)
        history = load_history(str(tmp_path / "none"))
        assert history == []
        assert check_point(payload, history) == []
        assert "seeds the trajectory" in format_check(payload, history)

    def test_record_and_reload_roundtrip(self, tmp_path):
        path = record_point(suite_payload(broadcast_storm=2.0),
                            history_dir=str(tmp_path), label="seed")
        assert path.endswith("-seed.json")
        (point,) = load_history(str(tmp_path))
        assert point["label"] == "seed"
        assert point["benchmarks"]["broadcast_storm"]["speedup"] == 2.0
        # Wall-clock-ish numbers are archived but carry no speedup.
        assert "speedup" not in point["benchmarks"]["xpaxos_closed_loop"]

    def test_same_second_points_never_clobber(self, tmp_path):
        payload = suite_payload(broadcast_storm=2.0)
        first = record_point(payload, history_dir=str(tmp_path))
        second = record_point(payload, history_dir=str(tmp_path))
        assert first != second
        assert len(load_history(str(tmp_path))) == 2

    def test_best_is_max_across_points(self, tmp_path):
        record_point(suite_payload(broadcast_storm=1.8, event_churn=4.0),
                     history_dir=str(tmp_path))
        record_point(suite_payload(broadcast_storm=2.4, event_churn=3.0),
                     history_dir=str(tmp_path))
        best = best_speedups(load_history(str(tmp_path)))
        assert best == {"broadcast_storm": 2.4, "event_churn": 4.0}


class TestGate:
    def test_within_tolerance_passes(self, tmp_path):
        record_point(suite_payload(broadcast_storm=2.0),
                     history_dir=str(tmp_path))
        history = load_history(str(tmp_path))
        # 1.7 >= 0.8 * 2.0: fine.
        assert check_point(suite_payload(broadcast_storm=1.7),
                           history) == []

    def test_injected_regression_fails(self, tmp_path):
        """The acceptance scenario: a >20% drop below the best recorded
        point must fail the gate."""
        record_point(suite_payload(broadcast_storm=2.0, event_churn=4.0),
                     history_dir=str(tmp_path))
        history = load_history(str(tmp_path))
        problems = check_point(
            suite_payload(broadcast_storm=1.5, event_churn=4.0), history)
        assert len(problems) == 1
        assert "broadcast_storm" in problems[0]
        assert "REGRESS" in format_check(
            suite_payload(broadcast_storm=1.5, event_churn=4.0), history)

    def test_new_benchmark_without_history_is_seeding(self, tmp_path):
        record_point(suite_payload(broadcast_storm=2.0),
                     history_dir=str(tmp_path))
        history = load_history(str(tmp_path))
        # authenticated_broadcast has no recorded best yet: not gated.
        assert check_point(suite_payload(broadcast_storm=2.0,
                                         authenticated_broadcast=1.5),
                           history) == []

    def test_removed_benchmark_is_flagged(self, tmp_path):
        """Deleting or renaming a gated benchmark is the quietest way to
        give a speedup back: the gate must notice the hole.  Only the
        retired digest_cache gauge may go missing alongside it."""
        record_point(suite_payload(broadcast_storm=2.0, digest_cache=9.0),
                     history_dir=str(tmp_path))
        history = load_history(str(tmp_path))
        problems = check_point(suite_payload(event_churn=3.0), history)
        assert len(problems) == 1
        assert "broadcast_storm" in problems[0] and "missing" in problems[0]

    def test_retired_benchmarks_may_go_missing(self, tmp_path):
        assert set(RETIRED_BENCHMARKS) == {"same_tick_drain",
                                           "digest_cache"}
        record_point(suite_payload(broadcast_storm=2.0,
                                   same_tick_drain=3.0, digest_cache=9.0),
                     history_dir=str(tmp_path))
        history = load_history(str(tmp_path))
        assert check_point(suite_payload(broadcast_storm=2.0),
                           history) == []

    def test_tolerance_is_configurable(self, tmp_path):
        record_point(suite_payload(broadcast_storm=2.0),
                     history_dir=str(tmp_path))
        history = load_history(str(tmp_path))
        payload = suite_payload(broadcast_storm=1.9)
        assert check_point(payload, history, tolerance=0.2) == []
        assert check_point(payload, history, tolerance=0.01) != []


def partial_payload(**speedups):
    payload = suite_payload(**speedups)
    payload["params"]["only"] = sorted(speedups)
    return payload


class TestPartialPayloads:
    def test_only_subset_skips_missing_benchmark_guard(self, tmp_path):
        record_point(suite_payload(broadcast_storm=2.0, event_churn=3.0),
                     history_dir=str(tmp_path))
        history = load_history(str(tmp_path))
        # A full payload missing event_churn is flagged...
        assert check_point(suite_payload(broadcast_storm=2.0), history)
        # ...but a declared subset is gated only on what it contains.
        assert check_point(partial_payload(broadcast_storm=2.0),
                           history) == []

    def test_partial_payload_still_gates_present_benchmarks(self, tmp_path):
        record_point(suite_payload(broadcast_storm=2.0),
                     history_dir=str(tmp_path))
        history = load_history(str(tmp_path))
        problems = check_point(partial_payload(broadcast_storm=1.2),
                               history)
        assert any("broadcast_storm" in p for p in problems)

    def test_record_refuses_only_payload(self, tmp_path):
        with pytest.raises(ValueError, match="refusing to record"):
            record_point(partial_payload(broadcast_storm=2.0),
                         history_dir=str(tmp_path))

    def test_record_refuses_profiled_payload(self, tmp_path):
        payload = suite_payload(broadcast_storm=2.0)
        payload["params"]["profiled"] = True
        with pytest.raises(ValueError, match="refusing to record"):
            record_point(payload, history_dir=str(tmp_path))

    def test_format_check_notes_partiality(self):
        text = format_check(partial_payload(broadcast_storm=2.0), [])
        assert "not recordable" in text

    def test_cli_record_refusal_is_usage_error(self, tmp_path, capsys):
        payload_path = tmp_path / "BENCH_perf.json"
        payload_path.write_text(
            json.dumps(partial_payload(broadcast_storm=2.0)))
        assert main(["trajectory", "record", str(payload_path),
                     "--history-dir", str(tmp_path / "history")]) == 2
        assert "refusing to record" in capsys.readouterr().err
        assert not (tmp_path / "history").exists()


class TestCli:
    def test_check_exit_codes(self, tmp_path, capsys):
        history = tmp_path / "history"
        payload_path = tmp_path / "BENCH_perf.json"
        payload_path.write_text(
            json.dumps(suite_payload(broadcast_storm=2.0)))
        args = ["trajectory", "check", str(payload_path),
                "--history-dir", str(history)]
        assert main(args) == 0  # empty history seeds
        out = capsys.readouterr().out
        for name, reason in RETIRED_BENCHMARKS.items():
            assert f"{name} retired, not gated: {reason}" in out

        assert main(["trajectory", "record", str(payload_path),
                     "--history-dir", str(history),
                     "--label", "seed"]) == 0
        assert main(args) == 0  # equal to best: passes

        payload_path.write_text(
            json.dumps(suite_payload(broadcast_storm=1.2)))
        assert main(args) == 1  # injected >20% regression fails
        assert "PERF REGRESSION" in capsys.readouterr().err

    def test_unreadable_payload_is_usage_error(self, tmp_path):
        assert main(["trajectory", "check",
                     str(tmp_path / "missing.json")]) == 2
