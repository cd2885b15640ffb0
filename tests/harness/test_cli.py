"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.protocol == "xpaxos"
        assert args.clients == [8, 32, 96]

    def test_bench_defaults(self):
        args = build_parser().parse_args(["bench"])
        assert args.output == "BENCH_perf.json"
        assert args.events > 0 and args.messages > 0

    def test_tables_requires_which(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["tables"])

    def test_invalid_protocol_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--protocol", "raft"])

    def test_scenarios_defaults(self):
        args = build_parser().parse_args(["scenarios"])
        assert args.protocol == "all"
        assert args.scenario == []
        assert not args.list


class TestCommands:
    def test_reliability_command(self, capsys):
        code = main(["reliability", "--nines-benign", "4",
                     "--nines-correct", "3", "--nines-synchrony", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "CFT=3  XPaxos=5  BFT=7" in out

    def test_tables_command(self, capsys):
        code = main(["tables", "--which", "7"])
        assert code == 0
        out = capsys.readouterr().out
        assert "9avail" in out

    def test_sweep_command_small(self, capsys):
        code = main(["sweep", "--protocol", "paxos", "--clients", "4",
                     "--duration", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "paxos" in out
        assert "kops/s" in out

    def test_bench_command_small(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "BENCH_perf.json"
        code = main(["bench", "--events", "2000", "--messages", "1000",
                     "--broadcast-rounds", "200", "--clients", "2",
                     "--duration", "0.5", "--repeat", "1",
                     "--heap-pending", "20000", "--heap-churn", "2000",
                     "--output", str(out_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "event_churn" in out
        payload = json.loads(out_path.read_text())
        benches = payload["benchmarks"]
        assert set(benches) == {"event_churn", "heap_churn_1m",
                                "message_storm", "broadcast_storm",
                                "authenticated_broadcast",
                                "xpaxos_closed_loop",
                                "pipelined_throughput", "cohort_driver"}
        # The optimized paths must be observationally identical to the seed.
        assert benches["heap_churn_1m"]["results_match"]
        assert benches["message_storm"]["results_match"]
        assert benches["broadcast_storm"]["results_match"]
        assert benches["authenticated_broadcast"]["results_match"]
        assert benches["xpaxos_closed_loop"]["deterministic"]

    def test_bench_only_subset(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "BENCH_perf.json"
        code = main(["bench", "--events", "2000", "--messages", "1000",
                     "--broadcast-rounds", "200", "--clients", "2",
                     "--duration", "0.5", "--repeat", "1",
                     "--only", "message_storm",
                     "--output", str(out_path)])
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert list(payload["benchmarks"]) == ["message_storm"]
        assert payload["params"]["only"] == ["message_storm"]

    def test_bench_only_unknown_name(self, capsys, tmp_path):
        code = main(["bench", "--only", "bogus",
                     "--output", str(tmp_path / "b.json")])
        assert code == 2
        assert "unknown benchmark" in capsys.readouterr().err

    def test_bench_profile_marks_payload(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "BENCH_perf.json"
        pstats_path = tmp_path / "bench.pstats"
        code = main(["bench", "--events", "500", "--messages", "200",
                     "--broadcast-rounds", "50", "--clients", "2",
                     "--duration", "0.2", "--repeat", "1",
                     "--only", "event_churn",
                     "--profile", str(pstats_path),
                     "--output", str(out_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "cumulative" in out  # pstats table printed
        assert "not" in out and "recorded" in out.replace("recordable",
                                                          "recorded")
        payload = json.loads(out_path.read_text())
        assert payload["params"]["profiled"] is True
        # The dump is a loadable pstats file.
        import pstats as pstats_mod

        stats = pstats_mod.Stats(str(pstats_path))
        assert stats.total_calls > 0

    def test_profile_command_single_cell(self, capsys, tmp_path):
        pstats_path = tmp_path / "cell.pstats"
        code = main(["profile", "fault-free", "--protocol", "paxos",
                     "--limit", "5", "--pstats", str(pstats_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "fault-free x paxos: pass" in out
        # Subsystem counters precede the wall-clock profile.
        assert "[sim]" in out and "[network]" in out
        assert "heap_pushes" in out and "auth_stamped" in out
        assert "[crypto]" in out and "digest_of" in out
        assert "cumulative" in out
        assert pstats_path.exists()

    def test_profile_unknown_scenario(self, capsys):
        code = main(["profile", "no-such"])
        assert code == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_profile_out_of_scope_protocol(self, capsys):
        # A scenario scoped away from the protocol is a usage error, not
        # a silent skipped cell.
        from repro.scenarios.library import builtin_scenarios

        scoped = next((s for s in builtin_scenarios()
                       if s.protocols is not None), None)
        if scoped is None:
            pytest.skip("no protocol-scoped scenario in the library")
        from repro.common.config import ProtocolName

        outside = next(p for p in ProtocolName
                       if not scoped.applies_to(p))
        code = main(["profile", scoped.name, "--protocol", outside.value])
        assert code == 2
        assert "does not apply" in capsys.readouterr().err

    def test_compare_command_small(self, capsys):
        code = main(["compare", "--clients", "4", "--duration", "1"])
        assert code == 0
        out = capsys.readouterr().out
        for protocol in ("xpaxos", "paxos", "pbft", "zyzzyva", "zab"):
            assert protocol in out

    def test_scenarios_list(self, capsys):
        code = main(["scenarios", "--list"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fault-free" in out
        assert "anarchy-byzantine-plus-crash" in out

    def test_scenarios_single_cell(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "matrix.json"
        code = main(["scenarios", "--protocol", "xpaxos",
                     "--scenario", "fault-free",
                     "--json", str(out_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "fault-free" in out and "ok" in out
        payload = json.loads(out_path.read_text())
        assert payload["cells"][0]["status"] == "pass"

    def test_scenarios_unknown_name_rejected(self, capsys):
        code = main(["scenarios", "--scenario", "no-such"])
        assert code == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_faults_command_small(self, capsys):
        code = main(["faults", "--clients", "8", "--duration", "40"])
        assert code == 0
        out = capsys.readouterr().out
        assert "view changes" in out
        assert "longest outage" in out
