"""Tests for the ``fleet`` CLI subcommand (single run and sweep modes)."""

import json

import pytest

from repro.cli import build_parser, main


class TestFleetParser:
    def test_fleet_registered_with_defaults(self):
        args = build_parser().parse_args(["fleet"])
        assert args.command == "fleet"
        assert args.bandwidths == [12.0, 6.0, 3.0, 1.0]
        assert args.policy == "predicted-latency"
        assert not args.sweep
        assert not args.steal
        assert not args.steal_grid
        assert args.max_energy_per_token_uj is None

    def test_steal_flag_parsed(self):
        args = build_parser().parse_args(["fleet", "--steal"])
        assert args.steal

    def test_sweep_knobs_parsed(self):
        args = build_parser().parse_args(
            [
                "fleet", "--sweep", "--num-engines", "1", "2", "4",
                "--policies", "jsq", "round-robin",
                "--max-batches", "8", "16", "--ctx-buckets", "16",
                "--json", "out.json",
            ]
        )
        assert args.sweep
        assert args.num_engines == [1, 2, 4]
        assert args.policies == ["jsq", "round-robin"]
        assert args.json == "out.json"

    def test_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fleet", "--policy", "telepathic"])


class TestFleetRun:
    def test_heterogeneous_run_prints_per_shard_lines(self, capsys):
        argv = [
            "fleet", "--model", "opt-125m", "--plan", "gemm",
            "--bandwidths", "12", "1", "--requests", "8",
            "--arrival", "bursty", "--burst-size", "4", "--seed", "0",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "fleet of 2 x opt-125m" in out
        assert "shard 0" in out and "shard 1" in out
        assert "policy=predicted-latency" in out
        assert "throughput" in out

    def test_same_seed_byte_identical(self, capsys):
        argv = [
            "fleet", "--plan", "gemm", "--bandwidths", "12", "6",
            "--requests", "8", "--seed", "4",
        ]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second


class TestFleetOverload:
    def test_predicted_latency_routing_survives_overload(self, capsys):
        """A 5,000-request stream far past the fleet's capacity.

        Admission holds at most ``max_batch`` requests per shard, so the
        backlog waits in the shards' pending queues, where every routing
        snapshot still sees it. The run must end in a full report, with
        the routing model pricing only decode batches the surface can
        hold.
        """
        argv = [
            "fleet", "--model", "opt-125m", "--bandwidths", "12", "6", "1", "12",
            "--requests", "5000", "--arrival", "poisson", "--rate", "30",
            "--policy", "predicted-latency", "--max-batch", "16",
            "--ctx-bucket", "16",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "over 5000 decisions" in out


class TestFleetSweep:
    def test_sweep_writes_valid_pareto_json(self, capsys, tmp_path):
        out_path = tmp_path / "pareto.json"
        argv = [
            "fleet", "--model", "opt-125m", "--plan", "gemm",
            "--bandwidths", "12", "1", "--requests", "8",
            "--arrival", "bursty", "--burst-size", "4", "--seed", "0",
            "--sweep", "--num-engines", "1", "2",
            "--policies", "round-robin", "predicted-latency",
            "--json", str(out_path),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "Pareto front" in out and "Pareto" in out

        doc = json.loads(out_path.read_text())
        assert doc["version"] == 4
        assert doc["model"] == "opt-125m"
        assert len(doc["points"]) == 4
        assert doc["pareto_front"]
        assert all(p["throughput_tok_s"] > 0 for p in doc["points"])
        # v2: the energy axis is reported on every point but is not a
        # Pareto objective.
        assert all(p["energy_uj"] > 0 for p in doc["points"])
        assert all(p["energy_per_token_uj"] > 0 for p in doc["points"])
        assert "energy_uj" not in doc["objectives"]
        # v3: every point carries the steal axis; no filter block unless
        # an energy ceiling was requested.
        assert all(p["steal"] is False for p in doc["points"])
        assert "filters" not in doc
        # v4: every point carries the fault-scenario axis.
        assert all(p["faults"] == "none" for p in doc["points"])

    def test_energy_filter_and_steal_grid(self, capsys, tmp_path):
        out_path = tmp_path / "pareto.json"
        argv = [
            "fleet", "--model", "opt-125m", "--plan", "gemm",
            "--bandwidths", "12", "1", "--requests", "8",
            "--arrival", "bursty", "--burst-size", "4", "--seed", "0",
            "--sweep", "--num-engines", "2",
            "--policies", "round-robin", "--steal-grid",
            "--max-energy-per-token-uj", "1e12",
            "--json", str(out_path),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        doc = json.loads(out_path.read_text())
        assert doc["filters"] == {"max_energy_per_token_uj": 1e12}
        assert [p["steal"] for p in doc["points"]] == [False, True]


class TestFleetChaosFlags:
    def test_chaos_flags_parsed_with_defaults(self):
        args = build_parser().parse_args(["fleet"])
        assert args.faults == "none"
        assert args.fault_seed == 0
        assert args.retry_budget is None
        assert args.deadline_s is None
        assert args.shed == "none"
        assert args.faults_grid is None

    def test_rejects_unknown_scenario_and_shedder(self, capsys):
        # Unknown fault scenarios are validated at the library layer:
        # one-line typed error on stderr, exit code 2, no traceback.
        assert main(["fleet", "--faults", "meteor"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "meteor" in err and err.count("\n") == 1
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fleet", "--shed", "coin-flip"])

    def test_chaos_run_prints_resilience_block(self, capsys):
        argv = [
            "fleet", "--model", "opt-125m", "--plan", "gemm",
            "--bandwidths", "6", "6", "--requests", "12",
            "--arrival", "bursty", "--burst-size", "12", "--seed", "0",
            "--faults", "crash", "--retry-budget", "2",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "resilience:" in out
        assert "availability" in out
        assert "fault: crash shard 0" in out

    def test_no_faults_run_has_no_resilience_block(self, capsys):
        argv = [
            "fleet", "--model", "opt-125m", "--plan", "gemm",
            "--bandwidths", "12", "1", "--requests", "8",
            "--arrival", "bursty", "--burst-size", "4", "--seed", "0",
        ]
        assert main(argv) == 0
        assert "resilience:" not in capsys.readouterr().out

    def test_faults_grid_sweep_carries_axis(self, capsys, tmp_path):
        out_path = tmp_path / "pareto.json"
        argv = [
            "fleet", "--model", "opt-125m", "--plan", "gemm",
            "--bandwidths", "6", "6", "--requests", "8",
            "--arrival", "bursty", "--burst-size", "8", "--seed", "0",
            "--sweep", "--num-engines", "2",
            "--policies", "round-robin",
            "--faults-grid", "none", "crash",
            "--json", str(out_path),
        ]
        assert main(argv) == 0
        doc = json.loads(out_path.read_text())
        assert sorted(p["faults"] for p in doc["points"]) == ["crash", "none"]


class TestFleetSurfaceStore:
    def test_sweep_warm_start_simulates_zero_points(self, capsys, tmp_path):
        """The CI warm-start assertion, in-process: an identical second
        sweep against the same store simulates nothing new and reports
        an identical Pareto table."""
        argv = [
            "fleet", "--bandwidths", "12", "1", "--requests", "8",
            "--arrival", "bursty", "--seed", "0",
            "--sweep", "--num-engines", "1", "2",
            "--policies", "round-robin",
            "--workers", "1",
            "--surface-store", str(tmp_path / "store"),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "(0 warm-started)" in cold
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "surface store: simulated 0 new points" in warm
        assert cold.split("surface store")[0] == warm.split("surface store")[0]

    def test_single_run_warm_starts_across_invocations(self, capsys, tmp_path):
        argv = [
            "fleet", "--bandwidths", "12", "1", "--requests", "8",
            "--arrival", "bursty", "--seed", "0",
            "--surface-store", str(tmp_path / "store"),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        assert "simulated 0 new points" in capsys.readouterr().out

    def test_plan_uses_store(self, capsys, tmp_path):
        argv = [
            "plan", "--bandwidths", "12", "1", "--rate", "4",
            "--engines", "2", "--samples", "32",
            "--surface-store", str(tmp_path / "store"),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        assert "simulated 0 new points" in capsys.readouterr().out
