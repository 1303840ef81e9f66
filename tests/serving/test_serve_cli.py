"""Tests for the ``serve`` CLI subcommand."""

import pytest

from repro.cli import build_parser, main


class TestServeParser:
    def test_serve_registered(self):
        args = build_parser().parse_args(["serve", "--requests", "8", "--seed", "3"])
        assert args.command == "serve"
        assert args.requests == 8
        assert args.seed == 3

    def test_rejects_unknown_arrival(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--arrival", "telepathic"])


class TestServeCommand:
    def test_poisson_report_printed(self, capsys):
        assert (
            main(
                [
                    "serve", "--model", "opt-125m", "--requests", "8",
                    "--arrival", "poisson", "--seed", "0", "--plan", "gemm",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "throughput" in out
        assert "TTFT ms" in out and "TBT  ms" in out and "E2E  s" in out
        assert "p50" in out and "p95" in out and "p99" in out

    def test_same_seed_byte_identical(self, capsys):
        argv = ["serve", "--requests", "8", "--seed", "5", "--plan", "gemm"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_bursty_and_closed_loop_run(self, capsys):
        assert (
            main(
                [
                    "serve", "--requests", "6", "--arrival", "bursty",
                    "--burst-size", "3", "--plan", "gemm",
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "serve", "--requests", "6", "--arrival", "closed-loop",
                    "--users", "2", "--plan", "gemm",
                ]
            )
            == 0
        )
        assert capsys.readouterr().out.count("throughput") == 2

    def test_kv_budget_override(self, capsys):
        assert (
            main(
                [
                    "serve", "--requests", "4", "--plan", "gemm",
                    "--kv-budget-mb", "32.0",
                ]
            )
            == 0
        )
        assert "32.00 MB" in capsys.readouterr().out


class TestFidelitySpeedKnobs:
    """--ctx-bucket / --max-batch trade fidelity for speed from the shell."""

    def test_knobs_parsed(self):
        args = build_parser().parse_args(
            ["serve", "--ctx-bucket", "1", "--max-batch", "4"]
        )
        assert args.ctx_bucket == 1
        assert args.max_batch == 4

    def test_knobs_reported_in_output(self, capsys):
        argv = [
            "serve", "--requests", "4", "--plan", "gemm",
            "--ctx-bucket", "8", "--max-batch", "2",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "max_batch=2" in out
        assert "ctx_bucket=8" in out

    def test_exact_contexts_run(self, capsys):
        """ctx_bucket=1 (exact simulation, no quantization) still serves."""
        argv = [
            "serve", "--requests", "4", "--plan", "gemm", "--ctx-bucket", "1",
        ]
        assert main(argv) == 0
        assert "throughput" in capsys.readouterr().out

    def test_bucket_changes_modeled_latency(self, capsys):
        """Coarser buckets round contexts up: a different (conservative)
        operating point, hence different fleet latencies."""
        base = ["serve", "--requests", "8", "--seed", "2", "--plan", "gemm"]
        main(base + ["--ctx-bucket", "1"])
        exact = capsys.readouterr().out.split("throughput")[1]
        main(base + ["--ctx-bucket", "64"])
        coarse = capsys.readouterr().out.split("throughput")[1]
        assert exact != coarse

    def test_invalid_knobs_rejected(self, capsys):
        # Library ConfigErrors surface as a one-line typed error and
        # exit code 2 — never a traceback.
        assert main(
            ["serve", "--requests", "4", "--plan", "gemm", "--max-batch", "0"]
        ) == 2
        assert capsys.readouterr().err.startswith("error: max_batch")
        assert main(
            ["serve", "--requests", "4", "--plan", "gemm", "--ctx-bucket", "0"]
        ) == 2
        assert capsys.readouterr().err.startswith("error: ctx_bucket")


class TestSurfaceStoreFlags:
    def test_store_off_by_default(self, capsys):
        assert main(["serve", "--requests", "4", "--plan", "gemm"]) == 0
        assert "surface store" not in capsys.readouterr().out

    def test_warm_start_round_trip(self, tmp_path, capsys):
        """Second identical run warm-starts fully: 0 new points, and the
        report itself is byte-identical to the cold run's."""
        argv = [
            "serve", "--requests", "6", "--seed", "1", "--plan", "gemm",
            "--surface-store", str(tmp_path / "store"),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "surface store: simulated" in cold
        assert "(0 warm-started)" in cold
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "surface store: simulated 0 new points" in warm
        assert cold.split("surface store")[0] == warm.split("surface store")[0]

    def test_corrupt_store_degrades_to_cold_run(self, tmp_path, capsys):
        store = tmp_path / "store"
        argv = [
            "serve", "--requests", "4", "--seed", "2", "--plan", "gemm",
            "--surface-store", str(store),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        for f in store.glob("surface-*.json"):
            f.write_text("{corrupt", encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="surface store"):
            assert main(argv) == 0
        out = capsys.readouterr().out
        assert "(0 warm-started)" in out  # cold, but the run succeeded
