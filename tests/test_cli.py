"""Tests of the command-line interface."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.crypto.cost_profile import REFERENCE_PROFILE


class TestParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.dataset == "cer"
        assert args.epsilon == 2.0
        assert args.command == "run"

    def test_compare_options(self):
        args = build_parser().parse_args(
            ["compare", "--dataset", "gaussian", "--epsilon", "5", "--participants", "40"]
        )
        assert args.dataset == "gaussian"
        assert args.epsilon == 5.0
        assert args.participants == 40

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--dataset", "not-a-dataset"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_crypto_bench_populations(self):
        args = build_parser().parse_args(
            ["crypto-bench", "--populations", "100", "1000"]
        )
        assert args.populations == [100, 1000]
        assert args.fastmath == "auto"

    def test_engine_flags(self):
        args = build_parser().parse_args([
            "run", "--engine", "slab", "--sample-fraction", "0.01",
            "--slab-shards", "4",
        ])
        assert args.engine == "slab"
        assert args.sample_fraction == 0.01
        assert args.slab_shards == 4
        # Defaults reproduce the object engine.
        defaults = build_parser().parse_args(["run"])
        assert defaults.engine == "object"
        assert defaults.sample_fraction == 1.0
        assert defaults.slab_shards == 1

    def test_unknown_engine_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--engine", "warp"])

    def test_stepping_flags(self):
        args = build_parser().parse_args([
            "run", "--live", "--stepping", "concurrent", "--envelope", "off",
        ])
        assert args.stepping == "concurrent"
        assert args.envelope == "off"
        defaults = build_parser().parse_args(["run"])
        assert defaults.stepping == "sequential"
        assert defaults.envelope == "auto"

    @pytest.mark.parametrize("flag", ["--batching", "--compression",
                                      "--live-concurrency"])
    def test_removed_flags_are_rejected(self, flag):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", flag])

    def test_unknown_stepping_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--stepping", "barrier-free"])


class TestCommands:
    def test_run_command_json(self, capsys):
        exit_code = main([
            "run", "--dataset", "gaussian", "--participants", "24", "--clusters", "2",
            "--iterations", "2", "--noise-shares", "8", "--gossip-cycles", "4",
            "--epsilon", "4", "--json",
        ])
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["n_clusters"] == 2
        assert payload["summary"]["n_participants"] == 24
        assert payload["guarantee"]["epsilon"] <= 4.0 + 1e-9
        # The profiles themselves, exact through JSON: CI compares a live
        # report's with a cycle report's.
        profiles = np.asarray(payload["profiles"])
        assert profiles.shape[0] == 2 and np.isfinite(profiles).all()

    def test_phase_split_of_the_ci_run(self, capsys):
        """The run CI's phase-split step makes.  Regression: the price list
        used to bill a blinder exponentiation at the pooled multiply's 50 us
        and an addition at a 0.11 s halving, so additions were 81 % of the
        online seconds."""
        assert main([
            "run", "--dataset", "gaussian", "--participants", "12", "--clusters", "2",
            "--iterations", "3", "--gossip-cycles", "4", "--noise-shares", "4", "--json",
        ]) == 0
        costs = json.loads(capsys.readouterr().out)["costs"]
        counts = costs["phase_ops"]["online"]
        assert costs["offline_seconds"] == (
            (counts["pooled_encryptions"] + counts["rerandomizations"])
            * REFERENCE_PROFILE.encryption_seconds
        ) > 0
        additions = REFERENCE_PROFILE.price(counts)["online"]["additions"]
        assert 0 < additions < 0.01 * costs["online_seconds"]

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_concurrent_stepping_without_live_is_refused(self, command, capsys):
        """It used to run a cycle-mode simulation and say nothing."""
        exit_code = main([
            command, "--dataset", "gaussian", "--participants", "12", "--clusters", "2",
            "--iterations", "2", "--gossip-cycles", "3", "--noise-shares", "4",
            "--stepping", "concurrent", "--json",
        ])
        assert exit_code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --stepping concurrent needs --live\n"

    def test_run_command_table_output(self, capsys):
        exit_code = main([
            "run", "--dataset", "gaussian", "--participants", "20", "--clusters", "2",
            "--iterations", "2", "--noise-shares", "6", "--gossip-cycles", "4",
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Chiaroscuro run" in output
        assert "realised privacy guarantee" in output

    def test_crypto_bench_command(self, capsys):
        exit_code = main([
            "crypto-bench", "--key-bits", "160", "--repetitions", "2",
            "--clusters", "2", "--series-length", "8", "--iterations", "2",
            "--gossip-cycles", "4", "--populations", "100", "10000", "--json",
        ])
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["rows"]) == 2
        assert payload["rows"][0]["total_compute_seconds"] == pytest.approx(
            payload["rows"][1]["total_compute_seconds"]
        )

    def test_error_reported_as_exit_code_two(self, capsys):
        # 5 clusters but only 4 participants: the library refuses, the CLI
        # must translate that into a non-zero exit code rather than a traceback.
        exit_code = main([
            "run", "--dataset", "gaussian", "--participants", "4", "--clusters", "5",
            "--noise-shares", "2",
        ])
        assert exit_code == 2
        assert "error:" in capsys.readouterr().err


class TestExperimentCommands:
    @pytest.fixture()
    def spec_file(self, tmp_path):
        from repro.experiments import ExperimentSpec

        spec = ExperimentSpec(
            name="cli-unit",
            dataset="gaussian",
            dataset_params={"n_clusters": 2, "noise_std": 0.05},
            participants=12,
            base={
                "kmeans": {"n_clusters": 2, "max_iterations": 2},
                "privacy": {"epsilon": 4.0, "noise_shares": 6},
                "gossip": {"cycles_per_aggregation": 3},
                "crypto": {"threshold": 2, "n_key_shares": 3},
            },
            sweep={"privacy.epsilon": [2.0, 4.0]},
            metrics={"reference": False},
        )
        path = tmp_path / "cli_unit.json"
        path.write_text(json.dumps(spec.to_dict()), encoding="utf-8")
        return str(path)

    def test_experiment_run_and_resume(self, spec_file, tmp_path, capsys):
        store = str(tmp_path / "store.jsonl")
        exit_code = main([
            "experiment", "run", "--spec", spec_file, "--store", store,
            "--jobs", "2", "--json",
        ])
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["executed"] == 2
        assert payload["failed"] == 0
        exit_code = main([
            "experiment", "run", "--spec", spec_file, "--store", store,
            "--resume", "--json",
        ])
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["executed"] == 0
        assert payload["skipped"] == 2

    def test_experiment_list_shows_cached_vs_pending(self, spec_file, tmp_path,
                                                     capsys):
        store = str(tmp_path / "store.jsonl")
        exit_code = main([
            "experiment", "list", "--spec", spec_file, "--store", store, "--json",
        ])
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"] == {"cached": 0, "pending": 2,
                                     "error": 0, "timeout": 0}
        assert all(cell["status"] == "pending" for cell in payload["cells"])
        main(["experiment", "run", "--spec", spec_file, "--store", store,
              "--quiet"])
        capsys.readouterr()
        exit_code = main([
            "experiment", "list", "--spec", spec_file, "--store", store, "--json",
        ])
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"]["cached"] == 2
        assert payload["counts"]["pending"] == 0
        assert {cell["label"] for cell in payload["cells"]} == {
            "cell 0 | privacy.epsilon=2.0 | seed=0",
            "cell 1 | privacy.epsilon=4.0 | seed=0",
        }
        # Human-readable variant mentions the store and the summary line.
        exit_code = main([
            "experiment", "list", "--spec", spec_file, "--store", store,
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "cached=2" in output
        assert "experiment cli-unit" in output

    def test_experiment_report(self, spec_file, tmp_path, capsys):
        store = str(tmp_path / "store.jsonl")
        main(["experiment", "run", "--spec", spec_file, "--store", store, "--quiet"])
        capsys.readouterr()
        exit_code = main([
            "experiment", "report", "--spec", spec_file, "--store", store,
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "experiment: cli-unit" in output
        assert "scenario comparison" in output

    def test_experiment_report_markdown_to_file(self, spec_file, tmp_path, capsys):
        store = str(tmp_path / "store.jsonl")
        main(["experiment", "run", "--spec", spec_file, "--store", store, "--quiet"])
        out_file = tmp_path / "report.md"
        exit_code = main([
            "experiment", "report", "--spec", spec_file, "--store", store,
            "--markdown", "--out", str(out_file),
        ])
        assert exit_code == 0
        assert out_file.exists()
        assert "| privacy.epsilon |" in out_file.read_text(encoding="utf-8")

    def test_experiment_report_joins_multiple_stores(self, spec_file, tmp_path,
                                                     capsys):
        """``--store A --store B`` aligns the two sweeps' cells into one
        cross-store comparison table."""
        store_a = str(tmp_path / "left.jsonl")
        store_b = str(tmp_path / "right.jsonl")
        main(["experiment", "run", "--spec", spec_file, "--store", store_a,
              "--quiet"])
        main(["experiment", "run", "--spec", spec_file, "--store", store_b,
              "--quiet"])
        capsys.readouterr()
        exit_code = main([
            "experiment", "report", "--spec", spec_file,
            "--store", store_a, "--store", store_b,
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "cross-store" in output
        assert "stores: left, right" in output

    def test_missing_spec_is_a_cli_error(self, tmp_path, capsys):
        exit_code = main([
            "experiment", "run", "--spec", str(tmp_path / "absent.json"),
        ])
        assert exit_code == 2
        assert "error:" in capsys.readouterr().err
