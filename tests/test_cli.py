"""Tests for the CLI."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_experiment_args(self):
        args = build_parser().parse_args(["experiment", "F1", "--scale", "0.5"])
        assert args.ids == ["F1"]
        assert args.scale == 0.5

    def test_solve_args(self):
        args = build_parser().parse_args(["solve", "--policy", "amf-e", "--jobs", "5"])
        assert args.policy == "amf-e"
        assert args.jobs == 5

    def test_bad_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["solve", "--policy", "bogus"])


    @pytest.mark.parametrize(
        "argv",
        [["solve", "--oracle", "ggt"], ["serve", "--oracle", "legacy"], ["serve", "--oracle", "ggt"]],
    )
    def test_oracle_selection_is_gone(self, argv):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            # the distributed control plane (repro.dist) is deleted: serve
            # no longer self-hosts a solver-worker pool ...
            ["serve", "--distributed", "2"],
            # ... and the solver-worker process has no subcommand ...
            ["worker"],
            # ... nor does the service booted against running workers
            ["coordinator", "--worker", "127.0.0.1:1"],
        ],
    )
    def test_distributed_plane_is_gone(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err or "unrecognized arguments" in err

    def test_serve_still_parses_the_one_oracle(self):
        # benchmarks/ledger/client.py reads args.oracle off this parser
        assert build_parser().parse_args(["serve", "--oracle", "parametric"]).oracle == "parametric"
        assert build_parser().parse_args(["serve"]).oracle == "parametric"

    def test_serve_edge_accepts_only_aio(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["serve", "--edge", "thread"])
        assert exc.value.code == 2

    def test_serve_still_parses_the_one_edge(self):
        # benchmarks/ledger/client.py passes --edge aio to serve
        assert build_parser().parse_args(["serve", "--edge", "aio"]).edge == "aio"
        assert build_parser().parse_args(["serve"]).edge == "aio"


class TestCommands:
    def test_validate(self, capsys):
        assert main(["validate", "--jobs", "5", "--sites", "3"]) == 0
        assert "5 jobs x 3 sites" in capsys.readouterr().out

    def test_solve(self, capsys):
        assert main(["solve", "--jobs", "4", "--sites", "3", "--policy", "amf"]) == 0
        out = capsys.readouterr().out
        assert "policy=amf" in out and "balance:" in out

    def test_solve_with_check(self, capsys):
        assert main(["solve", "--jobs", "4", "--sites", "2", "--check"]) == 0
        assert "properties:" in capsys.readouterr().out

    def test_simulate(self, capsys):
        assert main(["simulate", "--jobs", "5", "--sites", "3", "--policy", "psmf"]) == 0
        assert "mean JCT" in capsys.readouterr().out

    def test_experiment_unknown_id(self, capsys):
        assert main(["experiment", "F99"]) == 2
        assert "unknown experiments" in capsys.readouterr().err

    def test_experiment_runs_tiny(self, capsys):
        assert main(["experiment", "T2", "--scale", "0.15"]) == 0
        assert "T2" in capsys.readouterr().out

    def test_experiment_list(self, capsys):
        assert main(["experiment", "--list"]) == 0
        out = capsys.readouterr().out
        assert "F1" in out and "X2" in out

    def test_report_command(self, tmp_path, capsys):
        out = tmp_path / "rep.md"
        assert main(["report", "--out", str(out), "--scale", "0.15", "--only", "T2"]) == 0
        assert out.exists()
        assert "wrote" in capsys.readouterr().out

    def test_simulate_with_scenario_and_observers(self, capsys):
        assert main([
            "simulate", "--scenario", "uniform", "--policy", "psmf",
            "--trace", "3", "--observe", "balance", "churn",
        ]) == 0
        out = capsys.readouterr().out
        assert "time-averaged balance" in out
        assert "churn" in out
        assert "arrival" in out  # trace excerpt

    def test_solve_save_and_load(self, tmp_path, capsys):
        saved = tmp_path / "alloc.json"
        assert main(["solve", "--jobs", "4", "--sites", "2", "--save", str(saved)]) == 0
        assert saved.exists()
        # extract the embedded cluster and re-solve from file
        import json

        cluster_file = tmp_path / "cluster.json"
        cluster_file.write_text(json.dumps(json.loads(saved.read_text())["cluster"]))
        assert main(["solve", "--load", str(cluster_file), "--policy", "psmf"]) == 0
        assert "policy=psmf" in capsys.readouterr().out
