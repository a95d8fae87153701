"""Unit tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import main


BASE = ["--nodes", "40", "--topology", "geometric", "--rounds", "15", "--seed", "1"]


class TestCLI:
    def test_topology_command(self, capsys):
        assert main(BASE + ["topology"]) == 0
        out = capsys.readouterr().out
        assert "nodes" in out and "mean latency" in out

    def test_optimize_command(self, capsys):
        assert main(BASE + ["optimize", "--producers", "3"]) == 0
        out = capsys.readouterr().out
        assert "integrated:" in out and "two-step" in out

    def test_simulate_command(self, capsys):
        assert main(
            BASE + ["simulate", "--queries", "2", "--ticks", "6",
                    "--reopt-interval", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "mean_usage" in out

    def test_simulate_control_and_reliable_imply_data_plane(self, capsys):
        assert main(
            BASE + ["simulate", "--queries", "2", "--ticks", "12",
                    "--reopt-interval", "3", "--control", "--reliable"]
        ) == 0
        out = capsys.readouterr().out
        assert "control plane" in out
        assert "retransmission" in out
        assert "balanced" in out

    def test_execute_command(self, capsys):
        assert main(BASE + ["execute", "--producers", "2", "--ticks", "300"]) == 0
        out = capsys.readouterr().out
        assert "measured usage" in out

    def test_execute_rejects_non_positive_ticks(self):
        with pytest.raises(SystemExit):
            main(BASE + ["execute", "--ticks", "0"])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(BASE + ["nope"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            main(BASE)
