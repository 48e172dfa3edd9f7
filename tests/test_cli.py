"""CLI surface: exit codes, artifacts, demo self-checks, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from epitrace import cli
from epitrace.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, main
from epitrace.secure_agg import PARTICIPANT_BOUND

MINIMAL_CONFIG = {
    "n_agents": 60,
    "width": 10,
    "height": 10,
    "adoption": 0.7,
    "beta_contact": 0.03,
    "intervention": "contact",
    "shared_space_cells": [[2, 2], [7, 7]],
    "seed": 9,
    "horizon_days": 8,
    "n_index_cases": 2,
    "n_workplaces": 20,
}


# an integer literal past Python's 4,300-digit int-string limit
HUGE_INT = "1" * 5000


def write_config(tmp_path, overrides=None, name="scenario.json"):
    obj = dict(MINIMAL_CONFIG)
    if overrides:
        obj.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return path


class TestSimulate:
    def test_minimal_config_writes_artifacts(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        for name in ("metrics.csv", "hotspots.json", "events.log"):
            assert (out / name).exists(), name
        assert "attack_rate=" in capsys.readouterr().out

    def test_invalid_probability_names_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"adoption": 1.5})
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert code == EXIT_USAGE
        assert "adoption" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field,value",
        [("n_agents", "5"), ("shared_space_cells", [[1, 2, 3]]), ("adoption", None), ("horizon_days", 1.5)],
    )
    def test_wrong_json_type_is_usage_error_naming_field(self, tmp_path, capsys, field, value):
        cfg = write_config(tmp_path, {field: value})
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith(f"config error: {field}: ")

    def test_shared_cell_listed_twice_is_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"shared_space_cells": [[2, 2], [2, 2], [4, 4]]})
        out = tmp_path / "nested" / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == "config error: shared_space_cells: cell (2, 2) listed twice\n"
        assert not (tmp_path / "nested").exists()

    def test_errand_mode_is_an_unknown_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"errand_mode": "random"})
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == EXIT_USAGE
        assert capsys.readouterr().err == "config error: errand_mode: unknown config field\n"

    def test_location_run_builds_density_map_once(self, tmp_path, density_builds):
        cfg = write_config(tmp_path)
        out = tmp_path / "loc"
        assert main(["simulate", "--config", str(cfg), "--out", str(out), "--mode", "contact+location"]) == EXIT_OK
        assert len(density_builds) == 1
        assert (out / "hotspots.json").exists()

    def test_malformed_json_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "x")]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "content",
        [b'{"n_agents": %s}' % HUGE_INT.encode(), b'{"n_agents": "\xff"}'],
        ids=["oversized-int", "undecodable-bytes"],
    )
    def test_unreadable_config_is_usage_error(self, tmp_path, capsys, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "x")]) == EXIT_USAGE
        assert "<file>" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == EXIT_OK
        assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == EXIT_OK
        for name in ("metrics.csv", "hotspots.json", "events.log", "summary.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_mode_and_seed_overrides(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "loc"
        code = main(
            ["simulate", "--config", str(cfg), "--out", str(out), "--mode", "contact+location", "--seed", "77"]
        )
        assert code == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_agents"] == 60

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_out_of_range_seed_override_is_usage_error(self, tmp_path, capsys, command):
        path = tmp_path / "config.json"
        obj = MINIMAL_CONFIG if command == "simulate" else {"base": MINIMAL_CONFIG, "sweep": {"adoption": [0.5]}}
        path.write_text(json.dumps(obj))
        out = tmp_path / "nested" / "o"
        assert main([command, "--config", str(path), "--out", str(out), "--seed", "-1"]) == EXIT_USAGE
        assert capsys.readouterr().err == "config error: seed: must fit in u64\n"
        assert not (tmp_path / "nested").exists()

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    @pytest.mark.parametrize("name", ["missing.json", "a-directory"])
    def test_config_file_that_cannot_be_read_is_usage_error(self, tmp_path, capsys, command, name):
        (tmp_path / "a-directory").mkdir()
        out = tmp_path / "nested" / "o"
        assert main([command, "--config", str(tmp_path / name), "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("config error: <file>: cannot read: [Errno ")
        assert not (tmp_path / "nested").exists()


class TestTraceDemo:
    def test_two_users_forced_colocation(self, capsys):
        assert main(["trace-demo", "--users", "2", "--seed", "4"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "user-1: exposed" in out

    def test_isolated_users_no_exposure(self, capsys):
        assert main(["trace-demo", "--users", "2", "--isolated"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "no exposures matched" in out

    def test_single_user_rejected(self, capsys):
        assert main(["trace-demo", "--users", "1"]) == EXIT_USAGE

    def test_modes_agree_over_many_seeds(self, capsys):
        # the command itself asserts centralized == decentralized and
        # returns a runtime error on divergence
        for seed in range(8):
            assert main(["trace-demo", "--users", "6", "--seed", str(seed)]) == EXIT_OK
        capsys.readouterr()


class TestAggregateDemo:
    def test_single_participant(self, capsys):
        assert main(["aggregate-demo", "--participants", "1", "--dimension", "4"]) == EXIT_OK
        assert "exact match" in capsys.readouterr().out

    def test_small_round(self, capsys):
        assert main(["aggregate-demo", "--participants", "3", "--dimension", "2"]) == EXIT_OK
        capsys.readouterr()

    def test_zero_participants_rejected(self, capsys):
        assert main(["aggregate-demo", "--participants", "0", "--dimension", "2"]) == EXIT_USAGE

    @pytest.mark.parametrize("n", [PARTICIPANT_BOUND, PARTICIPANT_BOUND + 1])
    def test_participants_at_bound_rejected_up_front(self, n, monkeypatch, capsys):
        def no_seeds(*args):
            raise AssertionError("pairwise seeds built for a round that must be rejected")

        monkeypatch.setattr(cli, "make_pairwise_seeds", no_seeds)
        assert main(["aggregate-demo", "--participants", str(n), "--dimension", "2"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "--participants" in err and str(PARTICIPANT_BOUND) in err

    def test_writes_artifact(self, tmp_path, capsys):
        out = tmp_path / "agg"
        assert main(["aggregate-demo", "--participants", "4", "--dimension", "3", "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "aggregate_demo.json").read_text())
        assert report["secure"] == report["plaintext"]
        capsys.readouterr()

    def test_large_round_within_time_budget(self, capsys):
        import time

        started = time.monotonic()
        assert main(["aggregate-demo", "--participants", "50", "--dimension", "1000"]) == EXIT_OK
        assert time.monotonic() - started < 5.0
        capsys.readouterr()


class TestCoarsenDemo:
    def test_runs_and_reports_monotone_counts(self, tmp_path, capsys):
        out = tmp_path / "coarse"
        assert main(["coarsen-demo", "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "coarsen_demo.json").read_text())
        sizes = [len(v) for v in report.values()]
        assert sizes == sorted(sizes, reverse=True)  # finer granularity, more visits
        capsys.readouterr()

    def test_seed_0_report_is_pinned(self, tmp_path, capsys):
        """The only CLI path through a labelled level (municipality, with its
        label map on the granularity)."""
        assert main(["coarsen-demo", "--seed", "0", "--out", str(tmp_path)]) == EXIT_OK
        digest = hashlib.sha256((tmp_path / "coarsen_demo.json").read_bytes()).hexdigest()
        assert digest == "4fca58b25662b513c82cd512b7291b45b496cee95df1e8fa5bae9f010373e499"
        capsys.readouterr()


class TestSweepCommand:
    def test_sweep_runs_grid(self, tmp_path, capsys):
        cfg = {
            "base": dict(MINIMAL_CONFIG, horizon_days=4),
            "sweep": {"adoption": [0.0, 0.5, 1.0]},
        }
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "sweepout"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == EXIT_OK
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 4  # header + 3 rows
        capsys.readouterr()

    def test_unknown_axis_rejected(self, tmp_path, capsys):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"base": MINIMAL_CONFIG, "sweep": {"bogus": [1]}}))
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_USAGE
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize("field,value", [("adoption", None), ("horizon_days", 1.5), ("intervention", "teleport")])
    def test_wrong_axis_value_is_usage_error_naming_field(self, tmp_path, capsys, field, value):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"base": MINIMAL_CONFIG, "sweep": {field: [value]}}))
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith(f"config error: {field}: ")

    def test_oversized_integer_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "sweep.json"
        path.write_text('{"base": {"n_agents": %s}, "sweep": {"adoption": [0.5]}}' % HUGE_INT)
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_USAGE
        assert "<file>" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "axes",
        [
            {"horizon_days": [2, 1.5]},
            {"shared_space_cells": [[], [[x, y] for x in range(2) for y in range(2)]]},
            {"bogus": [1]},
            {"bogus": []},  # no grid point, so only the empty axis is caught
            {"adoption": []},
        ],
    )
    def test_rejected_sweep_leaves_no_output_directory(self, tmp_path, capsys, axes):
        path = tmp_path / "sweep.json"
        base = dict(MINIMAL_CONFIG, width=2, height=2, n_workplaces=1, shared_space_cells=[])
        path.write_text(json.dumps({"base": base, "sweep": axes}))
        out = tmp_path / "nested" / "o"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == EXIT_USAGE
        capsys.readouterr()
        assert not (tmp_path / "nested").exists()


def test_usage_error_on_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE
    capsys.readouterr()



def run_module(argv):
    """``python -m epitrace.cli`` with this checkout's package on the path."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "epitrace.cli", *argv], env=env, capture_output=True, text=True, timeout=120
    )


class TestModuleEntryPoint:
    """The module entry point exits with ``main``'s code."""

    @pytest.mark.parametrize(
        "argv,code",
        [
            (["aggregate-demo", "--participants", "3"], EXIT_OK),
            (["--help"], EXIT_OK),
            (["trace-demo", "--users", "1"], EXIT_USAGE),
            (["aggregate-demo", "--participants", "0"], EXIT_USAGE),
            (["frobnicate"], EXIT_USAGE),
            ([], EXIT_USAGE),
        ],
    )
    def test_exit_code(self, argv, code):
        done = run_module(argv)
        assert done.returncode == code, done.stderr

    def test_runtime_failure_exits_1(self, tmp_path):
        blocker = tmp_path / "file"  # --out under a file cannot be made
        blocker.write_text("")
        done = run_module(["aggregate-demo", "--participants", "2", "--out", str(blocker / "sub")])
        assert done.returncode == EXIT_RUNTIME
        assert done.stderr.startswith("error: ")
