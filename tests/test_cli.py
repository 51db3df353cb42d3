import csv
import json
import math
import os
import stat
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from openqsl import cli, config, dynamics, models, qsl, verify
from openqsl.config import ExperimentConfig, build_model, load_config
from openqsl.errors import FrozenDynamicsError
from openqsl.models import ProductModelParams, product_quantities_analytic
from openqsl.verify import PropertyResult


# The last time of qfi's default grid.
QFI_T_END = float(np.logspace(-3, math.log10(0.04), 9)[-1])


def write_config(tmp_path, text: str) -> str:
    path = tmp_path / "experiment.ini"
    path.write_text(text, encoding="utf-8")
    return str(path)


def run(tmp_path, *argv) -> int:
    return cli.main([*argv, "--output", str(tmp_path / "out.csv")])


def run_process(*argv, **kwargs) -> int:
    """Exit code of ``python -m openqsl`` with ``argv`` in a child process
    that imports this package."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-m", "openqsl", *argv], env=env, **kwargs).returncode


def stub_verify(monkeypatch):
    result = PropertyResult("stub")
    result.record(0.25, False)
    monkeypatch.setattr(verify, "run_all", lambda **kwargs: [result])


class TestExitCodes:
    def test_default_qsl_run_succeeds(self, tmp_path):
        assert run(tmp_path, "qsl") == 0
        assert (tmp_path / "out.csv").exists()
        assert (tmp_path / "out.csv.meta.json").exists()

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        assert "usage: openqsl" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["qsl", "--bogus", "1"],
            ["qsl", "--workers", "2"],
            ["nocommand"],
            ["qsl", "--seed", "x"],
            # numpy's generators take no negative seed; no suite runs
            ["verify", "--seed", "-1"],
        ],
    )
    def test_usage_error_is_a_config_error(self, tmp_path, capsys, argv):
        assert run(tmp_path, *argv) == 1
        assert capsys.readouterr().err.startswith("config error: ")

    @pytest.mark.parametrize(
        "text",
        [
            "[bogus]\nkey = 1\n",
            "[parameters]\ngamma = 5%\n",
            "[integrator]\ndt = nan\n",
            "[model]\npreset = product\n[parameters]\nn = inf\n",
            "[sweep]\nname = gama\nvalues = 1, 2, 3\n",
            "[parameters]\ngama = 3\n",
        ],
    )
    def test_bad_config_exits_one(self, tmp_path, capsys, text):
        assert run(tmp_path, "qsl", "--config", write_config(tmp_path, text)) == 1
        assert capsys.readouterr().err.startswith("config error: [")
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize(
        "command, text, where",
        [
            # the scaled horizon 10/gamma past the float range
            ("fig1b", "[parameters]\ngamma = 1e-310", "[parameters] gamma: 1e-310 scales the horizon"),
            ("fig1b", "[parameters]\ngamma = 5e-324", "[parameters] gamma: 5e-324 scales the horizon"),
            # t^2 underflows to 0
            ("qfi", "[sweep]\nname = t\nvalues = 1e-170", "[sweep] values: t = 1e-170 is too small"),
            # inline matrices whose speed-limit terms overflow, with numpy's
            # warnings as errors (pyproject.toml)
            (
                "qsl",
                "[model]\nhamiltonian = [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]\n"
                "psi0 = [[0.6, 0], [0.8, 0]]\n"
                "lindblad_ops = [[[[1e160, 0], [0, 0]], [[0, 0], [0, 0]]]]",
                "[model] hamiltonian/lindblad_ops: ",
            ),
            (
                "qsl",
                "[model]\nhamiltonian = [[[1e200, 0], [0, 0]], [[0, 0], [-1e200, 0]]]\n"
                "psi0 = [[0.6, 0], [0.8, 0]]",
                "[model] hamiltonian/lindblad_ops: ",
            ),
        ],
        ids=["fig1b-gamma-1e-310", "fig1b-gamma-5e-324", "qfi-t-1e-170", "inline-ops", "inline-h"],
    )
    def test_float_range_edge_is_one_config_error_line(self, tmp_path, capsys, command, text, where):
        assert run(tmp_path, command, "--config", write_config(tmp_path, text + "\n")) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {where}") and err.count("\n") == 1
        assert not (tmp_path / "out.csv").exists()

    def test_fig1b_at_a_tiny_gamma_ends_and_scales(self, tmp_path):
        # Steps of 1e9 time units, where no float lies between bisection
        # ends 1e-8 apart; a child process with a timeout turns a hang into
        # a failure. Every time scales as 1/gamma.
        tiny = tmp_path / "tiny.csv"
        path = write_config(tmp_path, "[parameters]\ngamma = 1e-13\n")
        assert run_process("fig1b", "--config", path, "--output", str(tiny), timeout=10) == 0
        assert run(tmp_path, "fig1b") == 0
        with tiny.open() as a, (tmp_path / "out.csv").open() as b:
            for scaled, unit in zip(csv.DictReader(a), csv.DictReader(b), strict=True):
                assert scaled["theta_target"] == unit["theta_target"]
                t_fp = float(scaled["t_first_passage"]) * 1e-13
                assert t_fp == pytest.approx(float(unit["t_first_passage"]), rel=0.0, abs=1e-8)
                for key in ("t_exa", "t_qsl"):
                    assert float(scaled[key]) * 1e-13 == pytest.approx(float(unit[key]), rel=1e-14)

    def test_unstable_integration_exits_two(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            "[model]\npreset = dephasing\n[parameters]\ngamma = 100\n"
            "[integrator]\ndt = 0.1\nhorizon = 1\n",
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(tmp_path, "evolve", "--config", config) == 2
        err = capsys.readouterr().err
        assert err.startswith("integration error: ") and "non-finite" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "command, sweep",
        [
            ("qsl", "name = n\nvalues = 1, 2, 3"),
            ("qsl", "name = omega\nvalues = 1, 2"),
            ("qsl", "name = t\nvalues = 0.1, 0.2"),
            ("scaling", "name = gamma\nvalues = 1, 2"),
            ("qfi", "name = gamma\nvalues = 1, 2"),
            ("fig1a", "name = gamma\nvalues = 1, 2"),
            ("evolve", "name = t\nvalues = 0.1, 0.2"),
        ],
    )
    def test_sweep_the_command_never_reads_exits_one(self, tmp_path, capsys, command, sweep):
        # emission, the default preset, reads gamma only
        config = write_config(tmp_path, f"[sweep]\n{sweep}\n")
        assert run(tmp_path, command, "--config", config) == 1
        assert capsys.readouterr().err.startswith(f"config error: [sweep] name: {command} ")
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize(
        "command, text",
        [
            ("qsl", "[model]\npreset = dephasing\n[sweep]\nname = gamma\nvalues = 1, 2"),
            ("qsl", "[model]\npreset = product\n[sweep]\nname = n\nvalues = 1, 2"),
            ("qsl", "[sweep]\nname = gamma\nvalues = 1, 2"),
            ("qsl", "[sweep]\nname = theta_target\nvalues = 0.5, 0.6"),
            ("scaling", "[sweep]\nname = n\nvalues = 16, 32, 64"),
            ("qfi", "[sweep]\nname = t\nvalues = 0.001, 0.002"),
        ],
    )
    def test_sweep_the_command_reads_gives_distinct_rows(self, tmp_path, command, text):
        assert run(tmp_path, command, "--config", write_config(tmp_path, text + "\n")) == 0
        rows = (tmp_path / "out.csv").read_text().splitlines()[1:]
        assert len(set(row.split(",", 1)[1] for row in rows)) == len(rows)

    @pytest.mark.parametrize(
        "command, text, where",
        [
            ("qsl", "[parameters]\ntheta_target = 2", "[parameters] theta_target:"),
            ("qsl", "[parameters]\ntheta_target = 0", "[parameters] theta_target:"),
            ("qsl", "[sweep]\nname = theta_target\nvalues = 0.5, 1.6", "[sweep] values:"),
            ("qsl", "[sweep]\nname = theta_target\nvalues = -0.5", "[sweep] values:"),
            ("fig1a", "[parameters]\ntheta_target = 1.6", "[parameters] theta_target:"),
            ("scaling", "[parameters]\ntheta_target = -1", "[parameters] theta_target:"),
            ("qsl", "[model]\npreset = product\n[parameters]\nn = 2.5", "[parameters] n:"),
            (
                "qsl",
                "[model]\npreset = product\n[sweep]\nname = n\nvalues = 1, 2.5",
                "[sweep] values:",
            ),
            ("scaling", "[sweep]\nname = n\nvalues = 16.5, 32, 64", "[sweep] values:"),
            ("scaling", "[sweep]\nname = n\nvalues = 16, 32", "[sweep] values:"),
            ("scaling", "[sweep]\nname = n\nvalues = 16, 16, 32", "[sweep] values:"),
            ("scaling", "[sweep]\nname = n\nvalues = 0, 16, 32", "[parameters]:"),
            # an integer, but n(n - 1) overflows a float
            (
                "scaling",
                "[sweep]\nname = n\nvalues = 16, 32, 64, 1e200",
                "[parameters]: the speed-limit terms of the chain of n = 9999",
            ),
            # finite terms, but 2s/v overflows at a subnormal drive
            (
                "scaling",
                "[parameters]\nomega = 1e-310\ngamma = 0",
                "[parameters]: the time bound of the chain of n = 64 sites overflows a float",
            ),
            # a frozen chain: |0> is an eigenstate of the drive, and no dephasing
            (
                "scaling",
                "[parameters]\ntheta = 0\ngamma = 0",
                "[parameters]: generator has zero speed",
            ),
            ("fig1a", "[parameters]\ngamma_points = 2.7", "[parameters] gamma_points:"),
            ("fig1a", "[parameters]\ngamma_points = 0", "[parameters] gamma_points:"),
            ("fig1a", "[parameters]\ngamma_points = -3", "[parameters] gamma_points:"),
            # a grid whose run would take more than the trajectory byte cap
            ("fig1a", "[parameters]\ngamma_points = 1e13", "[parameters] gamma_points:"),
            (
                "fig1a",
                f"[parameters]\ngamma_points = {config._FIG1A_MAX_POINTS + 1}",
                "[parameters] gamma_points:",
            ),
            ("fig1a", "[parameters]\ngamma_min = 0", "[parameters] gamma_min:"),
            ("fig1a", "[parameters]\ngamma_max = -1", "[parameters] gamma_max:"),
            ("fig1b", "[parameters]\ngamma = 0", "[parameters]: gamma must be positive"),
            ("fig1b", "[parameters]\ngamma = -2", "[parameters]: gamma must be positive"),
            ("qfi", "[sweep]\nname = t\nvalues = 0.002, 0.001", "[sweep] values:"),
            ("qfi", "[sweep]\nname = t\nvalues = -0.001, 0.002", "[sweep] values:"),
            ("verify", "[parameters]\nn_models = 2.5", "[parameters] n_models:"),
            # a sweep row still meets its preset's own checks
            (
                "qsl",
                "[model]\npreset = dephasing\n[sweep]\nname = gamma\nvalues = 1, -1",
                "[parameters]: gamma must be nonnegative",
            ),
            ("qsl", "[sweep]\nname = gamma\nvalues = 1, 0", "[parameters]: gamma must be positive"),
            ("fig1a", "[parameters]\ntheta = 4", "[parameters]: theta must lie in [0, pi]"),
            # a model built from the config's own [parameters]
            (
                "qfi",
                "[model]\npreset = dephasing\n[parameters]\nomega = 0",
                "[parameters]: omega must be positive",
            ),
            ("evolve", "[parameters]\ngamma = -1", "[parameters]: gamma must be positive"),
            # a dense chain over the byte cap, refused before it is built
            *(
                (
                    command,
                    "[model]\npreset = product\n[parameters]\nn = 11",
                    "[parameters]: dense product model capped at 10 qubits by the "
                    "1073741824-byte cap (requested 11)",
                )
                for command in ("evolve", "qfi")
            ),
            # finite terms, but v = 2 delta_h0 + sqrt(2) g_term overflows
            (
                "qsl",
                "[model]\npreset = product\n[parameters]\nomega = 1.1e308\ngamma = 0\n"
                "n = 3\ntheta = 1.5707963267948966",
                "[parameters]: v = 2 delta_h0 + sqrt(2) g_term overflows a float at row 0 "
                "(theta_target = 0.7853981633974483, n = 3.0, omega = 1.1e+308",
            ),
            (
                "scaling",
                "[parameters]\nomega = 3.5e307\ngamma = 0\n[sweep]\nname = n\nvalues = 64, 65, 66",
                "[parameters]: v = 2 delta_h0 + sqrt(2) g_term overflows a float at row 0 "
                "(n = 64, omega = 3.5e+307",
            ),
            (
                "qfi",
                "[model]\npreset = product\n[parameters]\ntheta = 4",
                "[parameters]: theta must lie in [0, pi]",
            ),
            # a step longer than the horizon, given or the command's default
            ("evolve", "[integrator]\ndt = 2\nhorizon = 1", "[integrator] dt:"),
            ("fig1b", "[integrator]\ndt = 2\nhorizon = 1", "[integrator] dt:"),
            ("verify", "[integrator]\ndt = 2\nhorizon = 1", "[integrator] dt:"),
            ("evolve", "[integrator]\ndt = 20", "[integrator] dt:"),
            # a step count past the float range
            *(
                (command, "[integrator]\nhorizon = 1e300\ndt = 1e-10", "trajectory of t_end / dt")
                for command in ("evolve", "fig1b", "verify")
            ),
        ],
    )
    def test_input_outside_its_domain_exits_one(self, tmp_path, capsys, command, text, where):
        path = write_config(tmp_path, text + "\n")
        tracemalloc.start()
        try:
            code = run(tmp_path, command, "--config", path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert capsys.readouterr().err.startswith(f"config error: {where}")
        assert not (tmp_path / "out.csv").exists()
        # refused before the run allocates its arrays
        assert peak < 2**20

    def test_trajectory_over_memory_budget_exits_one(self, tmp_path, capsys, monkeypatch):
        # the default evolve run stores 5001 states of d = 2
        def unreachable(*args):
            raise AssertionError("_propagate reached")

        monkeypatch.setattr(dynamics, "TRAJECTORY_BYTE_CAP", 5001 * 4 * 16 - 1)
        monkeypatch.setattr(dynamics, "_propagate", unreachable)
        assert run(tmp_path, "evolve") == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: trajectory of 5000 steps at d = 2 needs 320064 bytes")
        assert err.count("\n") == 1
        assert not (tmp_path / "out.csv").exists()

    def test_property_violation_exits_three(self, tmp_path, monkeypatch):
        failing = PropertyResult("stub")
        failing.record(-1.0, True, x=0.5)
        monkeypatch.setattr(verify, "run_all", lambda **kwargs: [failing])
        assert cli.main(["verify", "--output", str(tmp_path / "verify.json")]) == 3
        assert '"all_passed": false' in (tmp_path / "verify.json").read_text()


    def test_skipped_checks_reach_report_and_console(self, tmp_path, monkeypatch, capsys):
        result = PropertyResult("stub")
        result.record(0.5, False)
        for _ in range(3):
            result.skip("unreachable_target")
        monkeypatch.setattr(verify, "run_all", lambda **kwargs: [result])
        assert cli.main(["verify", "--output", str(tmp_path / "verify.json")]) == 0
        report = json.loads((tmp_path / "verify.json").read_text())
        assert report["properties"][0]["skipped"] == {"unreachable_target": 3}
        out = capsys.readouterr().out
        assert out == "pass stub: 1 checks, 3 skipped (unreachable_target), worst margin 5.000e-01\n"

    @pytest.mark.parametrize("command", ["qsl", "scaling", "verify"])
    def test_unwritable_output_exits_one(self, tmp_path, capsys, monkeypatch, command):
        stub_verify(monkeypatch)
        path = tmp_path / "missing" / "out.csv"
        assert cli.main([command, "--output", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write output {str(path)!r}: ")

    def test_unwritable_sidecar_exits_one(self, tmp_path, capsys):
        (tmp_path / "out.csv.meta.json").mkdir()
        assert run(tmp_path, "qsl") == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot write output ") and "out.csv.meta.json" in err

    @pytest.mark.parametrize(
        "argv, text",
        [(["--format", "csv"], ""), ([], "[output]\nformat = csv\n")],
        ids=["flag", "config"],
    )
    def test_verify_csv_request_exits_one(self, tmp_path, capsys, monkeypatch, argv, text):
        def unreachable(**kwargs):
            raise AssertionError("run_all reached")

        monkeypatch.setattr(verify, "run_all", unreachable)
        config_args = ["--config", write_config(tmp_path, text)] if text else []
        assert run(tmp_path, "verify", *argv, *config_args) == 1
        assert capsys.readouterr().err.startswith("config error: --format / [output] format: ")
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("argv", [[], ["--format", "json"]], ids=["default", "json"])
    def test_verify_writes_json_by_default(self, tmp_path, monkeypatch, argv):
        stub_verify(monkeypatch)
        assert run(tmp_path, "verify", *argv) == 0
        assert json.loads((tmp_path / "out.csv").read_text())["all_passed"] is True


class TestParserPerProcess:
    def test_format_of_one_call_does_not_carry_over(self, tmp_path):
        assert cli.main(["qsl", "--format", "json", "--output", str(tmp_path / "a")]) == 0
        assert (tmp_path / "a").read_text().startswith("[\n  {")
        assert cli.main(["qsl", "--output", str(tmp_path / "b")]) == 0
        assert (tmp_path / "b").read_text().startswith("sweep_value,delta_h0,")

    def test_usage_error_after_a_good_call_exits_one(self, tmp_path, capsys):
        assert run(tmp_path, "qsl") == 0
        assert run(tmp_path, "qsl", "--bogus", "1") == 1
        assert capsys.readouterr().err.startswith("config error: unrecognized arguments")

    def test_help_after_a_good_call_exits_zero(self, tmp_path, capsys):
        assert run(tmp_path, "qsl") == 0
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        assert "usage: openqsl" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["qsl", "fig1a", "scaling", "qfi", "evolve"])
def test_repeated_runs_are_byte_identical(tmp_path, command):
    outputs = []
    for run_dir in ("first", "second"):
        path = tmp_path / run_dir / "out.csv"
        path.parent.mkdir()
        assert cli.main([command, "--output", str(path)]) == 0
        outputs.append((path.read_bytes(), (tmp_path / run_dir / "out.csv.meta.json").read_bytes()))
    assert outputs[0] == outputs[1]


class TestOutputFiles:
    @pytest.mark.parametrize(
        "command", ["qsl", "fig1a", "fig1b", "scaling", "verify", "qfi", "evolve"]
    )
    def test_overwriting_a_longer_file_equals_a_fresh_write(self, tmp_path, monkeypatch, command):
        stub_verify(monkeypatch)
        fresh, old = tmp_path / "fresh" / "out", tmp_path / "old" / "out"
        fresh.parent.mkdir()
        old.parent.mkdir()
        assert cli.main([command, "--output", str(fresh)]) == 0
        pairs = [(old, fresh), (old.with_name("out.meta.json"), fresh.with_name("out.meta.json"))]
        for path, written in pairs:
            path.write_bytes(b"\xff" * (2 * written.stat().st_size + 100))
        assert cli.main([command, "--output", str(old)]) == 0
        for path, written in pairs:
            assert path.read_bytes() == written.read_bytes()

    @pytest.mark.parametrize("command", ["qsl", "verify"])
    def test_devnull_output_exits_zero(self, tmp_path, monkeypatch, command):
        # a link in tmp_path, so that a stray sidecar would land there and
        # not in /dev; a stream gets none
        stub_verify(monkeypatch)
        (tmp_path / "out.csv").symlink_to(os.devnull)
        assert run(tmp_path, command) == 0
        assert (tmp_path / "out.csv").is_symlink()
        assert not (tmp_path / "out.csv.meta.json").exists()

    def test_redirected_stdout_output_gets_no_sidecar(self, tmp_path):
        # stdout goes to a regular file, reached again as /dev/stdout through
        # a link in tmp_path, so that a stray sidecar would land there
        link, redirected = tmp_path / "out.csv", tmp_path / "redirected.csv"
        link.symlink_to("/dev/stdout")
        with open(redirected, "wb") as stdout:
            assert run_process("qsl", "--output", str(link), stdout=stdout, cwd=tmp_path) == 0
        assert redirected.read_text(encoding="utf-8").startswith("sweep_value,delta_h0,")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "redirected.csv"]

    @pytest.mark.parametrize("link", [False, True], ids=["dev-stdout", "link"])
    def test_stdout_output_appends_to_a_redirect(self, tmp_path, link):
        # `openqsl qsl --output /dev/stdout >> log.txt` keeps the log's lines;
        # the link in tmp_path is where a stray sidecar would land
        log = tmp_path / "log.txt"
        log.write_text("first\nsecond\n", encoding="utf-8")
        output = "/dev/stdout"
        if link:
            output = tmp_path / "out.csv"
            output.symlink_to("/dev/stdout")
        with open(log, "ab") as stdout:
            assert run_process("qsl", "--output", str(output), stdout=stdout, cwd=tmp_path) == 0
        lines = log.read_text(encoding="utf-8").splitlines()
        assert lines[:2] == ["first", "second"]
        assert lines[2].startswith("sweep_value,delta_h0,") and len(lines) == 4
        assert sorted(p.name for p in tmp_path.iterdir()) == ["log.txt"] + ["out.csv"] * link

    def test_output_opened_as_fd_one_is_a_file(self, tmp_path):
        # with stdout closed the output takes its descriptor, and is still
        # cut to length and given a sidecar
        out = tmp_path / "out.csv"
        out.write_text("x" * 100_000)
        assert run_process("qsl", "--output", str(out), preexec_fn=lambda: os.close(1)) == 0
        assert out.read_text(encoding="utf-8").count("\n") == 2
        assert (tmp_path / "out.csv.meta.json").exists()

    def test_symlinked_output_stays_a_link(self, tmp_path):
        assert cli.main(["qsl", "--output", str(tmp_path / "fresh.csv")]) == 0
        target = tmp_path / "target.csv"
        target.write_text("x" * 10_000)
        (tmp_path / "out.csv").symlink_to(target)
        assert run(tmp_path, "qsl") == 0
        assert (tmp_path / "out.csv").is_symlink()
        assert target.read_bytes() == (tmp_path / "fresh.csv").read_bytes()

    def test_existing_file_keeps_mode_inode_and_links(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("x" * 10_000)
        path.chmod(0o640)
        os.link(path, tmp_path / "link.csv")
        inode = path.stat().st_ino
        assert run(tmp_path, "qsl") == 0
        assert stat.S_IMODE(path.stat().st_mode) == 0o640
        assert path.stat().st_ino == inode
        assert (tmp_path / "link.csv").read_text().startswith("sweep_value,")

    @pytest.mark.parametrize(
        "command, text, dt",
        [
            # qfi integrates to its last grid time, at most its step
            ("qfi", "", QFI_T_END / 4000),
            # the run steps once, at the last grid time
            ("qfi", "[integrator]\ndt = 1\n", QFI_T_END),
            ("qfi", "[integrator]\ndt = 1\n[sweep]\nname = t\nvalues = 0.001, 0.003\n", 0.003),
            # round(t_end / dt) steps of t_end / round(t_end / dt)
            ("qfi", "[integrator]\ndt = 3e-4\n", QFI_T_END / 133),
            ("qfi", "[integrator]\ndt = 3e-5\n", QFI_T_END / 1333),
            ("fig1b", "[integrator]\ndt = 3e-4\n", 10 / 33333),
            ("fig1b", "[integrator]\ndt = 3e-5\nhorizon = 1\n", 1 / 33333),
        ],
        ids=[
            "default",
            "dt-past-grid",
            "dt-past-swept-grid",
            "qfi-dt-3e-4",
            "qfi-dt-3e-5",
            "fig1b-dt-3e-4",
            "fig1b-dt-3e-5",
        ],
    )
    def test_qfi_sidecar_records_the_step_taken(self, tmp_path, command, text, dt):
        argv = ["--config", write_config(tmp_path, text)] if text else []
        assert run(tmp_path, command, *argv) == 0
        meta = json.loads((tmp_path / "out.csv.meta.json").read_text())
        assert meta["dt"] == dt

    def test_qsl_sidecar_records_no_step(self, tmp_path):
        # qsl integrates nothing, like fig1a and scaling; the configured dt
        # stays in the config echo only
        assert run(tmp_path, "qsl", "--config", write_config(tmp_path, "[integrator]\ndt = 0.5\n")) == 0
        meta = json.loads((tmp_path / "out.csv.meta.json").read_text())
        assert meta["dt"] is None
        assert meta["config"]["dt"] == 0.5

    def test_json_numbers_keep_their_bytes(self):
        values = [0.1, -0.0, 1e300, 5e-324, math.inf, -math.inf, math.nan, np.float64(0.1), True, 3]
        assert cli._to_json({"v": values}) == (
            '{\n  "v": [\n    0.10000000000000001,\n    -0,\n    1.0000000000000001e+300,\n'
            '    4.9406564584124654e-324,\n    "inf",\n    "-inf",\n    "nan",\n'
            "    0.10000000000000001,\n    true,\n    3\n  ]\n}"
        )

    def test_numpy_scalars_are_spelled_as_python_ones(self):
        # np.float64 is a float subclass and np.bool_ is not a bool: both are
        # written as the Python float and bool they hold
        values = [np.float64(math.nan), np.float64(math.inf), np.float64(-math.inf)]
        values += [np.bool_(True), np.bool_(False)]
        assert cli._to_json(values) == '[\n  "nan",\n  "inf",\n  "-inf",\n  true,\n  false\n]'
        assert cli._to_json(values) == cli._to_json([float(v) for v in values[:3]] + [True, False])
        assert cli._table("csv", ["a", "b", "c"], [values[:3], values[3:] + [1.5]]) == (
            "a,b,c\nnan,inf,-inf\ntrue,false,1.5\n"
        )


def element_table(header, rows) -> str:
    """The CSV that spells every cell with ``cli._fmt``, one cell at a time."""
    return "\n".join([",".join(header)] + [",".join(map(cli._fmt, row)) for row in rows]) + "\n"


def element_list(values, indent=0) -> str:
    """The JSON that ``cli._to_json`` writes for ``values`` one element at a time."""
    inner = "  " * (indent + 1)
    parts = [inner + cli._to_json(v, indent + 1) for v in values]
    return "[\n" + ",\n".join(parts) + "\n" + "  " * indent + "]"


class TestRowTemplates:
    CELLS = [
        0.1,
        math.inf,
        -math.inf,
        math.nan,
        -0.0,
        5e-324,
        1e300,
        np.float64(0.1),
        np.float64(-math.inf),
        np.float32(0.1),
        2**70,
        -3,
        np.int64(-7),
        np.int32(5),
        True,
        False,
        np.bool_(True),
        None,
        "ok",
        "",
    ]

    @pytest.mark.parametrize("cell", CELLS, ids=lambda cell: f"{type(cell).__name__}-{cell!r}")
    def test_each_cell_type_is_spelled_as_fmt_spells_it(self, cell):
        rows = [[cell], [1.5, cell, 2], (cell, cell)]
        for row in rows:
            assert cli._table("csv", ["a"], [row]) == element_table(["a"], [row])

    def test_row_types_that_change_partway(self):
        # a frozen qsl row between ok ones, and scaling's exponent row under its n rows
        header = ["sweep_value", "t_qsl", "status"]
        rows = [[0.5, 1.25, "ok"], [0.0, None, "frozen_dynamics"], [2.0, 0.75, "ok"], [np.float64(3.0), 0.5, "ok"]]
        assert cli._table("csv", header, rows) == element_table(header, rows)
        rows = [[64, 0.25], [np.int64(128), 0.125], [2**64, 0.0625], ["exponent", -0.9971041876725053]]
        assert cli._table("csv", ["n", "t_qsl"], rows) == element_table(["n", "t_qsl"], rows)

    def test_a_row_of_every_cell_type_at_once(self):
        rows = [self.CELLS, self.CELLS[::-1], tuple(self.CELLS)]
        header = [f"c{k}" for k in range(len(self.CELLS))]
        assert cli._table("csv", header, rows) == element_table(header, rows)

    @pytest.mark.parametrize(
        "values",
        [
            [0.5, math.nan, 1.5],
            [math.inf, 0.25],
            [1e308, 1e308],  # finite cells whose sum overflows
            [np.float64(0.1), np.float64(2.5)],
            [1, 0.5, 2, 2**70],
            [0.1, -0.0, 5e-324, 1e300],
        ],
        ids=["nan", "inf", "sum-overflows", "float64", "ints-and-floats", "finite"],
    )
    def test_json_lists_are_written_as_element_by_element(self, values):
        assert cli._to_json(values) == element_list(values)
        assert cli._to_json({"v": values}) == '{\n  "v": ' + element_list(values, 1) + "\n}"

    def test_json_strings_and_keys_are_escaped_as_json_dumps_escapes_them(self):
        text = 'a "quoted" caf\u00e9\n\\ tab\t \u2603'
        assert cli._to_json(text) == json.dumps(text)
        assert json.loads(cli._to_json({text: [text]})) == {text: [text]}


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))[1:]


def reference_qsl_row(cfg, value):
    """One qsl row from a model built for it: the per-row method that the
    rate-scaled sweep replaces."""
    theta_target = cfg.param("theta_target", math.pi / 4)
    if cfg.sweep_name in (None, "theta_target"):
        target, row_cfg = value, cfg
    else:
        target = theta_target
        row_cfg = ExperimentConfig(
            preset=cfg.preset, parameters={**cfg.parameters, cfg.sweep_name: value}
        )
    q = qsl.compute_quantities(*build_model(row_cfg))
    try:
        bound, lower, status = qsl.t_qsl(q, target), qsl.qsl_lower_bound(q, target), "ok"
    except FrozenDynamicsError:
        bound, lower, status = None, None, "frozen_dynamics"
    return [value, q.delta_h0, q.g_term, q.e_term, q.v_coeff, bound, lower, status]


def assert_row_matches(got, want):
    assert len(got) == len(want)
    for cell, value in zip(got, want):
        if value is None:
            assert cell == ""
        elif isinstance(value, str):
            assert cell == value
        else:
            assert float(cell) == pytest.approx(value, rel=1e-14, abs=0.0)


class TestRateScaledSweeps:
    @pytest.mark.parametrize(
        "text",
        [
            "[model]\npreset = dephasing\n[parameters]\nomega = 2.5\ntheta = 0.7\n"
            "[sweep]\nname = theta_target\nvalues = 0.1, 0.8, 1.5707963267948966",
            "[model]\npreset = dephasing\n[parameters]\nomega = 2.5\ntheta = 0.7\n"
            "[sweep]\nname = gamma\nvalues = 0, 0.001, 0.37, 1, 250",
            "[model]\npreset = dephasing\n[parameters]\ngamma = 0.3\ntheta = 2.2\n"
            "[sweep]\nname = omega\nvalues = 0.01, 0.5, 1, 4, 77.7",
            "[model]\npreset = product\n[parameters]\nomega = 1.3\ngamma = 0.4\n"
            "[sweep]\nname = theta\nvalues = 0, 0.3, 1.2, 2.9",
            "[model]\npreset = product\n[parameters]\nomega = 1.7\ngamma = 0.2\ntheta = 0.4\n"
            "[sweep]\nname = n\nvalues = 1, 2, 3, 5",
            "[model]\npreset = product\n[parameters]\ntheta = 0\n"
            "[sweep]\nname = gamma\nvalues = 0, 0.5, 2",
            "[parameters]\nomega = -1\n[sweep]\nname = gamma\nvalues = 0.01, 3.3, 100",
            "[model]\nhamiltonian = [[[1, 0], [0.3, 0.1]], [[0.3, -0.1], [-1, 0]]]\n"
            "lindblad_ops = [[[[0, 0], [0.5, 0]], [[0, 0], [0, 0]]]]\n"
            "psi0 = [[0.6, 0], [0, 0.8]]\n"
            "[sweep]\nname = theta_target\nvalues = 0.2, 0.9",
        ],
        ids=["theta_target", "gamma", "omega", "theta", "n", "frozen", "emission", "inline"],
    )
    def test_qsl_rows_match_a_model_per_row(self, tmp_path, text):
        path = write_config(tmp_path, text + "\n")
        assert run(tmp_path, "qsl", "--config", path) == 0
        cfg = load_config(path)
        rows = read_csv(tmp_path / "out.csv")
        assert len(rows) == len(cfg.sweep_values)
        for got, value in zip(rows, cfg.sweep_values):
            assert_row_matches(got, reference_qsl_row(cfg, value))

    @pytest.mark.parametrize(
        "command, extra, message",
        [
            ("qsl", "[parameters]\ngamma = 7", "[parameters] gamma: an inline model does not read it"),
            ("qsl", "[parameters]\ntheta_target = 0.5\nomega = 2", "[parameters] omega: an inline model does not read it"),
            ("evolve", "[parameters]\ntheta = 0.3", "[parameters] theta: an inline model does not read it"),
            ("qfi", "[parameters]\nn = 4", "[parameters] n: an inline model does not read it"),
            ("qsl", "[sweep]\nname = gamma\nvalues = 1, 2", "[sweep] name: an inline model does not read 'gamma'"),
        ],
        ids=["gamma", "omega", "theta", "n", "gamma-sweep"],
    )
    def test_inline_model_rejects_preset_parameters(self, tmp_path, capsys, command, extra, message):
        # an inline model reads none of them; they used to be ignored, exit 0
        text = (
            "[model]\nhamiltonian = [[[1, 0], [0.3, 0.1]], [[0.3, -0.1], [-1, 0]]]\n"
            "psi0 = [[0.6, 0], [0, 0.8]]\n" + extra + "\n"
        )
        assert run(tmp_path, command, "--config", write_config(tmp_path, text)) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize(
        "command, extra",
        [
            ("fig1a", "[parameters]\ntheta = 1.0"),
            ("scaling", "[parameters]\ntheta = 1.0"),
            ("fig1b", "[parameters]\ngamma = 2.0"),
            ("scaling", "[sweep]\nname = n\nvalues = 16, 32, 64"),
        ],
        ids=["fig1a-theta", "scaling-theta", "fig1b-gamma", "scaling-n-sweep"],
    )
    def test_commands_that_skip_the_model_read_its_keys(self, tmp_path, command, extra):
        # fig1a, fig1b and scaling never read [model] and read these keys
        # themselves, so an inline model beside them changes no row
        inline = (
            "[model]\nhamiltonian = [[[1, 0], [0.3, 0.1]], [[0.3, -0.1], [-1, 0]]]\n"
            "psi0 = [[0.6, 0], [0, 0.8]]\n"
        )
        tables = []
        for text in (inline + extra, extra):
            assert run(tmp_path, command, "--config", write_config(tmp_path, text + "\n")) == 0
            tables.append((tmp_path / "out.csv").read_bytes())
        assert tables[0] == tables[1]

    def test_frozen_row_at_zero_rate(self, tmp_path):
        path = write_config(
            tmp_path,
            "[model]\npreset = product\n[parameters]\ntheta = 0\n"
            "[sweep]\nname = gamma\nvalues = 0, 0.5\n",
        )
        assert run(tmp_path, "qsl", "--config", path) == 0
        assert [row[-1] for row in read_csv(tmp_path / "out.csv")] == ["frozen_dynamics", "ok"]

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "[model]\npreset = dephasing\n[sweep]\nname = gamma\nvalues = 1, -1, -2",
                "gamma must be nonnegative",
            ),
            (
                "[model]\npreset = product\n[sweep]\nname = theta\nvalues = 0.5, 1, 4, 5",
                "theta must lie in [0, pi]",
            ),
            # each row is checked in the preset's order: omega, gamma, theta
            (
                "[model]\npreset = dephasing\n[parameters]\ntheta = 4\n"
                "[sweep]\nname = gamma\nvalues = -1, 1",
                "gamma must be nonnegative",
            ),
            (
                "[model]\npreset = dephasing\n[parameters]\ntheta = 4\n"
                "[sweep]\nname = gamma\nvalues = 1, -1",
                "theta must lie in [0, pi]",
            ),
            # a chain past the dense cap is a row like any other
            (
                "[model]\npreset = product\n[sweep]\nname = n\nvalues = 3, 40, 0",
                "n must be a positive integer",
            ),
            ("[model]\npreset = product\n[sweep]\nname = n\nvalues = 3, 1, 0", "n must be a positive integer"),
        ],
        ids=["gamma", "theta", "row-order", "fixed-first", "past-dense-cap", "n"],
    )
    def test_first_bad_row_exits_one(self, tmp_path, capsys, text, message):
        assert run(tmp_path, "qsl", "--config", write_config(tmp_path, text + "\n")) == 1
        assert capsys.readouterr().err.startswith(f"config error: [parameters]: {message}")
        assert not (tmp_path / "out.csv").exists()

    def test_fig1a_matches_a_model_per_point(self, tmp_path):
        path = write_config(
            tmp_path,
            "[parameters]\ntheta = 1.1\ntheta_target = 0.6\n"
            "gamma_min = 1e-4\ngamma_max = 1e4\ngamma_points = 9\n",
        )
        assert run(tmp_path, "fig1a", "--config", path) == 0
        rows = read_csv(tmp_path / "out.csv")
        assert len(rows) == 9
        for row in rows:
            gamma = float(row[0])
            want = [gamma]
            for omega in cli.FIG1A_OMEGAS:
                model, psi0 = build_model(
                    ExperimentConfig(
                        preset="dephasing",
                        parameters={"omega": omega, "gamma": gamma, "theta": 1.1},
                    )
                )
                want.append(qsl.t_qsl(qsl.compute_quantities(model, psi0), 0.6))
            assert_row_matches(row, want)

    @pytest.mark.parametrize(
        "command, text",
        [
            ("qsl", "[model]\npreset = dephasing\n[sweep]\nname = gamma\nvalues = 0, 1, 2, 3"),
            ("qsl", "[model]\npreset = dephasing\n[sweep]\nname = theta\nvalues = 0.1, 0.2, 0.1"),
            ("qsl", "[model]\npreset = product\n[sweep]\nname = n\nvalues = 1, 3, 2e6"),
            ("qsl", "[sweep]\nname = gamma\nvalues = 0.5, 2"),
            ("fig1a", "[parameters]\ngamma_points = 20"),
            ("scaling", ""),
        ],
        ids=["qsl-gamma", "qsl-theta", "qsl-n", "qsl-emission", "fig1a", "scaling"],
    )
    def test_preset_rows_build_no_model(self, tmp_path, monkeypatch, command, text):
        def unreachable(*args, **kwargs):
            raise AssertionError("a model was built or evaluated")

        for constructor in ("dephasing_model", "spontaneous_emission_model", "product_model_dense"):
            monkeypatch.setattr(models, constructor, unreachable)
        monkeypatch.setattr(config, "compute_quantities", unreachable)
        monkeypatch.setattr(dynamics.LindbladModel, "__post_init__", unreachable)
        assert run(tmp_path, command, "--config", write_config(tmp_path, text + "\n")) == 0

    def test_inline_rows_compute_quantities_once(self, tmp_path, monkeypatch):
        seen = []

        def counting(model, psi0):
            seen.append(model.dim)
            return qsl.compute_quantities(model, psi0)

        monkeypatch.setattr(config, "compute_quantities", counting)
        text = (
            "[model]\nhamiltonian = [[[1, 0], [0.3, 0.1]], [[0.3, -0.1], [-1, 0]]]\n"
            "psi0 = [[0.6, 0], [0, 0.8]]\n[sweep]\nname = theta_target\nvalues = 0.2, 0.5, 0.9\n"
        )
        assert run(tmp_path, "qsl", "--config", write_config(tmp_path, text)) == 0
        assert seen == [2]

    @pytest.mark.parametrize("n", [16, 2**20])
    def test_product_chain_past_the_dense_cap_is_its_closed_form(self, tmp_path, n):
        path = write_config(tmp_path, f"[model]\npreset = product\n[parameters]\nn = {n}\n")
        assert run(tmp_path, "qsl", "--config", path) == 0
        (row,) = read_csv(tmp_path / "out.csv")
        q = product_quantities_analytic(
            ProductModelParams(n=n, omega=1.0, gamma=1.0, theta=math.pi / 4)
        )
        assert row[1:5] == [cli._fmt(x) for x in (q.delta_h0, q.g_term, q.e_term, q.v_coeff)]

    def test_product_chain_row_allocates_no_dense_model(self, tmp_path):
        # a dense chain of 9 sites peaks near 130 MB while it is built
        path = write_config(tmp_path, "[model]\npreset = product\n[parameters]\nn = 9\n")
        tracemalloc.start()
        try:
            code = run(tmp_path, "qsl", "--config", path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 2**20
