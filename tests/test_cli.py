import csv
import math
import warnings

import pytest

from openqsl import cli, config, qsl, verify
from openqsl.config import ExperimentConfig, build_model, load_config
from openqsl.errors import FrozenDynamicsError
from openqsl.verify import PropertyResult


def write_config(tmp_path, text: str) -> str:
    path = tmp_path / "experiment.ini"
    path.write_text(text, encoding="utf-8")
    return str(path)


def run(tmp_path, *argv) -> int:
    return cli.main([*argv, "--output", str(tmp_path / "out.csv")])


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
        [["qsl", "--bogus", "1"], ["qsl", "--workers", "2"], ["nocommand"], ["qsl", "--seed", "x"]],
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
            ("fig1a", "[parameters]\ngamma_points = 2.7", "[parameters] gamma_points:"),
            ("fig1a", "[parameters]\ngamma_points = 0", "[parameters] gamma_points:"),
            ("fig1a", "[parameters]\ngamma_points = -3", "[parameters] gamma_points:"),
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
        ],
    )
    def test_input_outside_its_domain_exits_one(self, tmp_path, capsys, command, text, where):
        assert run(tmp_path, command, "--config", write_config(tmp_path, text + "\n")) == 1
        assert capsys.readouterr().err.startswith(f"config error: {where}")
        assert not (tmp_path / "out.csv").exists()

    def test_property_violation_exits_three(self, tmp_path, monkeypatch):
        failing = PropertyResult("stub")
        failing.record(-1.0, True, x=0.5)
        monkeypatch.setattr(verify, "run_all", lambda **kwargs: [failing])
        assert cli.main(["verify", "--output", str(tmp_path / "verify.json")]) == 3
        assert '"all_passed": false' in (tmp_path / "verify.json").read_text()


@pytest.mark.parametrize("command", ["qsl", "fig1a", "scaling", "qfi", "evolve"])
def test_repeated_runs_are_byte_identical(tmp_path, command):
    outputs = []
    for run_dir in ("first", "second"):
        path = tmp_path / run_dir / "out.csv"
        path.parent.mkdir()
        assert cli.main([command, "--output", str(path)]) == 0
        outputs.append((path.read_bytes(), (tmp_path / run_dir / "out.csv.meta.json").read_bytes()))
    assert outputs[0] == outputs[1]


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))[1:]


def reference_qsl_row(cfg, value):
    """One qsl row from a model built for it: the per-row method that the
    rate-scaled sweep replaces."""
    theta_target = cfg.param("theta_target", math.pi / 4)
    if cfg.sweep_name in (None, "theta_target"):
        target, overrides = value, {}
    else:
        target, overrides = theta_target, {cfg.sweep_name: value}
    q = qsl.compute_quantities(*build_model(cfg, overrides))
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
            "psi0 = [[0.6, 0], [0, 0.8]]\n[parameters]\ngamma = 7\n"
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

    def test_frozen_row_at_zero_rate(self, tmp_path):
        path = write_config(
            tmp_path,
            "[model]\npreset = product\n[parameters]\ntheta = 0\n"
            "[sweep]\nname = gamma\nvalues = 0, 0.5\n",
        )
        assert run(tmp_path, "qsl", "--config", path) == 0
        assert [row[-1] for row in read_csv(tmp_path / "out.csv")] == ["frozen_dynamics", "ok"]

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
                    ExperimentConfig(preset="dephasing"),
                    {"omega": omega, "gamma": gamma, "theta": 1.1},
                )
                want.append(qsl.t_qsl(qsl.compute_quantities(model, psi0), 0.6))
            assert_row_matches(row, want)

    @pytest.mark.parametrize(
        "command, text, calls",
        [
            ("qsl", "[model]\npreset = dephasing\n[sweep]\nname = gamma\nvalues = 0, 1, 2, 3", 1),
            ("qsl", "[model]\npreset = dephasing\n[sweep]\nname = theta\nvalues = 0.1, 0.2, 0.1", 2),
            ("fig1a", "[parameters]\ngamma_points = 20", 3),
        ],
    )
    def test_quantities_computed_once_per_unit_rate_model(
        self, tmp_path, monkeypatch, command, text, calls
    ):
        seen = []

        def counting(model, psi0):
            seen.append(model.dim)
            return qsl.compute_quantities(model, psi0)

        monkeypatch.setattr(config, "compute_quantities", counting)
        assert run(tmp_path, command, "--config", write_config(tmp_path, text + "\n")) == 0
        assert len(seen) == calls
