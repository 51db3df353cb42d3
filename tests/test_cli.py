import pytest

from openqsl import cli, verify
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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_unstable_integration_exits_two(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            "[model]\npreset = dephasing\n[parameters]\ngamma = 100\n"
            "[integrator]\ndt = 0.1\nhorizon = 1\n",
        )
        assert run(tmp_path, "evolve", "--config", config) == 2
        assert "non-finite" in capsys.readouterr().err

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
