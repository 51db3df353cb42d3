import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openqsl.config import ExperimentConfig, load_config
from openqsl.errors import ConfigError

# Parses as a JSON integer but overflows a float.
BIG_INT = "9" * 400


def load(tmp_path, text: str) -> ExperimentConfig:
    path = tmp_path / "experiment.ini"
    path.write_text(text, encoding="utf-8")
    return load_config(str(path))


class TestErrorsNameTheirKey:
    @pytest.mark.parametrize(
        "text, where",
        [
            ("[bogus]\nkey = 1\n", "[bogus]:"),
            ("[model]\ncolour = red\n", "[model] colour:"),
            ("[model]\npreset = lasing\n", "[model] preset:"),
            ("[model]\nhamiltonian = [[1, 0]\n", "[model] hamiltonian:"),
            ("[parameters]\ngama = 3\n", "[parameters] gama:"),
            ("[parameters]\ngamma = 5%\n", "[parameters] gamma:"),
            ("[parameters]\ngamma = inf\n", "[parameters] gamma:"),
            ("[model]\npreset = product\n[parameters]\nn = inf\n", "[parameters] n:"),
            ("[integrator]\ndt = nan\n", "[integrator] dt:"),
            ("[integrator]\nhorizon = 0\n", "[integrator] horizon:"),
            ("[integrator]\norder = 4\n", "[integrator] order:"),
            ("[sweep]\nname = gama\nvalues = 1, 2\n", "[sweep] name:"),
            ("[sweep]\nvalues = 1, 2\n", "[sweep] name:"),
            ("[sweep]\nname = gamma\n", "[sweep] values:"),
            ("[sweep]\nname = gamma\nvalues = [1, \"x\"]\n", "[sweep] values:"),
            ("[output]\nformat = xml\n", "[output] format:"),
            ("[model]\nhamiltonian = [[[1, 0]]]\n", "[model] psi0:"),
            ("[model]\nhamiltonian = [[[1, 0]]]\npsi0 = [[1, 0], [0, 0]]\n", "[model] psi0:"),
            ("[model]\nhamiltonian = [[[NaN, 0]]]\npsi0 = [[1, 0]]\n", "[model] hamiltonian:"),
            pytest.param(
                f"[model]\nhamiltonian = [[[{BIG_INT}, 0]]]\npsi0 = [[1, 0]]\n",
                "[model] hamiltonian:",
                id="hamiltonian-overflow",
            ),
            pytest.param(
                "[model]\nhamiltonian = " + "[" * 100_000 + "\n",
                "[model] hamiltonian:",
                id="hamiltonian-deep-json",
            ),
            pytest.param(
                f"[sweep]\nname = gamma\nvalues = [{BIG_INT}]\n",
                "[sweep] values:",
                id="sweep-overflow",
            ),
        ],
    )
    def test_message_starts_with_section_and_key(self, tmp_path, text, where):
        with pytest.raises(ConfigError) as exc:
            load(tmp_path, text)
        assert str(exc.value).startswith(where)

    def test_undecodable_file(self, tmp_path):
        path = tmp_path / "experiment.ini"
        path.write_bytes(b"[parameters]\ngamma = \xff\n")
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(str(path))

    def test_percent_sign_is_not_interpolation(self, tmp_path):
        cfg = load(tmp_path, "[output]\npath = run_100%.csv\n")
        assert cfg.output_path == "run_100%.csv"


class TestAcceptedKeys:
    def test_every_parameter_a_command_reads(self, tmp_path):
        keys = (
            "theta_target", "theta", "omega", "gamma", "n",
            "gamma_min", "gamma_max", "gamma_points",
            "n_models", "n_fisher_models", "n_scalar_samples",
        )
        cfg = load(tmp_path, "[parameters]\n" + "".join(f"{k} = 2\n" for k in keys))
        assert cfg.parameters == {k: 2.0 for k in keys}

    @pytest.mark.parametrize("name", ["gamma", "n", "theta_target", "t"])
    def test_sweep_names(self, tmp_path, name):
        cfg = load(tmp_path, f"[sweep]\nname = {name}\nvalues = [0.1, 0.2]\n")
        assert (cfg.sweep_name, cfg.sweep_values) == (name, [0.1, 0.2])


SECTIONS = ["model", "parameters", "integrator", "sweep", "output", "DEFAULT", "other"]
KEYS = [
    "preset", "hamiltonian", "lindblad_ops", "psi0", "gamma", "n", "theta",
    "dt", "horizon", "name", "values", "path", "format",
]
VALUES = [
    "emission", "product", "dephasing", "csv", "json", "t", "gamma",
    "0", "-1", "3", "1e400", "nan", "inf", "5%", "%(x)s", "1, 2", "[1, 2]",
    "[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]", "[[1, 0], [0, 0]]", "[[[1, 0]]]",
    "[1e999]", f"[{BIG_INT}]", "[[[0, 1], [0, 0]], [[0, 0], [0, 0]]]",
]
ENTRY = st.one_of(
    st.tuples(st.sampled_from(KEYS), st.sampled_from(VALUES) | st.text(max_size=12)).map(
        lambda kv: f"{kv[0]} = {kv[1]}"
    ),
    st.text(max_size=20),
)
SECTION = st.tuples(st.sampled_from(SECTIONS), st.lists(ENTRY, max_size=5)).map(
    lambda sec: "\n".join([f"[{sec[0]}]", *sec[1]])
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(sections=st.lists(SECTION, max_size=4))
def test_arbitrary_text_loads_or_raises_config_error(tmp_path_factory, sections):
    path = tmp_path_factory.mktemp("fuzz") / "experiment.ini"
    path.write_text("\n".join(sections), encoding="utf-8")
    try:
        cfg = load_config(str(path))
    except ConfigError:
        return
    assert isinstance(cfg, ExperimentConfig)
