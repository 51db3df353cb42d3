import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openqsl import cli, config, models, qsl
from openqsl.config import ExperimentConfig, build_model, load_config, sweep_columns
from openqsl.dynamics import LindbladModel
from openqsl.errors import ConfigError

# Parses as a JSON integer but overflows a float.
BIG_INT = "9" * 400
# A qubit with one decay channel, as inline matrices of [re, im] pairs.
INLINE_MODEL = """[model]
hamiltonian = [[[1, 0], [0.3, 0]], [[0.3, 0], [-1, 0]]]
lindblad_ops = [[[[0, 0], [0.5, 0]], [[0, 0], [0, 0]]]]
psi0 = [[0.6, 0], [0.8, 0]]
"""


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
            # JSON booleans are not numbers, though float() and numpy read them as 1 and 0
            ("[sweep]\nname = gamma\nvalues = [true, 2.0, false]\n", "[sweep] values:"),
            ("[model]\nhamiltonian = [[[true, 0]]]\npsi0 = [[1, 0]]\n", "[model] hamiltonian:"),
            ("[model]\nhamiltonian = [[[1, 0]]]\npsi0 = [[1, false]]\n", "[model] psi0:"),
            (
                "[model]\nhamiltonian = [[[1, 0]]]\nlindblad_ops = [[[[0, true]]]]\npsi0 = [[1, 0]]\n",
                "[model] lindblad_ops[0]:",
            ),
            # nor are JSON strings, though float() and numpy read "2.5" as 2.5
            ("[sweep]\nname = gamma\nvalues = [\"2.5\", 1]\n", "[sweep] values:"),
            ("[model]\nhamiltonian = [[[\"1.5\", \"0\"]]]\npsi0 = [[1, 0]]\n", "[model] hamiltonian:"),
            ("[model]\nhamiltonian = [[[1, 0]]]\npsi0 = [[\"1\", 0]]\n", "[model] psi0:"),
            (
                "[model]\nhamiltonian = [[[1, 0]]]\nlindblad_ops = [[[[0, \"1\"]]]]\npsi0 = [[1, 0]]\n",
                "[model] lindblad_ops[0]:",
            ),
            ("[output]\nformat = xml\n", "[output] format:"),
            ("[model]\nhamiltonian = [[[1, 0]]]\n", "[model] psi0:"),
            ("[model]\nhamiltonian = [[[1, 0]]]\npsi0 = [[1, 0], [0, 0]]\n", "[model] psi0:"),
            ("[model]\nhamiltonian = [[[NaN, 0]]]\npsi0 = [[1, 0]]\n", "[model] hamiltonian:"),
            ("[model]\npsi0 = [[0, 0], [1, 0]]\n", "[model] hamiltonian:"),
            ("[model]\nlindblad_ops = [[[[1, 0]]]]\n", "[model] hamiltonian:"),
            ("[model]\npreset = dephasing\npsi0 = [[0, 0], [1, 0]]\n", "[model] hamiltonian:"),
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
            # two errors in one file: the first in reading order is reported
            ("[sweep]\nname = gamma\n[output]\nformat = xml\n", "[sweep] values:"),
            ("[output]\ncolour = 1\n[model]\nhamiltonian = [[1, 0]\n", "[model] hamiltonian:"),
            ("[integrator]\ndt = 0\n[parameters]\ngama = 1\n", "[parameters] gama:"),
            ("[model]\npsi0 = [[1, 0]]\n[parameters]\ngamma = 2\n", "[model] hamiltonian:"),
        ],
    )
    def test_message_starts_with_section_and_key(self, tmp_path, text, where):
        with pytest.raises(ConfigError) as exc:
            load(tmp_path, text)
        assert str(exc.value).startswith(where)

    def test_psi0_without_hamiltonian_exits_one(self, tmp_path, capsys):
        # it used to be dropped silently: the emission preset's row, exit 0
        path = tmp_path / "experiment.ini"
        path.write_text("[model]\npsi0 = [[0, 0], [1, 0]]\n", encoding="utf-8")
        out = tmp_path / "out.csv"
        assert cli.main(["qsl", "--config", str(path), "--output", str(out)]) == 1
        assert capsys.readouterr().err == (
            "config error: [model] hamiltonian: required when psi0/lindblad_ops is given\n"
        )
        assert not out.exists()

    def test_undecodable_file(self, tmp_path):
        path = tmp_path / "experiment.ini"
        path.write_bytes(b"[parameters]\ngamma = \xff\n")
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(str(path))

    def test_percent_sign_is_not_interpolation(self, tmp_path):
        cfg = load(tmp_path, "[output]\npath = run_100%.csv\n")
        assert cfg.output_path == "run_100%.csv"


class TestSharedParser:
    """One INI parser reads every file of the process; no file's sections
    or [DEFAULT] keys reach the next."""

    def test_sweep_does_not_reach_the_next_file(self, tmp_path):
        swept = load(tmp_path, "[sweep]\nname = gamma\nvalues = 1, 2\n")
        assert (swept.sweep_name, swept.sweep_values) == ("gamma", [1.0, 2.0])
        cfg = load(tmp_path, "[parameters]\ngamma = 3\n")
        assert (cfg.sweep_name, cfg.sweep_values, cfg.parameters) == (None, None, {"gamma": 3.0})

    def test_syntax_error_leaves_nothing_behind(self, tmp_path):
        good = "[model]\npreset = dephasing\n[parameters]\nomega = 2\n"
        alone = load(tmp_path, good).echo()
        with pytest.raises(ConfigError, match="^config syntax error in "):
            load(tmp_path, "[parameters]\ngamma = 3\n[sweep]\nname = gamma\n[parameters]\n")
        assert load(tmp_path, good).echo() == alone

    def test_default_keys_reach_every_section_of_their_file_only(self, tmp_path):
        cfg = load(tmp_path, "[DEFAULT]\ngamma = 2\n[parameters]\nomega = 3\n")
        assert cfg.parameters == {"gamma": 2.0, "omega": 3.0}
        with pytest.raises(ConfigError, match=r"^\[model\] gamma: unknown key$"):
            load(tmp_path, "[DEFAULT]\ngamma = 2\n[model]\npreset = dephasing\n")
        cfg = load(tmp_path, "[model]\npreset = dephasing\n[parameters]\nomega = 3\n")
        assert (cfg.preset, cfg.parameters) == ("dephasing", {"omega": 3.0})


class TestInlineModel:
    """load_config builds and checks an inline model once, and every
    command reads that model."""

    @pytest.mark.parametrize("command", ["qsl", "evolve", "qfi"])
    def test_command_builds_one_model(self, tmp_path, monkeypatch, command):
        built, post_init = [], LindbladModel.__post_init__

        def counted(model):
            built.append(model)
            post_init(model)

        monkeypatch.setattr(LindbladModel, "__post_init__", counted)
        path = tmp_path / "inline.ini"
        path.write_text(INLINE_MODEL + "[integrator]\nhorizon = 0.1\n", encoding="utf-8")
        argv = [command, "--config", str(path), "--output", str(tmp_path / "out.csv")]
        assert cli.main(argv) == 0
        assert len(built) == 1

    def test_build_model_returns_it(self, tmp_path):
        cfg = load(tmp_path, INLINE_MODEL)
        assert build_model(cfg) is cfg.inline

    @pytest.mark.parametrize(
        "extra, parameters, sweep",
        [
            ("[parameters]\ngamma = 2\n", {"gamma": 2.0}, None),
            ("[sweep]\nname = theta\nvalues = 1\n", {}, "theta"),
        ],
    )
    def test_model_parameters_beside_it_load(self, tmp_path, extra, parameters, sweep):
        # fig1a, fig1b and scaling read these keys themselves; the commands
        # that read the model reject them (tests/test_cli.py)
        cfg = load(tmp_path, INLINE_MODEL + extra)
        assert cfg.inline is not None
        assert (cfg.parameters, cfg.sweep_name) == (parameters, sweep)


class TestSweepColumns:
    @pytest.mark.parametrize(
        "preset, fixed, columns",
        [
            ("dephasing", {"theta": 0.7}, {"omega": [0.01, 0.01, 4.0], "gamma": [0.0, 3.5, 3.5]}),
            ("dephasing", {"gamma": 0.3}, {"theta": [0.1, 2.0, 0.1, 3.0]}),
            ("product", {"omega": 1.7}, {"n": [1.0, 3.0, 2.0, 3.0]}),
            ("emission", {"gamma": 2.5}, {"theta_target": [0.2, 0.9]}),
        ],
    )
    def test_rows_are_the_closed_form_at_each_row(self, preset, fixed, columns):
        cfg = ExperimentConfig(preset=preset, parameters=fixed)
        got = sweep_columns(cfg, columns)
        rows = len(next(iter(columns.values())))
        assert [len(column) for column in got] == [rows] * 4
        for i in range(rows):
            row = {**fixed, **{key: values[i] for key, values in columns.items()}}
            defaults = models.PRESETS[preset].defaults
            params = [row.get(key, default) for key, default in defaults.items()]
            delta_h0, g_term, e_term = models.PRESETS[preset].terms(*params)
            assert [column[i] for column in got] == [
                delta_h0, g_term, e_term, qsl.v_coefficient(delta_h0, g_term)
            ]

    @pytest.mark.parametrize(
        "preset, fixed, columns, row",
        [
            ("product", {"gamma": 0.0, "theta": 1.5707963267948966}, {"omega": [1.0, 1.1e308]}, 1),
            ("dephasing", {"theta": 0.0, "gamma": 0.0}, {"omega": [1.8e308, 1.0]}, 0),
            ("dephasing", {"theta": 1.5}, {"gamma": [1.0, 2.0, 1.5e308]}, 2),
        ],
    )
    def test_an_overflowing_speed_names_its_row(self, preset, fixed, columns, row):
        # delta_h0 and g_term are finite, but v = 2 delta_h0 + sqrt(2) g_term is not
        cfg = ExperimentConfig(preset=preset, parameters=fixed)
        with pytest.raises(ConfigError, match=f"^\\[parameters\\]: v = .* overflows a float at row {row} "):
            sweep_columns(cfg, columns)

    def test_inline_model_rows_are_its_quantities(self, tmp_path):
        cfg = load(tmp_path, INLINE_MODEL)
        q = qsl.compute_quantities(*build_model(cfg))
        want = [q.delta_h0, q.g_term, q.e_term, q.v_coeff]
        assert [list(column) for column in zip(*sweep_columns(cfg, {"theta_target": [0.2, 0.9]}))] == [
            want, want
        ]


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
    # The shared parser last read the previous example; a fresh one reads
    # the file on its own, and both must load it the same way.
    path = tmp_path_factory.mktemp("fuzz") / "experiment.ini"
    path.write_text("\n".join(sections), encoding="utf-8")
    after_previous = _outcome(str(path))
    config._ini_parser.cache_clear()
    assert _outcome(str(path)) == after_previous


def _outcome(path: str):
    """load_config's ConfigError message, or what the config holds."""
    try:
        cfg = load_config(path)
    except ConfigError as exc:
        return str(exc)
    assert isinstance(cfg, ExperimentConfig)
    model, psi0 = cfg.inline or (None, None)
    arrays = [model.hamiltonian, psi0, *model.lindblad_ops] if model else []
    return (cfg.echo(), cfg.output_path, cfg.output_format, [a.tolist() for a in arrays])
