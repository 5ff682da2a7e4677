import textwrap

import pytest
import sympy as sp

from mcfield import expr as ex
from mcfield.chart import ModelSpec, validate_model
from mcfield.cli import main
from mcfield.modelfile import ModelFileError, load_model, parse_model_file


def _write(tmp_path, text):
    p = tmp_path / "m.model"
    p.write_text(textwrap.dedent(text))
    return str(p)


class TestBundledModels:
    def test_all_bundled_models_load(self, models):
        assert set(models) == {"damped_oscillator", "free_scalar", "damped_wave",
                               "coupled_two_field", "velocity_action_cross",
                               "singular_cyclic", "maxwell"}

    def test_maxwell_dimensions_and_parameters(self, models):
        spec, _ = models["maxwell"]
        assert (spec.m, spec.n) == (4, 4)
        assert {"mu0", "J0", "J1", "J2", "J3",
                "gamma0", "gamma1", "gamma2", "gamma3"} <= set(spec.parameters)

    def test_oscillator_spec(self, models):
        spec, sim = models["damped_oscillator"]
        assert (spec.m, spec.n) == (1, 1)
        assert sim.parameters == {"omega": 1.0, "gamma": 0.1}
        assert sim.dt == pytest.approx(1e-3)

    def test_metric_resolution(self, models):
        spec, _ = models["free_scalar"]
        # minkowski metric turned the spatial kinetic term negative
        assert sp.diff(spec.lagrangian, ex.velocity(0, 1), 2) == -1


class TestErrors:
    def test_missing_file(self):
        with pytest.raises(ModelFileError):
            parse_model_file("/nonexistent/path.model")

    def test_index_out_of_range_reports_position(self, tmp_path):
        path = _write(tmp_path, """
            m: 1
            n: 1
            lagrangian: dy[0,9]
        """)
        with pytest.raises(ModelFileError) as err:
            parse_model_file(path)
        assert "9" in str(err.value) and "column" in str(err.value)

    def test_unknown_top_level_key(self, tmp_path):
        path = _write(tmp_path, """
            m: 1
            n: 1
            lagrangian: y[0]
            frobnicate: 1
        """)
        with pytest.raises(ModelFileError, match="unknown keys"):
            parse_model_file(path)

    def test_bad_metric_name(self, tmp_path):
        path = _write(tmp_path, """
            m: 1
            n: 1
            metric: hyperbolic
            lagrangian: y[0]
        """)
        with pytest.raises(ModelFileError, match="metric"):
            parse_model_file(path)

    def test_undeclared_identifier_in_lagrangian(self, tmp_path):
        path = _write(tmp_path, """
            m: 1
            n: 1
            lagrangian: kappa * y[0]
        """)
        with pytest.raises(ModelFileError):
            parse_model_file(path)

    def test_bad_dimensions(self, tmp_path):
        path = _write(tmp_path, """
            m: 0
            n: 1
            lagrangian: "0"
        """)
        with pytest.raises(ModelFileError, match="positive integers"):
            parse_model_file(path)

    def test_explicit_metric_and_parameter_values(self, tmp_path):
        path = _write(tmp_path, """
            m: 1
            n: 1
            metric: [["1"]]
            parameters:
              k: 2/3
            lagrangian: k * g[0,0] * dy[0,0]^2
        """)
        spec = parse_model_file(path)
        assert spec.lagrangian == sp.Rational(2, 3) * ex.velocity(0, 0) ** 2

    def test_simulate_initial_key_must_be_coordinate(self, tmp_path):
        path = _write(tmp_path, """
            m: 1
            n: 1
            lagrangian: dy[0,0]^2
            simulate:
              initial:
                "y[0]+1": "0"
        """)
        with pytest.raises(ModelFileError, match="single"):
            load_model(path)

    @pytest.mark.parametrize("name", ["y0", "dy0_0", "s0", "pext"])
    def test_parameter_named_like_a_coordinate(self, tmp_path, name):
        path = _write(tmp_path, f"""
            m: 1
            n: 1
            parameters: {{{name}: }}
            lagrangian: 1/2*dy[0,0]^2 - {name}*y[0]
        """)
        with pytest.raises(ModelFileError, match=f"parameter '{name}' has the name of the "
                                                 "coordinate"):
            load_model(path)
        # a spec built in code is held to the same rule
        sym = sp.Symbol(name)
        spec = ModelSpec("t", 1, 1, ex.velocity(0, 0) ** 2 / 2 - sym * ex.field(0), {name: sym})
        assert [i.code for i in validate_model(spec).issues] == ["parameter-is-coordinate"]

    def test_simulate_parameter_must_be_declared(self, tmp_path):
        path = _write(tmp_path, """
            m: 1
            n: 1
            lagrangian: 1/2*dy[0,0]^2 - 1/2*y[0]^2
            simulate:
              parameters: {y0: 5}
        """)
        with pytest.raises(ModelFileError, match=r"simulate.parameters\['y0'\]: unknown parameter"):
            load_model(path)

    @pytest.mark.parametrize("verb", ["derive", "check", "unify"])
    def test_non_finite_lagrangian_is_an_error_line(self, tmp_path, capsys, verb):
        # 1/(1-1) is zoo: derive used to print it, check to fail in the SVD
        # and unify to raise
        path = _write(tmp_path, """
            m: 1
            n: 1
            lagrangian: 1/2*dy[0,0]^2 - y[0]/(1-1)
        """)
        assert main([verb, path]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "[non-finite]" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("value", [sp.nan, sp.zoo, sp.oo, -sp.oo],
                             ids=["nan", "zoo", "oo", "-oo"])
    def test_non_finite_spec_is_rejected(self, value):
        spec = ModelSpec("t", 1, 1, ex.velocity(0, 0) ** 2 / 2 + value * ex.field(0))
        assert [i.code for i in validate_model(spec).issues] == ["non-finite"]

    def test_imaginary_unit_is_finite(self):
        # the grammar renders I as sqrt(-1)
        spec = ModelSpec("t", 1, 1, ex.velocity(0, 0) ** 2 / 2 + sp.I * ex.field(0))
        assert validate_model(spec).ok

    @pytest.mark.parametrize("name", ["sub/dir", "../escaped", "back\\slash", ".", ".."])
    def test_name_must_be_a_plain_file_name(self, tmp_path, name):
        path = _write(tmp_path, f"""
            name: '{name}'
            m: 1
            n: 1
            lagrangian: 1/2*dy[0,0]^2
        """)
        with pytest.raises(ModelFileError, match="name must be a plain file name"):
            load_model(path)

    def test_escaping_name_writes_nothing(self, tmp_path, capsys):
        path = _write(tmp_path, """
            name: ../escaped
            m: 1
            n: 1
            lagrangian: 1/2*dy[0,0]^2
        """)
        assert main(["derive", path, "--out", str(tmp_path / "D")]) == 1
        assert "plain file name" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["m.model"]

    def test_name_is_read_as_text(self, tmp_path):
        path = _write(tmp_path, """
            name: 42
            m: 1
            n: 1
            lagrangian: 1/2*dy[0,0]^2
        """)
        assert load_model(path)[0].name == "42"
