import argparse
import dataclasses
import functools
import inspect
import pathlib
import re
import textwrap

import pytest

from mcfield import cli
from mcfield import expr as ex
from mcfield.cli import _build_parser, main
from mcfield.lagrangian import EquationSet, LagrangianSystem
from mcfield.modelfile import load_model
from mcfield.unified import UnifiedSystem, coefficient_symbol

from conftest import corpus_specs, model_path, patch_statement


def run_cli(*argv):
    return main(list(argv))


class TestDerive:
    def test_lagrangian_latex(self, capsys):
        assert run_cli("derive", model_path("damped_oscillator"),
                       "--formalism", "lagrangian", "--format", "latex") == 0
        out = capsys.readouterr().out
        assert out.startswith("\\begin{align}")
        assert "gamma" in out and "omega" in out

    def test_hamiltonian_text(self, capsys):
        assert run_cli("derive", model_path("damped_oscillator"),
                       "--formalism", "hamiltonian") == 0
        assert "action-balance" in capsys.readouterr().out

    def test_unified_formalism(self, capsys):
        assert run_cli("derive", model_path("velocity_action_cross"),
                       "--formalism", "unified") == 0
        assert "semi-holonomy" in capsys.readouterr().out

    def test_writes_artifact_to_out_dir(self, tmp_path):
        assert run_cli("derive", model_path("damped_oscillator"),
                       "--format", "machine", "--out", str(tmp_path)) == 0
        files = list(tmp_path.iterdir())
        assert len(files) == 1 and files[0].suffix == ".machine"


class TestCheck:
    def test_check_oscillator(self, capsys):
        assert run_cli("check", model_path("damped_oscillator")) == 0
        out = capsys.readouterr().out
        assert "regular" in out and "special multicontact" in out

    def test_check_maxwell_singular(self, capsys):
        assert run_cli("check", model_path("maxwell")) == 0
        out = capsys.readouterr().out
        assert "singular" in out and "rank 6/16" in out

    def test_check_prints_every_note(self, tmp_path, capsys):
        # seed-1 corpus_005's core grows at the third sample point only
        corpus_specs(1, tmp_path)
        assert run_cli("check", str(tmp_path / "corpus_005.model")) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[2].startswith("structure: ")
        assert lines[3].startswith("note: structure ranks varied across samples: ")
        assert len(lines) == 4


class TestUnify:
    def test_regular_model_exits_zero(self, capsys):
        assert run_cli("unify", model_path("damped_oscillator")) == 0
        out = capsys.readouterr().out
        assert "status: STABILIZED" in out

    def test_cyclic_model_exits_three(self, capsys):
        # its el[1] reads 0 = c, but the ladder already ends in
        # EMPTY-INTERSECTION, so no row is named
        spec, _ = load_model(model_path("singular_cyclic"))
        residuals = {e.name: ex.expand(e.residual)
                     for e in LagrangianSystem(spec).herglotz_el_equations()}
        assert residuals["el[1]"] == -1
        assert run_cli("unify", model_path("singular_cyclic")) == 3
        out = capsys.readouterr().out
        assert "status: EMPTY-INTERSECTION" in out and "NO-SOLUTION" not in out

    def test_constant_el_residual_exits_three(self, tmp_path, capsys):
        # seed-42 corpus_003's el[0] reads -2*dy0_0 = 1 - 2*dy0_0, yet its
        # ladder stabilizes
        corpus_specs(42, tmp_path)
        assert run_cli("unify", str(tmp_path / "corpus_003.model")) == 3
        out = capsys.readouterr().out
        assert "status: STABILIZED" in out
        assert out.endswith("\nNO-SOLUTION: el[0] has the constant residual -1\n")

    def test_missing_projected_equation_exits_two(self, capsys, monkeypatch):
        project = UnifiedSystem.project_to_lagrangian

        def drop_last(self):
            # drop the equation that sorts last, so the pairs left still agree
            eqs = project(self)
            eqs.equations.remove(max(eqs.equations, key=lambda e: e.name))
            return eqs

        monkeypatch.setattr(UnifiedSystem, "project_to_lagrangian", drop_last)
        assert run_cli("unify", model_path("damped_oscillator")) == 2
        assert "INCONSISTENT: 2 Euler-Lagrange equations vs 1 projected" in capsys.readouterr().out


def _mutate(mutation: str, uni, e):
    """One row of the printed unified statement, altered by ``mutation``."""
    if mutation == "flip-momentum" and e.name == "momentum[0]":
        return dataclasses.replace(e, rhs=-e.rhs)
    if mutation == "trace-first-slot" and e.name == "momentum[0]":
        return dataclasses.replace(e, lhs=sum(coefficient_symbol("Xp", 0, mu, 0)
                                              for mu in range(uni.m)))
    if mutation == "double-action" and e.name == "action":
        return dataclasses.replace(e, rhs=2 * e.rhs)
    return e


class TestUnifyReadsTheStatement:
    """The ladder and the projection read the printed unified equations, so
    a wrong row there must reach the Euler-Lagrange cross-check."""

    @pytest.mark.parametrize("name", ["damped_wave", "maxwell"])
    @pytest.mark.parametrize("mutation", ["flip-momentum", "trace-first-slot", "double-action"])
    def test_mutated_statement_exits_two(self, capsys, monkeypatch, name, mutation):
        patch_statement(monkeypatch, functools.partial(_mutate, mutation))
        assert run_cli("unify", model_path(name)) == 2
        assert "\nINCONSISTENT: " in capsys.readouterr().out


class TestSimulate:
    def test_oscillator_runs(self, tmp_path, capsys):
        code = run_cli("simulate", model_path("damped_oscillator"),
                       "--t-end", "0.5", "--out", str(tmp_path))
        assert code == 0
        assert (tmp_path / "damped_oscillator.csv").exists()
        assert (tmp_path / "damped_oscillator.run.txt").exists()

    def test_constraints_only_model_exits_one(self, tmp_path, capsys):
        code = run_cli("simulate", model_path("singular_cyclic"),
                       "--out", str(tmp_path))
        assert code == 1

    def test_unknown_parameter_rejected(self, tmp_path):
        code = run_cli("simulate", model_path("damped_oscillator"),
                       "--param", "nope=1", "--out", str(tmp_path))
        assert code == 1

    @pytest.mark.parametrize("flag,value", [
        ("--dt", "0"), ("--dt", "-0.1"), ("--dt", "nan"), ("--dt", "inf"),
        ("--t-end", "-1"), ("--t-end", "nan"), ("--t-end", "inf")])
    def test_bad_step_or_end_time_exits_one(self, tmp_path, capsys, flag, value):
        code = run_cli("simulate", model_path("damped_oscillator"), flag, value,
                       "--out", str(tmp_path))
        assert code == 1
        name = flag[2:].replace("-", "_")
        assert f"{name}={float(value)}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_rational_step_and_end_time(self, tmp_path):
        # --dt and --t-end read 1/200 as the model file and --param do: the
        # float of 0.005, so the same CSV bytes
        written = []
        for dt, t_end in (("1/200", "1/10"), ("0.005", "0.1")):
            out = tmp_path / dt.replace("/", "_")
            assert run_cli("simulate", model_path("damped_oscillator"), "--dt", dt,
                           "--t-end", t_end, "--out", str(out)) == 0
            written.append((out / "damped_oscillator.csv").read_bytes())
        assert written[0] == written[1]

    @pytest.mark.parametrize("value", ["abc", "1/0", "1/x", "1/2/3"])
    def test_bad_step_text_is_usage_error(self, tmp_path, capsys, value):
        code = run_cli("simulate", model_path("damped_oscillator"), "--dt", value,
                       "--out", str(tmp_path))
        assert code == 1
        assert f"argument --dt: invalid float value: {value!r}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_zero_cadence_exits_one(self, tmp_path, capsys):
        text = pathlib.Path(model_path("damped_oscillator")).read_text()
        model = tmp_path / "cadence0.model"
        model.write_text(re.sub(r"cadence: \d+", "cadence: 0", text))
        code = run_cli("simulate", str(model), "--out", str(tmp_path / "out"))
        assert code == 1
        assert "cadence=0" in capsys.readouterr().err

    @pytest.mark.parametrize("n_grid", ["0", "2"])
    def test_grid_too_small_exits_one(self, tmp_path, capsys, n_grid):
        code = run_cli("simulate", model_path("damped_wave"), "--n-grid", n_grid,
                       "--out", str(tmp_path))
        assert code == 1
        assert f"N >= 3 points, got N={n_grid}" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["abc", "1/0", "nan", "inf", "-inf", "1e400"])
    def test_bad_param_value_is_usage_error(self, tmp_path, capsys, value):
        code = run_cli("simulate", model_path("damped_oscillator"),
                       "--param", f"gamma={value}", "--out", str(tmp_path))
        assert code == 1
        assert (f"--param gamma: expected a finite number, got {value!r}"
                in capsys.readouterr().err)
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("key,value", [
        ("dt", "abc"), ("length", "abc"), ("t_end", "1/0"), ("N", "abc"),
        ("cadence", "x"), ("parameters", "{k: 1/0}"),
        # int() would truncate these, and float(True) is 1.0
        ("N", "1.7"), ("cadence", "2.5"), ("dt", "true"), ("N", "true")])
    def test_malformed_simulate_block_is_model_error(self, tmp_path, capsys, key, value):
        model = tmp_path / "bad.model"
        model.write_text(textwrap.dedent(f"""
            m: 1
            n: 1
            parameters:
              k: 1
            lagrangian: 1/2*dy[0,0]^2 - k*y[0]^2
            simulate:
              {key}: {value}
        """))
        for verb in ("derive", "check", "unify", "simulate"):
            assert run_cli(verb, str(model), "--out", str(tmp_path / "out")) == 1
            err = capsys.readouterr().err
            assert f"simulate.{key}" in err and "must be a number" in err, err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["1/0", "log(0)", "sqrt(0-1)", "2+sqrt(0-4)"])
    def test_non_finite_initial_value_is_model_error(self, tmp_path, capsys, value):
        text = pathlib.Path(model_path("damped_oscillator")).read_text()
        model = tmp_path / "bad_initial.model"
        model.write_text(text.replace('y[0]: "1"', f'y[0]: "{value}"'))
        code = run_cli("simulate", str(model), "--out", str(tmp_path / "out"))
        assert code == 1
        err = capsys.readouterr().err
        assert "simulate.initial['y[0]'] must be finite and real" in err, err
        assert not (tmp_path / "out").exists()

    def test_unbound_initial_symbol_is_model_error(self, tmp_path, capsys):
        # `a` is a parameter of the model that the Lagrangian does not read
        # and nothing binds, so only the initial data meets it
        model = tmp_path / "unbound_initial.model"
        model.write_text(textwrap.dedent("""
            m: 1
            n: 1
            parameters:
              k:
              a:
            lagrangian: 1/2*dy[0,0]^2 - k*y[0]^2
            simulate:
              parameters: {k: 1}
              t_end: 0.1
              initial:
                y[0]: "a"
        """))
        code = run_cli("simulate", str(model), "--out", str(tmp_path / "out"))
        assert code == 1
        assert ("initial data for y0 has unresolved symbols ['a']"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_writes_into_working_directory_without_out(self, tmp_path, monkeypatch,
                                                       capsys):
        monkeypatch.chdir(tmp_path)
        assert run_cli("simulate", model_path("damped_oscillator"), "--t-end", "0.05") == 0
        assert sorted(f.name for f in tmp_path.iterdir()) == [
            "damped_oscillator.csv", "damped_oscillator.run.txt"]


class TestExitCodesAndErrors:
    def test_missing_model_file(self, capsys):
        assert run_cli("derive", "/does/not/exist.model") == 1

    def test_bad_index_position_in_message(self, tmp_path, capsys):
        bad = tmp_path / "bad.model"
        bad.write_text(textwrap.dedent("""
            m: 1
            n: 1
            lagrangian: dy[0,9]
        """))
        assert run_cli("derive", str(bad)) == 1
        assert "column" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        (("check", "--samples", "0"), "samples must be at least 1, got 0"),
        (("unify", "--max-generations", "-1"),
         "max_generations must be non-negative, got -1")])
    def test_bad_count_is_usage_error(self, capsys, argv, message):
        verb, *flags = argv
        assert run_cli(verb, model_path("damped_oscillator"), *flags) == 1
        captured = capsys.readouterr()
        assert message in captured.err
        assert "status:" not in captured.out

    @pytest.mark.parametrize("verb", ["derive", "unify"])
    def test_unrenderable_equation_is_an_error_line(self, tmp_path, capsys, verb):
        # exp(log(y)/3) is y^(1/3); the grammar writes only square roots, nested
        model = tmp_path / "cube_root.model"
        model.write_text("m: 1\nn: 1\nlagrangian: 1/2*dy[0,0]^2 - exp(log(y[0])/3)\n")
        assert run_cli(verb, str(model), "--format", "machine") == 1
        assert "error: cannot render expression node" in capsys.readouterr().err

    def test_unknown_flag_rejected(self, capsys):
        assert run_cli("derive", model_path("damped_oscillator"),
                       "--frobnicate") == 1


def _one_error_line(capsys) -> tuple[str, str]:
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    return out, err


class TestOneFailurePolicy:
    """``main`` turns every model, path and usage error into one ``error:``
    line and exit code 1; the verbs raise."""

    @pytest.mark.parametrize("argv", [
        ("derive", "maxwell"), ("check", "maxwell"), ("unify", "damped_oscillator"),
        ("simulate", "damped_oscillator", "--t-end", "0.01")], ids=lambda a: a[0])
    def test_out_path_that_is_a_file(self, tmp_path, capsys, argv):
        taken = tmp_path / "taken"
        taken.write_text("")
        assert run_cli(*argv, "--out", str(taken)) == 1
        out, err = _one_error_line(capsys)
        assert out == "" and "File exists" in err

    @pytest.mark.parametrize("verb", ["derive", "check", "unify", "simulate", "export"])
    def test_model_file_not_utf8(self, tmp_path, capsys, verb):
        model = tmp_path / "latin1.model"
        model.write_bytes("m: 1\nn: 1\nlagrangian: dy[0,0]^2  # \xe9\n".encode("latin-1"))
        argv = ["--from", str(model)] if verb == "export" else []
        assert run_cli(verb, str(model), *argv) == 1
        _, err = _one_error_line(capsys)
        assert f"error: {model}: 'utf-8' codec can't decode" in err

    def test_from_file_not_utf8(self, tmp_path, capsys):
        source = tmp_path / "latin1.machine"
        source.write_bytes(b"\xe9\n")
        assert run_cli("export", "maxwell", "--from", str(source)) == 1
        _, err = _one_error_line(capsys)
        assert f"error: {source}: 'utf-8' codec can't decode" in err

    def test_except_clauses(self):
        # main's two, export's re-raise with the --from path, the --param
        # number parse and the --dt/--t-end one, which argparse reports;
        # _load and the other verbs have none
        def excepts(fn):
            return [line.strip() for line in inspect.getsource(fn).splitlines()
                    if line.strip().startswith("except")]

        source = pathlib.Path(cli.__file__).read_text()
        assert len(re.findall(r"\bexcept\b", source)) == 5
        assert excepts(cli.main) == ["except SystemExit as err:",
                                     "except (ValueError, OSError) as err:"]
        assert excepts(cli._cmd_export) == ["except ValueError as err:"]
        assert excepts(cli._cmd_simulate) == ["except (TypeError, ValueError, ArithmeticError):"]
        assert excepts(cli._real) == ["except (TypeError, ValueError, ArithmeticError):"]
        assert "try:" not in inspect.getsource(cli._load)


class TestUndefinedSamplePoints:
    # L is undefined, or complex, at some random sample points: those
    # points are redrawn rather than failing the check
    @pytest.mark.parametrize("lagrangian,seed", [
        ("1/2*dy[0,0]^2 - log(y[0]) - s[0]/10", "42"),
        ("1/2*dy[0,0]^2 - sqrt(y[0]) - s[0]/10", "42"),
        ("1/2*sqrt(sqrt(2+y[0]))*dy[0,0]^2 - s[0]/10", "42"),
        ("1/2*dy[0,0]^2/(y[0]-1) - s[0]/10", "3")], ids=["log", "sqrt", "root4", "pole"])
    def test_check_exits_zero(self, tmp_path, capsys, lagrangian, seed):
        model = tmp_path / "partial.model"
        model.write_text(f"m: 1\nn: 1\nlagrangian: {lagrangian}\n")
        assert run_cli("check", str(model), "--seed", seed) == 0
        out, err = capsys.readouterr()
        assert err == "" and "structure: special multicontact" in out


# every flag each verb reads, with a value it accepts; paths are relative to
# a working directory holding the damped oscillator's Lagrangian machine file
KEPT_FLAGS = [
    ("derive", "--formalism", "hamiltonian"), ("derive", "--format", "latex"),
    ("derive", "--out", "out"),
    ("check", "--seed", "7"), ("check", "--samples", "4"), ("check", "--out", "out"),
    ("unify", "--format", "machine"), ("unify", "--seed", "7"),
    ("unify", "--max-generations", "2"), ("unify", "--out", "out"),
    ("simulate", "--dt", "0.01"), ("simulate", "--t-end", "0.02"),
    ("simulate", "--n-grid", "4"), ("simulate", "--param", "gamma=1/5"),
    ("simulate", "--out", "out"),
    ("export", "--from", "damped_oscillator.lagrangian.machine"),
    ("export", "--format", "latex"), ("export", "--out", "out"),
]
# flags no verb reads any more, removed rather than silently ignored
REMOVED_FLAGS = [
    ("derive", "--seed", "7"), ("derive", "--samples", "4"),
    ("check", "--format", "latex"),
    ("unify", "--samples", "4"),
    ("simulate", "--format", "latex"), ("simulate", "--seed", "7"),
    ("simulate", "--samples", "4"),
    ("export", "--seed", "7"), ("export", "--samples", "4"),
]


class TestFlags:
    @pytest.fixture
    def workdir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run_cli("derive", model_path("damped_oscillator"), "--format", "machine",
                       "--out", ".") == 0
        return tmp_path

    @staticmethod
    def argv(verb, flag, value):
        """A valid invocation of ``verb`` on the damped oscillator with
        ``flag value`` added (or replacing the default given here)."""
        extra = {"simulate": {"--t-end": "0.05"},
                 "export": {"--from": "damped_oscillator.lagrangian.machine"}}.get(verb, {})
        extra = {**extra, flag: value}
        return [verb, model_path("damped_oscillator"),
                *(tok for item in extra.items() for tok in item)]

    def test_each_verb_has_exactly_its_flags(self):
        sub = next(a for a in _build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        got = {verb: {opt for a in p._actions for opt in a.option_strings} - {"-h", "--help"}
               for verb, p in sub.choices.items()}
        want = {}
        for verb, flag, _ in KEPT_FLAGS:
            want.setdefault(verb, set()).add(flag)
        assert got == want
        assert sum(map(len, got.values())) == 18

    @pytest.mark.parametrize("verb,flag,value", KEPT_FLAGS,
                             ids=[f"{v}{f}" for v, f, _ in KEPT_FLAGS])
    def test_kept_flag_accepted(self, workdir, verb, flag, value, capsys):
        assert run_cli(*self.argv(verb, flag, value)) == 0
        assert "error" not in capsys.readouterr().err

    @pytest.mark.parametrize("verb,flag,value", REMOVED_FLAGS,
                             ids=[f"{v}{f}" for v, f, _ in REMOVED_FLAGS])
    def test_removed_flag_is_usage_error(self, workdir, verb, flag, value, capsys):
        assert run_cli(*self.argv(verb, flag, value)) == 1
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


class TestExportRoundTrip:
    @pytest.mark.parametrize("formalism", ["lagrangian", "hamiltonian"])
    def test_machine_round_trip_equalities(self, tmp_path, formalism, models,
                                           capsys):
        assert run_cli("derive", model_path("damped_oscillator"),
                       "--formalism", formalism, "--format", "machine",
                       "--out", str(tmp_path)) == 0
        machine = tmp_path / f"damped_oscillator.{formalism}.machine"
        assert run_cli("export", model_path("damped_oscillator"),
                       "--from", str(machine), "--format", "machine",
                       "--out", str(tmp_path / "re")) == 0
        re_rendered = (tmp_path / "re" /
                       f"damped_oscillator.{formalism}.machine").read_text()
        spec, _ = models["damped_oscillator"]
        a = EquationSet.from_machine(machine.read_text(), "a", spec.m, spec.n,
                                     parameters=spec.parameters)
        b = EquationSet.from_machine(re_rendered, "b", spec.m, spec.n,
                                     parameters=spec.parameters)
        for ea, eb in zip(a, b):
            assert bool(ex.equal(ea.residual, eb.residual))


class TestSqrtModel:
    def test_machine_format_renders_and_reads_back(self, tmp_path, capsys):
        model = tmp_path / "sqrt_pendulum.model"
        model.write_text(textwrap.dedent("""
            m: 1
            n: 1
            lagrangian: 1/2*dy[0,0]^2 - sqrt(1 + y[0]^2) - s[0]/10
        """))
        assert run_cli("derive", str(model), "--format", "machine",
                       "--out", str(tmp_path)) == 0
        machine = tmp_path / "sqrt_pendulum.lagrangian.machine"
        assert "sqrt(1+y[0]^2)" in machine.read_text()
        assert run_cli("export", str(model), "--from", str(machine),
                       "--format", "machine") == 0
        assert capsys.readouterr().out == machine.read_text()


class TestImaginaryArgumentModel:
    # the parser turns cos and sin of an imaginary argument into cosh and
    # sinh, which print back as cos and sin and sample through math
    @pytest.mark.parametrize("lagrangian", ["1/2*dy[0,0]^2 - cos(sqrt(0-2))*y[0]^2",
                                            "1/2*dy[0,0]^2 - cos(sqrt(0-1)*y[0])"])
    def test_machine_format_checks_and_reads_back(self, tmp_path, capsys, lagrangian):
        model = tmp_path / "hyperbolic.model"
        model.write_text(f"m: 1\nn: 1\nlagrangian: {lagrangian}\n")
        assert run_cli("derive", str(model), "--format", "machine",
                       "--out", str(tmp_path)) == 0
        assert run_cli("check", str(model)) == 0
        machine = tmp_path / "hyperbolic.lagrangian.machine"
        assert "cos(sqrt(-1)*(" in machine.read_text()
        capsys.readouterr()
        assert run_cli("export", str(model), "--from", str(machine),
                       "--format", "machine") == 0
        assert capsys.readouterr().out == machine.read_text()


class TestDeterminism:
    def test_check_output_reproducible(self, capsys):
        run_cli("check", model_path("damped_wave"), "--seed", "7")
        first = capsys.readouterr().out
        run_cli("check", model_path("damped_wave"), "--seed", "7")
        second = capsys.readouterr().out
        assert first == second
