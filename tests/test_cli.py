import argparse
import textwrap

import pytest

from mcfield import expr as ex
from mcfield.cli import _build_parser, main
from mcfield.lagrangian import EquationSet
from mcfield.unified import UnifiedSystem

from conftest import model_path


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


class TestUnify:
    def test_regular_model_exits_zero(self, capsys):
        assert run_cli("unify", model_path("damped_oscillator")) == 0
        out = capsys.readouterr().out
        assert "status: STABILIZED" in out

    def test_cyclic_model_exits_three(self, capsys):
        assert run_cli("unify", model_path("singular_cyclic")) == 3
        assert "EMPTY-INTERSECTION" in capsys.readouterr().out

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

    def test_unknown_flag_rejected(self, capsys):
        assert run_cli("derive", model_path("damped_oscillator"),
                       "--frobnicate") == 1


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


class TestDeterminism:
    def test_check_output_reproducible(self, capsys):
        run_cli("check", model_path("damped_wave"), "--seed", "7")
        first = capsys.readouterr().out
        run_cli("check", model_path("damped_wave"), "--seed", "7")
        second = capsys.readouterr().out
        assert first == second
