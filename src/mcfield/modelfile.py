"""Model-file parsing.

A model file is a YAML document describing one field theory:

.. code-block:: yaml

    name: damped_oscillator
    m: 1                      # spacetime dimension
    n: 1                      # number of field components
    metric: euclidean         # euclidean | minkowski | explicit m-by-m array
    parameters:
      omega:                  # free parameter (no value)
      gamma: 1/10             # fixed rational or expression value
    lagrangian: |
      1/2*dy[0,0]^2 - 1/2*omega^2*y[0]^2 - gamma*s[0]
    labels: [q]
    simulate:                 # optional block, used by `mcfield simulate`
      N: 256
      length: 6.283185307179586
      dt: 1/1000
      t_end: 10.0
      cadence: 10
      initial:
        y[0]: "1"
        dy[0,0]: "0"

Expressions use the grammar of :mod:`mcfield.expr`; inside the Lagrangian
the token ``g[mu,nu]`` resolves against the declared metric and declared
parameter names resolve to their symbols (free) or values (fixed).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from pathlib import Path
from typing import Optional, Union

import sympy as sp
import yaml

from . import expr as ex
from .chart import ModelSpec, validate_model

__all__ = ["ModelFileError", "SimulateConfig", "load_model", "parse_model_file"]


class ModelFileError(ValueError):
    """Raised on any structural or expression error in a model file."""

    def __init__(self, message: str, path: Optional[str] = None):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


@dataclass
class SimulateConfig:
    """Numerical run settings from a model file's ``simulate`` block."""

    N: int = 1
    length: float = 1.0
    dt: float = 1e-3
    t_end: float = 1.0
    cadence: int = 1
    monitors: tuple[str, ...] = ("action_balance", "energy")
    initial: dict[str, sp.Expr] = dc_field(default_factory=dict)
    parameters: dict[str, float] = dc_field(default_factory=dict)


def _metric_matrix(value, m: int, path: str) -> Optional[tuple[tuple[sp.Expr, ...], ...]]:
    if value is None:
        return None
    if isinstance(value, str):
        kind = value.strip().lower()
        if kind == "euclidean":
            return tuple(tuple(sp.Integer(1 if i == j else 0) for j in range(m))
                         for i in range(m))
        if kind == "minkowski":
            return tuple(tuple(sp.Integer((1 if i == 0 else -1) if i == j else 0)
                               for j in range(m)) for i in range(m))
        raise ModelFileError(f"unknown metric {value!r} (expected 'euclidean', "
                             f"'minkowski', or an explicit {m}x{m} array)", path)
    if (not isinstance(value, list) or len(value) != m
            or any(not isinstance(row, list) or len(row) != m for row in value)):
        raise ModelFileError(f"metric must be an {m}x{m} array", path)
    rows = []
    for row in value:
        rows.append(tuple(_scalar_expr(entry, m, path, what="metric entry")
                          for entry in row))
    return tuple(rows)


def _scalar_expr(value, m: int, path: str, parameters=None, what="value") -> sp.Expr:
    """Parse a YAML scalar (number or grammar text) into an expression."""
    if isinstance(value, bool) or value is None:
        raise ModelFileError(f"{what} must be a number or expression, got {value!r}", path)
    if isinstance(value, int):
        return sp.Integer(value)
    if isinstance(value, float):
        return sp.Rational(value).limit_denominator(10 ** 12)
    if isinstance(value, str):
        try:
            return ex.parse_expr(value, m=m, n=0, parameters=parameters)
        except ex.ParseError as err:
            raise ModelFileError(f"{what}: {err}", path) from err
    raise ModelFileError(f"{what} must be a number or expression, got {type(value).__name__}", path)


def load_model(path: Union[str, Path]) -> tuple[ModelSpec, SimulateConfig]:
    """Read a model file and return its validated spec and simulate config."""
    path = str(path)
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise ModelFileError(str(err)) from None
    except UnicodeDecodeError as err:
        raise ModelFileError(str(err), path) from None
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as err:
        raise ModelFileError(f"not valid YAML: {err}", path) from None
    if not isinstance(doc, dict):
        raise ModelFileError("top level must be a mapping", path)

    known = {"name", "m", "n", "metric", "parameters", "lagrangian",
             "labels", "simulate"}
    extra = set(doc) - known
    if extra:
        raise ModelFileError(f"unknown keys: {sorted(extra)}", path)
    for key in ("m", "n", "lagrangian"):
        if key not in doc:
            raise ModelFileError(f"missing required key {key!r}", path)
    m, n = doc["m"], doc["n"]
    if not isinstance(m, int) or not isinstance(n, int) or m < 1 or n < 1:
        raise ModelFileError("m and n must be positive integers", path)
    name = str(doc.get("name") or Path(path).stem)
    if "/" in name or "\\" in name or name in (".", ".."):
        raise ModelFileError(f"name must be a plain file name, got {name!r}", path)

    metric = _metric_matrix(doc.get("metric"), m, path)

    parameters: dict[str, sp.Symbol] = {}
    raw_params = doc.get("parameters") or {}
    if not isinstance(raw_params, dict):
        raise ModelFileError("parameters must be a mapping", path)
    resolved: dict[str, sp.Expr] = {}
    for pname, pval in raw_params.items():
        if not isinstance(pname, str) or not pname.isidentifier():
            raise ModelFileError(f"bad parameter name {pname!r}", path)
        sym = sp.Symbol(pname)
        parameters[pname] = sym
        if pval is None:
            resolved[pname] = sym
        else:
            value = _scalar_expr(pval, m, path, parameters=resolved,
                                 what=f"parameter {pname!r}")
            resolved[pname] = value

    try:
        lagrangian = ex.parse_expr(doc["lagrangian"], m=m, n=n,
                                   parameters=resolved, metric=metric)
    except ex.ParseError as err:
        raise ModelFileError(f"lagrangian: {err}", path) from err

    labels = doc.get("labels") or ()
    if labels and (not isinstance(labels, list)
                   or any(not isinstance(s, str) for s in labels)):
        raise ModelFileError("labels must be a list of strings", path)

    spec = ModelSpec(name=name, m=m, n=n, lagrangian=lagrangian,
                     parameters=parameters, metric=metric, field_labels=tuple(labels))
    report = validate_model(spec)
    if not report.ok:
        raise ModelFileError(str(report), path)

    sim = _simulate_config(doc.get("simulate"), m, n, resolved, path)
    return spec, sim


def _simulate_config(block, m: int, n: int, parameters, path: str) -> SimulateConfig:
    if block is None:
        return SimulateConfig()
    if not isinstance(block, dict):
        raise ModelFileError("simulate block must be a mapping", path)
    known = {"N", "length", "dt", "t_end", "cadence", "monitors", "initial",
             "parameters"}
    extra = set(block) - known
    if extra:
        raise ModelFileError(f"simulate: unknown keys {sorted(extra)}", path)
    cfg = SimulateConfig()
    for key, kind in (("N", int), ("length", float), ("dt", float), ("t_end", float),
                      ("cadence", int)):
        if key in block:
            setattr(cfg, key, _setting(block[key], kind, key, path))
    if "monitors" in block:
        mons = block["monitors"]
        if not isinstance(mons, list):
            raise ModelFileError("simulate.monitors must be a list", path)
        cfg.monitors = tuple(str(s) for s in mons)
    initial = block.get("initial") or {}
    if not isinstance(initial, dict):
        raise ModelFileError("simulate.initial must be a mapping", path)
    parsed: dict[str, sp.Expr] = {}
    for key, val in initial.items():
        try:
            target = ex.parse_expr(str(key), m=m, n=n)
        except ex.ParseError as err:
            raise ModelFileError(f"simulate.initial key {key!r}: {err}", path) from err
        if not target.is_Symbol:
            raise ModelFileError(f"simulate.initial key {key!r} must name a single "
                                 "coordinate (y[A], dy[A,0] or s[mu])", path)
        what = f"simulate.initial[{key!r}]"
        value = _scalar_expr(val, m, path, parameters=parameters, what=what)
        if value.has(sp.nan, sp.zoo, sp.oo, -sp.oo, sp.I):
            raise ModelFileError(f"{what} must be finite and real, got {value}", path)
        parsed[str(target)] = value
    cfg.initial = parsed
    raw_vals = block.get("parameters") or {}
    if not isinstance(raw_vals, dict):
        raise ModelFileError("simulate.parameters must be a mapping", path)
    for pname, pval in raw_vals.items():
        what = f"simulate.parameters[{pname!r}]"
        if str(pname) not in parameters:
            raise ModelFileError(f"{what}: unknown parameter", path)
        value = _scalar_expr(pval, m, path, what=what)
        try:
            cfg.parameters[str(pname)] = float(value)
        except TypeError:
            raise ModelFileError(f"{what} must be a number, got {value}", path) from None
    return cfg


def _setting(value, kind: type, key: str, path: str):
    """A simulate setting as ``kind``; a string is read as an exact rational
    first (``dt: 1/1000``), and an ``int`` setting must be integral."""
    try:
        number = sp.Rational(value) if isinstance(value, str) else value
        if isinstance(value, bool) or kind is int and number != int(number):
            raise ValueError
        return kind(number)
    except (TypeError, ValueError, ArithmeticError):
        whole = " with no fractional part" if kind is int else ""
        raise ModelFileError(f"simulate.{key} must be a number{whole}, got {value!r}",
                             path) from None


def parse_model_file(path: Union[str, Path]) -> ModelSpec:
    """Parse a model file, returning only the spec (simulate block ignored)."""
    return load_model(path)[0]
