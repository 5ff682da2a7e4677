"""Symbolic expression layer.

Expressions are sympy objects built over a fixed vocabulary of coordinate
symbols (base coordinates, fields, multivelocities, multimomenta, action
coordinates, plus formal jet-gradient symbols used when equations of motion
are written out).  Rational constants are kept exact; elementary function
kernels (sin, cos, exp, log, sqrt) are treated as opaque: nothing in this
module rewrites trigonometric identities, so ``sin(u)**2 + cos(u)**2`` does
*not* normalize to 1 (it is detected as numerically equal to 1 instead).

Every partial derivative in the package is taken by :func:`diff`.  It
applies the sum, product and power rules that ``sympy.diff`` dispatches to
(``Add._eval_derivative``, ``Mul._eval_derivative_n_times``,
``Pow._eval_derivative``) itself, in their order, so it returns the very
trees ``sympy.diff`` does; it skips ``Derivative``, whose per-node
``is_zero`` assumptions query changes no result but dominates the cost of
differentiating a Lagrangian.  Every expansion is taken by :func:`expand`,
which returns a tree that is already a sum of monomials as it is, multiplies
any other polynomial out itself into the tree ``sympy.expand`` builds, and
hands the rest to ``sympy.expand``.  Every exact matrix (``exact_cancel``,
``exact_rank``, ``exact_nullspace``, ``exact_pinv``) is built by
``_domain_matrix`` from the same monomial dicts, into the ``DomainMatrix``
sympy's ``from_Matrix`` would build.

The text grammar
----------------

::

    expr    := term (('+'|'-') term)*
    term    := factor (('*'|'/') factor)*
    factor  := '-' factor | power
    power   := atom ('^' factor)?          # integer exponents only
    atom    := INT | coord | func '(' expr ')' | param | '(' expr ')'
    coord   := 'x[mu]' | 'y[A]' | 'dy[A,mu]' | 'p[A,mu]' | 's[mu]' | 'pext'
             | 'd2y[A,mu,nu]' | 'ds[nu,mu]' | 'dp[A,mu,nu]' | 'g[mu,nu]'
    func    := 'sin' | 'cos' | 'exp' | 'log' | 'sqrt'

Indices are 0-based.  ``g[mu,nu]`` denotes an entry of the user-supplied
(inverse) metric array and is substituted at parse time.
"""

from __future__ import annotations

import cmath
import math
import random
import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np
import sympy as sp
from sympy.polys.matrices import DomainMatrix
from sympy.polys.polyutils import _sort_gens

__all__ = [
    "Role",
    "ExprError",
    "ParseError",
    "coord",
    "base",
    "field",
    "velocity",
    "momentum",
    "action",
    "extended_momentum",
    "second_jet",
    "action_grad",
    "momentum_grad",
    "role_of",
    "indices_of",
    "parse_expr",
    "to_grammar",
    "diff",
    "gradient",
    "expand",
    "Verdict",
    "EqualityResult",
    "equal",
    "random_rational_point",
    "admissible_points",
    "sampled",
    "RANK_TOL",
    "numeric_rank",
    "generic",
    "exact_rank",
    "exact_nullspace",
    "exact_pinv",
    "exact_cancel",
    "exact_product",
]

_FUNCS = {"sin": sp.sin, "cos": sp.cos, "exp": sp.exp, "log": sp.log, "sqrt": sp.sqrt}


class Role(Enum):
    """What a coordinate symbol stands for."""

    BASE = "base"            # x^mu
    FIELD = "field"          # y^A
    VELOCITY = "velocity"    # y^A_mu
    MOMENTUM = "momentum"    # p^mu_A
    ACTION = "action"        # s^mu
    EXTENDED = "extended"    # p (extended momentum)
    SECOND_JET = "second_jet"      # formal  d^2 y^A / dx^mu dx^nu  (mu <= nu)
    ACTION_GRAD = "action_grad"    # formal  d s^nu / dx^mu
    MOMENTUM_GRAD = "momentum_grad"  # formal  d p^mu_A / dx^nu


class ExprError(ValueError):
    pass


class ParseError(ExprError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# coordinate symbols

# The one coordinate vocabulary: role -> (grammar name, index ranges), where
# each index ranges over the fields ("n") or the base directions ("m").
_VOCAB = {
    Role.BASE: ("x", "m"),
    Role.FIELD: ("y", "n"),
    Role.VELOCITY: ("dy", "nm"),
    Role.MOMENTUM: ("p", "nm"),
    Role.ACTION: ("s", "m"),
    Role.EXTENDED: ("pext", ""),
    Role.SECOND_JET: ("d2y", "nmm"),
    Role.ACTION_GRAD: ("ds", "mm"),
    Role.MOMENTUM_GRAD: ("dp", "nmm"),
}
_INDEXED = {name: role for role, (name, kinds) in _VOCAB.items() if kinds}

_COORD_RE = re.compile(r"^(%s)((?:_?\d+)+)$" % "|".join(_INDEXED))


def coord(role: Role, *indices: int) -> sp.Symbol:
    """Canonical sympy symbol for a coordinate of the given role."""
    name, kinds = _VOCAB[role]
    if len(indices) != len(kinds):
        if role is Role.EXTENDED:
            raise ExprError("extended momentum carries no indices")
        raise ExprError(f"{role.value} takes {len(kinds)} indices, got {len(indices)}")
    if any(i < 0 for i in indices):
        raise ExprError("coordinate indices must be non-negative")
    if role is Role.SECOND_JET and indices[1] > indices[2]:
        # second jets are symmetric; keep the sorted representative
        indices = (indices[0], indices[2], indices[1])
    return sp.Symbol(name + "_".join(str(i) for i in indices))


def base(mu: int) -> sp.Symbol:
    return coord(Role.BASE, mu)


def field(A: int) -> sp.Symbol:
    return coord(Role.FIELD, A)


def velocity(A: int, mu: int) -> sp.Symbol:
    return coord(Role.VELOCITY, A, mu)


def momentum(A: int, mu: int) -> sp.Symbol:
    return coord(Role.MOMENTUM, A, mu)


def action(mu: int) -> sp.Symbol:
    return coord(Role.ACTION, mu)


def extended_momentum() -> sp.Symbol:
    return coord(Role.EXTENDED)


def second_jet(A: int, mu: int, nu: int) -> sp.Symbol:
    return coord(Role.SECOND_JET, A, mu, nu)


def action_grad(nu: int, mu: int) -> sp.Symbol:
    """Formal symbol for the derivative of s^nu along x^mu."""
    return coord(Role.ACTION_GRAD, nu, mu)


def momentum_grad(A: int, mu: int, nu: int) -> sp.Symbol:
    """Formal symbol for the derivative of p^mu_A along x^nu."""
    return coord(Role.MOMENTUM_GRAD, A, mu, nu)


def role_of(sym: sp.Symbol) -> Optional[Role]:
    """Role of a coordinate symbol, or None for parameters."""
    name = sym.name
    if name == "pext":
        return Role.EXTENDED
    m = _COORD_RE.match(name)
    if not m:
        return None
    role = _INDEXED[m.group(1)]
    if len(_split_indices(m.group(2))) == len(_VOCAB[role][1]):
        return role
    return None


def indices_of(sym: sp.Symbol) -> tuple[int, ...]:
    m = _COORD_RE.match(sym.name)
    if not m:
        return ()
    return _split_indices(m.group(2))


def _split_indices(tail: str) -> tuple[int, ...]:
    return tuple(int(t) for t in tail.lstrip("_").split("_"))


# ---------------------------------------------------------------------------
# parsing

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|(.))")

@dataclass
class _Token:
    kind: str  # 'int' | 'name' | 'op' | 'end'
    value: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        m = _TOKEN_RE.match(text, i)
        assert m is not None
        start_col = col + (m.start(m.lastindex) - i)
        tok = m.group(m.lastindex)
        if m.group(1):
            tokens.append(_Token("int", tok, line, start_col))
        elif m.group(2):
            tokens.append(_Token("name", tok, line, start_col))
        else:
            if tok not in "+-*/^()[],":
                raise ParseError(f"unexpected character {tok!r}", line, start_col)
            tokens.append(_Token("op", tok, line, start_col))
        col += m.end() - i
        i = m.end()
    tokens.append(_Token("end", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], m: int, n: int,
                 parameters: Mapping[str, sp.Expr], metric):
        self.toks = tokens
        self.pos = 0
        self.m = m
        self.n = n
        self.parameters = parameters
        self.metric = metric

    def peek(self) -> _Token:
        return self.toks[self.pos]

    def next(self) -> _Token:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect(self, value: str) -> _Token:
        tok = self.next()
        if tok.value != value:
            raise ParseError(f"expected {value!r}, found {tok.value!r}", tok.line, tok.col)
        return tok

    def parse(self) -> sp.Expr:
        e = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected trailing token {tok.value!r}", tok.line, tok.col)
        return e

    def expr(self) -> sp.Expr:
        e = self.term()
        while self.peek().value in ("+", "-"):
            op = self.next().value
            rhs = self.term()
            e = e + rhs if op == "+" else e - rhs
        return e

    def term(self) -> sp.Expr:
        e = self.factor()
        while self.peek().value in ("*", "/"):
            op = self.next().value
            rhs = self.factor()
            if op == "*":
                e = e * rhs
            else:
                e = e / rhs
        return e

    def factor(self) -> sp.Expr:
        if self.peek().value == "-":
            self.next()
            return -self.factor()
        return self.power()

    def power(self) -> sp.Expr:
        e = self.atom()
        if self.peek().value == "^":
            tok = self.next()
            exponent = self.factor()
            if not exponent.is_Integer:
                raise ParseError("exponent must be an integer", tok.line, tok.col)
            return e ** exponent
        return e

    def atom(self) -> sp.Expr:
        tok = self.next()
        if tok.kind == "int":
            return sp.Integer(int(tok.value))
        if tok.value == "(":
            e = self.expr()
            self.expect(")")
            return e
        if tok.kind != "name":
            raise ParseError(f"unexpected token {tok.value!r}", tok.line, tok.col)
        name = tok.value
        if name == "pext":
            return extended_momentum()
        if self.peek().value == "[":
            return self.indexed(tok)
        if name in _FUNCS:
            self.expect("(")
            arg = self.expr()
            self.expect(")")
            return _FUNCS[name](arg)
        if name in self.parameters:
            return sp.sympify(self.parameters[name])
        raise ParseError(f"unknown name {name!r} (not a coordinate, function, "
                         f"or declared parameter)", tok.line, tok.col)

    def indexed(self, tok: _Token) -> sp.Expr:
        name = tok.value
        self.expect("[")
        idx: list[int] = []
        while True:
            itok = self.next()
            if itok.kind != "int":
                raise ParseError("expected integer index", itok.line, itok.col)
            idx.append(int(itok.value))
            sep = self.next()
            if sep.value == "]":
                break
            if sep.value != ",":
                raise ParseError("expected ',' or ']'", sep.line, sep.col)
        if name == "g":
            if self.metric is None:
                raise ParseError("g[...] used but no metric declared", tok.line, tok.col)
            if len(idx) != 2 or not all(0 <= i < self.m for i in idx):
                raise ParseError(f"metric index out of range 0..{self.m - 1}",
                                 tok.line, tok.col)
            return sp.sympify(self.metric[idx[0]][idx[1]])
        if name not in _INDEXED:
            raise ParseError(f"unknown indexed name {name!r}", tok.line, tok.col)
        role = _INDEXED[name]
        kinds = _VOCAB[role][1]
        if len(idx) != len(kinds):
            raise ParseError(f"{name} takes {len(kinds)} indices, got {len(idx)}",
                             tok.line, tok.col)
        for i, kind in zip(idx, kinds):
            bound, what = (self.n, "field") if kind == "n" else (self.m, "base")
            if not 0 <= i < bound:
                raise ParseError(f"{what} index {i} out of range 0..{bound - 1}",
                                 tok.line, tok.col)
        return coord(role, *idx)


def parse_expr(text: str, m: int, n: int,
               parameters: Optional[Mapping[str, sp.Expr]] = None,
               metric=None) -> sp.Expr:
    """Parse grammar text into a sympy expression.

    ``parameters`` maps declared parameter names to their values (a free
    parameter maps to its own Symbol).  ``metric`` is an m-by-m nested
    sequence substituted for ``g[mu,nu]`` tokens.
    """
    tokens = _tokenize(text)
    return _Parser(tokens, m, n, parameters or {}, metric).parse()


# ---------------------------------------------------------------------------
# printing (inverse of the parser, up to ordering)


def to_grammar(e: sp.Expr) -> str:
    """Render an expression back into grammar text."""
    return _print(sp.sympify(e), 0)


# the constants the parser builds from exp(1), sqrt(-1) and log(-1) = I*pi
_CONSTANTS = {sp.S.Exp1: ("exp(1)", 4), sp.S.ImaginaryUnit: ("sqrt(-1)", 4),
              sp.S.Pi: ("log(-1)/sqrt(-1)", 1)}


# precedence levels: 0 add, 1 mul, 2 unary minus, 3 power, 4 atom
def _print(e: sp.Expr, level: int) -> str:
    if e.is_Symbol:
        return _print_symbol(e)
    if e.is_Integer:
        s = str(e)
        return _wrap(s, 2 if e < 0 else 4, level)
    if e.is_Rational:
        s = f"{e.p}/{e.q}"
        return _wrap(s, 2 if e < 0 else 1, level)
    if e.is_Add:
        parts = [_print(a, 1) for a in sp.Add.make_args(e)]
        s = parts[0]
        for p in parts[1:]:
            s += p if p.startswith("-") else "+" + p
        return _wrap(s, 0, level)
    if e.is_Mul:
        num, den = [], []
        coeff = sp.Integer(1)
        for a in sp.Mul.make_args(e):
            if a.is_Rational:
                coeff *= a
                continue
            if a.is_Pow and a.exp.is_Rational and a.exp < 0:
                den.append(_print(a.base ** (-a.exp), 3))
            else:
                num.append(_print(a, 3))
        sign = ""
        if coeff < 0:
            sign = "-"
            coeff = -coeff
        if coeff.p != 1 or not num:
            num.insert(0, str(coeff.p))
        if coeff.q != 1:
            den.insert(0, str(coeff.q))
        s = sign + "*".join(num)
        for d in den:
            s += "/" + d
        return _wrap(s, 2 if sign else 1, level)
    if e.is_Pow and e.exp.is_Rational and not e.exp.q & (e.exp.q - 1):
        if e.exp < 0:
            return _wrap("1/" + _print(e.base ** (-e.exp), 3), 1, level)
        # b^(k/2^j), from j nested square roots: sqrt(..sqrt(b)..)^k
        s = _print(e.base, 0 if e.exp.q > 1 else 4)
        for _ in range(e.exp.q.bit_length() - 1):
            s = f"sqrt({s})"
        return s if e.exp.p == 1 else _wrap(f"{s}^{e.exp.p}", 3, level)
    if isinstance(e, (sp.cosh, sp.sinh)):
        # what the parser builds from cos and sin of an imaginary argument
        s = f"sqrt(-1)*({_print(e.args[0], 0)})"
        return f"cos({s})" if isinstance(e, sp.cosh) else _wrap(f"-sqrt(-1)*sin({s})", 2, level)
    if isinstance(e, sp.Function):
        name = type(e).__name__
        if name not in _FUNCS:
            raise ExprError(f"cannot render function {name!r} in the grammar")
        return f"{name}({_print(e.args[0], 0)})"
    if e in _CONSTANTS:
        return _wrap(*_CONSTANTS[e], level)
    raise ExprError(f"cannot render expression node {type(e).__name__}: {e}")


def _wrap(s: str, prec: int, level: int) -> str:
    return f"({s})" if prec < level else s


def _print_symbol(sym: sp.Symbol) -> str:
    role = role_of(sym)
    if role is None:
        return sym.name
    idx = indices_of(sym)
    name = _VOCAB[role][0]
    return f"{name}[{','.join(str(i) for i in idx)}]" if idx else name


# ---------------------------------------------------------------------------
# calculus on expressions


_NON_FINITE = (sp.S.NaN, sp.S.ComplexInfinity, sp.S.Infinity, sp.S.NegativeInfinity)


def diff(e: sp.Expr, z: sp.Symbol) -> sp.Expr:
    """The partial of ``e`` by the symbol ``z``: the same tree as sympy's
    ``diff`` gives, built without ``Derivative``.

    ``sp.diff`` wraps every node in ``Derivative.__new__``, which asks each
    partial result ``is_zero`` before returning it unchanged; that
    assumptions query costs far more than the arithmetic.  Here the rules
    sympy dispatches to are applied directly, in their order, so the trees
    are the same: a symbol is 1 if it is ``z`` and 0 otherwise, any other
    leaf is 0; a sum is the sum of its partials (``Add._eval_derivative``);
    a product is the Leibniz sum ``Add(*[Mul(f0, .., df_i, .., fk)])`` of
    ``Mul._eval_derivative_n_times``; a power with a ``z``-free exponent is
    ``e * (d(base) * exp / base)`` (``Pow._eval_derivative``).  A sum or
    power whose partials are all 0 is 0 without any arithmetic, so a
    ``z``-free subtree costs one walk and no ``free_symbols`` query, which
    sympy would recompute over the whole subtree at every node.  Any other
    node (``sin``, ``exp``, ``log``, a ``z``-dependent exponent) is 0 when
    free of ``z`` (``Derivative``'s quick exit) and otherwise goes to
    ``sp.diff``.  The Leibniz terms whose factor has partial 0 are left out:
    they are 0, unless another factor is infinite (``0*zoo`` is ``nan``), so
    an expression holding an infinite or undefined number goes to
    ``sp.diff`` whole.  Symbols compare by value, so fresh ones after
    ``clear_cache`` still match.
    """
    if e.has(*_NON_FINITE):
        return sp.diff(e, z)
    return _diff(e, z)


def _diff(e: sp.Expr, z: sp.Symbol) -> sp.Expr:
    if e.is_Symbol:
        return sp.S.One if e == z else sp.S.Zero
    if not e.args:
        return sp.S.Zero
    if e.is_Add:
        partials = [_diff(a, z) for a in e.args]
        if all(d is sp.S.Zero for d in partials):
            return sp.S.Zero
        return e.func(*partials)
    if e.is_Mul:
        args = e.args
        partials = [_diff(a, z) for a in args]
        return sp.Add(*[sp.Mul(*args[:i], d, *args[i + 1:])
                        for i, d in enumerate(partials) if d is not sp.S.Zero])
    if e.is_Pow and z not in e.exp.free_symbols:
        d = _diff(e.base, z)
        if d is sp.S.Zero:
            return sp.S.Zero
        return e * (d * e.exp / e.base)
    if z not in e.free_symbols:
        return sp.S.Zero
    return sp.diff(e, z)


def gradient(e: sp.Expr, coords: Sequence[sp.Symbol]) -> dict[sp.Symbol, sp.Expr]:
    """The nonzero first partials of ``e`` by ``coords``, in their order."""
    free = e.free_symbols
    grad = {}
    for z in coords:
        dz = diff(e, z) if z in free else 0
        if dz != 0:
            grad[z] = dz
    return grad


def expand(e: sp.Expr) -> sp.Expr:
    """What ``sympy.expand`` makes of ``e``, by one of three branches.

    - **As is.** A tree that is already a sum of monomials (each term a
      number, a symbol, a symbol to an integer power, or a product of
      those) is returned unchanged; ``sympy.expand`` returns it unchanged
      too, but only after running each of its hints over every node.
    - **Native.** A polynomial tree (sums, products and integer powers of
      commutative symbols over QQ, a symbol's power negative too) is
      multiplied out in one walk into a dict from monomial to exact
      rational coefficient, powers of sums by repeated squaring, and
      rebuilt as ``Add(*[Mul(coeff, *powers)])``.  Zero coefficients and
      exponents that cancel to 0 drop out.  ``Add`` and ``Mul`` build
      canonical trees, so this is the tree ``sympy.expand`` returns.
    - **Sympy.** Anything else goes to ``sympy.expand`` whole: a ``Float``
      (summing like terms in another order could change its last bits), a
      function, ``pi``, ``E``, ``I``, ``zoo`` or ``nan``, a non-integer
      exponent, or a negative power of a non-symbol (sympy expands that
      denominator).
    """
    e = sp.sympify(e)
    if all(_is_monomial(t) for t in sp.Add.make_args(e)):
        return e
    try:
        if not e.is_commutative:
            raise _NotPolynomial
        terms = _terms(e)
    except _NotPolynomial:
        return sp.expand(e)
    return sp.Add(*[sp.Mul(sp.Rational(c.numerator, c.denominator), *[s**k for s, k in mono])
                    for mono, c in terms.items()])


def _is_monomial(t: sp.Expr) -> bool:
    return all(f.is_Symbol or f.is_Number or (f.is_Pow and f.base.is_Symbol and f.exp.is_Integer)
               for f in (t.args if t.is_Mul else (t,)))


class _NotPolynomial(Exception):
    """A node :func:`expand`'s native walk does not multiply out."""


_UNIT = frozenset()     # the monomial 1


def _terms(e: sp.Expr) -> dict:
    """``e`` as {monomial: coefficient}: a monomial is a frozenset of
    (symbol, nonzero int exponent) pairs, a coefficient a nonzero int or
    ``Fraction``."""
    if e.is_Symbol:
        return {frozenset({(e, 1)}): 1}
    if e.is_Rational:
        return {_UNIT: e.p if e.q == 1 else Fraction(e.p, e.q)} if e.p else {}
    if e.is_Add:
        out: dict = {}
        for a in e.args:
            for mono, c in _terms(a).items():
                out[mono] = out.get(mono, 0) + c
        return {mono: c for mono, c in out.items() if c}
    if e.is_Mul:
        out = {_UNIT: 1}
        for a in e.args:
            out = _times(out, _terms(a))
        return out
    if e.is_Pow and e.exp.is_Integer:
        k = int(e.exp)
        if e.base.is_Symbol:
            return {frozenset({(e.base, k)}): 1}
        if k > 0:
            base, out = _terms(e.base), {_UNIT: 1}
            while True:
                if k & 1:
                    out = _times(out, base)
                k >>= 1
                if not k:
                    return out
                base = _times(base, base)
    raise _NotPolynomial


def _times(a: dict, b: dict) -> dict:
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            if not ma or not mb:
                mono = ma or mb
            else:
                powers = dict(ma)
                for s, k in mb:
                    k += powers.get(s, 0)
                    if k:
                        powers[s] = k
                    else:
                        del powers[s]
                mono = frozenset(powers.items())
            out[mono] = out.get(mono, 0) + ca * cb
    return {mono: c for mono, c in out.items() if c}


# ---------------------------------------------------------------------------
# equality


class Verdict(Enum):
    EXACT_EQUAL = "EXACT-EQUAL"
    NUMERICALLY_EQUAL = "NUMERICALLY-EQUAL"
    NOT_EQUAL = "NOT-EQUAL"


@dataclass
class EqualityResult:
    verdict: Verdict
    residual: float = 0.0
    witness: Optional[dict] = None

    def __bool__(self) -> bool:
        return self.verdict is not Verdict.NOT_EQUAL


def random_rational_point(symbols: Iterable[sp.Symbol], rng: random.Random) -> dict:
    """Random rational assignment num/den in [-6, 6], num drawn from
    [-12, 12] (0 read as 1) and den from [2, 7]: bounded away from zero
    denominators."""
    point = {}
    for s in symbols:
        num = rng.randint(-12, 12)
        if num == 0:
            num = 1
        den = rng.randint(2, 7)
        point[s] = sp.Rational(num, den)
    return point


def admissible_points(args: Sequence[sp.Symbol], samples: int, seed: int,
                      evaluate, real: bool = False) -> list[tuple[dict, object]]:
    """The first ``samples`` of the successive :func:`random_rational_point`
    draws over ``args`` from ``random.Random(seed)`` at which ``evaluate``
    raises no ``ArithmeticError`` or ``ValueError`` and returns a value (or
    nested list of them) that is finite, and real if ``real``; each with its
    value.  Points outside the domain are redrawn, up to 10 draws per point
    wanted; ``ExprError`` when none is admissible."""
    rng = random.Random(seed)
    kept = []
    for _ in range(10 * samples):
        point = random_rational_point(args, rng)
        try:
            value = evaluate(point)
        except (ArithmeticError, ValueError):
            continue
        if all(cmath.isfinite(v) and not (real and isinstance(v, complex))
               for v in _leaves(value)):
            kept.append((point, value))
            if len(kept) == samples:
                break
    if not kept:
        raise ExprError(f"no admissible sample points in {10 * samples} draws")
    return kept


def _leaves(value):
    if isinstance(value, list):
        for v in value:
            yield from _leaves(v)
    else:
        yield value


_EQUAL_SAMPLES = 20     # admissible points of equal's numeric tier
_EQUAL_TOL = 1e-10      # max |residual| there that still reads as equal


def equal(a: sp.Expr, b: sp.Expr, seed: int = 42) -> EqualityResult:
    """Two-tier equality check.

    Tier 1: the difference cancelled by :func:`exact_cancel`, the package's
    one cancellation path; 0 reports EXACT-EQUAL.  That is exact for
    expressions rational in their kernels (opaque function applications
    count as independent kernels, so identities like sin^2 + cos^2 = 1 are
    *not* detected there).  A nonzero difference over a trusted domain
    (ZZ, QQ, or a polynomial ring or fraction field over them in plain
    symbols, the domains ``exact_cancel`` round-trips) is a nonzero
    rational function: NOT-EQUAL, with no residual or witness, however
    small its values.  Tier 2, only for what tier 1 cannot decide (a
    function kernel, a Float): evaluation at ``_EQUAL_SAMPLES`` random
    rational points (:func:`admissible_points`) to 25 digits; max |residual|
    below ``_EQUAL_TOL`` reports NUMERICALLY-EQUAL, otherwise NOT-EQUAL
    with a witness point.
    """
    delta = sp.sympify(a) - sp.sympify(b)
    if exact_cancel(sp.Matrix([delta]))[0] == 0:
        return EqualityResult(Verdict.EXACT_EQUAL)
    if _trusted(_domain_matrix(sp.Matrix([delta])).domain):
        return EqualityResult(Verdict.NOT_EQUAL)
    syms = sorted(delta.free_symbols, key=lambda s: s.name)
    points = admissible_points(syms, _EQUAL_SAMPLES, seed,
                               lambda p: complex(delta.xreplace(p).evalf(25)))
    # the witness is the first point of largest |residual|
    worst, witness = max(((abs(val), p) for p, val in points), key=lambda t: t[0])
    if worst < _EQUAL_TOL:
        return EqualityResult(Verdict.NUMERICALLY_EQUAL, residual=worst)
    return EqualityResult(Verdict.NOT_EQUAL, residual=worst,
                          witness={str(k): v for k, v in witness.items()})


# ---------------------------------------------------------------------------
# seeded numeric sampling


def sampled(exprs, args: Sequence[sp.Symbol], samples: int, seed: int) -> list:
    """Values of ``exprs`` at ``samples`` seeded random rational points.

    ``exprs`` is an expression, a (nested) list of them or a Matrix, which
    is evaluated as its nested row list.  The points are the admissible
    ones of :func:`admissible_points` over ``args``: every value there is
    finite and real.  Nothing is compiled: the expression DAG is flattened
    once into a list of float operations, each shared subtree once, and run
    at every point.  The operations are the ones sympy's lambdify prints
    with the ``math`` module (``x**(1/2)`` is ``math.sqrt``, ``x**(-1/2)``
    is ``1/math.sqrt``, ``x**-1`` is ``1/x``, other powers ``**``;
    ``math.sin``/``cos``/``sinh``/``cosh``/``exp``/``log``; ``zoo`` and
    ``nan`` are ``nan``), so the values agree with lambdify's at the same
    admissible points, and points outside the domain are redrawn.  Sums
    and products run in argument order, not in printed order, so values
    agree to rounding, not bit for bit.
    """
    if isinstance(exprs, sp.MatrixBase):
        exprs = exprs.tolist()
    program: list[tuple] = []
    shape = _flatten(exprs, {a: i for i, a in enumerate(args)}, {}, program)

    def evaluate(point):
        regs = [float(point[a]) for a in args]
        for op, operands in program:
            regs.append(op(*[regs[i] for i in operands]))
        return _unflatten(shape, regs)

    return [value for _, value in admissible_points(args, samples, seed, evaluate, True)]


def _sum(*terms):
    total = terms[0]
    for t in terms[1:]:
        total = total + t
    return total


def _product(*factors):
    total = factors[0]
    for f in factors[1:]:
        total = total * f
    return total


def _reciprocal(x):
    return 1 / x


def _reciprocal_sqrt(x):
    return 1 / math.sqrt(x)


_MATH = {sp.sin: math.sin, sp.cos: math.cos, sp.exp: math.exp, sp.log: math.log,
         sp.cosh: math.cosh, sp.sinh: math.sinh}


def _flatten(e, slots: dict, memo: dict, program: list):
    """Append the operations of ``e`` (or of each item of a nested list) to
    ``program`` and return the register, or nested list of registers, that
    holds its value.  Registers ``0 .. len(args)-1`` hold the point."""
    if isinstance(e, list):
        return [_flatten(item, slots, memo, program) for item in e]
    e = sp.sympify(e)
    if e in slots:
        return slots[e]
    if e in memo:
        return memo[e]
    if e.is_Symbol:
        raise ExprError(f"sampled: {e} is not among the arguments")
    if e is sp.S.NaN or e is sp.S.ComplexInfinity:
        op, operands = (lambda: math.nan), ()
    elif e.is_Number or isinstance(e, sp.NumberSymbol) or e is sp.S.ImaginaryUnit:
        value = 1j if e is sp.S.ImaginaryUnit else float(e)
        op, operands = (lambda: value), ()
    elif e.is_Add or e.is_Mul:
        op = _sum if e.is_Add else _product
        operands = tuple(_flatten(a, slots, memo, program) for a in e.args)
    elif e.is_Pow:
        base, exp = e.base, e.exp
        operands = (_flatten(base, slots, memo, program),)
        if exp is sp.S.Half:
            op = math.sqrt
        elif exp == -sp.S.Half:
            op = _reciprocal_sqrt
        elif exp is sp.S.NegativeOne:
            op = _reciprocal
        elif exp.is_Number:
            power = int(exp) if exp.is_Integer else float(exp)
            op = lambda x: x ** power   # noqa: E731
        else:
            op = pow
            operands += (_flatten(exp, slots, memo, program),)
    elif type(e) in _MATH:
        op, operands = _MATH[type(e)], (_flatten(e.args[0], slots, memo, program),)
    else:
        raise ExprError(f"sampled: cannot evaluate {type(e).__name__} node {e}")
    program.append((op, operands))
    memo[e] = len(slots) + len(program) - 1
    return memo[e]


def _unflatten(shape, regs: list):
    if isinstance(shape, list):
        return [_unflatten(s, regs) for s in shape]
    return regs[shape]


RANK_TOL = 1e-9


def numeric_rank(M) -> int:
    """Numeric rank of a float matrix: how many of its singular values s
    count as nonzero, those above ``RANK_TOL * max(1, s_0)``, the package's
    one rank rule."""
    M = np.asarray(M, dtype=float)
    if M.size == 0:
        return 0
    s = np.linalg.svd(M, compute_uv=False)
    return int(np.sum(s > RANK_TOL * max(1.0, s[0])))


def generic(values: Sequence, what: str, notes: list[str]):
    """The one sampling policy: a sampled rank (or tuple of ranks, compared
    in order) is the largest over its points, the first on a tie, since a
    point can only lose rank.  Disagreeing points add the note "<what>
    varied across samples: [sorted distinct values]" once."""
    distinct = sorted(set(values))
    note = f"{what} varied across samples: {distinct}"
    if len(distinct) > 1 and note not in notes:
        notes.append(note)
    return max(values)


# ---------------------------------------------------------------------------
# exact linear algebra over the fraction field of the entries


def _domain_matrix(M: sp.Matrix) -> DomainMatrix:
    """``DomainMatrix.from_Matrix(M)``: the same domain and elements, built
    from :func:`_terms`' monomial dicts of the entries.

    ``from_Matrix`` runs sympy's ``construct_domain``, which splits every
    entry by ``as_numer_denom``, expands numerator and denominator again
    and converts each coefficient.  Here each nonzero entry is walked once
    into a Laurent polynomial over QQ, and the domain is the one
    ``construct_domain`` picks for it.  The generators are the dicts'
    symbols in ``_sort_gens`` order, the order ``parallel_dict_from_basic``
    gives.  With no negative exponent the domain is ``ZZ[gens]``, or
    ``QQ[gens]`` when a coefficient is not an integer.  With one it is
    ``ZZ(gens)``: ``as_numer_denom`` clears every rational coefficient into
    the integer numerator and denominator, so sympy's ground there is ZZ;
    each entry is handed over as numerator and denominator (the lcm of its
    coefficient denominators times its largest negative powers), and the
    field cancels them to its normal form, as it does sympy's pair.  With
    no symbol the domain is ZZ or QQ.  An entry whose dict is empty is left
    out of the sparse rep.

    Three kinds of matrix go to ``from_Matrix`` unchanged: one with an
    entry the walk does not read (non-commutative, or raising
    ``_NotPolynomial``: a Float, a function, a non-integer exponent, a
    negative power of a non-symbol); one with no nonzero entry; and one
    where a cancellation the expansion made is still seen by sympy's
    domain: an entry whose tree raises a symbol to a negative power its
    dict no longer shows (``x*(1/x + y)`` is a fraction in ``x`` to
    sympy), or symbols only in trees that expand to numbers (sympy takes
    EX there).
    """
    rows, syms, fractions, numbers = {}, set(), False, True
    for i, row in M.todod().items():
        for j, e in row.items():
            try:
                if not e.is_commutative:
                    raise _NotPolynomial
                terms = _terms(e)
            except _NotPolynomial:
                return DomainMatrix.from_Matrix(M)
            negative = {s for mono in terms for s, k in mono if k < 0}
            if not _negative_bases(e) <= negative:
                return DomainMatrix.from_Matrix(M)
            numbers = numbers and e.is_Rational
            if terms:
                rows.setdefault(i, {})[j] = terms
                syms.update(s for mono in terms for s, _ in mono)
                fractions = fractions or bool(negative)
    if not rows or not (syms or numbers):
        return DomainMatrix.from_Matrix(M)
    if fractions:
        dom = sp.ZZ.frac_field(*_sort_gens(syms))
    else:
        ground = sp.QQ if any(c.denominator != 1 for row in rows.values()
                              for terms in row.values() for c in terms.values()) else sp.ZZ
        dom = ground.poly_ring(*_sort_gens(syms)) if syms else ground
    slot = {g: n for n, g in enumerate(dom.symbols)} if syms else {}

    def coefficient(c):
        return ground(c.numerator, c.denominator) if ground is sp.QQ else ground(c.numerator)

    def exponents(mono, shift):
        exps = list(shift)
        for s, k in mono:
            exps[slot[s]] += k
        return tuple(exps)

    def convert(terms):
        if not syms:
            return coefficient(terms[_UNIT])
        if not fractions:
            return dom.ring.from_dict({exponents(mono, [0] * len(slot)): coefficient(c)
                                       for mono, c in terms.items()})
        lcm = math.lcm(*[c.denominator for c in terms.values()])
        shift = [0] * len(slot)
        for mono in terms:
            for s, k in mono:
                shift[slot[s]] = max(shift[slot[s]], -k)
        return dom(({exponents(mono, shift): c.numerator * (lcm // c.denominator)
                     for mono, c in terms.items()}, {tuple(shift): lcm}))

    return DomainMatrix({i: {j: convert(terms) for j, terms in row.items()}
                         for i, row in rows.items()}, M.shape, dom)


def _negative_bases(e: sp.Expr) -> set:
    """The symbols a tree :func:`_terms` reads raises to a negative power."""
    if e.is_Pow:
        return {e.base} if e.exp.is_negative else _negative_bases(e.base)
    if e.is_Add or e.is_Mul:
        return set().union(*[_negative_bases(a) for a in e.args if a.args])
    return set()


def exact_rank(M: sp.Matrix) -> int:
    """Rank over the fraction field of the entries (parameters are generic)."""
    return _domain_matrix(M).to_field().rank()


def _kernel_rows(R: DomainMatrix, pivots: tuple, cols: int) -> sp.Matrix:
    """The kernel read from a reduced row echelon form ``R`` with ``pivots``:
    one row per free column, 1 in that column, minus the RREF column in the
    pivot slots, 0 elsewhere."""
    free = [j for j in range(cols) if j not in pivots]
    R, K = R.to_Matrix(), sp.zeros(len(free), cols)
    for i, j in enumerate(free):
        K[i, j] = 1
        for row, col in enumerate(pivots):
            K[i, col] = -R[row, j]
    return K


def exact_nullspace(M: sp.Matrix) -> sp.Matrix:
    """The kernel of ``M`` as the rows of one matrix: row i is the i-th
    vector of sympy's ``Matrix.nullspace``, read from one RREF (0 rows when
    ``M`` has full column rank)."""
    R, pivots = _domain_matrix(M).to_field().rref()
    return _kernel_rows(R, pivots, M.cols)


def exact_pinv(M: sp.Matrix) -> tuple[sp.Matrix, sp.Matrix]:
    """Moore-Penrose pseudo-inverse of a symmetric matrix with real entries,
    and its kernel: ``(M^+, K)``, with K the rows :func:`exact_nullspace`
    gives, both read from one RREF.

    C, the nonzero RREF rows, spans M's row and (M symmetric) column space,
    so M^+ = C^T (C M C^T)^-1 C: one inverse, of a rank-sized matrix, and
    M^-1 on a regular M (C = I, K with 0 rows).  The general rank
    decomposition also inverts B^T B (B the pivot columns), M^T M on a
    regular M: twice the degree, which stalls on a 3x3 parametric Hessian.
    Parameters are taken real; a matrix not symmetric over the fraction
    field raises ExprError.
    """
    dM = _domain_matrix(M).to_field()
    if M.rows != M.cols or dM != dM.transpose():
        raise ExprError("exact_pinv needs a symmetric matrix")
    R, pivots = dM.rref()
    K = _kernel_rows(R, pivots, M.cols)
    if not pivots:
        return sp.zeros(M.cols, M.rows), K
    C = R.extract(range(len(pivots)), range(M.cols))
    return (C.transpose() * (C * dM * C.transpose()).inv() * C).to_Matrix(), K


_EXACT_GROUNDS = (sp.ZZ, sp.QQ)


def _trusted(dom) -> bool:
    """Whether ``dom`` is ZZ, QQ, or a polynomial ring or fraction field over
    them in plain symbols: a domain whose elements are in normal form, so
    an element is zero exactly when it reads 0."""
    return dom in _EXACT_GROUNDS or (
        (dom.is_PolynomialRing or dom.is_FractionField)
        and dom.domain in _EXACT_GROUNDS and all(g.is_Symbol for g in dom.symbols))


def exact_cancel(M: sp.Matrix) -> sp.Matrix:
    """Every entry of ``M`` as ``sp.cancel`` writes it, through one
    ``DomainMatrix`` of the whole matrix.

    The matrix comes from :func:`_domain_matrix`: built natively from the
    entries' monomial dicts when every entry is a Laurent polynomial over
    QQ, and otherwise (a function, a Float, no nonzero entry, a cancelled
    denominator) by ``DomainMatrix.from_Matrix``; both give the domain and
    elements sympy's ``construct_domain`` picks.  That domain is trusted
    (:func:`_trusted`) only when it is ZZ, QQ, or a polynomial ring or
    fraction field over ZZ or QQ whose generators are all plain symbols.
    There a round trip gives each entry as numerator over denominator,
    cancelled and sign-normalised over the integers: the very tree
    ``cancel`` builds, without its ``factor_terms`` and ``signsimp``
    passes.  Any other domain (EX, or a generator such as ``sin(x)``,
    ``exp(x)``, ``sqrt(2)`` or ``zoo``) can normalise differently, so
    those matrices go through ``sp.cancel`` entry by entry.
    """
    dM = _domain_matrix(M)
    if _trusted(dM.domain):
        return dM.to_Matrix()
    return M.applyfunc(sp.cancel)


def exact_product(M: sp.Matrix, N: sp.Matrix) -> sp.Matrix:
    """``exact_cancel(M * N)``, each entry summed as one plain sympy ``Add``
    of its nonzero products rather than by sympy's matrix product, which
    runs a ``DomainMatrix`` multiply over EXRAW before ``exact_cancel``
    converts the result anyway.  Entries holding an infinite or undefined
    number (``0*zoo`` is ``nan``) take ``M * N``, as ``diff`` does.
    """
    if any(e.has(*_NON_FINITE) for e in (*M, *N)):
        return exact_cancel(M * N)
    return exact_cancel(sp.Matrix(M.rows, N.cols, lambda i, j: sp.Add(*[
        M[i, k] * N[k, j] for k in range(M.cols) if M[i, k] != 0 and N[k, j] != 0])))
