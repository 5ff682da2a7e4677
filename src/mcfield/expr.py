"""Symbolic expression layer.

Expressions are sympy objects built over a fixed vocabulary of coordinate
symbols (base coordinates, fields, multivelocities, multimomenta, action
coordinates, plus formal jet-gradient symbols used when equations of motion
are written out).  Rational constants are kept exact; elementary function
kernels (sin, cos, exp, log, sqrt) are treated as opaque: nothing in this
module rewrites trigonometric identities, so ``sin(u)**2 + cos(u)**2`` does
*not* normalize to 1 (it is detected as numerically equal to 1 instead).

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

import random
import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np
import sympy as sp
from sympy.polys.matrices import DomainMatrix

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
    "gradient",
    "NormalForm",
    "normalize",
    "Verdict",
    "EqualityResult",
    "equal",
    "random_rational_point",
    "sampled",
    "RANK_TOL",
    "singular_rank",
    "numeric_rank",
    "exact_rank",
    "exact_nullspace",
    "exact_pinv",
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
            if a.is_Pow and a.exp.is_Integer and a.exp < 0:
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
    if e.is_Pow:
        if not e.exp.is_Integer:
            raise ExprError(f"cannot render non-integer exponent: {e}")
        if e.exp < 0:
            return _wrap("1/" + _print(e.base ** (-e.exp), 3), 1, level)
        return _wrap(_print(e.base, 4) + "^" + str(e.exp), 3, level)
    if isinstance(e, sp.Function):
        name = type(e).__name__
        if name not in _FUNCS:
            raise ExprError(f"cannot render function {name!r} in the grammar")
        return f"{name}({_print(e.args[0], 0)})"
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


def gradient(e: sp.Expr, coords: Sequence[sp.Symbol]) -> dict[sp.Symbol, sp.Expr]:
    """The nonzero first partials of ``e`` by ``coords``, in their order."""
    free = e.free_symbols
    grad = {}
    for z in coords:
        dz = sp.diff(e, z) if z in free else 0
        if dz != 0:
            grad[z] = dz
    return grad


# ---------------------------------------------------------------------------
# normal forms and equality


class NormalForm:
    """Canonical rational form: expanded numerator over expanded denominator.

    Equal normal forms imply mathematically equal expressions; the converse
    holds only for expressions that are rational in their kernels (opaque
    function applications count as independent kernels, so identities like
    sin^2 + cos^2 = 1 are *not* detected here).
    """

    def __init__(self, e: sp.Expr):
        together = sp.cancel(sp.together(sp.sympify(e)))
        num, den = sp.fraction(together)
        num = sp.expand(num)
        den = sp.expand(den)
        # normalize overall sign via the leading term of the denominator
        if den.could_extract_minus_sign():
            num, den = -num, -den
        self.numerator = num
        self.denominator = den

    @property
    def expression(self) -> sp.Expr:
        return self.numerator / self.denominator

    def __eq__(self, other) -> bool:
        if not isinstance(other, NormalForm):
            return NotImplemented
        diff = sp.expand(self.numerator * other.denominator
                         - other.numerator * self.denominator)
        return diff == 0

    def __hash__(self):
        return hash(sp.srepr(self.numerator) + "/" + sp.srepr(self.denominator))

    def __repr__(self):
        return f"NormalForm({self.expression})"


def normalize(e: sp.Expr) -> NormalForm:
    return NormalForm(e)


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


def random_rational_point(symbols: Iterable[sp.Symbol], rng: random.Random,
                          lo: int = -3, hi: int = 3) -> dict:
    """Random rational assignment, bounded away from zero denominators."""
    point = {}
    for s in symbols:
        num = rng.randint(lo * 4, hi * 4)
        if num == 0:
            num = 1
        den = rng.randint(2, 7)
        point[s] = sp.Rational(num, den)
    return point


def equal(a: sp.Expr, b: sp.Expr, samples: int = 20, seed: int = 42,
          tol: float = 1e-10) -> EqualityResult:
    """Two-tier equality check.

    Tier 1: canonical rational normal form of the difference.  Tier 2:
    evaluation at ``samples`` random rational points; max |residual| below
    ``tol`` reports NUMERICALLY-EQUAL, otherwise NOT-EQUAL with a witness
    point.  Points where the difference fails to evaluate to a finite real
    are resampled.
    """
    diff = sp.sympify(a) - sp.sympify(b)
    nf = NormalForm(diff)
    if nf.numerator == 0:
        return EqualityResult(Verdict.EXACT_EQUAL)
    syms = sorted(diff.free_symbols, key=lambda s: s.name)
    rng = random.Random(seed)
    worst = 0.0
    witness = None
    done = 0
    attempts = 0
    while done < samples and attempts < samples * 10:
        attempts += 1
        point = random_rational_point(syms, rng)
        try:
            val = complex(diff.xreplace(point).evalf(25))
        except (TypeError, ValueError):
            continue
        if val != val or abs(val) == float("inf"):
            continue
        r = abs(val)
        if r > worst:
            worst = r
            witness = {str(k): v for k, v in point.items()}
        done += 1
    if done == 0:
        raise ExprError("equality check: no admissible sample points found")
    if worst < tol:
        return EqualityResult(Verdict.NUMERICALLY_EQUAL, residual=worst)
    return EqualityResult(Verdict.NOT_EQUAL, residual=worst, witness=witness)


# ---------------------------------------------------------------------------
# seeded numeric sampling


def sampled(exprs, args: Sequence[sp.Symbol], samples: int, seed: int) -> list:
    """Values of ``exprs`` at ``samples`` seeded random rational points.

    ``exprs`` is an expression, a (nested) list of them or a Matrix, which
    is evaluated as its nested row list.  The points are successive
    :func:`random_rational_point` draws over ``args`` from
    ``random.Random(seed)``.  There is one compile, with the ``math`` module:
    numpy's lambdify namespace is slow to build in a fresh process.
    """
    if isinstance(exprs, sp.MatrixBase):
        exprs = exprs.tolist()
    fn = sp.lambdify(args, exprs, modules="math")
    rng = random.Random(seed)
    out = []
    for _ in range(samples):
        point = random_rational_point(args, rng)
        out.append(fn(*[float(point[a]) for a in args]))
    return out


RANK_TOL = 1e-9


def singular_rank(s: np.ndarray) -> int:
    """How many of the descending singular values ``s`` count as nonzero:
    those above ``RANK_TOL * max(1, s_0)``, the package's one rank rule."""
    return int(np.sum(s > RANK_TOL * max(1.0, s[0]))) if len(s) else 0


def numeric_rank(M) -> int:
    """Numeric rank of a float matrix by :func:`singular_rank`."""
    M = np.asarray(M, dtype=float)
    if M.size == 0:
        return 0
    return singular_rank(np.linalg.svd(M, compute_uv=False))


# ---------------------------------------------------------------------------
# exact linear algebra over the fraction field of the entries


def _over_field(M: sp.Matrix) -> DomainMatrix:
    return DomainMatrix.from_Matrix(M).to_field()


def exact_rank(M: sp.Matrix) -> int:
    """Rank over the fraction field of the entries (parameters are generic)."""
    return _over_field(M).rank()


def exact_nullspace(M: sp.Matrix) -> list[sp.Matrix]:
    """Kernel basis in sympy's ``Matrix.nullspace`` convention.

    One column vector per free column of the reduced row echelon form: 1 in
    that column, minus the RREF column in the pivot slots, 0 elsewhere.
    """
    R, pivots = _over_field(M).rref()
    R = R.to_Matrix()
    basis = []
    for free in (j for j in range(M.cols) if j not in pivots):
        v = sp.zeros(M.cols, 1)
        v[free] = 1
        for row, col in enumerate(pivots):
            v[col] = -R[row, free]
        basis.append(v)
    return basis


def exact_pinv(M: sp.Matrix) -> sp.Matrix:
    """Moore-Penrose pseudo-inverse of a matrix with real entries.

    Through the rank decomposition M = B C (B the pivot columns of M, C the
    nonzero RREF rows): M^+ = C^T (C C^T)^-1 (B^T B)^-1 B^T.  Parameters are
    taken real, so no conjugates appear.
    """
    dM = _over_field(M)
    R, pivots = dM.rref()
    if not pivots:
        return sp.zeros(M.cols, M.rows)
    B = dM.extract(range(M.rows), pivots)
    C = R.extract(range(len(pivots)), range(M.cols))
    Bt, Ct = B.transpose(), C.transpose()
    return (Ct * (C * Ct).inv() * (Bt * B).inv() * Bt).to_Matrix()
