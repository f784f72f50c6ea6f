"""Small expression language for integrand functions of (t, u, v).

Integrands are written as text like ``"v^2 + t*u"`` where ``t`` is the
time point, ``u`` the shifted state value, and ``v`` the corresponding
difference quotient.  The module parses such text into a tiny AST,
evaluates it, and differentiates it symbolically with respect to ``u``
or ``v``.  evaluate() walks the tree at one point and is the reference;
each Lagrangian compiles its six trees into straight-line numpy over
stacked slot arrays, which gives evaluate()'s numbers bit for bit (up
to the sign and payload of a NaN) and marks, per tree, the slots where
evaluate() raises.
Grammar, lowest precedence first:

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-'? atom ('^' integer)?
    atom   := number | 't' | 'u' | 'v' | func '(' expr ')' | '(' expr ')'
    func   := 'sin' | 'cos' | 'exp' | 'log' | 'sqrt'
    number := (digits ('.' digits?)? | '.' digits) (('e' | 'E') ('+' | '-')? digits)?

Digits are ASCII 0-9.  Exponents are integer literals only, and bind
tighter than the unary minus: ``-v^2`` parses as ``-(v^2)``.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
import struct
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np


class ParseError(ValueError):
    """Raised on malformed integrand text; carries the offset."""

    def __init__(self, message: str, pos: int) -> None:
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class EvaluationError(ArithmeticError):
    """Raised when evaluation leaves the real domain (log, sqrt, division)."""


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    name: str  # 't', 'u' or 'v'


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class Add:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Sub:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Mul:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Div:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: int


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expr"


Expr = Union[Const, Var, Neg, Add, Sub, Mul, Div, Pow, Call]

FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt")
VARIABLES = ("t", "u", "v")


# ---------------------------------------------------------------------------
# Parsing


# ASCII digits only (str.isdigit and float() take other scripts' digits
# too).  An e without digits after it is not part of the number.
_DIGITS = re.compile("[0-9]+")
_NUMBER = re.compile(r"([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")


class _Scanner:
    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch: str) -> None:
        if not self.take(ch):
            raise ParseError(f"expected {ch!r}", self.pos)

    def number(self) -> float:
        match = _NUMBER.match(self.text, self.pos)
        if match is None:
            raise ParseError("malformed number", self.pos)
        self.pos = match.end()
        return float(match.group())

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] in "+-":
            self.pos += 1
        match = _DIGITS.match(self.text, self.pos)
        if match is None:
            raise ParseError("exponent must be an integer literal", self.pos)
        self.pos = match.end()
        return int(self.text[start : self.pos])

    def word(self) -> str:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalpha():
            self.pos += 1
        return self.text[start : self.pos]


def parse(text: str) -> Expr:
    """Parse integrand text into an expression tree."""
    s = _Scanner(text)
    e = _expr(s)
    s.skip_ws()
    if s.pos != len(text):
        raise ParseError(f"unexpected {text[s.pos]!r}", s.pos)
    return e


def _expr(s: _Scanner) -> Expr:
    e = _term(s)
    while True:
        if s.take("+"):
            e = Add(e, _term(s))
        elif s.take("-"):
            e = Sub(e, _term(s))
        else:
            return e


def _term(s: _Scanner) -> Expr:
    e = _factor(s)
    while True:
        if s.take("*"):
            e = Mul(e, _factor(s))
        elif s.take("/"):
            e = Div(e, _factor(s))
        else:
            return e


def _factor(s: _Scanner) -> Expr:
    negate = s.take("-")
    e = _atom(s)
    if s.take("^"):
        e = Pow(e, s.integer())
    return Neg(e) if negate else e


def _atom(s: _Scanner) -> Expr:
    ch = s.peek()
    if ch == "(":
        s.take("(")
        e = _expr(s)
        s.expect(")")
        return e
    if ch and ch in "0123456789.":
        return Const(s.number())
    if ch.isalpha():
        pos = s.pos
        name = s.word()
        if name in VARIABLES:
            return Var(name)
        if name in FUNCTIONS:
            s.expect("(")
            arg = _expr(s)
            s.expect(")")
            return Call(name, arg)
        raise ParseError(f"unknown name {name!r}", pos)
    raise ParseError("expected a number, variable, or '('", s.pos)


# ---------------------------------------------------------------------------
# Printing


def to_str(e: Expr) -> str:
    """Render an expression; parse(to_str(e)) evaluates identically to e."""
    return _render(e, 0)


# Precedence contexts: 0 add/sub, 1 mul/div, 2 unary minus, 3 power base.
# Right operands render one level tighter than the node itself so that
# reparsing rebuilds the identical tree: float arithmetic is not
# associative, and the round-trip must evaluate bit for bit.
def _render(e: Expr, ctx: int) -> str:
    if isinstance(e, Const):
        s = repr(e.value)
        return s if e.value >= 0 or ctx == 0 else f"({s})"
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Call):
        return f"{e.func}({_render(e.arg, 0)})"
    if isinstance(e, Pow):
        body = f"{_render(e.base, 3)}^{e.exponent}"
        return f"({body})" if ctx >= 3 else body
    if isinstance(e, Neg):
        body = f"-{_render(e.arg, 2)}"
        return body if ctx <= 1 else f"({body})"
    if isinstance(e, Add):
        body = f"{_render(e.left, 0)} + {_render(e.right, 1)}"
    elif isinstance(e, Sub):
        body = f"{_render(e.left, 0)} - {_render(e.right, 1)}"
    elif isinstance(e, Mul):
        body = f"{_render(e.left, 1)}*{_render(e.right, 2)}"
    elif isinstance(e, Div):
        body = f"{_render(e.left, 1)}/{_render(e.right, 2)}"
    else:
        raise TypeError(f"unknown expression node {e!r}")
    need = 1 if isinstance(e, (Mul, Div)) else 0
    return body if ctx <= need else f"({body})"


# ---------------------------------------------------------------------------
# Evaluation


_UNARY = {
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
}


def _power(base: float, exponent: int) -> float:
    """base ** exponent on a Python float, for evaluate() and the kernels:
    0.0 to a negative power raises ZeroDivisionError, where a numpy
    scalar gives inf with a warning, and a power that overflows is the
    IEEE result, as in + - *, where Python raises."""
    try:
        return base ** exponent
    except OverflowError:
        return math.copysign(math.inf, base) if exponent % 2 else math.inf


def evaluate(e: Expr, t: float, u: float, v: float) -> float:
    """Evaluate at (t, u, v); EvaluationError outside the real domain."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return {"t": t, "u": u, "v": v}[e.name]
    if isinstance(e, Neg):
        return -evaluate(e.arg, t, u, v)
    if isinstance(e, Add):
        return evaluate(e.left, t, u, v) + evaluate(e.right, t, u, v)
    if isinstance(e, Sub):
        return evaluate(e.left, t, u, v) - evaluate(e.right, t, u, v)
    if isinstance(e, Mul):
        return evaluate(e.left, t, u, v) * evaluate(e.right, t, u, v)
    if isinstance(e, Div):
        num = evaluate(e.left, t, u, v)
        den = evaluate(e.right, t, u, v)
        if den == 0.0:
            raise EvaluationError(
                f"division by zero in {to_str(e)} at t={t}, u={u}, v={v}"
            )
        return num / den
    if isinstance(e, Pow):
        base = float(evaluate(e.base, t, u, v))
        try:
            return _power(base, e.exponent)
        except ZeroDivisionError as exc:
            raise EvaluationError(
                f"cannot raise {base} to {e.exponent} in {to_str(e)}"
            ) from exc
    if isinstance(e, Call):
        arg = evaluate(e.arg, t, u, v)
        try:
            return _UNARY[e.func](arg)
        except (ValueError, OverflowError) as exc:
            raise EvaluationError(
                f"{e.func}({arg}) undefined in {to_str(e)} at t={t}, u={u}, v={v}"
            ) from exc
    raise TypeError(f"unknown expression node {e!r}")


# ---------------------------------------------------------------------------
# Differentiation


def _const(x: float) -> Const:
    return Const(float(x))


_ZERO = Const(0.0)
_ONE = Const(1.0)


def _is_const(e: Expr, x: float) -> bool:
    return isinstance(e, Const) and e.value == x


def _add(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return _const(a.value + b.value)
    return Add(a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    if _is_const(b, 0.0):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return _const(a.value - b.value)
    if _is_const(a, 0.0):
        return _neg(b)
    return Sub(a, b)


def _neg(a: Expr) -> Expr:
    if isinstance(a, Const):
        return _const(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def _mul(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return _ZERO
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return _const(a.value * b.value)
    return Mul(a, b)


def _div(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0):
        return _ZERO
    if _is_const(b, 1.0):
        return a
    return Div(a, b)


def _pow(a: Expr, n: int) -> Expr:
    if n == 0:
        return _ONE
    if n == 1:
        return a
    return Pow(a, n)


def differentiate(e: Expr, var: str) -> Expr:
    """Symbolic partial derivative with respect to 't', 'u' or 'v'.

    Constant subtrees fold away so that integrands independent of a
    variable differentiate to an exact zero.
    """
    if var not in VARIABLES:
        raise ValueError(f"unknown variable {var!r}")
    if isinstance(e, Const):
        return _ZERO
    if isinstance(e, Var):
        return _ONE if e.name == var else _ZERO
    if isinstance(e, Neg):
        return _neg(differentiate(e.arg, var))
    if isinstance(e, Add):
        return _add(differentiate(e.left, var), differentiate(e.right, var))
    if isinstance(e, Sub):
        return _sub(differentiate(e.left, var), differentiate(e.right, var))
    if isinstance(e, Mul):
        return _add(
            _mul(differentiate(e.left, var), e.right),
            _mul(e.left, differentiate(e.right, var)),
        )
    if isinstance(e, Div):
        num = _sub(
            _mul(differentiate(e.left, var), e.right),
            _mul(e.left, differentiate(e.right, var)),
        )
        return _div(num, _pow(e.right, 2))
    if isinstance(e, Pow):
        inner = differentiate(e.base, var)
        rule = _mul(_const(e.exponent), _pow(e.base, e.exponent - 1))
        return _mul(rule, inner)
    if isinstance(e, Call):
        inner = differentiate(e.arg, var)
        if e.func == "sin":
            outer: Expr = Call("cos", e.arg)
        elif e.func == "cos":
            outer = _neg(Call("sin", e.arg))
        elif e.func == "exp":
            outer = e
        elif e.func == "log":
            outer = _div(_ONE, e.arg)
        elif e.func == "sqrt":
            outer = _div(_ONE, _mul(_const(2.0), e))
        else:
            raise ValueError(f"unknown function {e.func!r}")
        return _mul(outer, inner)
    raise TypeError(f"unknown expression node {e!r}")


# ---------------------------------------------------------------------------
# Compiled kernels
#
# evaluate() walks a tree once per point, and the solver evaluates the same
# trees of a Lagrangian at every slot of every iterate.  So each Lagrangian
# is also compiled, on first use, into straight-line numpy: one assignment
# per distinct node of its six trees (value, d_u, d_v and the three second
# partials), each over the whole slot arrays, whose rows may be the slots
# of several functions on one scale, with evaluate()'s numbers bit for
# bit, up to the sign and payload of a NaN, which IEEE 754 leaves to the
# implementation (numpy's loops and the Python walk may propagate a NaN
# operand's sign differently): + - * / and negation are numpy's IEEE
# operations, and ** and the math functions run slot by slot through
# evaluate()'s Python and libm calls (numpy's array power, exp and log
# round differently in the last bit); constant subtrees stay Python
# floats.  + - * overflow to inf or
# NaN silently (under np.errstate), as Python floats do.  Where evaluate()
# raises (a zero divisor, 0.0 to a negative power, a math function out of
# its domain or range), a kernel writes NaN and puts the slots on its list
# of undefined slots with the roots that read the node, so that a NaN
# arithmetic makes (inf - inf) stays apart from an undefined slot.  Trees
# outside what the parser and differentiate build raise ValueError when
# compiled.

_BINARY = {Add: "+", Sub: "-", Mul: "*", Div: "/"}


def _quotient(bad: list, roots: tuple, a: float | np.ndarray, b: float | np.ndarray):
    """a / b over slot arrays or floats, NaN where b is zero, as evaluate()
    raises there; those slots go on bad."""
    if np.all(b):
        return a / b
    zero = b == 0.0
    bad.append((roots, zero))
    return a / np.where(zero, math.nan, b)


def _per_slot(bad: list, roots: tuple, fn: Callable, x: float | np.ndarray, *args):
    """fn(slot, *args) at every slot of x (a float gives a float), on
    Python floats, NaN where evaluate() raises; those slots go on bad.
    Builtin pow, which is _power where it does not raise, runs first."""
    slots = x.ravel().tolist() if isinstance(x, np.ndarray) else [x]
    try:
        out = np.fromiter(map(fn, slots, *map(itertools.repeat, args)), float, len(slots))
    except (ArithmeticError, ValueError):
        fn = _power if fn is pow else fn
        out, undefined = np.empty(len(slots)), np.zeros(len(slots), bool)
        for i, slot in enumerate(slots):
            try:
                out[i] = fn(slot, *args)
            except (ArithmeticError, ValueError):
                out[i], undefined[i] = math.nan, True
        if undefined.any():
            bad.append((roots, undefined.reshape(np.shape(x))))
    return out.reshape(x.shape) if isinstance(x, np.ndarray) else float(out[0])


class _KernelSource:
    """Straight-line source for a set of trees.  Equal subtrees share one
    name; constants are keyed by their bits, so Const(0.0) and
    Const(-0.0), equal as dataclasses, stay apart.  name(e, root) visits
    every node of e, shared or not, and marks it read by that root, whose
    indices the lines take as their ``{roots}``."""

    def __init__(self) -> None:
        self.lines: list[tuple[tuple, str]] = []
        self.names: dict[tuple, str] = {}
        self.consts: list[float] = []
        self.roots: dict[tuple, set[int]] = {}

    def name(self, e: Expr, root: int) -> str:
        if isinstance(e, Var) and e.name in VARIABLES:
            return e.name
        if isinstance(e, Const) and type(e.value) is float:
            key: tuple = ("c", struct.pack("<d", e.value))
            if key not in self.names:
                self.names[key] = f"c{len(self.consts)}"
                self.consts.append(e.value)
            return self.names[key]
        if isinstance(e, (Add, Sub, Mul, Div)):
            a, b, op = self.name(e.left, root), self.name(e.right, root), _BINARY[type(e)]
            key = (op, a, b)
            code = f"quotient(bad, {{roots}}, {a}, {b})" if op == "/" else f"{a} {op} {b}"
        elif isinstance(e, Neg):
            a = self.name(e.arg, root)
            key, code = ("neg", a), f"-{a}"
        elif isinstance(e, Pow) and type(e.exponent) is int:
            a = self.name(e.base, root)
            key, code = ("^", a, e.exponent), f"per_slot(bad, {{roots}}, pow, {a}, {e.exponent})"
        elif isinstance(e, Call) and e.func in _UNARY:
            a = self.name(e.arg, root)
            key, code = ("call", e.func, a), f"per_slot(bad, {{roots}}, {e.func}, {a})"
        else:
            raise ValueError(f"no kernel for {e!r}: not a node the parser or differentiate builds")
        self.roots.setdefault(key, set()).add(root)
        if key not in self.names:
            self.names[key] = f"x{len(self.names)}"
            self.lines.append((key, code))
        return self.names[key]


def _kernel_text(src: _KernelSource, roots: list[str]) -> str:
    """Module text of a factory that binds the constants and returns
    ``kernel(t, u, v)``, which computes the roots and the list of
    undefined slots; a root that is a bare variable is returned as a
    fresh copy."""
    results = (f"fill({r}, v.shape)" if r in VARIABLES else r for r in roots)
    return "\n".join([
        f"def factory({', '.join(f'c{i}' for i in range(len(src.consts)))}):",
        "    def kernel(t, u, v):",
        "        bad = []",
        *(f"        {src.names[key]} = {code.format(roots=tuple(sorted(src.roots[key])))}"
          for key, code in src.lines),
        f"        return ({', '.join(results)},), bad",
        "    return kernel",
    ])


def _fill(x: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """A fresh C-contiguous array of the given shape, broadcast from x."""
    out = np.empty(shape)
    out[...] = x
    return out


@functools.lru_cache(maxsize=256)
def _factory(source: str) -> Callable:
    """Compile once per shape: Lagrangians whose trees differ only in
    their constants share the code objects."""
    namespace: dict = dict(_UNARY, per_slot=_per_slot, quotient=_quotient, fill=_fill)
    exec(compile(source, "<deltanabla kernel>", "exec"), namespace)
    return namespace["factory"]


def _compile(roots: tuple[Expr, ...]) -> Callable:
    """``kernel(t, u, v)``: each root at every slot of the arrays, all of
    one shape, a fresh array of that shape or, where the tree has no
    variable, a float; and the undefined slots, a list of (roots, where)
    per node that is undefined somewhere: where marks those slots, and
    roots holds the indices of the roots that read the node."""
    src = _KernelSource()
    names = [src.name(e, i) for i, e in enumerate(roots)]
    return _factory(_kernel_text(src, names))(*src.consts)


# ---------------------------------------------------------------------------
# Integrand bundles


def _reads_state(e: Expr) -> bool:
    """Whether a tree reads u or v."""
    if isinstance(e, Var):
        return e.name != "t"
    if isinstance(e, (Neg, Call)):
        return _reads_state(e.arg)
    if isinstance(e, Pow):
        return _reads_state(e.base)
    if isinstance(e, Const):
        return False
    return _reads_state(e.left) or _reads_state(e.right)


@dataclass(frozen=True)
class Lagrangian:
    """Integrand together with its two symbolic partials.

    ``value`` maps (t, u, v) to the integrand value, ``d_u`` and ``d_v``
    are its partial derivatives in the second and third slot; ``second``
    holds the second partials, differentiated on first use.
    evaluate() walks any of these trees at one point (the reference);
    ``tables`` runs the compiled kernel of all six trees over whole slot
    arrays, which never raises on arithmetic: it reads NaN where
    evaluate() raises and marks those slots tree by tree.  Trees the
    kernel compiler does not cover raise ValueError there.
    """

    value: Expr
    d_u: Expr
    d_v: Expr

    @functools.cached_property
    def second(self) -> tuple[Expr, Expr, Expr]:
        """The second partials (d_uu, d_uv, d_vv)."""
        return (
            differentiate(self.d_u, "u"),
            differentiate(self.d_u, "v"),
            differentiate(self.d_v, "v"),
        )

    @functools.cached_property
    def affine(self) -> bool:
        """Whether the integrand is affine in (u, v) with slopes that are
        functions of t alone: d_u and d_v read neither u nor v.  Every
        second partial then folds to an exact zero, and the d_u and d_v
        columns on a scale are the same bits at every function.  A tree
        such as u*(v + 1) - u*v, whose second partials fold to zero but
        whose d_u reads v, does not count: its slope (v + 1) - v rounds
        differently at different v."""
        return not (_reads_state(self.d_u) or _reads_state(self.d_v))

    @functools.cached_property
    def _tables_kernel(self) -> Callable:
        return _compile((self.value, self.d_u, self.d_v, *self.second))

    def tables(
        self, t: np.ndarray, u: np.ndarray, v: np.ndarray
    ) -> tuple[tuple[np.ndarray | float, ...], np.ndarray | None]:
        """Value, d_u, d_v, d_uu, d_uv and d_vv at every slot of u and v,
        whose rows may be the slots of several functions on one scale (t
        may be the one row of times they share): each a fresh array of
        the shape of v or, for a tree without variables, a float, NaN
        where evaluate() raises.  With them comes None where every tree
        is defined at every slot, else a boolean array of shape
        (6, *v.shape) that marks each tree's undefined slots."""
        with np.errstate(over="ignore", invalid="ignore"):
            columns, bad = self._tables_kernel(t if t.shape == v.shape else _fill(t, v.shape), u, v)
        if not bad:
            return columns, None
        masks = np.zeros((len(columns), *v.shape), bool)
        for roots, where in bad:
            masks[list(roots)] |= where
        # NaN, not what nodes above made of it (NaN^0 is 1.0, or -NaN).
        columns = tuple(np.where(m, math.nan, c) if m.any() else c for c, m in zip(columns, masks))
        return columns, masks

    def __getstate__(self) -> dict:
        # The compiled kernel does not pickle; it is rebuilt on first use.
        state = dict(self.__dict__)
        state.pop("_tables_kernel", None)
        return state


def make_lagrangian(source: str | Expr) -> Lagrangian:
    """Build a Lagrangian from integrand text or an existing tree."""
    e = parse(source) if isinstance(source, str) else source
    return Lagrangian(e, differentiate(e, "u"), differentiate(e, "v"))


def constant_lagrangian(c: float) -> Lagrangian:
    """Integrand that ignores (t, u, v) and always evaluates to ``c``."""
    return Lagrangian(_const(c), _ZERO, _ZERO)
