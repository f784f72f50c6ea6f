"""Small expression language for integrand functions of (t, u, v).

Integrands are written as text like ``"v^2 + t*u"`` where ``t`` is the
time point, ``u`` the shifted state value, and ``v`` the corresponding
difference quotient.  The module parses such text into a tiny AST,
evaluates it, and differentiates it symbolically with respect to ``u``
or ``v``.  evaluate() walks the tree at one point and is the reference;
compile_kernel turns the trees of both sides of a functional into one
straight-line numpy kernel over stacked slot arrays, which gives
evaluate()'s numbers bit for bit (up to the sign and payload of a NaN)
and marks, per tree, the slots where evaluate() raises.
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
import math
import operator
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


def _chain(x, n: int, times: Callable):
    """x^n for n >= 1 by binary powering, the one multiplication chain of
    evaluate() and the kernels: from the low bit up, the running square
    (x, x^2, x^4, ...) is multiplied into the product at each set bit,
    as times(product, square), and squared as times(square, square)."""
    product = None
    while True:
        if n & 1:
            product = x if product is None else times(product, x)
        n >>= 1
        if not n:
            return product
        x = times(x, x)


def _power(base: float, exponent: int) -> float:
    """base^exponent on a Python float by _chain, of 1/base for a
    negative exponent, so that a tiny base overflows to ±inf as in + - *;
    a zero base to a negative power raises ZeroDivisionError, where a
    numpy scalar gives inf with a warning.  x^0 is 1.0 at every x."""
    if exponent < 0:
        base = 1.0 / base
    return _chain(base, abs(exponent), operator.mul) if exponent else 1.0


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
# The trees of a functional are compiled, on first use, into straight-line
# numpy (compile_kernel): one assignment per distinct node of all its
# trees over whole slot arrays, whose rows may be the slots of several
# functions on one scale.  Each side has its own t and u and all share v,
# so a node that reads neither t nor u (v^2 in both integrands of an
# objective) is computed once.  The numbers are evaluate()'s bit for bit,
# up to the sign and payload of a NaN: + - * / and negation are numpy's
# IEEE operations, x^n is evaluate()'s multiplication chain (_chain) as
# array products, of the quotient 1/x for a negative n, the math
# functions run slot by slot through evaluate()'s libm calls (numpy's
# exp and log round differently), constant subtrees stay Python floats,
# and + - * / overflow silently under np.errstate.  Where evaluate()
# raises, a kernel writes NaN and marks the slots for the roots that read
# the node, so that a NaN arithmetic makes (inf - inf) stays apart from
# an undefined slot.  Trees outside what the parser and differentiate
# build raise ValueError.

_BINARY = {Add: "+", Sub: "-", Mul: "*", Div: "/"}


def _quotient(bad: list, roots: tuple, a: float | np.ndarray, b: float | np.ndarray):
    """a / b over slot arrays or floats, NaN where b is zero, as evaluate()
    raises there; those slots go on bad."""
    if np.all(b):
        return a / b
    zero = b == 0.0
    bad.append((roots, zero))
    return a / np.where(zero, math.nan, b)


def _per_slot(bad: list, roots: tuple, fn: Callable, x: float | np.ndarray):
    """fn(slot) of a math function at every slot of x (a float gives a
    float), on Python floats, NaN where evaluate() raises; those slots
    go on bad."""
    slots = x.ravel().tolist() if isinstance(x, np.ndarray) else [x]
    try:
        out = np.fromiter(map(fn, slots), float, len(slots))
    except (ArithmeticError, ValueError):
        out, undefined = np.empty(len(slots)), np.zeros(len(slots), bool)
        for i, slot in enumerate(slots):
            try:
                out[i] = fn(slot)
            except (ArithmeticError, ValueError):
                out[i], undefined[i] = math.nan, True
        if undefined.any():
            bad.append((roots, undefined.reshape(np.shape(x))))
    return out.reshape(x.shape) if isinstance(x, np.ndarray) else float(out[0])


def _marked(roots: tuple, bad: list, shape: tuple[int, ...]) -> tuple[tuple, np.ndarray]:
    """The roots with NaN at their undefined slots (not what nodes above
    made of a NaN: NaN^0 is 1.0), and the (roots, *shape) marks of those."""
    masks = np.zeros((len(roots), *shape), bool)
    for indices, where in bad:
        masks[list(indices)] |= where
    return tuple(np.where(m, math.nan, r) if m.any() else r for r, m in zip(roots, masks)), masks


class _KernelSource:
    """Straight-line source for the trees of some sides.  Equal subtrees
    share one name; constants are keyed by their bits, so Const(0.0) and
    Const(-0.0) stay apart.  name(e, root, side) visits every node of e
    and marks it read by that root, whose indices the lines take as
    their ``{roots}``; ``times`` holds the sides' times that are read."""

    def __init__(self) -> None:
        self.lines: list[tuple[tuple, str]] = []
        self.names: dict[tuple, str] = {}
        self.consts: list[float] = []
        self.roots: dict[tuple, set[int]] = {}
        self.times: set[str] = set()

    def name(self, e: Expr, root: int, side: int) -> str:
        if isinstance(e, Neg) and isinstance(e.arg, Const) and type(e.arg.value) is float:
            e = Const(-e.arg.value)  # the same bits, and one shape for either sign
        if isinstance(e, Var) and e.name in VARIABLES:
            if e.name == "t":
                self.times.add(f"t{side}")
            return "v" if e.name == "v" else f"{e.name}{side}"
        if isinstance(e, Const) and type(e.value) is float:
            key: tuple = ("c", struct.pack("<d", e.value))
            if key not in self.names:
                self.names[key] = f"c{len(self.consts)}"
                self.consts.append(e.value)
            return self.names[key]
        if isinstance(e, (Add, Sub, Mul, Div)):
            a, b = (self.name(x, root, side) for x in (e.left, e.right))
            return self._binary(_BINARY[type(e)], a, b, root)
        if isinstance(e, Pow) and type(e.exponent) is int:
            a = self.name(e.base, root, side)  # visited at n = 0 too, for its marks
            if e.exponent == 0:
                return self.name(_ONE, root, side)
            if e.exponent < 0:
                a = self._binary("/", self.name(_ONE, root, side), a, root)
            return _chain(a, abs(e.exponent), lambda x, y: self._binary("*", x, y, root))
        if isinstance(e, Neg):
            a = self.name(e.arg, root, side)
            key, code = ("neg", a), f"-{a}"
        elif isinstance(e, Call) and e.func in _UNARY:
            a = self.name(e.arg, root, side)
            key, code = ("call", e.func, a), f"per_slot(bad, {{roots}}, {e.func}, {a})"
        else:
            raise ValueError(f"no kernel for {e!r}: not a node the parser or differentiate builds")
        return self._line(key, code, root)

    def _binary(self, op: str, a: str, b: str, root: int) -> str:
        code = f"quotient(bad, {{roots}}, {a}, {b})" if op == "/" else f"{a} {op} {b}"
        return self._line((op, a, b), code, root)

    def _line(self, key: tuple, code: str, root: int) -> str:
        """The name of the line computing key, appended on first use."""
        self.roots.setdefault(key, set()).add(root)
        if key not in self.names:
            self.names[key] = f"x{len(self.names)}"
            self.lines.append((key, code))
        return self.names[key]


def _kernel_text(src: _KernelSource, roots: list[str], sides: int) -> str:
    """Module text of a factory that binds the constants and returns
    ``kernel(v, t0, u0, ...)``; a bare variable root is a fresh copy."""
    results = (f"fill({r}, v.shape)" if r[0] in "tuv" else r for r in roots)
    return "\n".join([
        f"def factory({', '.join(f'c{i}' for i in range(len(src.consts)))}):",
        f"    def kernel({', '.join(['v', *(f't{k}, u{k}' for k in range(sides))])}):",
        "        bad = []",
        *(f"        {t} = fill({t}, v.shape)" for t in sorted(src.times)),
        *(f"        {src.names[key]} = {code.format(roots=tuple(sorted(src.roots[key])))}"
          for key, code in src.lines),
        f"        roots = ({', '.join(results)},)",
        "        return (roots, None) if not bad else marked(roots, bad, v.shape)",
        "    return kernel",
    ])


def _fill(x: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """A fresh C-contiguous array of the given shape, broadcast from x."""
    out = np.empty(shape)
    out[...] = x
    return out


@functools.lru_cache(maxsize=256)
def _factory(source: str) -> Callable:
    """Compile once per shape: functionals whose trees differ only in
    their constants share the code objects."""
    namespace: dict = dict(_UNARY, per_slot=_per_slot, quotient=_quotient, fill=_fill,
                           marked=_marked)
    exec(compile(source, "<deltanabla kernel>", "exec"), namespace)
    return namespace["factory"]


def compile_kernel(sides: tuple[tuple[Expr, ...], ...]) -> Callable:
    """``kernel(v, t0, u0, t1, u1, ...)``: every root of every side, in
    order, at every slot of v, side k's trees reading tk (or the row of
    times it broadcasts from) and uk: a fresh array, or a float where the
    tree reads no variable or is a power x^0, NaN where evaluate()
    raises; and None, or
    (roots, *v.shape) marks of each root's undefined slots where there
    are any.  Callers silence overflow."""
    src = _KernelSource()
    names: list[str] = []
    for side, trees in enumerate(sides):
        names += [src.name(e, len(names) + i, side) for i, e in enumerate(trees)]
    return _factory(_kernel_text(src, names, len(sides)))(*src.consts)


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
    evaluate() walks any of these trees at one point (the reference); a
    functional compiles all six into its kernel (compile_kernel).
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


def make_lagrangian(source: str | Expr) -> Lagrangian:
    """Build a Lagrangian from integrand text or an existing tree."""
    e = parse(source) if isinstance(source, str) else source
    return Lagrangian(e, differentiate(e, "u"), differentiate(e, "v"))


def constant_lagrangian(c: float) -> Lagrangian:
    """Integrand that ignores (t, u, v) and always evaluates to ``c``."""
    return Lagrangian(_const(c), _ZERO, _ZERO)
