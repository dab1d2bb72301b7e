"""Element expression parser and printer.

Grammar (whitespace-insensitive)::

    expr := atom | "(" "*" expr+ ")" | "(inv" expr ")" | "(pow" expr int ")"
          | "(conj" expr expr ")" | "(comm" expr expr ")"
    atom := "c" | "z" | "tau(" int ")" | "phi(" int ")" | "alpha" | "omega"
          | "chi(" int ")" | "psi(" int ")" | "pi(" expr ")"
          | "shift(" atom "," int ")"

The level an expression lives at is inferred from its atoms by one
table, ``LEVELS``: c/tau/phi build elements of Q Wr C (qc), z/alpha of
(Q Wr C) Wr Z (w), chi/psi of Q Wr S (qs), c/pi of T Wr C (tc) and
z/omega of D Wr Z (dz).  Incompatible mixtures are rejected.
``bind_levels`` gives each level's group and atom builders in a word
family's context.  shift(a, k) shifts the atom by the k-th power of the
level's top generator (the witness a for Q Wr S).

Tree nodes are slotted records.  An atom node's ``pos``, its offset in
the text for the level errors (0 in a tree built by hand), takes no part
in equality or hashing.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from typing import Union

from . import embed_rationals as er
from . import embed_verbal as ev
from .wreath import Atom, WreathElement


class ExprSyntaxError(ValueError):
    def __init__(self, message: str, position: int, expected: str | None = None):
        detail = f"{message} (at position {position}"
        if expected:
            detail += f"; expected {expected}"
        detail += ")"
        super().__init__(detail)
        self.position = position
        self.expected = expected


@dataclass(slots=True, unsafe_hash=True)
class NameAtom:
    name: str  # c | z | alpha | omega
    pos: int = field(default=0, compare=False)


@dataclass(slots=True, unsafe_hash=True)
class IndexedAtom:
    name: str  # tau | phi | chi | psi
    n: int
    pos: int = field(default=0, compare=False)


@dataclass(slots=True, unsafe_hash=True)
class PiAtom:
    arg: "Expr"
    pos: int = field(default=0, compare=False)
    name = "pi"


@dataclass(slots=True, unsafe_hash=True)
class ShiftAtom:
    atom: "Expr"
    k: int


@dataclass(slots=True, unsafe_hash=True)
class Mul:
    args: tuple["Expr", ...]


@dataclass(slots=True, unsafe_hash=True)
class Inv:
    arg: "Expr"


@dataclass(slots=True, unsafe_hash=True)
class Pow:
    arg: "Expr"
    n: int


@dataclass(slots=True, unsafe_hash=True)
class Conj:
    x: "Expr"
    y: "Expr"


@dataclass(slots=True, unsafe_hash=True)
class Comm:
    x: "Expr"
    y: "Expr"


Expr = Union[NameAtom, IndexedAtom, PiAtom, ShiftAtom, Mul, Inv, Pow, Conj, Comm]

_BARE_ATOMS = ("alpha", "omega", "c", "z")
_INDEXED_ATOMS = ("tau", "phi", "chi", "psi")
_OPS = ("*", "inv", "pow", "conj", "comm")
# one token per match
_NAME = re.compile(r"([\w*]+)\s*")
_INT = re.compile(r"(-?\d+)\s*")
_PUNCT = {ch: re.compile(re.escape(ch) + r"\s*") for ch in "(),"}
# a production's fixed run of tokens in one match
_OPEN = re.compile(r"\(\s*([\w*]+)\s*")
_ATOM = re.compile(r"(?:shift\s*\(\s*(tau|phi|chi|psi)\s*\(\s*(-?\d+)\s*\)\s*,\s*(-?\d+)\s*\)"
                   r"|(tau|phi|chi|psi)\s*\(\s*(-?\d+)\s*\)|(shift|pi)\s*\(|([\w*]+))\s*")
_SHIFT_TAIL = re.compile(r",\s*(-?\d+)\s*\)\s*")
_POW_TAIL = re.compile(r"(-?\d+)\s*\)\s*")


def _int(m: re.Match, group: int) -> int:
    try:
        return int(m.group(group))
    except ValueError:  # more digits than Python converts
        raise ExprSyntaxError("integer literal is too long", m.start(group)) from None


class _Parser:
    """Recursive descent in which each production reads its fixed run of
    tokens in one precompiled match: "(" and the operator, an indexed
    atom's name, "(", index and ")", a shift of an indexed atom in full,
    "shift(" or "pi(", a shift's "," int ")" and a power's int ")".
    Every match also consumes the whitespace after it, so ``pos`` always
    rests on the next token.  Where a production's match fails, it is
    read again token by token from where it started, one match per
    token, and that read names the error and its position."""

    def __init__(self, text: str):
        self.text = text
        self.pos = len(text) - len(text.lstrip())

    def error(self, message: str, expected: str | None = None):
        raise ExprSyntaxError(message, self.pos, expected)

    def peek(self) -> str:
        return self.text[self.pos:self.pos + 1]

    def expect(self, ch: str):
        m = _PUNCT[ch].match(self.text, self.pos)
        if m is None:
            self.error(f"unexpected {self.peek()!r}", expected=repr(ch))
        self.pos = m.end()

    def read_name(self) -> re.Match:
        """The next name's match; an error about the name points at ``end(1)``."""
        m = _NAME.match(self.text, self.pos)
        if m is None:
            self.error("expected a name", expected="atom or operator")
        self.pos = m.end()
        return m

    def read_int(self) -> int:
        m = _INT.match(self.text, self.pos)
        if m is None:
            # a lone minus sign is consumed before the error, as a prefix
            self.pos += self.peek() == "-"
            self.error("expected an integer", expected="integer")
        self.pos = m.end()
        return _int(m, 1)

    def parse_expr(self) -> Expr:
        text = self.text
        if not text.startswith("(", self.pos):
            return self.parse_atom()
        m = _OPEN.match(text, self.pos)
        if m is None:
            self.expect("(")
            m = self.read_name()
        else:
            self.pos = m.end()
        op = m.group(1)
        if op not in _OPS:
            self.pos = m.end(1)
            self.error(f"unknown operator {op!r}", expected="one of " + ", ".join(_OPS))
        if op == "*":
            args = [self.parse_expr()]
            while self.peek() != ")":
                args.append(self.parse_expr())
            out = Mul(tuple(args))
        elif op == "inv":
            out = Inv(self.parse_expr())
        elif op == "pow":
            arg = self.parse_expr()
            m = _POW_TAIL.match(text, self.pos)
            if m is None:  # token by token, to name the error
                out = Pow(arg, self.read_int())
            else:
                self.pos = m.end()
                return Pow(arg, _int(m, 1))
        elif op == "conj":
            out = Conj(self.parse_expr(), self.parse_expr())
        else:
            out = Comm(self.parse_expr(), self.parse_expr())
        self.expect(")")
        return out

    def parse_atom(self) -> Expr:
        start = self.pos
        m = _ATOM.match(self.text, start)
        if m is None:
            return self.read_atom()
        kind = m.lastindex
        if kind == 3:  # "shift(" name "(" index ")" "," int ")"
            n = _int(m, 2)
            if n < 1:  # the inner atom, read token by token, names the error
                self.pos = m.start(1)
                return self.read_atom()
            self.pos = m.end()
            return ShiftAtom(IndexedAtom(m.group(1), n, m.start(1)), _int(m, 3))
        if kind == 5:  # name "(" index ")"
            n = _int(m, 5)
            if n < 1:
                return self.read_atom()
            self.pos = m.end()
            return IndexedAtom(m.group(4), n, start)
        if kind == 6:  # "shift(" or "pi("
            self.pos = m.end()
            if m.group(6) == "pi":
                return self.pi_tail(start)
            atom = self.parse_atom()
            m = _SHIFT_TAIL.match(self.text, self.pos)
            if m is None:
                return self.shift_tail(atom)
            self.pos = m.end()
            return ShiftAtom(atom, _int(m, 1))
        if m.group(7) in _BARE_ATOMS:
            self.pos = m.end()
            return NameAtom(m.group(7), start)
        return self.read_atom()

    def read_atom(self) -> Expr:
        """An atom read token by token from ``pos``."""
        start = self.pos
        m = self.read_name()
        name = m.group(1)
        if name in _BARE_ATOMS:
            return NameAtom(name, start)
        if name in _INDEXED_ATOMS:
            at = self.pos + 1
            self.expect("(")
            n = self.read_int()
            if n < 1:
                self.pos = at
                self.error(f"{name} index must be >= 1")
            self.expect(")")
            return IndexedAtom(name, n, start)
        if name == "pi":
            self.expect("(")
            return self.pi_tail(start)
        if name == "shift":
            self.expect("(")
            return self.shift_tail(self.parse_atom())
        self.pos = m.end(1)
        self.error(f"unknown atom {name!r}",
                   expected="one of " + ", ".join(_BARE_ATOMS + _INDEXED_ATOMS + ("pi", "shift")))

    def pi_tail(self, start: int) -> PiAtom:
        arg = self.parse_expr()
        self.expect(")")
        return PiAtom(arg, start)

    def shift_tail(self, atom: Expr) -> ShiftAtom:
        self.expect(",")
        k = self.read_int()
        self.expect(")")
        return ShiftAtom(atom, k)


def parse_expr(text: str) -> Expr:
    """Parse an element expression; linear in the length of the text.  A
    nesting deeper than the interpreter's recursion limit allows is a
    syntax error at the position where the descent stopped."""
    p = _Parser(text)
    try:
        expr = p.parse_expr()
    except RecursionError:
        raise ExprSyntaxError("expression nested too deeply", p.pos) from None
    if p.pos != len(text):
        p.error("trailing input after the expression")
    return expr


def print_expr(expr: Expr) -> str:
    if isinstance(expr, NameAtom):
        return expr.name
    if isinstance(expr, IndexedAtom):
        return f"{expr.name}({expr.n})"
    if isinstance(expr, PiAtom):
        return f"pi({print_expr(expr.arg)})"
    if isinstance(expr, ShiftAtom):
        return f"shift({print_expr(expr.atom)}, {expr.k})"
    if isinstance(expr, Mul):
        return "(* " + " ".join(print_expr(a) for a in expr.args) + ")"
    if isinstance(expr, Inv):
        return f"(inv {print_expr(expr.arg)})"
    if isinstance(expr, Pow):
        return f"(pow {print_expr(expr.arg)} {expr.n})"
    if isinstance(expr, Conj):
        return f"(conj {print_expr(expr.x)} {print_expr(expr.y)})"
    if isinstance(expr, Comm):
        return f"(comm {print_expr(expr.x)} {print_expr(expr.y)})"
    raise TypeError(f"not an expression node: {expr!r}")


# -- level inference and element binding ---------------------------------

# Each level's atoms, and the marker atoms that a mixture error names, in
# the order that breaks ties: a lone c is qc, a lone z is w, and an
# expression with no atoms is qc.  Every atom outside qc is a marker.
LEVELS: dict[str, tuple[frozenset[str], tuple[str, ...]]] = {
    "qc": (frozenset({"c", "tau", "phi"}), ()),
    "w": (frozenset({"z", "alpha"}), ("alpha", "z")),
    "qs": (frozenset({"chi", "psi"}), ("chi", "psi")),
    "tc": (frozenset({"c", "pi"}), ("pi",)),
    "dz": (frozenset({"z", "omega"}), ("omega",)),
}


def bind_levels(ctx: "ev.VerbalContext") -> dict:
    """Each level's group and one builder per atom in a context: a bare
    atom's builder takes no argument, an indexed atom's its index, and
    pi's the Q Wr S element it wraps."""
    return {
        "qc": (er.QC, {"c": er.c_elem, "tau": er.tau, "phi": er.phi}),
        "w": (er.W, {"z": er.z_elem, "alpha": er.alpha}),
        "qs": (ctx.QS, {"chi": ctx.chi, "psi": ctx.psi}),
        "tc": (ctx.TC, {"c": ctx.c_elem, "pi": ctx.pi}),
        "dz": (ctx.DZ, {"z": ctx.z_elem, "omega": ctx.omega}),
    }


def _atoms(expr: Expr) -> list[Union[NameAtom, IndexedAtom, PiAtom]]:
    """The atom nodes in text order, in one walk of the tree.  A pi
    argument lives one level down, so its atoms are not listed; binding
    validates them."""
    out = []
    stack = [expr]
    while stack:
        e = stack.pop()
        t = type(e)
        if t is NameAtom or t is IndexedAtom or t is PiAtom:
            out.append(e)
        elif t is ShiftAtom:
            stack.append(e.atom)
        elif t is Mul:
            stack.extend(reversed(e.args))
        elif t is Inv or t is Pow:
            stack.append(e.arg)
        elif t is Conj or t is Comm:
            stack += e.y, e.x
    return out


def _holding(names: set[str]) -> tuple[str, ...]:
    return tuple(level for level, (atoms, _) in LEVELS.items() if names <= atoms)


def levels_of(expr: Expr) -> tuple[str, ...]:
    """Every level whose atoms include all of the expression's atoms, in
    table order; empty for a mixture that no level holds."""
    return _holding({a.name for a in _atoms(expr)})


def infer_level(expr: Expr) -> str:
    """The first of ``levels_of``.  A mixture is rejected beside the first
    of the markers omega, pi, chi/psi and alpha/z that it contains, at
    the first atom that the marker's level does not hold."""
    found = _atoms(expr)
    names = {a.name for a in found}
    levels = _holding(names)
    if levels:
        return levels[0]
    for atoms, marker in reversed(LEVELS.values()):
        if names.intersection(marker):
            first = next(a for a in found if a.name not in atoms)
            raise ExprSyntaxError(f"atoms {sorted(names - atoms)} cannot appear beside "
                                  f"{'/'.join(marker)}", first.pos)


def joint_levels(exprs: list[Expr]) -> list[str]:
    """Levels for expressions used together (multiplied or compared).

    An expression open to several levels takes the level that every
    other expression fixes; without a single such level each keeps its
    own ``infer_level``.
    """
    opens = [levels_of(e) for e in exprs]
    fixed = {op[0] for op in opens if len(op) == 1}
    if len(fixed) != 1:
        return [infer_level(e) for e in exprs]
    (target,) = fixed
    return [target if target in op else infer_level(e) for e, op in zip(exprs, opens)]


class _Builder:
    """Evaluates expression trees at one level, reading each node's type
    once.  An atom, a shift of an atom-shaped factor and a power of one
    are each built as one Atom, and a product reduces each run of such
    factors once, as one element; any other factor is an element, and a
    product multiplies its runs and elements with ``product``.  Each level
    of nesting takes one frame of ``factor``."""

    def __init__(self, level: str, levels: dict):
        self.level = level
        self.levels = levels
        self.group, self.builders = levels[level]
        self.one = self.group.coords.identity()

    def build(self, expr: Expr) -> WreathElement:
        return self.element(self.factor(expr))

    def element(self, f: "WreathElement | Atom") -> WreathElement:
        return f if type(f) is WreathElement else self.group.element(self.one, (f,))

    def atom(self, f: "WreathElement | Atom") -> Atom | None:
        """f's one atom, for an Atom or an element of one atom with a trivial top."""
        if type(f) is Atom:
            return f
        if len(f.atoms) == 1 and f.top == self.one:
            return f.atoms[0]
        return None

    def factor(self, expr: Expr) -> "WreathElement | Atom":
        """The node's value: an Atom where the node is atom-shaped, else an
        element."""
        t = type(expr)
        group = self.group
        if t is Pow:
            f = self.factor(expr.arg)
            a = self.atom(f)
            if a is None:
                return group.pow(f, expr.n)
            return Atom(a.fn, a.shift, a.exp * expr.n)
        if t is ShiftAtom:
            f = self.factor(expr.atom)
            k = group.coords.witness_power(expr.k)
            a = self.atom(f)
            if a is None:
                return group.conj(f, group.top_element(k))
            # conjugating by a top alone moves the atom's shift by it
            return Atom(a.fn, group.coords.mul(a.shift, k), a.exp)
        if t is IndexedAtom or t is NameAtom:
            build = self.builders.get(expr.name)
            if build is None:
                raise ExprSyntaxError(f"atom {expr.name!r} is not available at level "
                                      f"{self.level}", expr.pos)
            return build() if t is NameAtom else build(expr.n)
        if t is Mul:
            parts: list[WreathElement] = []
            run: list[Atom] = []
            for arg in expr.args:
                f = self.factor(arg)
                a = self.atom(f)
                if a is not None:
                    run.append(a)
                    continue
                if run:
                    parts.append(group.element(self.one, run))
                    run = []
                parts.append(f)
            if run:
                parts.append(group.element(self.one, run))
            return parts[0] if len(parts) == 1 else group.product(parts)
        if t is Inv:
            return group.inv(self.element(self.factor(expr.arg)))
        if t is Conj:
            return group.conj(self.element(self.factor(expr.x)),
                              self.element(self.factor(expr.y)))
        if t is Comm:
            return group.comm(self.element(self.factor(expr.x)),
                              self.element(self.factor(expr.y)))
        if t is PiAtom:
            return self.pi(expr)
        raise TypeError(f"not an expression node: {expr!r}")

    def pi(self, expr: PiAtom) -> WreathElement:
        build = self.builders.get("pi")
        if build is None:
            raise ExprSyntaxError("pi(...) only builds T Wr C elements", expr.pos)
        if infer_level(expr.arg) != "qs":
            outside = (a.pos for a in _atoms(expr.arg) if a.name not in LEVELS["qs"][0])
            raise ExprSyntaxError("the argument of pi must be a Q Wr S expression",
                                  next(outside, expr.pos))
        return build(_Builder("qs", self.levels).build(expr.arg))


def build_element(expr: Expr, ctx: "ev.VerbalContext | None" = None,
                  level: str | None = None) -> tuple[str, WreathElement]:
    """Infer the level (unless given), bind atoms, and evaluate the
    expression tree."""
    if ctx is None:
        ctx = ev.get_context()
    if level is None:
        level = infer_level(expr)
    builder = _Builder(level, bind_levels(ctx))
    # factor, not build: a frame fewer, so every nesting that parses still builds
    try:
        return level, builder.element(builder.factor(expr))
    except RecursionError:
        # the nesting is at fault only where its frames, one a level, left
        # too few for the group operations under the deepest node
        if _depth(expr) + _OPERATION_FRAMES < sys.getrecursionlimit() - _stack_depth():
            raise
        raise ValueError("expression nested too deeply to build") from None


# more frames than any group operation or atom builder takes below a node
_OPERATION_FRAMES = 100


def _depth(expr: Expr) -> int:
    """The most nodes on one path down the tree, pi's argument included:
    the frames ``_Builder.factor`` takes, in one walk without recursion."""
    deepest = 0
    stack = [(expr, 1)]
    while stack:
        e, d = stack.pop()
        deepest = max(deepest, d)
        t = type(e)
        if t is Mul:
            stack += ((a, d + 1) for a in e.args)
        elif t is Conj or t is Comm:
            stack += (e.x, d + 1), (e.y, d + 1)
        elif t is ShiftAtom:
            stack.append((e.atom, d + 1))
        elif t is Inv or t is Pow or t is PiAtom:
            stack.append((e.arg, d + 1))
    return deepest


def _stack_depth() -> int:
    """The frames on the stack from the caller down to the outermost."""
    n, f = 0, sys._getframe(1)
    while f is not None:
        n, f = n + 1, f.f_back
    return n
