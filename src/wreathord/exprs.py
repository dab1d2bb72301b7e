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
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterator, Union

from . import embed_rationals as er
from . import embed_verbal as ev
from .wreath import WreathElement


class ExprSyntaxError(ValueError):
    def __init__(self, message: str, position: int, expected: str | None = None):
        detail = f"{message} (at position {position}"
        if expected:
            detail += f"; expected {expected}"
        detail += ")"
        super().__init__(detail)
        self.position = position
        self.expected = expected


# An atom node's ``pos`` is its offset in the parsed text, for the level
# errors; it takes no part in equality and is 0 in a tree built by hand.

@dataclass(frozen=True)
class NameAtom:
    name: str  # c | z | alpha | omega
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class IndexedAtom:
    name: str  # tau | phi | chi | psi
    n: int
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class PiAtom:
    arg: "Expr"
    pos: int = field(default=0, compare=False)
    name = "pi"


@dataclass(frozen=True)
class ShiftAtom:
    atom: "Expr"
    k: int


@dataclass(frozen=True)
class Mul:
    args: tuple["Expr", ...]


@dataclass(frozen=True)
class Inv:
    arg: "Expr"


@dataclass(frozen=True)
class Pow:
    arg: "Expr"
    n: int


@dataclass(frozen=True)
class Conj:
    x: "Expr"
    y: "Expr"


@dataclass(frozen=True)
class Comm:
    x: "Expr"
    y: "Expr"


Expr = Union[NameAtom, IndexedAtom, PiAtom, ShiftAtom, Mul, Inv, Pow, Conj, Comm]

_BARE_ATOMS = ("alpha", "omega", "c", "z")
_INDEXED_ATOMS = ("tau", "phi", "chi", "psi")
_OPS = ("*", "inv", "pow", "conj", "comm")
_NAME = re.compile(r"([\w*]+)\s*")
_INT = re.compile(r"(-?\d+)\s*")
_PUNCT = {ch: re.compile(re.escape(ch) + r"\s*") for ch in "(),"}


class _Parser:
    """Recursive descent with one precompiled-regex match per token; each
    token match also consumes the whitespace after it, so ``pos`` always
    rests on the next token."""

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
        return int(m.group(1))

    def parse_expr(self) -> Expr:
        if self.peek() != "(":
            return self.parse_atom()
        self.expect("(")
        m = self.read_name()
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
            out = Pow(self.parse_expr(), self.read_int())
        elif op == "conj":
            out = Conj(self.parse_expr(), self.parse_expr())
        else:
            out = Comm(self.parse_expr(), self.parse_expr())
        self.expect(")")
        return out

    def parse_atom(self) -> Expr:
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
            arg = self.parse_expr()
            self.expect(")")
            return PiAtom(arg, start)
        if name == "shift":
            self.expect("(")
            atom = self.parse_atom()
            self.expect(",")
            k = self.read_int()
            self.expect(")")
            return ShiftAtom(atom, k)
        self.pos = m.end(1)
        self.error(f"unknown atom {name!r}",
                   expected="one of " + ", ".join(_BARE_ATOMS + _INDEXED_ATOMS + ("pi", "shift")))


def parse_expr(text: str) -> Expr:
    """Parse an element expression; linear in the length of the text."""
    p = _Parser(text)
    expr = p.parse_expr()
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


def _atoms(expr: Expr) -> Iterator[Union[NameAtom, IndexedAtom, PiAtom]]:
    """The atom nodes in text order.  A pi argument lives one level down,
    so its atoms are not listed; binding validates them."""
    if isinstance(expr, (NameAtom, IndexedAtom, PiAtom)):
        yield expr
    elif isinstance(expr, ShiftAtom):
        yield from _atoms(expr.atom)
    elif isinstance(expr, Mul):
        for a in expr.args:
            yield from _atoms(a)
    elif isinstance(expr, (Inv, Pow)):
        yield from _atoms(expr.arg)
    elif isinstance(expr, (Conj, Comm)):
        yield from _atoms(expr.x)
        yield from _atoms(expr.y)


def levels_of(expr: Expr) -> tuple[str, ...]:
    """Every level whose atoms include all of the expression's atoms, in
    table order; empty for a mixture that no level holds."""
    names = {a.name for a in _atoms(expr)}
    return tuple(level for level, (atoms, _) in LEVELS.items() if names <= atoms)


def infer_level(expr: Expr) -> str:
    """The first of ``levels_of``.  A mixture is rejected beside the first
    of the markers omega, pi, chi/psi and alpha/z that it contains, at
    the first atom that the marker's level does not hold."""
    levels = levels_of(expr)
    if levels:
        return levels[0]
    names = {a.name for a in _atoms(expr)}
    for atoms, marker in reversed(LEVELS.values()):
        if names.intersection(marker):
            first = next(a for a in _atoms(expr) if a.name not in atoms)
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


def _build(expr: Expr, level: str, levels: dict) -> WreathElement:
    group, builders = levels[level]
    if isinstance(expr, (NameAtom, IndexedAtom)):
        build = builders.get(expr.name)
        if build is None:
            raise ExprSyntaxError(f"atom {expr.name!r} is not available at level {level}",
                                  expr.pos)
        return build() if isinstance(expr, NameAtom) else build(expr.n)
    if isinstance(expr, PiAtom):
        build = builders.get("pi")
        if build is None:
            raise ExprSyntaxError("pi(...) only builds T Wr C elements", expr.pos)
        if infer_level(expr.arg) != "qs":
            outside = (a.pos for a in _atoms(expr.arg) if a.name not in LEVELS["qs"][0])
            raise ExprSyntaxError("the argument of pi must be a Q Wr S expression",
                                  next(outside, expr.pos))
        return build(_build(expr.arg, "qs", levels))
    if isinstance(expr, ShiftAtom):
        top = group.top_element(group.coords.witness_power(expr.k))
        return group.conj(_build(expr.atom, level, levels), top)
    if isinstance(expr, Mul):
        return group.product([_build(a, level, levels) for a in expr.args])
    if isinstance(expr, Inv):
        return group.inv(_build(expr.arg, level, levels))
    if isinstance(expr, Pow):
        return group.pow(_build(expr.arg, level, levels), expr.n)
    if isinstance(expr, Conj):
        return group.conj(_build(expr.x, level, levels), _build(expr.y, level, levels))
    if isinstance(expr, Comm):
        return group.comm(_build(expr.x, level, levels), _build(expr.y, level, levels))
    raise TypeError(f"not an expression node: {expr!r}")


def build_element(expr: Expr, ctx: "ev.VerbalContext | None" = None,
                  level: str | None = None) -> tuple[str, WreathElement]:
    """Infer the level (unless given), bind atoms, and evaluate the
    expression tree."""
    if ctx is None:
        ctx = ev.get_context()
    if level is None:
        level = infer_level(expr)
    return level, _build(expr, level, bind_levels(ctx))
