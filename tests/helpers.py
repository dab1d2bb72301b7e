"""Shared test oracles: brute-force evaluation scans independent of the
library's equality tiers, a fiber-step form built apart from the
library's evaluation loop, the suite samplers built factor by factor,
words expanded into unit letters, a token-by-token expression parser, and
a least difference read by bisection."""

from __future__ import annotations

import re
from bisect import bisect_right
from functools import reduce

from wreathord.embed_rationals import QC, W, alpha, phi, tau, w_point
from wreathord.exprs import (Comm, Conj, ExprSyntaxError, IndexedAtom, Inv, Mul, NameAtom,
                             PiAtom, Pow, ShiftAtom)
from wreathord.groundwork import Ordering
from wreathord.nilpotent import Word
from wreathord.wreath import FiberSteps, WreathElement


def brute_least_difference(x: WreathElement, y: WreathElement,
                           window: int = 64) -> int | None:
    """First integer coordinate in [-window, window] where the base
    functions differ, by direct evaluation."""
    group = x.group
    for j in range(-window, window + 1):
        if group.eval(x, j) != group.eval(y, j):
            return j
    return None


def brute_compare(x: WreathElement, y: WreathElement, window: int = 64) -> Ordering:
    group = x.group
    o = group.coords.compare(x.top, y.top)
    if o is not Ordering.EQUAL:
        return o
    j = brute_least_difference(x, y, window)
    if j is None:
        return Ordering.EQUAL
    return group.fiber.compare(group.eval(x, j), group.eval(y, j))


def confirm_verdict(x: WreathElement, y: WreathElement, verdict,
                    window: int = 64) -> bool:
    """Equal/Distinct verdicts must agree with the brute-force window
    scan (and with direct evaluation at the claimed witness)."""
    group = x.group
    if verdict.is_equal:
        return brute_least_difference(x, y, window) is None
    return group.eval(x, verdict.witness) != group.eval(y, verdict.witness)


def atom_by_atom_form(group, atoms) -> FiberSteps:
    """The fiber-step form of a product of point and threshold atoms as
    the product of each atom's own form, multiplied one by one with
    ``FiberSteps.mul``: a reference apart from the evaluation loop that
    ``FiberSteps.of_atoms`` shares with ``eval``."""
    fiber = group.fiber
    parts = (FiberSteps.make(fiber, [(b + a.shift, fiber.pow(v, a.exp))
                                     for b, v in a.fn.changes(0)])
             for a in atoms)
    return reduce(FiberSteps.mul, parts, FiberSteps.make(fiber, ()))


def product_qc_element(rng):
    """``random_qc_element`` as the product of a top element and one
    single-atom element per atom, drawing the same values in the same
    order."""
    factors = [QC.top_element(rng.randint(-3, 3))]
    for _ in range(rng.randint(0, 4)):
        n = rng.randint(1, 10)
        g = tau(n) if rng.random() < 0.5 else phi(n)
        exp = rng.choice([-2, -1, 1, 2])
        factors.append(QC.atom_element(g.atoms[0].fn, shift=rng.randint(-8, 8), exp=exp))
    return QC.product(factors)


def product_w_element(rng):
    """``random_w_element`` as a product of single-atom elements, as
    ``product_qc_element``."""
    factors = [W.top_element(rng.randint(-3, 3))]
    for _ in range(rng.randint(0, 3)):
        if rng.random() < 0.85:
            factors.append(W.atom_element(alpha().atoms[0].fn, shift=rng.randint(-8, 8),
                                          exp=rng.choice([-1, 1])))
        else:
            factors.append(w_point(product_qc_element(rng), at=rng.randint(-8, 8)))
    return W.product(factors)


def unit_letters(word: Word) -> tuple[tuple[int, int], ...]:
    """The word's runs spelt out letter by letter: (var, e) becomes |e|
    letters (var, +-1), a word whose runs all have exponent +-1."""
    return tuple((v, 1 if e > 0 else -1) for v, e in word.letters for _ in range(abs(e)))


def free_reduction(letters) -> tuple[tuple[int, int], ...]:
    """Letter-by-letter free reduction: cancel each x^e x^-e pair."""
    out = []
    for var, exp in letters:
        if out and out[-1] == (var, -exp):
            out.pop()
        else:
            out.append((var, exp))
    return tuple(out)


# -- a reference parser: one regex match per token ----------------------------

_BARE_ATOMS = ("alpha", "omega", "c", "z")
_INDEXED_ATOMS = ("tau", "phi", "chi", "psi")
_OPS = ("*", "inv", "pow", "conj", "comm")
_NAME = re.compile(r"([\w*]+)\s*")
_INT = re.compile(r"(-?\d+)\s*")
_PUNCT = {ch: re.compile(re.escape(ch) + r"\s*") for ch in "(),"}


class _TokenParser:
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
        m = _NAME.match(self.text, self.pos)
        if m is None:
            self.error("expected a name", expected="atom or operator")
        self.pos = m.end()
        return m

    def read_int(self) -> int:
        m = _INT.match(self.text, self.pos)
        if m is None:
            self.pos += self.peek() == "-"
            self.error("expected an integer", expected="integer")
        self.pos = m.end()
        return int(m.group(1))

    def parse_expr(self):
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

    def parse_atom(self):
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


def token_parse_expr(text: str):
    """The expression parser as it read one token per regex match: the
    reference that the fused-production parser must agree with, tree for
    tree and error for error."""
    p = _TokenParser(text)
    expr = p.parse_expr()
    if p.pos != len(text):
        p.error("trailing input after the expression")
    return expr


# -- a reference least difference: every break, two bisections --------------

def bisect_least_difference(f, g) -> int | None:
    """Least integer where two step forms (StepFunction or FiberSteps)
    differ, reading both values at every break of either by bisection."""
    fiber = f.fiber

    def value(s, i):
        idx = bisect_right(s.breaks, i) - 1
        return fiber.identity() if idx < 0 else s.values[idx]

    for b in sorted(set(f.breaks) | set(g.breaks)):
        if value(f, b) != value(g, b):
            return b
    return None
