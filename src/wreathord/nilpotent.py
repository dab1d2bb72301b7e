"""Finitely generated torsion-free ordered groups in collected coordinates.

Free abelian groups and free nilpotent groups of class 2 are represented
in collected (Mal'cev) form: generator exponents ``e_1 .. e_k`` followed
by exponents of the basic commutators ``[x_p, x_q]`` for ``p < q``.  The
collected form is unique, so equality is coordinate equality (an
element's own ``==`` and hash, which the wreath levels read), and the
"first nonzero layer" order (lexicographic on generator exponents, then
on commutator exponents) is a bi-invariant total order: conjugation acts
trivially on both lower-central quotients.

Commutator convention throughout the package: ``[x, y] = x^-1 y^-1 x y``
and ``x^y = y^-1 x y``.

Word syntax (used by the CLI and by plugin word sets)::

    word    := factor { "*" factor }
    factor  := atom [ "^" int ]
    atom    := var | "[" word "," word "]" | "(" word ")"
    var     := "x" digits          (1-based index)

``select_S`` reduces any word outside gamma_3(F) to one of two ordered
groups: Z when some variable has a nonzero exponent sum, otherwise the
free class-2 group of rank 2.  A word in gamma_3(F) needs a group of
class >= 3, which a user plugin supplies together with a verbal witness.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Sequence

from .groundwork import Ordering
from .reporting import FAIL, PASS, Report, run_checks


class UnsupportedWordSet(Exception):
    """Word in gamma_3(F), with no built-in group; supply a plugin instead."""


class WordSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class Word:
    """Element of the free group on x1, x2, ... as exponent runs.

    A run is (variable index >= 1, nonzero exponent): ``x1^3*x2^-1`` is
    ((1, 3), (2, -1)).  ``text``, the parsed text kept for messages,
    takes no part in equality.
    """

    letters: tuple[tuple[int, int], ...]
    text: str | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        for var, exp in self.letters:
            if var < 1 or not exp:
                raise ValueError(f"bad run ({var}, {exp})")

    @property
    def arity(self) -> int:
        return max((var for var, _ in self.letters), default=0)

    def reduced(self) -> "Word":
        """Freely reduced form: runs of one variable merged on a stack, and
        cancelled runs dropped, so that their neighbours merge in turn."""
        out: list[tuple[int, int]] = []
        for var, exp in self.letters:
            if out and out[-1][0] == var:
                exp += out.pop()[1]
                if not exp:
                    continue
            out.append((var, exp))
        return Word(tuple(out), self.text)

    def renumbered(self) -> "Word":
        """The word with its occurring variables renamed x1..xk in
        increasing order."""
        number = {v: i for i, v in enumerate(sorted({v for v, _ in self.letters}), 1)}
        return Word(tuple((number[v], e) for v, e in self.letters), self.text)

    def inv(self) -> "Word":
        return Word(tuple(_inverse(self.letters)))

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    @staticmethod
    def power(var: int, n: int) -> "Word":
        return Word(((var, n),) if n else ())

    @staticmethod
    def commutator(u: "Word", v: "Word") -> "Word":
        return u.inv() * v.inv() * u * v

    def fmt(self) -> str:
        return "*".join(f"x{v}" if e == 1 else f"x{v}^{e}" for v, e in self.letters) or "1"

    def __str__(self) -> str:
        return self.fmt()


_INT = re.compile(r"-?\d+")
_INDEX = re.compile(r"\d+")


def _inverse(runs: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
    return [(v, -e) for v, e in reversed(runs)]


class _WordParser:
    """Recursive descent over run lists, matching patterns in place at
    ``pos``: linear in the text, and ``parse_word`` validates each run
    once, in its one Word."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str) -> WordSyntaxError:
        return WordSyntaxError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def read_int(self, pattern: re.Pattern, expected: str) -> int:
        """The integer that ``pattern`` matches at ``pos``; an error
        points at the literal."""
        m = pattern.match(self.text, self.pos)
        if m is None:
            raise self.error(expected)
        try:
            n = int(m.group(0))
        except ValueError:  # more digits than Python converts
            raise self.error("integer literal is too long") from None
        self.pos = m.end()
        return n

    def parse_word(self) -> list[tuple[int, int]]:
        runs = self.parse_factor()
        while self.peek() == "*":
            self.pos += 1
            runs += self.parse_factor()
        return runs

    def parse_factor(self) -> list[tuple[int, int]]:
        runs = self.parse_atom()
        if self.peek() == "^":
            self.pos += 1
            self.skip_ws()
            n = self.read_int(_INT, "expected an integer")
            if len(runs) == 1:
                (var, e), = runs
                runs = [(var, e * n)] if n else []
            else:
                runs = runs * n if n >= 0 else _inverse(runs) * -n
        return runs

    def parse_atom(self) -> list[tuple[int, int]]:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            runs = self.parse_word()
            self.expect(")")
            return runs
        if ch == "[":
            self.pos += 1
            u = self.parse_word()
            self.expect(",")
            v = self.parse_word()
            self.expect("]")
            return _inverse(u) + _inverse(v) + u + v
        if ch == "x":
            self.pos += 1
            var = self.read_int(_INDEX, "expected a variable index after 'x'")
            if var < 1:
                raise self.error("variable indices start at 1")
            return [(var, 1)]
        raise self.error("expected a variable, '[' or '('")


def parse_word(text: str) -> Word:
    """The word of ``text``: a power of one run multiplies its exponent,
    a power of a compound factor repeats the factor's runs."""
    p = _WordParser(text)
    runs = p.parse_word()
    p.skip_ws()
    if p.pos != len(text):
        raise p.error("trailing input")
    return Word(tuple(runs), text)


@dataclass(frozen=True)
class MalcevElement:
    """Collected-form element: generator exponents plus basic-commutator exponents."""

    gens: tuple[int, ...]
    comms: tuple[int, ...]

    @property
    def is_identity(self) -> bool:
        return not any(self.gens) and not any(self.comms)

    def fmt(self) -> str:
        if self.is_identity:
            return "1"
        parts = [f"x{i + 1}^{e}" if e != 1 else f"x{i + 1}"
                 for i, e in enumerate(self.gens) if e]
        idx, rank = 0, len(self.gens)
        for p in range(rank):
            for q in range(p + 1, rank):
                f = self.comms[idx]
                idx += 1
                if f:
                    com = f"[x{p + 1},x{q + 1}]"
                    parts.append(com if f == 1 else f"{com}^{f}")
        return " ".join(parts)

    def __str__(self) -> str:
        return self.fmt()


class Nil2Group:
    """Free nilpotent group of class <= 2 and given rank, fully ordered.

    Rank 1 degenerates to the free abelian group Z.
    """

    def __init__(self, rank: int):
        if rank < 1:
            raise ValueError("rank must be >= 1")
        self.rank = rank
        self._pairs = [(p, q) for p in range(rank) for q in range(p + 1, rank)]
        self._identity = MalcevElement((0,) * rank, (0,) * len(self._pairs))

    @property
    def nilpotency_class(self) -> int:
        return 1 if self.rank == 1 else 2

    def identity(self) -> MalcevElement:
        return self._identity

    def generator(self, i: int) -> MalcevElement:
        if not 1 <= i <= self.rank:
            raise ValueError(f"no generator x{i} at rank {self.rank}")
        gens = tuple(1 if j == i - 1 else 0 for j in range(self.rank))
        return MalcevElement(gens, (0,) * len(self._pairs))

    def element(self, gens: Sequence[int], comms: Sequence[int] = ()) -> MalcevElement:
        """The element with the given coordinates; the one constructor that
        takes them from the caller, so the one that checks their counts
        (mul, inv and pow build the right rank by construction)."""
        gens, comms = tuple(gens), tuple(comms) or (0,) * len(self._pairs)
        if len(gens) != self.rank:
            raise ValueError("generator coordinate count must equal rank")
        if len(comms) != len(self._pairs):
            raise ValueError("commutator coordinate count mismatch")
        return MalcevElement(gens, comms)

    def _check(self, *xs: MalcevElement):
        for x in xs:
            if len(x.gens) != self.rank:
                raise ValueError(f"rank mismatch: {len(x.gens)} vs {self.rank}")

    def mul(self, x: MalcevElement, y: MalcevElement) -> MalcevElement:
        """Collected product: generator exponents add; commutator exponents
        add plus the bilinear cross terms from exchanging generators."""
        self._check(x, y)
        gens = tuple(a + b for a, b in zip(x.gens, y.gens))
        comms = tuple(
            f1 + f2 - y.gens[p] * x.gens[q]
            for (p, q), f1, f2 in zip(self._pairs, x.comms, y.comms)
        )
        return MalcevElement(gens, comms)

    def inv(self, x: MalcevElement) -> MalcevElement:
        self._check(x)
        gens = tuple(-a for a in x.gens)
        comms = tuple(
            -f - x.gens[p] * x.gens[q]
            for (p, q), f in zip(self._pairs, x.comms)
        )
        return MalcevElement(gens, comms)

    def pow(self, x: MalcevElement, n: int) -> MalcevElement:
        self._check(x)
        if n < 0:
            return self.pow(self.inv(x), -n)
        binom = n * (n - 1) // 2
        gens = tuple(n * a for a in x.gens)
        comms = tuple(
            n * f - binom * x.gens[p] * x.gens[q]
            for (p, q), f in zip(self._pairs, x.comms)
        )
        return MalcevElement(gens, comms)

    def comm(self, x: MalcevElement, y: MalcevElement) -> MalcevElement:
        return self.mul(self.mul(self.inv(x), self.inv(y)), self.mul(x, y))

    def equal(self, x: MalcevElement, y: MalcevElement) -> bool:
        self._check(x, y)
        return x == y

    def compare(self, x: MalcevElement, y: MalcevElement) -> Ordering:
        self._check(x, y)
        return Ordering.of((x.gens, x.comms), (y.gens, y.comms))

    def is_positive(self, x: MalcevElement) -> bool:
        return self.compare(x, self.identity()) is Ordering.GREATER

    def fmt(self, x: MalcevElement) -> str:
        return x.fmt()

    def ray_decompose(self, s: MalcevElement, a: MalcevElement) -> tuple[MalcevElement, int]:
        """Write s = a^i * rep with rep the canonical representative of the
        ray {a^i s}.  The pivot coordinate grows linearly along the ray,
        which makes the representative independent of the start point."""
        self._check(s, a)
        for idx, v in enumerate(a.gens):
            if v:
                i = s.gens[idx] // v
                return self.mul(self.pow(a, -i), s), i
        # a is central here (all generator exponents vanish)
        for idx, v in enumerate(a.comms):
            if v:
                i = s.comms[idx] // v
                return self.mul(self.pow(a, -i), s), i
        raise ValueError("ray element must be nontrivial")


def eval_word(w: Word, args: Sequence[Any], group: Any) -> Any:
    """Image of the substitution w(args...) computed with the group's ops.

    Works for any group object exposing identity/mul/inv/pow, with one
    ``pow`` per run of exponent other than +-1.
    """
    if len(args) < w.arity:
        raise ValueError(f"word needs {w.arity} arguments, got {len(args)}")
    out = group.identity()
    for var, exp in w.letters:
        g = args[var - 1]
        out = group.mul(out, g if exp == 1 else group.inv(g) if exp == -1
                        else group.pow(g, exp))
    return out


# -- verbal witnesses ---------------------------------------------------

@dataclass(frozen=True)
class VerbalWitness:
    """An element of V(G) together with its presentation as a signed
    product of word values over G: the nontrivial positive witness in
    V(S), or psi_n in V(T) over Q Wr S."""

    element: Any
    presentation: tuple[tuple[Word, tuple[Any, ...], int], ...]

    def replay(self, group: Any) -> Any:
        out = group.identity()
        for word, args, sign in self.presentation:
            value = eval_word(word, args, group)
            out = group.mul(out, value if sign == 1 else group.inv(value))
        return out


def normalize_family(family: Word | str | Any) -> Word | Any:
    """A word, or its text, freely reduced with its occurring variables
    renamed x1..xk (V is closed under renaming them); a plugin as is."""
    if isinstance(family, str):
        family = parse_word(family)
    if isinstance(family, Word):
        family = family.reduced().renumbered()
    return family


def _reduce_word(w: Word) -> tuple[Nil2Group, VerbalWitness, str]:
    """S, a witness and the family key of a normalized word (see select_S)."""
    if not w.letters:
        raise ValueError("the trivial word has no verbal embedding")
    k = w.arity
    free = Nil2Group(k)
    image = eval_word(w, [free.generator(i) for i in range(1, k + 1)], free)
    if any(image.gens):
        # (a) x_i -> t for the first nonzero exponent sum e, the rest -> 1
        i = next(i for i, e in enumerate(image.gens) if e)
        group = Nil2Group(1)
        images = {i: group.generator(1)}
        key = Word.power(1, abs(image.gens[i])).fmt()
    elif any(image.comms):
        # (b) x_p -> x1, x_q -> x2 for the first nonzero [x_p,x_q] exponent
        f, (p, q) = next((f, pq) for f, pq in zip(image.comms, free._pairs) if f)
        group = Nil2Group(2)
        images = {p: group.generator(1), q: group.generator(2)}
        key = "[x1,x2]" if abs(f) == 1 else f"[x1,x2]^{abs(f)}"
    else:
        raise UnsupportedWordSet(
            f"word {w.text or w.fmt()!r} lies in gamma_3(F): every group of class <= 2"
            " satisfies it, so S needs class >= 3; supply a plugin with select()")
    args = tuple(images.get(j, group.identity()) for j in range(k))
    return group, VerbalWitness(eval_word(w, args, group), ((w, args, 1),)), key


S_OPERATIONS = ("identity", "mul", "inv", "pow", "compare", "fmt", "ray_decompose",
                "nilpotency_class")


def _check_contract(group: Any, a: Any, key: str) -> None:
    """Raise UnsupportedWordSet naming each breach of the S contract:
    the operations of ``S_OPERATIONS`` that S lacks, and elements without
    value equality (``mul(a, identity())``, a new element of the same
    value, must equal a and hash as a does)."""
    missing = [op for op in S_OPERATIONS if not hasattr(group, op)]
    breaches = [f"S lacks {', '.join(missing)}"] if missing else []
    if "identity" not in missing and "mul" not in missing:
        same = group.mul(a, group.identity())
        try:
            valued = same == a and hash(same) == hash(a)
        except TypeError:
            valued = False
        if not valued:
            breaches.append("S elements must be hashable with value equality"
                            " (mul(a, identity()) must == a, with the same hash)")
    if breaches:
        raise UnsupportedWordSet(f"word family {key!r}: " + "; ".join(breaches))


def select_S(family: Word | str | Any) -> tuple[Any, VerbalWitness, str]:
    """Pick the fiber/top group S for a word set V, a positive witness in
    V(S), and the family key that names the construction.

    A word (or its text) is freely reduced and its occurring variables
    renumbered x1..xk.  Its image in the free class-2 group of rank k is
    x1^e1 ... xk^ek times a product of [x_p,x_q]^(a_pq):

    * (a) some e_i != 0: S = Z, sending x_i to the generator t and every
      other variable to 1, gives the value t^(e_i); the key is x1^|e_i|.
    * (b) every e_i = 0: S is the free class-2 group of rank 2, and
      sending x_p -> x1, x_q -> x2 (the first a_pq != 0) and every other
      variable to 1 gives [x1,x2]^(a_pq); the key is [x1,x2] or
      [x1,x2]^|a_pq|.

    Both substitutions are homomorphisms from the class-2 quotient, so
    the value is the image computed there.  If neither applies, the word
    lies in gamma_3(F), every group of class <= 2 satisfies it, and
    UnsupportedWordSet is raised.  A plugin object exposing ``select()``
    supplies its own (ordered group, witness) pair instead, keyed by its
    ``family_key``.  A negative witness is replaced by its inverse (the
    presentation reversed with its signs flipped), which also lies in
    V(S), so the order of S never needs inverting.

    S must offer every operation of ``S_OPERATIONS``: ``identity``,
    ``mul``, ``inv``, ``pow``, ``compare``, ``fmt``,
    ``ray_decompose(s, a)`` and the attribute ``nilpotency_class``.  Its
    elements must be hashable with value equality, the one equality the
    library reads: a point atom finds its origin by ``==``, a ray-step
    form groups its parts by ray representative, and atoms at equal
    shifts merge; ``compare`` orders them.  For a plugin S that lacks an
    operation, or whose ``mul(a, identity())`` is not equal to the
    witness a with the same hash, UnsupportedWordSet is raised, naming
    each breach.
    """
    family = normalize_family(family)
    if isinstance(family, Word):
        group, witness, key = _reduce_word(family)
    elif hasattr(family, "select"):
        group, witness = family.select()
        key = getattr(family, "family_key", repr(family))
        _check_contract(group, witness.element, key)
    else:
        raise UnsupportedWordSet(f"unsupported word family: {family!r}")

    a, one = witness.element, group.identity()
    if a == one:
        raise ValueError("verbal witness must be nontrivial")
    if group.compare(a, one) is Ordering.LESS:
        witness = VerbalWitness(group.inv(a), tuple(
            (w, args, -sign) for w, args, sign in reversed(witness.presentation)))
    return group, witness, key


def verify_witness(witness: VerbalWitness, group: Any) -> Report:
    """Re-evaluate the witness presentation and check it against the element."""

    def reconstruct(rng, budget):
        got = witness.replay(group)
        if got == witness.element:
            return PASS, {"element": group.fmt(witness.element)}
        return FAIL, {
            "expected": group.fmt(witness.element),
            "recomputed": group.fmt(got),
        }

    def nontrivial(rng, budget):
        if witness.element == group.identity():
            return FAIL, {"element": group.fmt(witness.element)}
        return PASS, {}

    def positive(rng, budget):
        if group.compare(witness.element, group.identity()) is Ordering.GREATER:
            return PASS, {}
        return FAIL, {"element": group.fmt(witness.element)}

    checks = [
        ("witness-reconstruct", reconstruct),
        ("witness-nontrivial", nontrivial),
        ("witness-positive", positive),
    ]
    return run_checks("witness", 0, 0, checks)
