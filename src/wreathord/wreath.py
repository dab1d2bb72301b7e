"""Generic Cartesian wreath-product elements with lazy formal-product bases.

An element of ``A Wr B`` (the semidirect product ``B ⋉ A^B``) is stored
as a top element of the coordinate group B plus a *formal product* of
shifted base atoms.  Base functions are never materialized as infinite
maps; an atom knows its value at any coordinate.  The action
convention is ``f^b(b0) = f(b0 * b^-1)``, and ``[x, y] = x^-1 y^-1 x y``,
``x^y = y^-1 x y``.

Apart from the two tail atoms (alpha and omega), every base function
has one of two shapes: a point (``PointFn``), one value at the origin
only, or a threshold (``ThresholdFn``), one value from the origin on
along its ray.  The paper's phi_n, psi_n and rho_g are points and
tau_n, chi_n and pi_g thresholds.  A shape states its value changes
along the origin's ray once; its ray form is read off them, a product's
fiber-step form off the product's values where some atom's value
changes, and two atoms of one shape at the same shift merge into one.

Each level decides equality, identity and order of two elements with
equal tops by one exact route, the same for every pair:

1. a form level (Q Wr C, Q Wr S, T Wr C, the fibers of the next level)
   compares canonical extensional forms: rational step functions over
   an integer line, ray-step functions over a nilpotent coordinate
   group, or fiber-valued step forms.  Every base function here has
   well-ordered support, so a form is the identity below its first
   break and keeps only its changes; that is what gives two forms a
   least difference.  The step and fiber-step forms share one step
   core, which reads the values' equality from their fiber; a ray-step
   form is one step fold per ray.  The three form classes share one
   protocol (``of_atoms``, ``is_trivial``, ``key``, ``least_difference``,
   ``compare_at``, ``fmt``): a level names its class;
2. a tail level (W and D Wr Z) keeps no forms and applies an exact tail
   criterion to x * y^-1, a product of shifted powers of its tail atom
   and point atoms.  Each tail atom kind names finitely many candidate
   coordinates that are sure to contain the least coordinate where the
   product is not the identity, if there is one (alpha: the shifts, the
   point coordinates and, after each shift, as many further integers as
   there are nonzero net exponents at or below it; omega: the dyadic
   collision and point coordinates and, for each shift with a nonzero
   net, its first non-collision power whose value is not the identity;
   with no tail atom left, the point coordinates), and the least
   non-identity candidate is the least difference.

So ``Equal`` and ``Distinct`` are the only verdicts produced; a level
given an atom its route cannot read raises TypeError instead of
guessing.  ``WreathGroup.certified`` replaces a tail product known to
equal a point function by that point atom, once it has decided so.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from operator import itemgetter, sub
from typing import Any, Iterable, Iterator

from .groundwork import RATIONALS, Ordering, Rational, Verdict


class ConstructionViolation(Exception):
    """An identity the construction guarantees failed to verify."""


# ----------------------------------------------------------------------
# canonical extensional forms
# ----------------------------------------------------------------------

class _Steps:
    """A function on an integer line that is the fiber's identity below
    its first break and changes value finitely often: ``value(i)`` is
    ``values[j]`` for ``breaks[j] <= i < breaks[j+1]``, and the right
    tail is the last value.  Canonical form (adjacent values distinct,
    the first not the identity) makes equality structural.  Equality,
    identity and formatting of the values come from ``fiber``.
    """

    __slots__ = ()

    @staticmethod
    def _canonical(fiber: Any, changes: Iterable[tuple[int, Any]]) -> tuple:
        """Breaks and values of the function that is the identity below
        every change and takes value ``v`` from each change ``(b, v)``
        on; the breaks must be distinct."""
        running = fiber.identity()
        breaks: list[int] = []
        values: list[Any] = []
        for b, v in sorted(changes, key=itemgetter(0)):
            if not fiber.equal(v, running):
                breaks.append(b)
                values.append(v)
                running = v
        return tuple(breaks), tuple(values)

    def value(self, i: int) -> Any:
        idx = bisect_right(self.breaks, i) - 1
        return self.fiber.identity() if idx < 0 else self.values[idx]

    @property
    def is_trivial(self) -> bool:
        return not self.breaks

    def least_difference(self, other: "_Steps") -> int | None:
        """Least integer where the two functions differ, or None: one walk
        along both break lists.  Both forms are canonical, so they agree
        below the first place where their (break, value) lists differ,
        and differ at the lesser of the two breaks there."""
        equal = self.fiber.equal
        for b, v, c, w in zip(self.breaks, self.values, other.breaks, other.values):
            if b != c or not equal(v, w):
                return min(b, c)
        return _first_unmatched(self.breaks, other.breaks)

    def compare_at(self, other: "_Steps", c: int) -> Ordering:
        """The order of the two values at c, their least difference."""
        return self.fiber.compare(self.value(c), other.value(c))

    def fmt(self) -> str:
        fmt = self.fiber.fmt
        one = fmt(self.fiber.identity())
        if not self.breaks:
            return "{all: %s}" % one
        parts = [f"i<{self.breaks[0]}: {one}"]
        for j, b in enumerate(self.breaks):
            v = fmt(self.values[j])
            if j + 1 < len(self.breaks):
                parts.append(f"{b}<=i<{self.breaks[j + 1]}: {v}")
            else:
                parts.append(f"i>={b}: {v}")
        return "{" + ", ".join(parts) + "}"


def _first_unmatched(xs: tuple, ys: tuple) -> Any | None:
    """The first break of the longer list past the shorter one's end."""
    rest = xs[len(ys):] or ys[len(xs):]
    return rest[0] if rest else None


def _add_over_lcm(n1: int, d1: int, n2: int, d2: int) -> tuple[int, int]:
    """n1/d1 + n2/d2 as a numerator over lcm(d1, d2), for positive
    denominators: one gcd, g = gcd(d1, d2), gives n1(d2/g) + n2(d1/g) over
    d1(d2/g) (Knuth, TAOCP vol. 2, 4.5.1, without the step that reduces
    the sum).  A small d2 makes that gcd small, however large d1 is."""
    g = gcd(d1, d2)
    return n1 * (d2 // g) + n2 * (d1 // g), d1 // g * d2


class StepFunction(_Steps):
    """Rational step function: the form of ``Q Wr C`` and of each ray
    of a RayStepFunction, kept as its ``jumps``: (b, numerator,
    denominator) in lowest terms of the value from b on minus the value
    before b, per break b.  The rationals are abelian, so a sum of
    shifted, scaled step functions is one fold of their jumps.  The
    jumps are as canonical as the values: equality and hashing read
    them, and two forms first differ where their jumps first do, so the
    jumps there order them.  So neither a fold nor an order builds a
    Fraction; the values are summed from the jumps once, when first
    asked for, unless the form was made from them."""

    __slots__ = ("breaks", "jumps", "_values")
    fiber = RATIONALS

    def __init__(self, jumps: tuple[tuple[int, int, int], ...],
                 values: tuple[Rational, ...] | None = None):
        self.breaks = tuple([b for b, _, _ in jumps])
        self.jumps = jumps
        self._values = values

    @property
    def values(self) -> tuple[Rational, ...]:
        if self._values is None:
            values = []
            n, d = 0, 1
            for _, jn, jd in self.jumps:
                n, d = _add_over_lcm(n, d, jn, jd)
                values.append(Fraction(n, d))
            self._values = tuple(values)
        return self._values

    def __eq__(self, other: object) -> bool:
        if type(other) is not StepFunction:
            return NotImplemented
        return self.jumps == other.jumps

    def __hash__(self) -> int:
        return hash(self.jumps)

    def __repr__(self) -> str:
        return f"StepFunction(breaks={self.breaks!r}, values={self.values!r})"

    @staticmethod
    def make(changes: Iterable[tuple[int, Rational]]) -> "StepFunction":
        breaks, values = _Steps._canonical(RATIONALS, changes)
        # the first jump is the first value itself
        steps = values[:1] + tuple(map(sub, values[1:], values))
        return StepFunction(tuple((b, d.numerator, d.denominator)
                                  for b, d in zip(breaks, steps)), values)

    @staticmethod
    def of_atoms(group: "WreathGroup", atoms: Iterable["Atom"]) -> "StepFunction":
        """Canonical form of a product of point and threshold atoms: on
        an integer line the origin's ray is the line, at index 0."""
        return StepFunction.fold((a.fn.ray[1], a.shift, a.exp) for a in atoms)

    @staticmethod
    def fold(parts: Iterable[tuple["StepFunction", int, int]]) -> "StepFunction":
        """Canonical form of the sum of ``step`` shifted by ``shift`` and
        scaled by ``exp`` over the ``(step, shift, exp)`` parts.

        Each jump of a part is added at its shifted coordinate, and the
        nonzero sums, sorted once and put in lowest terms, are the jumps
        of the result: O(B log B) in the total break count B rather than
        one merge per part.  A sum is kept as a numerator over the lcm of
        its jumps' denominators (``_add_over_lcm``), so every gcd here is
        as small as the jumps' denominators, and no running value is
        built.  The result is canonical: no zero jump, so adjacent values
        are distinct.
        """
        sums: dict[int, tuple[int, int]] = {}
        for step, shift, exp in parts:
            if not exp:
                continue
            for b, n, d in step.jumps:
                c = b + shift
                n *= exp
                if c in sums:
                    n, d = _add_over_lcm(*sums[c], n, d)
                sums[c] = n, d
        jumps = []
        for b, (n, d) in sorted(sums.items()):
            if n:
                g = gcd(n, d)
                jumps.append((b, n // g, d // g))
        return StepFunction(tuple(jumps))

    def least_difference(self, other: "StepFunction") -> int | None:
        """Least integer where the two functions differ, or None: the
        first break where their jump lists differ, as for the values."""
        for p, q in zip(self.jumps, other.jumps):
            if p != q:
                return min(p[0], q[0])
        return _first_unmatched(self.breaks, other.breaks)

    def compare_at(self, other: "StepFunction", c: int) -> Ordering:
        """The order at c, their least difference, of the jumps there."""
        (n1, d1), (n2, d2) = self._jump_at(c), other._jump_at(c)
        return Ordering.of(n1 * d2, n2 * d1)

    def _jump_at(self, c: int) -> tuple[int, int]:
        i = bisect_left(self.breaks, c)
        return self.jumps[i][1:] if self.breaks[i:i + 1] == (c,) else (0, 1)

    def key(self) -> "StepFunction":
        return self

    def add(self, other: "StepFunction") -> "StepFunction":
        return StepFunction.fold(((self, 0, 1), (other, 0, 1)))


@dataclass(frozen=True)
class RayStepFunction:
    """Rational function on a coordinate group S supported on finitely
    many rays ``{a^i * g : i in Z}``.

    Each ray is keyed by the canonical coset representative of ``g``
    under left translation by the witness ``a``; the function along the
    ray is a StepFunction in the ray index ``i``, 0 below its first
    break.  Value off every stored ray is 0.  ``coords`` is the
    coordinate group S; it takes no part in equality.
    """

    rays: tuple[tuple[Any, Any, StepFunction], ...]
    coords: Any = field(compare=False, repr=False)

    @staticmethod
    def _fold(parts: Iterable[tuple], coords: Any) -> "RayStepFunction":
        """Sum of the parts ``(key, rep, (steps, shift, exp))``, each a
        StepFunction part on the ray of ``rep``: one StepFunction.fold
        per ray (a lone unmoved part is kept as it is), rays sorted by
        key and zero rays dropped."""
        groups: dict[Any, tuple[Any, list]] = {}
        for key, rep, part in parts:
            if key in groups:
                groups[key][1].append(part)
            else:
                groups[key] = (rep, [part])
        rays = []
        for key in sorted(groups):
            rep, ray_parts = groups[key]
            steps, shift, exp = ray_parts[0]
            if len(ray_parts) > 1 or shift or exp != 1:
                steps = StepFunction.fold(ray_parts)
            if not steps.is_trivial:
                rays.append((key, rep, steps))
        return RayStepFunction(tuple(rays), coords)

    @staticmethod
    def of_atoms(group: "WreathGroup", atoms: Iterable["Atom"]) -> "RayStepFunction":
        """One fold per ray.  An atom's ray form lies on the ray of its
        representative rep; shifting the atom by s moves it to rep * s =
        a^i * rep', index i up the ray of rep'."""
        coords = group.coords
        parts = []
        for a in atoms:
            rep, steps = a.fn.ray
            rep, i = coords.ray_decompose(coords.mul(rep, a.shift))
            parts.append((coords.key(rep), rep, (steps, i, a.exp)))
        return RayStepFunction._fold(parts, coords)

    @property
    def is_trivial(self) -> bool:
        return not self.rays

    def key(self) -> "RayStepFunction":
        return self

    def value(self, s: Any) -> Rational:
        rep, i = self.coords.ray_decompose(s)
        key = self.coords.key(rep)
        for k, _, steps in self.rays:
            if k == key:
                return steps.value(i)
        return Fraction(0)

    def compare_at(self, other: "RayStepFunction", s: Any) -> Ordering:
        """The order of the two values at s, their least difference."""
        return Ordering.of(self.value(s), other.value(s))

    def add(self, other: "RayStepFunction") -> "RayStepFunction":
        return RayStepFunction._fold(
            ((k, r, (s, 0, 1)) for k, r, s in self.rays + other.rays), self.coords)

    def least_difference(self, other: "RayStepFunction") -> Any | None:
        """Least point of S where the two functions differ, or None: the
        least first break over the rays of their difference."""
        diff = RayStepFunction._fold(
            [(k, r, (s, 0, 1)) for k, r, s in self.rays]
            + [(k, r, (s, 0, -1)) for k, r, s in other.rays], self.coords)
        coords, best = self.coords, None
        for _, rep, steps in diff.rays:
            cand = coords.mul(coords.witness_power(steps.breaks[0]), rep)
            if best is None or coords.compare(cand, best) is Ordering.LESS:
                best = cand
        return best

    def fmt(self) -> str:
        if not self.rays:
            return "{0}"
        parts = [f"ray({self.coords.fmt(rep)}): {steps.fmt()}" for _, rep, steps in self.rays]
        return "{" + "; ".join(parts) + "}"


class FiberSteps(_Steps):
    """A step function with values in an arbitrary fiber group, the
    identity below its first break; the form of a base whose atoms are
    all points and thresholds.  The fiber need not be abelian, so
    products keep their factors' order."""

    __slots__ = ("fiber", "breaks", "values", "_key")

    def __init__(self, fiber, breaks: tuple[int, ...], values: tuple):
        self.fiber = fiber
        self.breaks = breaks
        self.values = values
        self._key = None

    @staticmethod
    def make(fiber, changes: Iterable[tuple[int, Any]]) -> "FiberSteps":
        return FiberSteps(fiber, *_Steps._canonical(fiber, changes))

    @staticmethod
    def of_atoms(group: "WreathGroup", atoms: Iterable["Atom"]) -> "FiberSteps":
        """Form of a product of point and threshold atoms: no factor
        changes between two coordinates where some atom's value changes,
        so the product's value is read off the atoms at those only."""
        atoms = tuple(atoms)
        breaks = sorted({b + a.shift for a in atoms for b, _ in a.fn.changes(0)})
        return FiberSteps.make(group.fiber, zip(breaks, group._values(atoms, breaks)))

    def mul(self, other: "FiberSteps") -> "FiberSteps":
        f = self.fiber
        merged = sorted(set(self.breaks) | set(other.breaks))
        return FiberSteps.make(f, [(b, f.mul(self.value(b), other.value(b))) for b in merged])

    def key(self) -> tuple:
        if self._key is None:
            self._key = (self.breaks, tuple(self.fiber.key(v) for v in self.values))
        return self._key

    def finite_support_pairs(self) -> list[tuple[int, Any]]:
        """(coordinate, value) for every coordinate with nontrivial value;
        only valid when the right tail is the identity."""
        f = self.fiber
        if self.values and not f.is_identity(self.values[-1]):
            raise ValueError("right tail is not the identity")
        pairs = []
        for j, b in enumerate(self.breaks[:-1]):
            v = self.values[j]
            if not f.is_identity(v):
                pairs.extend((i, v) for i in range(b, self.breaks[j + 1]))
        return pairs


# ----------------------------------------------------------------------
# atoms
# ----------------------------------------------------------------------

class BaseFunction:
    """A named generator function of a wreath base.

    Subclasses report the value at any (unshifted) coordinate.  The two
    extensional shapes, PointFn and ThresholdFn, also state their value
    changes and ray form for the form levels; the tail kinds (AlphaFn,
    OmegaFn) expose their tail criterion instead.
    """

    name = "?"
    finite = False
    tail_kind: str | None = None

    def value(self, rel: Any) -> Any:
        raise NotImplementedError

    @property
    def is_trivial(self) -> bool:
        return False

    @property
    def ray(self) -> tuple[Any, StepFunction]:
        raise TypeError(f"{self.name} has no ray form")

    def changes(self, i0: int) -> tuple:
        """(ray index, value from there on) at each value change along
        the origin's ray, the origin being its i0-th point."""
        raise TypeError(f"{self.name} has no fiber-step form")

    def tail_identity(self, group: "WreathGroup", element: "WreathElement",
                      tails: list, finites: list) -> Verdict:
        """Tail-criterion verdict on whether ``element`` (a product of this tail
        atom's shifted powers and finite atoms) is the identity: Equal,
        or Distinct(j) with j the least coordinate where it is not."""
        raise TypeError(f"{self.name} has no tail criterion")

    def merge_with(self, other: "BaseFunction", e1: int, e2: int) -> "BaseFunction | None":
        """Pointwise product with another function at the same shift, if
        the two collapse to a single atom; None when no merge applies."""
        return None

    def key(self) -> tuple:
        return (self.name,)

    def fmt(self) -> str:
        return self.name


class _Shape(BaseFunction):
    """A point or a threshold: ``fiber_value`` near the origin of
    ``coords`` and the identity elsewhere.  A shape's ``changes(i0)``
    lists its value changes along the origin's ray, the origin being
    the ray's i0-th point: the atom's ray form is read off them, and a
    fiber-step form evaluates its product where they fall; two atoms of
    one shape at the same shift merge into one."""

    def __init__(self, value: Any, fiber: Any, coords: Any):
        self.fiber_value = value
        self.fiber = fiber
        self.coords = coords
        self._trivial: bool | None = None
        self._key: tuple | None = None
        self._origin: tuple | None = None
        self._ray: tuple | None = None

    @property
    def _start(self) -> tuple:
        """(ray key, ray representative, index) of the origin."""
        if self._origin is None:
            rep, i = self.coords.ray_decompose(self.coords.identity())
            self._origin = self.coords.key(rep), rep, i
        return self._origin

    @property
    def ray(self) -> tuple[Any, StepFunction]:
        """(representative, StepFunction) of the origin's ray, the only
        ray where a rational atom is not 0, built from its one or two
        changes: to the value v, and past a point back to 0."""
        if self._ray is None:
            _, rep, i0 = self._start
            v = self.fiber_value
            n, d = v.numerator, v.denominator
            changes = self.changes(i0) if n else ()
            self._ray = rep, StepFunction(tuple([(i, n if w is v else -n, d) for i, w in changes]))
        return self._ray

    @property
    def is_trivial(self) -> bool:
        if self._trivial is None:
            self._trivial = self.fiber.is_identity(self.fiber_value)
        return self._trivial

    def key(self) -> tuple:
        if self._key is None:
            self._key = self.name, self.fiber.key(self.fiber_value)
        return self._key

    def fmt(self) -> str:
        return f"{self.name}({self.fiber.fmt(self.fiber_value)})"

    def merge_with(self, other: BaseFunction, e1: int, e2: int) -> "BaseFunction | None":
        """The one atom of this shape with value v1^e1 * v2^e2."""
        if type(other) is not type(self):
            return None
        f, v1, v2 = self.fiber, self.fiber_value, other.fiber_value
        if e1 != 1:
            v1 = f.pow(v1, e1)
        if e2 != 1:
            v2 = f.pow(v2, e2)
        return type(self)(f.mul(v1, v2), f, self.coords)


class PointFn(_Shape):
    """The base function supported at the origin coordinate only."""

    name = "point"
    finite = True

    def __init__(self, value: Any, fiber: Any, coords: Any):
        super().__init__(value, fiber, coords)
        self.origin = coords.identity()

    def changes(self, i0: int) -> tuple:
        return (i0, self.fiber_value), (i0 + 1, self.fiber.identity())

    def value(self, rel: Any) -> Any:
        return self.fiber_value if rel == self.origin else self.fiber.identity()


class ThresholdFn(_Shape):
    """The base function taking one value from the origin on, along the
    origin's ray: at ``a^i * rep`` for every i >= i0, where ``a^i0 * rep``
    is the ray decomposition of the origin (on an integer line every
    coordinate from 0 on), and the identity elsewhere."""

    name = "threshold"

    def changes(self, i0: int) -> tuple:
        return ((i0, self.fiber_value),)

    def value(self, rel: Any) -> Any:
        key, _, i0 = self._start
        rep, i = self.coords.ray_decompose(rel)
        if i >= i0 and self.coords.key(rep) == key:
            return self.fiber_value
        return self.fiber.identity()


class Atom:
    """A base function together with a shift by a top-group coordinate
    and an integer exponent; equal by value.  A slotted class, not a
    frozen dataclass: a verify-rational pass builds over 200k atoms."""

    __slots__ = ("fn", "shift", "exp")

    def __init__(self, fn: BaseFunction, shift: Any, exp: int):
        self.fn = fn
        self.shift = shift
        self.exp = exp

    def __eq__(self, other: object) -> bool:
        if type(other) is not Atom:
            return NotImplemented
        return (self.fn, self.shift, self.exp) == (other.fn, other.shift, other.exp)

    def __hash__(self) -> int:
        return hash((self.fn, self.shift, self.exp))

    def __repr__(self) -> str:
        return f"Atom(fn={self.fn!r}, shift={self.shift!r}, exp={self.exp!r})"


# ----------------------------------------------------------------------
# elements and groups
# ----------------------------------------------------------------------

class WreathElement:
    """top * base, with the base a formal product of shifted atoms.

    The cached canonical form (on a form level) is deterministically
    recomputable, so concurrent readers either miss (and recompute the
    same value) or observe a consistent entry.
    """

    __slots__ = ("group", "top", "atoms", "_canon")

    def __init__(self, group: "WreathGroup", top: Any, atoms: tuple[Atom, ...]):
        self.group = group
        self.top = top
        self.atoms = atoms
        self._canon = None

    def eval(self, coord: Any) -> Any:
        return self.group.eval(self, coord)

    def inv(self) -> "WreathElement":
        return self.group.inv(self)

    def conj(self, other: "WreathElement") -> "WreathElement":
        return self.group.conj(self, other)

    def comm(self, other: "WreathElement") -> "WreathElement":
        return self.group.comm(self, other)

    def __mul__(self, other: "WreathElement") -> "WreathElement":
        return self.group.mul(self, other)

    def __pow__(self, n: int) -> "WreathElement":
        return self.group.pow(self, n)

    def __repr__(self) -> str:
        return f"<{self.group.name}: {self.group.fmt(self)}>"


class WreathGroup:
    """Operations of one wreath-product level, which decides equality,
    identity and order by one route for every pair.

    A form level names ``form``, the class of its canonical base forms
    (StepFunction, RayStepFunction or FiberSteps), each offering
    ``of_atoms``, ``is_trivial``, ``least_difference``, ``compare_at``,
    ``key`` and ``fmt``; every element has one (an atom without one
    raises TypeError).  A tail level names ``tail_kind`` instead and
    keeps no forms: it applies the tail criterion to x * y^-1, a
    product of its tail atom's shifted powers and point atoms, so
    ``key`` raises on it.
    """

    def __init__(self, name: str, coords: Any, fiber: Any, form: type | None = None,
                 tail_kind: str | None = None):
        self.name = name
        self.coords = coords
        self.fiber = fiber
        self.form = form
        self.tail_kind = tail_kind
        self._identity: WreathElement | None = None
        self._top_identity_key = coords.key(coords.identity())

    # -- construction ---------------------------------------------------

    def element(self, top: Any, atoms: Iterable[Atom]) -> WreathElement:
        return WreathElement(self, top, self._reduce(atoms))

    def identity(self) -> WreathElement:
        if self._identity is None:
            self._identity = WreathElement(self, self.coords.identity(), ())
        return self._identity

    def top_element(self, k: Any) -> WreathElement:
        return WreathElement(self, k, ())

    def atom_element(self, fn: BaseFunction, shift: Any = None, exp: int = 1) -> WreathElement:
        if shift is None:
            shift = self.coords.identity()
        return self.element(self.coords.identity(), (Atom(fn, shift, exp),))

    def point(self, value: Any, at: Any = None) -> WreathElement:
        return self.atom_element(PointFn(value, self.fiber, self.coords), shift=at)

    def threshold(self, value: Any, at: Any = None) -> WreathElement:
        return self.atom_element(ThresholdFn(value, self.fiber, self.coords), shift=at)

    def from_finite_steps(self, top: Any, steps: FiberSteps) -> WreathElement:
        """Element whose base is the given finite-support form, realized
        as a product of point atoms."""
        atoms = tuple(
            Atom(PointFn(v, self.fiber, self.coords), c, 1)
            for c, v in steps.finite_support_pairs()
        )
        return WreathElement(self, top, atoms)

    def certified(self, raw: WreathElement, value: Any) -> WreathElement:
        """The point element taking ``value`` at the origin, once the
        level's exact ``equal`` has decided that raw is that element (so
        a raw with a nontrivial top or another value raises)."""
        self._same(raw)
        out = self.point(value)
        if not self.equal(raw, out):
            raise ConstructionViolation(
                f"{self.name}: element is not the point function "
                f"{self.fiber.fmt(value)} at z^0")
        return out

    def _push(self, out: list[Atom], a: Atom) -> None:
        """Append one atom to an already-reduced list, merging or
        cancelling at the boundary."""
        while True:
            if a.exp == 0 or a.fn.is_trivial:
                return
            if not out or self.coords.key(out[-1].shift) != self.coords.key(a.shift):
                out.append(a)
                return
            prev = out[-1]
            if prev.fn.key() == a.fn.key():
                out.pop()
                e = prev.exp + a.exp
                if e:
                    out.append(Atom(prev.fn, prev.shift, e))
                return
            merged = prev.fn.merge_with(a.fn, prev.exp, a.exp)
            if merged is None:
                out.append(a)
                return
            out.pop()
            a = Atom(merged, prev.shift, 1)

    def _reduce(self, atoms: Iterable[Atom]) -> tuple[Atom, ...]:
        out: list[Atom] = []
        for a in atoms:
            self._push(out, a)
        return tuple(out)

    def _extend(self, out: list[Atom], right: tuple[Atom, ...]) -> None:
        """Append an already-reduced atom tuple to a reduced list; only the
        junction can merge or cancel, so interior atoms are not re-examined."""
        if not out:
            out.extend(right)
            return
        for i, a in enumerate(right):
            n = len(out)
            self._push(out, a)
            if len(out) > n:
                # nothing merged: the rest of the right side is untouched
                out.extend(right[i + 1:])
                return

    def _shifted(self, atoms: tuple[Atom, ...], t: Any) -> tuple[Atom, ...]:
        """The atoms with each shift times t; they stay reduced."""
        if self.coords.key(t) == self._top_identity_key:
            return atoms
        return tuple(Atom(a.fn, self.coords.mul(a.shift, t), a.exp) for a in atoms)

    def _same(self, *xs: WreathElement):
        for x in xs:
            if x.group is not self:
                raise ValueError(f"element of {x.group.name} used in {self.name}")

    # -- group operations -------------------------------------------------

    def mul(self, x: WreathElement, y: WreathElement) -> WreathElement:
        # kept apart from product((x, y)): an atomless side, as in 42 % of the
        # products of a verify-rational pass, needs no copy and no junction merge
        if x.group is not self or y.group is not self:
            self._same(x, y)
        if not x.atoms:
            atoms = y.atoms
        elif not y.atoms:
            atoms = self._shifted(x.atoms, y.top)
        else:
            out = list(self._shifted(x.atoms, y.top))
            self._extend(out, y.atoms)
            atoms = tuple(out)
        return WreathElement(self, self.coords.mul(x.top, y.top), atoms)

    def product(self, xs: Iterable[WreathElement]) -> WreathElement:
        """x1 * ... * xn in one pass, equal to the left fold of mul: each
        factor's atoms are shifted by the later tops, merged at the junctions."""
        xs = tuple(xs)
        self._same(*xs)
        if not xs:
            return self.identity()
        coords = self.coords
        later = [coords.identity()]
        for x in reversed(xs[1:]):
            later.append(coords.mul(x.top, later[-1]))
        out: list[Atom] = []
        for i, x in enumerate(xs):
            self._extend(out, self._shifted(x.atoms, later[-1 - i]))
        top = coords.mul(xs[0].top, later[-1])
        return WreathElement(self, top, tuple(out))

    def inv(self, x: WreathElement) -> WreathElement:
        self._same(x)
        ti = self.coords.inv(x.top)
        # reversing a reduced product keeps it reduced
        atoms = tuple(
            Atom(a.fn, self.coords.mul(a.shift, ti), -a.exp) for a in reversed(x.atoms)
        )
        return WreathElement(self, ti, atoms)

    def pow(self, x: WreathElement, n: int) -> WreathElement:
        if n and self.coords.key(x.top) == self._top_identity_key:
            # with the top trivial the base powers pointwise, so one atom,
            # or atoms that commute, multiply their exponents and stay reduced
            if len(x.atoms) == 1:
                self._same(x)
                (a,) = x.atoms
                return WreathElement(self, x.top, (Atom(a.fn, a.shift, a.exp * n),))
            if self._atoms_commute(x.atoms):
                self._same(x)
                return WreathElement(self, x.top, tuple(
                    [Atom(a.fn, a.shift, a.exp * n) for a in x.atoms]))
        if n < 0:
            return self.pow(self.inv(x), -n)
        out = self.identity()
        base = x
        while n:
            if n & 1:
                out = self.mul(out, base)
            n >>= 1
            if n:
                base = self.mul(base, base)
        return out

    def _atoms_commute(self, atoms: tuple[Atom, ...]) -> bool:
        """Whether pow may multiply the atoms' exponents: never on a tail
        level (W and DZ print their atoms, so their pow stays the mul
        fold); otherwise when the fiber is Q, so the base is abelian, or
        when the atoms are points at pairwise distinct shifts, so their
        supports are disjoint."""
        if self.tail_kind is not None:
            return False
        if self.fiber is RATIONALS:
            return True
        key = self.coords.key
        return (all(type(a.fn) is PointFn for a in atoms)
                and len({key(a.shift) for a in atoms}) == len(atoms))

    def conj(self, x: WreathElement, y: WreathElement) -> WreathElement:
        if y.atoms:
            return self.mul(self.mul(self.inv(y), x), y)
        # by a top t alone: t^-1 x t only shifts the atoms
        self._same(x, y)
        t, coords = y.top, self.coords
        top = coords.mul(coords.mul(coords.inv(t), x.top), t)
        return WreathElement(self, top, self._shifted(x.atoms, t))

    def comm(self, x: WreathElement, y: WreathElement) -> WreathElement:
        return self.mul(self.mul(self.inv(x), self.inv(y)), self.mul(x, y))

    # -- evaluation -------------------------------------------------------

    def eval(self, x: WreathElement, coord: Any) -> Any:
        """x's base at coord; a computed canonical form is read by bisection."""
        if x._canon is not None:
            self._same(x)
            return x._canon.value(coord)
        return self.eval_atoms(x, coord)

    def eval_atoms(self, x: WreathElement, coord: Any) -> Any:
        """x's base at coord from its atoms, never from its canonical
        form, so brute-force oracles can check the form by it."""
        self._same(x)
        return next(self._values(x.atoms, (coord,)))

    def atom_values(self, x: WreathElement, coords: Iterable[Any]) -> Iterator[Any]:
        """x's base at each of the coordinates, in order, from its atoms
        (as ``eval_atoms``)."""
        self._same(x)
        return self._values(x.atoms, coords)

    def _values(self, atoms: tuple[Atom, ...], coords: Iterable[Any]) -> Iterator[Any]:
        """The product of the atoms at each of the coordinates, in order;
        each atom's value function, inverse shift and exponent are looked
        up once, not once per coordinate.  A product starts from its first
        non-identity factor itself, so a lone atom's value (and its cached
        form) is returned as it is."""
        fiber, cmul = self.fiber, self.coords.mul
        fmul, fpow, is_identity = fiber.mul, fiber.pow, fiber.is_identity
        one = fiber.identity()
        plan = [(a.fn.value, self.coords.inv(a.shift), a.exp) for a in atoms]
        for coord in coords:
            v = one
            for value, back, exp in plan:
                av = value(cmul(coord, back))
                if av is not one and not is_identity(av):
                    if exp != 1:
                        av = fpow(av, exp)
                    v = av if v is one else fmul(v, av)
            yield v

    # -- canonical forms ----------------------------------------------------

    def base_canonical(self, x: WreathElement):
        """x's canonical base form, computed once; a tail level keeps none."""
        if x._canon is None:
            if self.tail_kind is not None:
                raise ValueError(f"{self.name} keeps no canonical forms")
            x._canon = self.form.of_atoms(self, x.atoms)
        return x._canon

    # -- equality and order ---------------------------------------------------

    def min_difference(self, x: WreathElement, y: WreathElement) -> Verdict:
        """Verdict on the least coordinate where the base functions of x
        and y differ: a form level compares their canonical forms, a tail
        level applies its tail criterion to x * y^-1.  Requires equal tops."""
        self._same(x, y)
        if self.coords.key(x.top) != self.coords.key(y.top):
            raise ValueError("min_difference requires equal tops")
        if self.tail_kind is None:
            return _verdict(self.base_canonical(x).least_difference(self.base_canonical(y)))
        # d's base is the base of x times the inverse of y's, both shifted
        # by the inverse of the common top, so d is not the identity at j
        # exactly where x and y differ at j * top
        t = self._tail_identity(self.mul(x, self.inv(y)))
        if t.is_equal:
            return t
        return Verdict.distinct(self.coords.mul(t.witness, x.top))

    def least_nonidentity(self, x: WreathElement, candidates: Iterable[Any]) -> Verdict:
        """Equal, or Distinct at the least candidate coordinate where x is
        not the identity, read from x's atoms in one pass over the sorted
        candidates; the caller vouches that the least coordinate where x
        is not the identity, if there is one, is a candidate."""
        candidates = sorted(candidates)
        for j, v in zip(candidates, self.atom_values(x, candidates)):
            if not self.fiber.is_identity(v):
                return Verdict.distinct(j)
        return Verdict.equal()

    def _tail_identity(self, d: WreathElement) -> Verdict:
        """Tail-criterion verdict on d, a product of shifted powers of the
        level's tail atom and finite atoms.  Without a tail atom d is a
        product of points, so its point coordinates are the candidates."""
        tails: list[Atom] = []
        finites: list[Atom] = []
        for a in d.atoms:
            if a.fn.tail_kind == self.tail_kind:
                tails.append(a)
            elif a.fn.finite:
                finites.append(a)
            else:
                kinds = ", ".join(sorted({b.fn.name for b in d.atoms}))
                raise TypeError(f"{self.name} has no exact equality route for {kinds}")
        if not tails:
            return self.least_nonidentity(d, {a.shift for a in finites})
        return tails[0].fn.tail_identity(self, d, tails, finites)

    def equal(self, x: WreathElement, y: WreathElement) -> bool:
        self._same(x, y)
        if x is y:
            return True
        if self.coords.key(x.top) != self.coords.key(y.top):
            return False
        if self.tail_kind is None:
            return self.base_canonical(x).key() == self.base_canonical(y).key()
        return self.min_difference(x, y).is_equal

    def is_identity(self, x: WreathElement) -> bool:
        if x is self._identity:
            return True
        self._same(x)
        if self.coords.key(x.top) != self._top_identity_key:
            return False
        if self.tail_kind is None:
            return self.base_canonical(x).is_trivial
        return self._tail_identity(x).is_equal

    def compare(self, x: WreathElement, y: WreathElement) -> Ordering:
        self._same(x, y)
        o = self.coords.compare(x.top, y.top)
        if o is not Ordering.EQUAL:
            return o
        v = self.min_difference(x, y)
        if v.is_equal:
            return Ordering.EQUAL
        if self.tail_kind is None:
            # min_difference has computed both forms
            return x._canon.compare_at(y._canon, v.witness)
        return self.fiber.compare(self.eval(x, v.witness), self.eval(y, v.witness))

    def is_positive(self, x: WreathElement) -> bool:
        return self.compare(x, self.identity()) is Ordering.GREATER

    # -- fiber protocol (so a wreath group can be the fiber of the next level)

    def key(self, x: WreathElement) -> tuple:
        return (self.coords.key(x.top), self.base_canonical(x).key())

    def fmt(self, x: WreathElement) -> str:
        top_is_identity = self.coords.key(x.top) == self._top_identity_key
        if self.tail_kind is None:
            cstr = self.base_canonical(x).fmt()
            return cstr if top_is_identity else f"{self.coords.fmt(x.top)} * {cstr}"
        parts = [] if top_is_identity else [self.coords.fmt(x.top)]
        for a in x.atoms:
            s = a.fn.fmt()
            if self.coords.key(a.shift) != self._top_identity_key:
                s += f"[{self.coords.fmt(a.shift)}]"
            if a.exp != 1:
                s += f"^{a.exp}"
            parts.append(s)
        return " * ".join(parts) if parts else "1"


def _verdict(witness: Any | None) -> Verdict:
    return Verdict.equal() if witness is None else Verdict.distinct(witness)


def net_exponents(atoms: Iterable[Atom]) -> dict[Any, int]:
    """Sum of the exponents of the given atoms at each shift."""
    nets: dict[Any, int] = {}
    for a in atoms:
        nets[a.shift] = nets.get(a.shift, 0) + a.exp
    return nets


def derived_commutator(group: Any, elems: list) -> Any:
    """delta_k word value: elems has length 2^k; delta_0 is the element
    itself and delta_k = [delta_{k-1}(left half), delta_{k-1}(right half)]."""
    n = len(elems)
    if n == 1:
        return elems[0]
    if n % 2:
        raise ValueError("derived words need 2^k arguments")
    return group.comm(
        derived_commutator(group, elems[: n // 2]),
        derived_commutator(group, elems[n // 2:]),
    )
