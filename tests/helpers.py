"""Shared test oracles: brute-force evaluation scans independent of the
library's equality tiers, a fiber-step form built apart from the
library's evaluation loop, the suite samplers built factor by factor,
and words expanded into unit letters."""

from __future__ import annotations

from functools import reduce

from wreathord.embed_rationals import QC, W, alpha, phi, tau, w_point
from wreathord.groundwork import Ordering
from wreathord.nilpotent import Word
from wreathord.wreath import FiberSteps, WreathElement


def brute_least_difference(x: WreathElement, y: WreathElement,
                           window: int = 64) -> int | None:
    """First integer coordinate in [-window, window] where the base
    functions differ, by direct evaluation."""
    group = x.group
    for j in range(-window, window + 1):
        if not group.fiber.equal(group.eval_atoms(x, j), group.eval_atoms(y, j)):
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
    return group.fiber.compare(group.eval_atoms(x, j), group.eval_atoms(y, j))


def confirm_verdict(x: WreathElement, y: WreathElement, verdict,
                    window: int = 64) -> bool:
    """Equal/Distinct verdicts must agree with the brute-force window
    scan (and with direct evaluation at the claimed witness)."""
    group = x.group
    if verdict.is_equal:
        return brute_least_difference(x, y, window) is None
    return not group.fiber.equal(
        group.eval_atoms(x, verdict.witness), group.eval_atoms(y, verdict.witness)
    )


def atom_by_atom_form(group, atoms) -> FiberSteps:
    """The fiber-step form of a product of point and threshold atoms as
    the product of each atom's own form, multiplied one by one with
    ``FiberSteps.mul``: a reference apart from the evaluation loop that
    ``FiberSteps.of_atoms`` shares with ``eval_atoms``."""
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
