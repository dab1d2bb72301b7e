"""Order-preserving embedding of the additive rationals into G = <alpha, z>.

The ambient group is W = (Q Wr C) Wr Z with C = <c> and Z = <z> infinite
cyclic.  The base of Q Wr C holds, for each n >= 1, the step functions

    tau_n:  0 below c^0, -1/n from c^0 on   (the threshold atom -1/n)
    phi_n:  1/n at c^0, 0 elsewhere         (the point atom 1/n)

with [tau_n, c] = phi_n and [tau_m, tau_n] = 1.  The element alpha of
the base of W takes the value 1 below z^0, c at z^0 and tau_j at z^j for
j > 0, and the embedding is

    m/n  |->  [alpha^(z^-n), alpha]^m,

whose evaluation is the point function with value m/n at (z^0, c^0).
The exact alpha tail criterion decides that equality once per
denominator n, and from then on phi_n's image is that point atom: the
image of m/n is one atom with exponent m, so W's tail criterion decides
an equality or order query on two embedded rationals at one candidate
coordinate, the point's, instead of across the commutators' shifts.

The verification suites at the bottom (homomorphism, injectivity, order
preservation, normal-form bound, torsion-freeness, solvable length 3,
the subnormal chain, and the order-law battery) are deterministic for a
fixed seed and budget.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from random import Random
from typing import Iterable

from .groundwork import (
    IntCoords,
    Ordering,
    RATIONALS,
    Rational,
    format_rational,
)
from .reporting import FAIL, PASS, Report, merge_reports, run_checks
from .wreath import (
    Atom,
    BaseFunction,
    PointFn,
    StepFunction,
    WreathElement,
    WreathGroup,
    derived_commutator,
    net_exponents,
)

QC = WreathGroup("QwrC", IntCoords("c"), RATIONALS, StepFunction)
W = WreathGroup("W", IntCoords("z"), QC, tail_kind="alpha")


class AlphaFn(BaseFunction):
    """alpha: identity below z^0, c at z^0, tau_j at z^j for j > 0."""

    name = "alpha"
    tail_kind = "alpha"

    def value(self, rel: int) -> WreathElement:
        return alpha_value(rel)

    def tail_identity(self, group, element, tails, finites) -> tuple:
        # At a coordinate j that is neither a shift nor a finite-atom
        # coordinate every factor is tau_(j-k) (shift k < j) or the
        # identity, all in the abelian base of Q Wr C, so the value there
        # is tau-shaped with height -(sum over k < j of N_k/(j-k)), N_k
        # the net exponent at k.  Between two consecutive shifts that is
        # P(j)/prod(j-k) over the r active shifts with N_k != 0, with
        # deg P < r and P not the zero polynomial when r > 0 (partial
        # fractions with distinct poles are unique).  So P has fewer than
        # r roots, and the least non-identity coordinate of the interval,
        # if any, is among its first r integers that are not finite-atom
        # coordinates.  Those, the shifts and the finite-atom coordinates
        # hold the least difference; zero nets add no integers.  A finite
        # atom is a point, so its coordinate is its shift.
        nets = net_exponents(tails)
        finite = {a.shift for a in finites}
        candidates = finite | set(nets)
        shifts = sorted(nets)
        active = 0
        for k, stop in zip(shifts, shifts[1:] + [None]):
            active += nets[k] != 0
            need, j = active, k + 1
            while need and j != stop:
                if j not in finite:
                    candidates.add(j)
                    need -= 1
                j += 1
        return group.least_nonidentity(element, candidates)


_ALPHA_FN = AlphaFn()


@lru_cache(maxsize=None)
def tau(n: int) -> WreathElement:
    """The element tau_n of the base of Q Wr C."""
    if n < 1:
        raise ValueError("tau(n) needs n >= 1")
    return QC.threshold(Fraction(-1, n))


@lru_cache(maxsize=None)
def phi(n: int) -> WreathElement:
    """The element phi_n of the base of Q Wr C."""
    if n < 1:
        raise ValueError("phi(n) needs n >= 1")
    return QC.point(Fraction(1, n))


def c_elem(k: int = 1) -> WreathElement:
    return QC.top_element(k)


def z_elem(k: int = 1) -> WreathElement:
    return W.top_element(k)


def qc_point(q: Rational, at: int = 0) -> WreathElement:
    """Rational point function: q at c^at, 0 elsewhere."""
    return QC.point(Fraction(q), at=at)


def w_point(g: WreathElement, at: int = 0) -> WreathElement:
    """Element of the base of W supported at z^at with value g in Q Wr C."""
    return W.point(g, at=at)


@lru_cache(maxsize=None)
def alpha_value(j: int) -> WreathElement:
    if j < 0:
        return QC.identity()
    if j == 0:
        return c_elem()
    return tau(j)


@lru_cache(maxsize=None)
def alpha() -> WreathElement:
    return W.atom_element(_ALPHA_FN)


# -- words over the two generators -------------------------------------

def _fmt_exponent(e: int) -> str:
    """e in decimal, except +-2^k for k >= 64 as (2^k) or (-2^k): the
    shift 2^(2n-1) of a large denominator n has more digits than Python
    converts an int to text."""
    k = abs(e).bit_length() - 1
    if k >= 64 and abs(e) == 1 << k:
        return f"({'-' if e < 0 else ''}2^{k})"
    return str(e)


@dataclass(frozen=True)
class GWord:
    """Word over a two-generator alphabet, stored as exponent runs."""

    letters: tuple[tuple[str, int], ...]

    def inv(self) -> "GWord":
        return GWord(tuple((g, -e) for g, e in reversed(self.letters)))

    def __mul__(self, other: "GWord") -> "GWord":
        return GWord(self.letters + other.letters)

    def power(self, m: int) -> "GWord":
        if len(self.letters) * abs(m) > sys.maxsize:
            raise ValueError(f"the word's power {m} has more runs than a word can hold")
        base = self if m >= 0 else self.inv()
        return GWord(base.letters * abs(m))

    def fmt(self) -> str:
        if not self.letters:
            return "1"
        return " ".join(g if e == 1 else f"{g}^{_fmt_exponent(e)}" for g, e in self.letters)

    def __str__(self) -> str:
        return self.fmt()


def commutator_word(gen: str, a: int, b: int, m: int) -> GWord:
    """[g^(z^-a), g^(z^-b)]^m over {gen, z}, with g^(z^-k) spelt
    z^k g z^-k and its z^0 letters dropped."""
    def conj(k: int, e: int) -> tuple:
        return (("z", k), (gen, e), ("z", -k)) if k else ((gen, e),)
    return GWord(conj(a, -1) + conj(b, -1) + conj(a, 1) + conj(b, 1)).power(m)


def g_word_element(w: GWord, tail: WreathElement | None = None) -> WreathElement:
    """Evaluate a word over {g, z} in g's group, g the tail generator
    (alpha in W by default, or a context's omega in D Wr Z)."""
    g = alpha() if tail is None else tail
    group, gen = g.group, g.atoms[0].fn.name
    out = group.identity()
    for name, e in w.letters:
        if name == "z":
            x = group.top_element(e)
        elif name == gen:
            x = group.pow(g, e)
        else:
            raise ValueError(f"unknown generator {name!r}")
        out = group.mul(out, x)
    return out


# -- the embedding -------------------------------------------------------

@lru_cache(maxsize=None)
def alpha_commutator(n: int) -> WreathElement:
    """[alpha^(z^-n), alpha], kept as a raw formal product."""
    if n < 1:
        raise ValueError("need n >= 1")
    return W.comm(W.conj(alpha(), z_elem(-n)), alpha())


@lru_cache(maxsize=None)
def phi_star(n: int) -> WreathElement:
    """The image of phi_n in the first copy of Q Wr C: the point function
    phi_n at z^0, which the alpha tail criterion decides equal to
    [alpha^(z^-n), alpha] ([tau_n, c] there; below z^0 alpha is the
    identity, and above it both values lie in the abelian base Q^C)."""
    return W.certified(alpha_commutator(n), phi(n))


def big_phi(q: Rational) -> GWord:
    """The word [alpha^(z^-n), alpha]^m sent to m/n (n > 0 canonical)."""
    q = Fraction(q)
    return commutator_word("alpha", q.denominator, 0, q.numerator)


def phi_element(q: Rational) -> WreathElement:
    """The element of W representing the embedded rational q: the point
    atom of phi_star(n) with exponent m, for q = m/n."""
    q = Fraction(q)
    if q == 0:
        return W.identity()
    return W.pow(phi_star(q.denominator), q.numerator)


def commutator_table(n: int, j: int) -> WreathElement:
    """[alpha^(z^-n), alpha](z^j), computed by evaluation (never looked up)."""
    if n < 1:
        raise ValueError("need n >= 1")
    return alpha_commutator(n).eval(j)


def expected_commutator_case(n: int, j: int) -> WreathElement:
    """The five-case value of the commutator at z^j."""
    if j < -n:
        return QC.identity()        # [1, 1]
    if j == -n:
        return QC.identity()        # [c, 1]
    if j < 0:
        return QC.identity()        # [tau_{j+n}, 1]
    if j == 0:
        return phi(n)               # [tau_n, c]
    return QC.identity()            # [tau_{j+n}, tau_j]


def beta_tilde(factors: Iterable[tuple[int, int, int]]) -> StepFunction:
    """Canonical step form of a product of shifted tau powers.

    Each factor (k, i, n) is (tau_i^(c^k))^n; the value from c^k on
    moves by -n/i, by direct evaluation of the tau definition.  The jumps
    are summed by one sort-and-accumulate fold (StepFunction.fold).
    """
    factors = list(factors)
    if any(i < 1 for _, i, _ in factors):
        raise ValueError("tau indices must be >= 1")
    return StepFunction.fold((QC.base_canonical(tau(i)), k, n) for k, i, n in factors)


# -- randomized element families (shared by the suites) ------------------

def random_rational(rng: Random, max_num: int = 100, max_den: int = 100) -> Rational:
    return Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))


def random_qc_element(rng: Random) -> WreathElement:
    top, atoms = rng.randint(-3, 3), []
    for _ in range(rng.randint(0, 4)):
        n = rng.randint(1, 10)
        g = tau(n) if rng.random() < 0.5 else phi(n)
        exp = rng.choice([-2, -1, 1, 2])
        atoms.append(Atom(g.atoms[0].fn, rng.randint(-8, 8), exp))
    # c^top times the atoms, reduced once: the product of the top and the
    # single-atom elements, whose tops are 0 and so shift nothing
    return QC.element(top, atoms)


def random_qc_base(rng: Random) -> WreathElement:
    el = random_qc_element(rng)
    return QC.element(0, el.atoms)


def random_w_element(rng: Random) -> WreathElement:
    top, atoms = rng.randint(-3, 3), []
    for _ in range(rng.randint(0, 3)):
        if rng.random() < 0.85:
            atoms.append(Atom(_ALPHA_FN, rng.randint(-8, 8), rng.choice([-1, 1])))
        else:
            g = random_qc_element(rng)
            atoms.append(Atom(PointFn(g, QC, W.coords), rng.randint(-8, 8), 1))
    return W.element(top, atoms)


def random_w_base(rng: Random) -> WreathElement:
    el = random_w_element(rng)
    return W.element(0, el.atoms)


def random_g_word(rng: Random, max_len: int = 8, gen: str = "alpha") -> GWord:
    """A random word of 1 to max_len letters gen^(+-1) and z^(+-1)."""
    letters = tuple(
        (rng.choice([gen, "z"]), rng.choice([-1, 1]))
        for _ in range(rng.randint(1, max_len))
    )
    return GWord(letters)


def brute_confirms(x: WreathElement, y: WreathElement, window: int) -> bool:
    """Whether what a scan of [-window, window] and one evaluation can
    establish agrees with ``compare(x, y)``: for equal tops, no value
    differs in the window below the library's least difference w (the
    whole window when it says Equal), and the values at w differ in the
    direction compare gave."""
    group = x.group
    o = group.compare(x, y)
    top = group.coords.compare(x.top, y.top)
    if top is not Ordering.EQUAL:
        return o is top
    v = group.min_difference(x, y)
    hi = window if v.is_equal else min(window, v.witness - 1)
    scan = range(-window, hi + 1)
    for vx, vy in zip(group.atom_values(x, scan), group.atom_values(y, scan)):
        if not group.fiber.equal(vx, vy):
            return False
    if v.is_equal:
        return o is Ordering.EQUAL
    return group.fiber.compare(group.eval(x, v.witness),
                               group.eval(y, v.witness)) is o


# -- the rational-embedding suite ------------------------------------------

def verify_theorem1(seed: int = 0, budget: int = 200) -> Report:
    """Checks of the Section-2 embedding: relations, the commutator
    table, homomorphism/injectivity/order preservation of the embedding,
    the normal-form bound, torsion-freeness, and solvable length 3."""

    def relations_tau_c(rng, budget):
        for n in range(1, 51):
            if not QC.equal(QC.comm(tau(n), c_elem()), phi(n)):
                return FAIL, {"n": n}
        return PASS, {"range": "n<=50"}

    def relations_tau_tau(rng, budget):
        for m in range(1, 51):
            for n in range(1, 51):
                if not QC.is_identity(QC.comm(tau(m), tau(n))):
                    return FAIL, {"m": m, "n": n}
        return PASS, {"range": "m,n<=50"}

    def table(rng, budget):
        for n in range(1, 21):
            for j in range(-2 * n - 4, 2 * n + 5):
                if not QC.equal(commutator_table(n, j), expected_commutator_case(n, j)):
                    return FAIL, {"n": n, "j": j}
        return PASS, {"range": "n<=20, |j|<=2n+4"}

    def homomorphism(rng, budget):
        for _ in range(budget):
            p, q = random_rational(rng), random_rational(rng)
            if not W.equal(W.mul(phi_element(p), phi_element(q)), phi_element(p + q)):
                return FAIL, {"p": format_rational(p), "q": format_rational(q)}
        return PASS, {"pairs": budget}

    def injectivity(rng, budget):
        if not W.is_identity(phi_element(Fraction(0))):
            return FAIL, {"p": "0"}
        for _ in range(budget):
            p = random_rational(rng)
            if p == 0:
                continue
            if W.is_identity(phi_element(p)):
                return FAIL, {"p": format_rational(p)}
        return PASS, {"samples": budget}

    def order_preserving(rng, budget):
        for _ in range(budget):
            p, q = random_rational(rng), random_rational(rng)
            if p == q:
                continue
            o = W.compare(phi_element(p), phi_element(q))
            if (o is Ordering.LESS) != (p < q):
                return FAIL, {"p": format_rational(p), "q": format_rational(q), "got": str(o)}
        return PASS, {"pairs": budget}

    def normal_form(rng, budget):
        for _ in range(max(1, budget // 2)):
            word = random_g_word(rng, max_len=30)
            el = g_word_element(word)
            if not W.equal(el, W.element(el.top, el.atoms)):
                return FAIL, {"word": word.fmt()}
            if el.atoms:
                lo = min(a.shift for a in el.atoms)
                for j in (lo - 1, lo - 5):
                    if not QC.is_identity(W.eval(el, j)):
                        return FAIL, {"word": word.fmt(), "below": j}
        return PASS, {"words": max(1, budget // 2)}

    def torsion_free(rng, budget):
        for _ in range(budget):
            g = g_word_element(random_g_word(rng, max_len=6))
            while W.is_identity(g):
                g = g_word_element(random_g_word(rng, max_len=6))
            for k in range(1, 11):
                if W.is_identity(W.pow(g, k)):
                    return FAIL, {"k": k}
        return PASS, {"words": budget, "k": "<=10"}

    def solvable_length_3(rng, budget):
        for _ in range(max(1, budget // 4)):
            elems = [g_word_element(random_g_word(rng, max_len=4)) for _ in range(8)]
            if not W.is_identity(derived_commutator(W, elems)):
                return FAIL, {}
        return PASS, {"tuples": max(1, budget // 4)}

    def delta2_witness(rng, budget):
        g1, g2 = alpha(), z_elem()
        g3, g4 = W.conj(alpha(), z_elem(-1)), z_elem()
        if W.is_identity(derived_commutator(W, [g1, g2, g3, g4])):
            return FAIL, {"note": "no delta2 witness found"}
        return PASS, {"witness": "[[alpha,z],[alpha^(z^-1),z]]"}

    checks = [
        ("relations-tau-c", relations_tau_c),
        ("relations-tau-tau", relations_tau_tau),
        ("commutator-table", table),
        ("phi-homomorphism", homomorphism),
        ("phi-injectivity", injectivity),
        ("phi-order-preserving", order_preserving),
        ("normal-form-bound", normal_form),
        ("torsion-free", torsion_free),
        ("solvable-length-3", solvable_length_3),
        ("delta2-witness", delta2_witness),
    ]
    return run_checks("theorem1", seed, budget, checks)


def subnormal_chain(seed: int = 0, budget: int = 200) -> Report:
    """Sampled normality witnesses for each link of the chain carrying
    the embedded rationals up to G, plus the negative control showing
    why the chain (and not direct normality in G) is what holds."""
    samples = max(4, budget // 8)

    def q_copy_abelian(rng, budget):
        for _ in range(samples):
            r, s = random_rational(rng), random_rational(rng)
            if not QC.equal(QC.conj(qc_point(r), qc_point(s)), qc_point(r)):
                return FAIL, {"r": format_rational(r)}
        return PASS, {"samples": samples}

    def q_copy_in_base(rng, budget):
        for _ in range(samples):
            r = random_rational(rng)
            x = random_qc_base(rng)
            if not QC.equal(QC.conj(qc_point(r), x), qc_point(r)):
                return FAIL, {"r": format_rational(r)}
        return PASS, {"samples": samples}

    def base_normal_in_qwrc(rng, budget):
        for _ in range(samples):
            x = random_qc_base(rng)
            y = random_qc_element(rng)
            if QC.conj(x, y).top != 0:
                return FAIL, {}
        return PASS, {"samples": samples}

    def first_copy_normal_in_w_base(rng, budget):
        for _ in range(samples):
            n = rng.randint(1, 10)
            x = random_w_base(rng)
            conj = W.conj(phi_star(n), x)
            expected = w_point(QC.conj(phi(n), x.eval(0)))
            if not W.equal(conj, expected):
                return FAIL, {"n": n}
        return PASS, {"samples": samples}

    def w_base_normal_in_w(rng, budget):
        for _ in range(samples):
            x = random_w_base(rng)
            y = random_w_element(rng)
            if W.conj(x, y).top != 0:
                return FAIL, {}
        return PASS, {"samples": samples}

    def negative_control(rng, budget):
        # conjugating by z^-1 moves the support off z^0, out of the
        # first copy: normality really does need the full chain.
        # With f^b(b0) = f(b0 b^-1) the support lands at z^-1.
        moved = W.conj(phi_star(3), z_elem(-1))
        at_zero_trivial = QC.is_identity(moved.eval(0))
        moved_value = QC.equal(moved.eval(-1), phi(3))
        if at_zero_trivial and moved_value:
            return PASS, {"support": "z^-1"}
        return FAIL, {}

    checks = [
        ("chain-image-in-q-copy", q_copy_abelian),
        ("chain-q-copy-in-base", q_copy_in_base),
        ("chain-base-in-qwrc", base_normal_in_qwrc),
        ("chain-first-copy-in-w-base", first_copy_normal_in_w_base),
        ("chain-w-base-in-w", w_base_normal_in_w),
        ("chain-negative-control", negative_control),
    ]
    return run_checks("subnormal", seed, budget, checks)


def verify_section2(seed: int = 0, budget: int = 200) -> Report:
    """Theorem-1 checks together with the subnormal chain, one report."""
    return merge_reports(
        "section2", [verify_theorem1(seed, budget), subnormal_chain(seed, budget)]
    )


# -- full-order laws (the Lemma-1 order battery) --------------------------

def _order_family_checks(name: str, sampler, group, window: int):
    def total_transitive(rng, budget):
        for _ in range(budget):
            a, b, c = sampler(rng), sampler(rng), sampler(rng)
            o_ab = group.compare(a, b)
            o_bc = group.compare(b, c)
            o_ac = group.compare(a, c)
            if group.compare(b, a) is not o_ab.reversed():
                return FAIL, {"law": "antisymmetry"}
            if o_ab is Ordering.LESS and o_bc is Ordering.LESS and o_ac is not Ordering.LESS:
                return FAIL, {"law": "transitivity"}
            if o_ab is Ordering.EQUAL and o_bc is not o_ac:
                return FAIL, {"law": "transitivity"}
            if o_bc is Ordering.EQUAL and o_ab is not o_ac:
                return FAIL, {"law": "transitivity"}
        return PASS, {"triples": budget}

    def bi_invariance(rng, budget):
        checked = 0
        for _ in range(budget):
            x, y = sampler(rng), sampler(rng)
            o = group.compare(x, y)
            if o is Ordering.EQUAL:
                continue
            if o is Ordering.GREATER:
                x, y = y, x
            for _ in range(20):
                t = sampler(rng)
                if group.compare(group.mul(x, t), group.mul(y, t)) is not Ordering.LESS:
                    return FAIL, {"side": "right"}
                if group.compare(group.mul(t, x), group.mul(t, y)) is not Ordering.LESS:
                    return FAIL, {"side": "left"}
            checked += 1
        return PASS, {"pairs": checked, "translations": 20}

    def brute_agreement(rng, budget):
        for _ in range(budget):
            x, y = sampler(rng), sampler(rng)
            if not brute_confirms(x, y, window):
                return FAIL, {}
        return PASS, {"pairs": budget, "window": window}

    return [
        (f"{name}-total-transitive", total_transitive),
        (f"{name}-bi-invariance", bi_invariance),
        (f"{name}-brute-agreement", brute_agreement),
    ]


def verify_order_laws(seed: int = 0, budget: int = 500, window: int = 64) -> Report:
    """Totality, transitivity, bi-invariance and brute-force agreement of
    the least-difference order on both reachable element families, plus
    the first-copy order restriction."""

    def first_copy_restriction(rng, budget):
        for _ in range(max(20, budget // 10)):
            a1, a2 = random_rational(rng), random_rational(rng)
            if a1 == a2:
                continue
            lo, hi = min(a1, a2), max(a1, a2)
            if QC.compare(qc_point(lo), qc_point(hi)) is not Ordering.LESS:
                return FAIL, {"a1": format_rational(lo), "a2": format_rational(hi)}
            if W.compare(w_point(qc_point(lo)), w_point(qc_point(hi))) is not Ordering.LESS:
                return FAIL, {"a1": format_rational(lo), "a2": format_rational(hi), "level": "W"}
        return PASS, {}

    checks = (
        _order_family_checks("qc", random_qc_element, QC, window)
        + _order_family_checks("w", random_w_element, W, window)
        + [("first-copy-restriction", first_copy_restriction)]
    )
    return run_checks("orders", seed, budget, checks, params={"window": window})
