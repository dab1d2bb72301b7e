"""Verbal order-preserving embedding: Q into V(T), then into G = <omega, z>.

For a word family V the construction stacks three wreath products:

* ``Q Wr S`` with S the group ``select_S`` reads off the word (Z when
  some variable has a nonzero exponent sum, else the free class-2 group
  of rank 2) carrying a positive verbal witness ``a``.  The base
  elements ``psi_n`` (the point atom 1/n at s = 1) and ``chi_n`` (the
  threshold atom 1/n along the ray a^i, i >= 0) satisfy
  ``psi_n = a^-1 a^(chi_n)``, which puts the embedded rationals inside
  V(T) for T = <chi_n, witness arguments>.
* ``T Wr C`` with ``rho_g`` the point atom g at c^0 and ``pi_g`` the
  threshold atom g from c^0 on; ``[pi_(g^-1), c] = rho_g`` puts the
  first copy of T inside the derived subgroup of D = <pi_g, c>.
* ``D Wr Z`` with ``omega(z^i) = d_k`` for i = 2^k, where d_0, d_1, ...
  is a deterministic enumeration of D.  Commutators of shifted omegas
  recover every [d_n, d_m] at z^0 and vanish elsewhere, because
  2^a - 2^b = 2^n - 2^m forces (a, b) = (n, m).

Enumeration layout: d_0 = c, d_(2n-1) = pi applied to psi_n^-1, and the
even indices d_(2+2i) are unranked statelessly.  ``unrank_sequence(i)``
reads bin(i + 1) as blocks 1 0^s, a bijection from N onto the nonempty
finite sequences of naturals.  A D symbol 0 / 1 is c^(+-1) and 2+2j /
3+2j is pi(t_j)^(+-1); the T element t_j is the product of the T
symbols of sequence j, where 2i / 2i+1 is g_i^(+-1) over the distinct
nontrivial witness-argument tops followed by chi(1), chi(2), ...  So
d_(2+2i) has O(log i) factors of O(log i) T factors each, every D word
appears, and duplicates and trivial words are allowed.  The reserved
indices make the embedding's word for m/n computable in O(1):

    m/n  |->  [omega^(z^-2^(2n-1)), omega^(z^-1)]^m.

As in the rational embedding, the omega tail criterion decides each
commutator equal to its point function once (``WreathGroup.certified``),
and from then on the commutator is that point atom and an image is one
atom with exponent m, so the tail criterion decides an equality or
order query on two images at one candidate coordinate, and queries stay
cheap even though the shifts grow like 2^(2n-1).
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from functools import lru_cache
from random import Random
from typing import Any

from .groundwork import (
    IntCoords,
    Ordering,
    RATIONALS,
    Rational,
    format_rational,
)
from .nilpotent import (
    MalcevElement,
    Nil2Group,
    VerbalWitness,
    Word,
    normalize_family,
    select_S,
    verify_witness,
)
from .reporting import FAIL, PASS, Report, run_checks
from .wreath import (
    BaseFunction,
    ConstructionViolation,
    FiberSteps,
    RayStepFunction,
    WreathElement,
    WreathGroup,
    derived_commutator,
    net_exponents,
)
from .embed_rationals import (GWord, commutator_word, g_word_element, random_g_word,
                              random_rational)


class SCoords:
    """The selected group S acting as the coordinate group of Q Wr S.

    Provides the ray decomposition s = a^i * rep used by ray-step
    canonical forms, with the canonical representative independent of
    the chosen point on the ray.  The CLI names the ray's points a^i.
    """

    letter = "a"

    def __init__(self, sgroup: Nil2Group, witness: MalcevElement):
        self.group = sgroup
        self.witness = witness

    def identity(self) -> MalcevElement:
        return self.group.identity()

    def mul(self, a, b):
        return self.group.mul(a, b)

    def inv(self, a):
        return self.group.inv(a)

    def compare(self, a, b) -> Ordering:
        return self.group.compare(a, b)

    def fmt(self, a) -> str:
        return self.group.fmt(a)

    def ray_decompose(self, s: MalcevElement) -> tuple[MalcevElement, int]:
        return self.group.ray_decompose(s, self.witness)

    def witness_power(self, i: int) -> MalcevElement:
        return self.group.pow(self.witness, i)


class OmegaFn(BaseFunction):
    """omega: d_k at z^(2^k) for k >= 0, identity elsewhere."""

    name = "omega"
    tail_kind = "omega"

    def __init__(self, ctx: "VerbalContext"):
        self.ctx = ctx
        self._one = ctx.TC.identity()

    def value(self, rel: int) -> WreathElement:
        if rel >= 1 and rel & (rel - 1) == 0:
            return self.ctx.enumerate_D(rel.bit_length() - 1)
        return self._one

    def support(self, lo: int, hi: int) -> list[int]:
        """The powers 2^b in [lo, hi), from the least b with 2^b >= lo:
        O(log(hi - lo)) of them, however far the range is shifted."""
        out = []
        p = 1 << (max(lo, 1) - 1).bit_length()
        while p < hi:
            out.append(p)
            p <<= 1
        return out

    def tail_identity(self, group, element, tails, finites) -> tuple:
        # Away from the finitely many collision coordinates (where two
        # distinct shift groups are active at once: k1 + 2^a = k2 + 2^b
        # has at most one solution per shift pair) and the finite-atom
        # coordinates, the value at k + 2^b is d_b raised to the net
        # exponent N_k of shift k.  So the least difference is a
        # collision or finite-atom coordinate, or k + 2^b for a shift
        # with N_k != 0 and the least b for which k + 2^b is neither and
        # d_b^(N_k) is not the identity; that one candidate per shift
        # makes the criterion exact for any nets.  The search for b ends:
        # each candidate blocks at most one b, and every odd-index
        # d_(2n-1) = pi(psi_n^-1) is nontrivial in the torsion-free D.
        # (A power added for one shift that another shift reaches too is
        # a collision, already a candidate, so adding as we go is safe.)
        # A finite atom is a point, so its coordinate is its shift.
        fiber = group.fiber
        nets = net_exponents(tails)
        candidates = {a.shift for a in finites}
        shifts = sorted(nets)
        for i, k1 in enumerate(shifts):
            for k2 in shifts[i + 1:]:
                delta = k2 - k1
                v = (delta & -delta).bit_length() - 1
                m = delta >> v
                if (m + 1) & m == 0:
                    a_exp = v + (m + 1).bit_length() - 1
                    candidates.add(k1 + (1 << a_exp))
        for k, net in nets.items():
            if net:
                b = 0
                while (k + (1 << b) in candidates
                       or fiber.is_identity(fiber.pow(self.ctx.enumerate_D(b), net))):
                    b += 1
                candidates.add(k + (1 << b))
        return group.least_nonidentity(element, candidates)


def unrank_sequence(i: int) -> tuple[int, ...]:
    """The i-th nonempty finite sequence of naturals: ``bin(i + 1)`` read
    as blocks ``1 0^s``, one entry s per block.  A bijection from N onto
    the nonempty sequences; length and entries are at most
    log2(i + 1) + 1."""
    if i < 0:
        raise ValueError("sequence index must be >= 0")
    return tuple(len(zeros) for zeros in bin(i + 1)[3:].split("1"))


class VerbalContext:
    """All the groups and named elements of the verbal embedding for one
    word family."""

    def __init__(self, family: Word | str | Any):
        self.sgroup, self.witness, self.family_key = select_S(family)
        self.scoords = SCoords(self.sgroup, self.witness.element)
        self.QS = WreathGroup(f"QwrS[{self.family_key}]", self.scoords, RATIONALS,
                              RayStepFunction)
        self.TC = WreathGroup(f"TwrC[{self.family_key}]", IntCoords("c"), self.QS, FiberSteps)
        self.DZ = WreathGroup(f"DwrZ[{self.family_key}]", IntCoords("z"), self.TC,
                              tail_kind="omega")
        self._chi: dict[int, WreathElement] = {}
        self._psi: dict[int, WreathElement] = {}
        # each distinct top once; variables the reduction sends to 1 add
        # no generator to T
        one = self.sgroup.identity()
        tops = dict.fromkeys(g for _, args, _ in self.witness.presentation
                             for g in args if g != one)
        self.t_generators = tuple(self.s_top(g) for g in tops)
        self._t_words: dict[int, WreathElement] = {}
        self._d_words: dict[int, WreathElement] = {}
        self._omega: WreathElement | None = None
        self._omega_comms: dict[tuple[int, int], WreathElement] = {}

    # -- Q wr S ----------------------------------------------------------

    def s_top(self, s: MalcevElement) -> WreathElement:
        return self.QS.top_element(s)

    def a_elem(self) -> WreathElement:
        return self.s_top(self.witness.element)

    def chi(self, n: int) -> WreathElement:
        if n < 1:
            raise ValueError("chi(n) needs n >= 1")
        if n not in self._chi:
            self._chi[n] = self.QS.threshold(Fraction(1, n))
        return self._chi[n]

    def psi(self, n: int) -> WreathElement:
        if n < 1:
            raise ValueError("psi(n) needs n >= 1")
        if n not in self._psi:
            self._psi[n] = self.QS.point(Fraction(1, n))
        return self._psi[n]

    def psi_from_witness(self, n: int) -> VerbalWitness:
        """Compute a^-1 a^(chi_n) inside Q Wr S, check it against psi_n,
        and return it as a verbal witness over Q Wr S: the inverse of the
        witness presentation followed by the presentation with every
        argument conjugated by chi_n (the conjugate of a word value is the
        word value of the conjugated arguments)."""
        a_el = self.a_elem()
        computed = self.QS.mul(self.QS.inv(a_el), self.QS.conj(a_el, self.chi(n)))
        if not self.QS.equal(computed, self.psi(n)):
            raise ConstructionViolation(
                f"a^-1 a^(chi_{n}) disagrees with psi_{n} for {self.family_key}"
            )
        factors = []
        for word, args, sign in reversed(self.witness.presentation):
            factors.append((word, tuple(self.s_top(g) for g in args), -sign))
        for word, args, sign in self.witness.presentation:
            conj_args = tuple(
                self.QS.conj(self.s_top(g), self.chi(n)) for g in args
            )
            factors.append((word, conj_args, sign))
        return VerbalWitness(computed, tuple(factors))

    # -- T wr C ------------------------------------------------------------

    def c_elem(self, k: int = 1) -> WreathElement:
        return self.TC.top_element(k)

    def rho(self, g: WreathElement) -> WreathElement:
        return self.TC.point(g)

    def pi(self, g: WreathElement) -> WreathElement:
        return self.TC.threshold(g)

    # -- enumeration of D ---------------------------------------------------

    def _t_element(self, j: int) -> WreathElement:
        """t_j: the product of the T symbols of ``unrank_sequence(j)``,
        where 2i / 2i+1 is g_i^(+1) / g_i^(-1) and g_0, g_1, ... are the
        nontrivial witness-argument tops followed by chi(1), chi(2), ..."""
        el = self._t_words.get(j)
        if el is None:
            base = self.t_generators
            el = self.QS.identity()
            for s in unrank_sequence(j):
                i = s >> 1
                g = base[i] if i < len(base) else self.chi(i - len(base) + 1)
                el = self.QS.mul(el, self.QS.inv(g) if s & 1 else g)
            el = self._t_words.setdefault(j, el)
        return el

    def _d_symbol(self, s: int) -> WreathElement:
        """D symbol 0 / 1 is c^(+1) / c^(-1); 2+2j / 3+2j is pi(t_j)^(+1) / ^(-1)."""
        if s < 2:
            return self.c_elem(-1 if s else 1)
        p = self.pi(self._t_element((s - 2) >> 1))
        return self.TC.inv(p) if s & 1 else p

    def enumerate_D(self, k: int) -> WreathElement:
        """Deterministic enumeration of D: index 0 is c, the odd index
        2n-1 is pi applied to psi_n^-1, and the even index 2+2i is the
        product of the D symbols of ``unrank_sequence(i)`` (duplicates
        and trivial words permitted), so every word over c^(+-1) and
        pi(t)^(+-1) is reached.  Each index is built once per context,
        from O(log k) factors."""
        if k < 0:
            raise ValueError("enumeration index must be >= 0")
        el = self._d_words.get(k)
        if el is None:
            if k == 0:
                el = self.c_elem(1)
            elif k % 2 == 1:
                el = self.pi(self.QS.inv(self.psi((k + 1) // 2)))
            else:
                el = self.TC.identity()
                for s in unrank_sequence(k // 2 - 1):
                    el = self.TC.mul(el, self._d_symbol(s))
            el = self._d_words.setdefault(k, el)
        return el

    def index_of_psi_slot(self, n: int) -> int:
        return 2 * n - 1

    # -- D wr Z ------------------------------------------------------------

    def z_elem(self, k: int = 1) -> WreathElement:
        return self.DZ.top_element(k)

    def omega(self) -> WreathElement:
        if self._omega is None:
            self._omega = self.DZ.atom_element(OmegaFn(self))
        return self._omega

    def omega_commutator(self, n: int, m: int) -> WreathElement:
        """The point function with value [d_n, d_m] at z^0, once decided
        equal to [omega^(z^-2^n), omega^(z^-2^m)].

        The only coordinate where both shift groups are active is z^0
        (the dyadic collision equation has no other solution), which the
        omega tail criterion checks exactly.
        """
        if n < 0 or m < 0:
            raise ValueError("enumeration indices must be >= 0")
        if n == m:
            warnings.warn("omega_commutator(n, n) is trivially the identity")
            return self.DZ.identity()
        if (n, m) in self._omega_comms:
            return self._omega_comms[(n, m)]
        x = self.DZ.conj(self.omega(), self.z_elem(-(1 << n)))
        y = self.DZ.conj(self.omega(), self.z_elem(-(1 << m)))
        dval = self.TC.comm(self.enumerate_D(n), self.enumerate_D(m))
        # normalize the point value extensionally, to point atoms of T wr C
        # when its support is finite, so that its powers stay short
        try:
            dval = self.TC.from_finite_steps(dval.top, self.TC.base_canonical(dval))
        except ValueError:
            pass
        out = self.DZ.certified(self.DZ.comm(x, y), dval)
        self._omega_comms[(n, m)] = out
        return out

    def embed(self, q: Rational) -> WreathElement:
        """Image of q in G = <omega, z>: for m/n the word
        [omega^(z^-2^(2n-1)), omega^(z^-1)]^m, whose value at z^0 is
        rho applied to psi_n^m (and identity everywhere else), held as
        that point atom with exponent m."""
        q = Fraction(q)
        if q == 0:
            return self.DZ.identity()
        comm = self.omega_commutator(self.index_of_psi_slot(q.denominator), 0)
        return self.DZ.pow(comm, q.numerator)

    def embed_word(self, q: Rational) -> GWord:
        """The word [omega^(z^-2^(2n-1)), omega^(z^-1)]^m of m/n."""
        q = Fraction(q)
        return commutator_word("omega", 1 << self.index_of_psi_slot(q.denominator), 1,
                               q.numerator)

    # -- randomized families --------------------------------------------------

    def random_t_element(self, rng: Random, max_len: int = 6) -> WreathElement:
        gens = [*self.t_generators, self.chi(1), self.chi(2), self.chi(3)]
        out = self.QS.identity()
        for _ in range(rng.randint(1, max_len)):
            g = rng.choice(gens)
            if rng.random() < 0.5:
                g = self.QS.inv(g)
            out = self.QS.mul(out, g)
        return out

    def random_d_element(self, rng: Random, max_len: int = 5) -> WreathElement:
        out = self.TC.identity()
        for _ in range(rng.randint(1, max_len)):
            if rng.random() < 0.4:
                out = self.TC.mul(out, self.c_elem(rng.choice([-1, 1])))
            else:
                p = self.pi(self.random_t_element(rng, max_len=3))
                if rng.random() < 0.5:
                    p = self.TC.inv(p)
                out = self.TC.mul(out, p)
        return out


DEFAULT_WORD = "[x1,x2]"


@lru_cache(maxsize=None)
def _context_cache(family: Any) -> VerbalContext:
    return VerbalContext(family)


def get_context(family: Word | str | Any = DEFAULT_WORD) -> VerbalContext:
    """The context of a word set, shared by every caller that names the
    same freely reduced word up to renaming its variables."""
    family = normalize_family(family)
    try:
        return _context_cache(family)
    except TypeError:
        return VerbalContext(family)


# -- the verbal-embedding suite ---------------------------------------------

def verify_theorem2(family: Word | str | Any = DEFAULT_WORD,
                    seed: int = 0, budget: int = 200) -> Report:
    """Checks of the verbal embedding for one word family: the witness,
    psi_n = a^-1 a^(chi_n) with its replayable certificate, order
    preservation into T, the rho/pi identity, D normal forms, the omega
    commutator identities, the end-to-end embedding, subnormality
    witnesses, and the solvable-length bound."""
    ctx = get_context(family)
    QS, TC, DZ = ctx.QS, ctx.TC, ctx.DZ

    def witness_ok(rng, budget):
        rep = verify_witness(ctx.witness, ctx.sgroup)
        if rep.all_pass:
            return PASS, {"witness": ctx.sgroup.fmt(ctx.witness.element)}
        return FAIL, {c.name: c.status for c in rep.checks if c.status != PASS}

    def psi_identity(rng, budget):
        for n in range(1, 51):
            cert = ctx.psi_from_witness(n)
            if not QS.equal(cert.element, ctx.psi(n)):
                return FAIL, {"n": n}
            if not QS.equal(cert.replay(QS), ctx.psi(n)):
                return FAIL, {"n": n, "stage": "certificate replay"}
        return PASS, {"range": "n<=50"}

    def chi_commute(rng, budget):
        for i in range(1, 6):
            for j in range(1, 6):
                if not QS.is_identity(QS.comm(ctx.chi(i), ctx.chi(j))):
                    return FAIL, {"i": i, "j": j}
        return PASS, {"range": "i,j<=5"}

    def q_to_t_order(rng, budget):
        for _ in range(budget):
            p = random_rational(rng, 50, 50)
            q = random_rational(rng, 50, 50)
            if p == q:
                continue
            img_p = QS.pow(ctx.psi(p.denominator), p.numerator)
            img_q = QS.pow(ctx.psi(q.denominator), q.numerator)
            if (QS.compare(img_p, img_q) is Ordering.LESS) != (p < q):
                return FAIL, {"p": format_rational(p), "q": format_rational(q)}
        return PASS, {"pairs": budget}

    def rho_pi(rng, budget):
        count = max(4, budget // 4)
        for _ in range(count):
            g = ctx.random_t_element(rng, max_len=10)
            lhs = TC.comm(ctx.pi(QS.inv(g)), ctx.c_elem())
            if not TC.equal(lhs, ctx.rho(g)):
                return FAIL, {"g": QS.fmt(g)}
        return PASS, {"samples": count}

    def d_normal_form(rng, budget):
        count = max(4, budget // 4)
        for _ in range(count):
            el = ctx.random_d_element(rng)
            rebuilt = TC.product(
                [TC.top_element(el.top)]
                + [TC.pow(TC.threshold(a.fn.fiber_value, at=a.shift), a.exp)
                   for a in el.atoms])
            if not TC.equal(el, rebuilt):
                return FAIL, {}
            if el.atoms:
                lo = min(a.shift for a in el.atoms)
                if not QS.is_identity(TC.eval(el, lo - 1)):
                    return FAIL, {"below": lo - 1}
        return PASS, {"samples": count}

    def omega_comms(rng, budget):
        for n in range(0, 9):
            for m in range(0, 9):
                if n == m:
                    continue
                el = ctx.omega_commutator(n, m)
                dval = TC.comm(ctx.enumerate_D(n), ctx.enumerate_D(m))
                if not TC.equal(el.eval(0), dval):
                    return FAIL, {"n": n, "m": m, "at": 0}
                hi = 1 << (max(n, m) + 2)
                raw = DZ.comm(
                    DZ.conj(ctx.omega(), ctx.z_elem(-(1 << n))),
                    DZ.conj(ctx.omega(), ctx.z_elem(-(1 << m))),
                )
                window = range(-hi, hi + 1)
                for j, v in zip(window, DZ.atom_values(raw, window)):
                    if j == 0:
                        if not TC.equal(v, dval):
                            return FAIL, {"n": n, "m": m, "at": 0}
                    elif not TC.is_identity(v):
                        return FAIL, {"n": n, "m": m, "at": j}
        return PASS, {"range": "n,m<=8", "window": "2^(max+2)"}

    def embed_hom(rng, budget):
        count = max(4, budget // 2)
        for _ in range(count):
            p = random_rational(rng, 50, 50)
            q = random_rational(rng, 50, 50)
            if not DZ.equal(DZ.mul(ctx.embed(p), ctx.embed(q)), ctx.embed(p + q)):
                return FAIL, {"p": format_rational(p), "q": format_rational(q)}
        return PASS, {"pairs": count}

    def embed_injective(rng, budget):
        if not DZ.is_identity(ctx.embed(Fraction(0))):
            return FAIL, {"p": "0"}
        for _ in range(max(4, budget // 2)):
            p = random_rational(rng, 50, 50)
            if p == 0:
                continue
            if DZ.is_identity(ctx.embed(p)):
                return FAIL, {"p": format_rational(p)}
        return PASS, {}

    def embed_order(rng, budget):
        count = max(4, budget // 2)
        for _ in range(count):
            p = random_rational(rng, 50, 50)
            q = random_rational(rng, 50, 50)
            if p == q:
                continue
            if (DZ.compare(ctx.embed(p), ctx.embed(q)) is Ordering.LESS) != (p < q):
                return FAIL, {"p": format_rational(p), "q": format_rational(q)}
        return PASS, {"pairs": count}

    def subnormal_links(rng, budget):
        count = max(4, budget // 8)
        for _ in range(count):
            g = ctx.random_t_element(rng, max_len=3)
            x = ctx.random_d_element(rng, max_len=3)
            x_base = TC.element(0, x.atoms)
            moved = TC.conj(ctx.rho(g), x_base)
            expected = ctx.rho(QS.conj(g, x_base.eval(0)))
            if not TC.equal(moved, expected):
                return FAIL, {"link": "rho copy normal in D base"}
            if TC.conj(x_base, x).top != 0:
                return FAIL, {"link": "base normal in T wr C"}
        off = TC.conj(ctx.rho(ctx.psi(2)), ctx.c_elem(-1))
        if QS.is_identity(off.eval(-1)) or not QS.is_identity(off.eval(0)):
            return FAIL, {"link": "negative control"}
        return PASS, {"samples": count}

    def variety_bound(rng, budget):
        c = ctx.sgroup.nilpotency_class
        depth = c + 3
        tuples = max(2, budget // 100)
        for _ in range(tuples):
            elems = [g_word_element(random_g_word(rng, max_len=3, gen="omega"), ctx.omega())
                     for _ in range(1 << depth)]
            if not DZ.is_identity(derived_commutator(DZ, elems)):
                return FAIL, {"depth": depth}
        return PASS, {"solvable_length": depth, "tuples": tuples}

    checks = [
        ("witness", witness_ok),
        ("psi-via-witness", psi_identity),
        ("chi-commute", chi_commute),
        ("q-to-t-order", q_to_t_order),
        ("rho-pi-identity", rho_pi),
        ("d-normal-form", d_normal_form),
        ("omega-commutators", omega_comms),
        ("embed-homomorphism", embed_hom),
        ("embed-injectivity", embed_injective),
        ("embed-order-preserving", embed_order),
        ("subnormal-links", subnormal_links),
        ("variety-bound", variety_bound),
    ]
    return run_checks("verbal", seed, budget, checks,
                      params={"word": ctx.family_key})
