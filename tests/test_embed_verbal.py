import sys
import threading
import warnings
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import unit_letters
from wreathord.embed_rationals import W, _order_family_checks, g_word_element, random_g_word
from wreathord.groundwork import Ordering
from wreathord.nilpotent import UnsupportedWordSet, VerbalWitness, Word, eval_word, select_S
from wreathord.reporting import run_checks
from wreathord.wreath import WreathGroup
from wreathord.embed_verbal import (
    ConstructionViolation,
    VerbalContext,
    _context_cache,
    get_context,
    unrank_sequence,
    verify_theorem2,
)


CTX = get_context("[x1,x2]")
ZTX = get_context("x1^2")


def _off_ray(ctx):
    """x1, x1^3 and x1^-1: off the witness ray through 1 both for [x1,x2]
    (a = [x1,x2] is central) and for x1^2 (S = Z = <x1>, a = x1^2)."""
    g = ctx.sgroup.generator(1)
    return [g, ctx.sgroup.pow(g, 3), ctx.sgroup.inv(g)]


def test_chi_values():
    for ctx in (CTX, ZTX):
        sc = ctx.scoords
        chi2 = ctx.chi(2)
        assert chi2.eval(sc.witness_power(3)) == Fraction(1, 2)
        assert chi2.eval(sc.witness_power(0)) == Fraction(1, 2)
        assert chi2.eval(sc.witness_power(-1)) == 0
        # off the witness ray the value vanishes
        for s in _off_ray(ctx):
            assert chi2.eval(s) == 0
            assert ctx.QS.base_canonical(chi2).value(s) == 0
        with pytest.raises(ValueError):
            ctx.chi(0)


def test_psi_values():
    for ctx in (CTX, ZTX):
        sc = ctx.scoords
        psi5 = ctx.psi(5)
        assert psi5.eval(sc.identity()) == Fraction(1, 5)
        assert psi5.eval(sc.witness_power(1)) == 0
        assert psi5.eval(sc.witness_power(-1)) == 0
        for s in _off_ray(ctx):
            assert psi5.eval(s) == 0
            assert ctx.QS.base_canonical(psi5).value(s) == 0
    assert CTX.psi(5).eval(CTX.sgroup.generator(2)) == 0


def test_psi_from_witness_both_families():
    for ctx, upto in ((CTX, 50), (ZTX, 50)):
        for n in range(1, upto + 1):
            cert = ctx.psi_from_witness(n)
            assert ctx.QS.equal(cert.element, ctx.psi(n))
            assert ctx.QS.equal(cert.replay(ctx.QS), ctx.psi(n))


def test_psi_from_witness_corrupted_a(monkeypatch):
    bad = CTX.QS.inv(CTX.a_elem())
    monkeypatch.setattr(CTX, "a_elem", lambda: bad)
    with pytest.raises(ConstructionViolation):
        CTX.psi_from_witness(3)


def test_rho_pi_identity():
    rng = Random(41)
    for _ in range(50):
        g = CTX.random_t_element(rng)
        lhs = CTX.TC.comm(CTX.pi(CTX.QS.inv(g)), CTX.c_elem())
        assert CTX.TC.equal(lhs, CTX.rho(g))
    assert CTX.TC.is_identity(CTX.rho(CTX.QS.identity()))
    assert CTX.QS.is_identity(CTX.pi(CTX.psi(2)).eval(-1))
    assert CTX.QS.equal(CTX.pi(CTX.psi(2)).eval(4), CTX.psi(2))


def test_enumerate_d_reservations():
    assert CTX.TC.equal(CTX.enumerate_D(0), CTX.c_elem(1))
    for n in (1, 2, 3):
        reserved = CTX.enumerate_D(2 * n - 1)
        expected = CTX.pi(CTX.QS.inv(CTX.psi(n)))
        assert CTX.TC.equal(reserved, expected)
    for k in range(0, 10):
        assert not CTX.TC.is_identity(CTX.enumerate_D(k))
    with pytest.raises(ValueError):
        CTX.enumerate_D(-1)


def test_enumerate_d_deterministic_across_contexts():
    fresh = VerbalContext("[x1,x2]")
    for k in range(0, 9):
        a, b = CTX.enumerate_D(k), fresh.enumerate_D(k)
        assert a.top == b.top
        for j in range(-4, 5):
            assert CTX.QS.fmt(a.eval(j)) == fresh.QS.fmt(b.eval(j))


def test_omega_values():
    om = CTX.omega()
    assert CTX.TC.equal(om.eval(1), CTX.enumerate_D(0))
    assert CTX.TC.equal(om.eval(2), CTX.enumerate_D(1))
    assert CTX.TC.equal(om.eval(4), CTX.enumerate_D(2))
    assert CTX.TC.is_identity(om.eval(3))
    assert CTX.TC.is_identity(om.eval(0))
    assert CTX.TC.is_identity(om.eval(-8))
    # omega conjugated by z^-2^n evaluates to d_n at the origin
    for n in (0, 1, 3):
        moved = CTX.DZ.conj(om, CTX.z_elem(-(1 << n)))
        assert CTX.TC.equal(moved.eval(0), CTX.enumerate_D(n))


def test_omega_commutator():
    el = CTX.omega_commutator(2, 0)
    dval = CTX.TC.comm(CTX.enumerate_D(2), CTX.enumerate_D(0))
    assert CTX.TC.equal(el.eval(0), dval)
    for j in (-20, -3, -1, 1, 2, 3, 5, 16, 40):
        assert CTX.TC.is_identity(el.eval(j))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        trivial = CTX.omega_commutator(4, 4)
    assert CTX.DZ.is_identity(trivial)
    assert caught and "trivially" in str(caught[0].message)


def test_omega_commutator_slot_value():
    # the reserved slots wire [omega^(z^-2^(2n-1)), omega^(z^-1)] to
    # rho(psi_n) at the origin
    el = CTX.omega_commutator(CTX.index_of_psi_slot(2), 0)
    assert CTX.TC.equal(el.eval(0), CTX.rho(CTX.psi(2)))


def test_embed_values_and_raw_word_oracle():
    assert CTX.DZ.is_identity(CTX.embed(Fraction(0)))
    e = CTX.embed(Fraction(1, 3))
    v = e.eval(0)                      # element of D = T wr C
    t = v.eval(0)                      # element of T = Q wr S
    assert t.eval(CTX.scoords.identity()) == Fraction(1, 3)
    for j in (-2, -1, 1, 2):
        assert CTX.TC.is_identity(e.eval(j))
    # independent route: evaluate the emitted word with no certificates
    raw = g_word_element(CTX.embed_word(Fraction(1, 3)), CTX.omega())
    assert raw.top == 0
    assert CTX.TC.equal(raw.eval(0), CTX.rho(CTX.QS.pow(CTX.psi(3), 1)))
    assert CTX.DZ.equal(raw, e)


def test_embed_homomorphism_and_order():
    DZ = CTX.DZ
    pairs = [
        (Fraction(1, 2), Fraction(1, 3)),
        (Fraction(-2, 5), Fraction(3, 7)),
        (Fraction(4, 9), Fraction(-4, 9)),
    ]
    for p, q in pairs:
        assert DZ.equal(DZ.mul(CTX.embed(p), CTX.embed(q)), CTX.embed(p + q))
        if p != q:
            assert (DZ.compare(CTX.embed(p), CTX.embed(q)) is Ordering.LESS) == (p < q)
    assert DZ.compare(CTX.embed(Fraction(1, 3)), CTX.embed(Fraction(1, 2))) is Ordering.LESS


def test_power_word_context_embedding():
    DZ = ZTX.DZ
    e = ZTX.embed(Fraction(-2, 3))
    t = e.eval(0).eval(0)
    assert t.eval(ZTX.scoords.identity()) == Fraction(-2, 3)
    assert DZ.equal(DZ.mul(ZTX.embed(Fraction(1, 2)), ZTX.embed(Fraction(1, 3))),
                    ZTX.embed(Fraction(5, 6)))


@pytest.mark.parametrize("ctx", [CTX, ZTX], ids=["[x1,x2]", "x1^2"])
def test_the_order_laws_hold_on_every_verbal_level(ctx):
    def half_with_trivial_top(group, sample):
        # comparisons of two trivial tops reach the base
        def sampler(rng):
            x = sample(rng)
            return group.element(group.identity().top, x.atoms) if rng.random() < 0.5 else x
        return sampler

    def omega_word(rng):
        return g_word_element(random_g_word(rng, max_len=3), ctx.omega())

    checks = []
    for name, group, sample in (("qs", ctx.QS, ctx.random_t_element),
                                ("tc", ctx.TC, ctx.random_d_element),
                                ("dz", ctx.DZ, omega_word)):
        family = _order_family_checks(name, half_with_trivial_top(group, sample), group, 0)
        checks += [(n, check) for n, check in family if not n.endswith("-brute-agreement")]
    report = run_checks("orders", 7, 40, checks)
    assert len(report.checks) == 6
    assert report.all_pass, [c for c in report.checks if c.status != "pass"]


def test_verify_theorem2_small_budget_both_families():
    for family in ("[x1,x2]", "x1^2"):
        report = verify_theorem2(family, seed=5, budget=16)
        assert report.all_pass, [c for c in report.checks if c.status != "pass"]


@pytest.mark.parametrize("ctx", [CTX, ZTX], ids=["[x1,x2]", "x1^2"])
def test_the_omega_commutator_oracle_scans_its_whole_window(monkeypatch, ctx):
    # every coordinate of [-2^(max+2), 2^(max+2)] is yielded to the check
    # from the atoms of the raw commutator, for each pair n != m <= 8; the
    # coordinates reach atom_values as the suite passes them, so a window
    # passed as a range takes the range route
    from collections import defaultdict
    from wreathord.wreath import WreathGroup

    seen = defaultdict(set)
    windows = defaultdict(set)
    atom_values = WreathGroup.atom_values

    def recording(self, x, coords):
        if self is ctx.DZ and type(coords) is range:
            windows[x.atoms].add(coords)
        for c, v in zip(coords, atom_values(self, x, coords)):
            if self is ctx.DZ:
                seen[x.atoms].add(c)
            yield v

    monkeypatch.setattr(WreathGroup, "atom_values", recording)
    report = verify_theorem2(ctx.family_key, seed=0, budget=4)
    assert report.check("omega-commutators").status == "pass"
    DZ, total = ctx.DZ, 0
    for n in range(9):
        for m in range(9):
            if n != m:
                raw = DZ.comm(DZ.conj(ctx.omega(), ctx.z_elem(-(1 << n))),
                              DZ.conj(ctx.omega(), ctx.z_elem(-(1 << m))))
                hi = 1 << (max(n, m) + 2)
                assert seen[raw.atoms] >= set(range(-hi, hi + 1))
                assert range(-hi, hi + 1) in windows[raw.atoms]
                total += 2 * hi + 1
    assert total == 57448


_FAR = 1 << 199999


@pytest.mark.parametrize("ctx", [CTX, ZTX], ids=["[x1,x2]", "x1^2"])
@pytest.mark.parametrize("lo, hi, powers",
                         [(-(1 << 12), 1 << 12, [1 << b for b in range(13)]),
                          (_FAR - 64, _FAR + 64, [_FAR])], ids=["near", "far"])
def test_support_covers_every_non_identity_value(ctx, lo, hi, powers):
    # a range route skips the coordinates off support, so value must be the
    # fiber identity at each of them; [lo, hi] holds z^1 = d_0 and 2^199999
    fns = [ctx.omega().atoms[0].fn, ctx.DZ.point(ctx.enumerate_D(1)).atoms[0].fn]
    for fn in fns:
        support = fn.support(lo, hi + 1)
        assert support == sorted(set(support))
        assert all(lo <= r <= hi for r in support)
        off = set(range(lo, hi + 1)).difference(support)
        assert all(ctx.TC.is_identity(fn.value(r)) for r in off), fn.name
    assert fns[0].support(lo, hi + 1) == powers


@pytest.mark.parametrize("ctx", [CTX, ZTX], ids=["[x1,x2]", "x1^2"])
def test_the_omega_commutator_oracle_evaluates_omega_where_it_can_be_non_identity(
        monkeypatch, ctx):
    # growth pin: the suite's windows of 57,448 coordinates read omega only
    # at the powers of 2 their atoms reach (230,148 calls for a full scan)
    from wreathord.embed_verbal import OmegaFn

    calls = []
    value = OmegaFn.value
    monkeypatch.setattr(OmegaFn, "value", lambda self, rel: calls.append(1) or value(self, rel))
    report = verify_theorem2(ctx.family_key, seed=0, budget=4)
    assert report.all_pass
    assert len(calls) <= 10_000, len(calls)


def test_unsupported_word_family():
    # the message quotes the word as typed, not its expanded letters
    with pytest.raises(UnsupportedWordSet, match=r"word '\[\[x1,x2\],x3\]' lies in gamma_3"):
        get_context("[[x1,x2],x3]")


class _ListedS:
    """S = Z with plain int elements, offering only identity, mul, inv,
    pow, compare and ray_decompose."""

    def identity(self):
        return 0

    def mul(self, x, y):
        return x + y

    def inv(self, x):
        return -x

    def pow(self, x, n):
        return x * n

    def compare(self, x, y):
        return Ordering.of(x, y)

    def ray_decompose(self, s, a):
        i = s // a
        return s - i * a, i


class _IntegerS(_ListedS):
    """The same S with fmt and nilpotency_class as well: the whole S
    contract.  An int has no fmt method of its own."""

    nilpotency_class = 1

    def fmt(self, x):
        return f"t^{x}"


class _Squares:
    """The word x1^2 with the witness t^2 in a given integer S."""

    family_key = "x1^2 in Z"

    def __init__(self, group):
        self.group = group

    def select(self):
        return self.group, VerbalWitness(2, ((Word(((1, 2),)), (1,), 1),))


def test_a_plugin_S_without_the_whole_contract_is_rejected():
    with pytest.raises(UnsupportedWordSet,
                       match=r"^word family 'x1\^2 in Z': S lacks fmt, nilpotency_class$"):
        select_S(_Squares(_ListedS()))


def test_a_plugin_S_with_the_whole_contract_passes_the_verbal_suite():
    plugin = _Squares(_IntegerS())
    report = verify_theorem2(plugin, seed=7, budget=16)
    assert len(report.checks) == 12
    assert report.all_pass, [c for c in report.checks if c.status != "pass"]
    # the coordinate group names S's elements through S's own fmt
    ctx = get_context(plugin)
    assert (ctx.QS.fmt(ctx.QS.mul(ctx.a_elem(), ctx.psi(1)))
            == "t^2 * {ray(t^0): {i<0: 0, 0<=i<1: 1, i>=1: 0}}")


def test_renamings_of_a_word_share_one_context():
    before = _context_cache.cache_info()
    assert get_context("x1^2") is get_context("x2^2") is ZTX
    assert get_context("[x3,x5]") is get_context("[x1,x2]") is CTX
    assert get_context("x2*x1*x1^-1*x2") is ZTX
    after = _context_cache.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (5, 0)
    # x1^-2 has the same S but a different witness presentation
    inverse = get_context("x1^-2")
    assert inverse is not ZTX and inverse is get_context("x7^-2")


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.integers(1, 3), st.integers(-50, 50).filter(bool)), max_size=4),
       st.integers(0, 10 ** 6))
def test_eval_word_of_runs_matches_unit_letters_in_QS(runs, seed):
    rng = Random(seed)
    args = [CTX.random_t_element(rng) for _ in range(3)]
    word = Word(tuple(runs))
    assert CTX.QS.equal(eval_word(word, args, CTX.QS),
                        eval_word(Word(unit_letters(word)), args, CTX.QS))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.integers(1, 2), st.integers(-9, 9).filter(bool)), max_size=6))
def test_g_word_runs_match_unit_letters(runs):
    # a G-word over x1 = alpha or omega and x2 = z evaluates each run with
    # one pow; spelt letter by letter it is a product of generators
    word = Word(tuple(runs))
    letters = Word(unit_letters(word))
    assert W.equal(g_word_element(word), g_word_element(letters))
    omega = CTX.omega()
    assert CTX.DZ.equal(g_word_element(word, omega), g_word_element(letters, omega))


def test_replaying_a_power_word_certificate_costs_its_runs(monkeypatch):
    # growth pin: the certificate of psi_3 for x1^n replays each run with
    # one pow, so Q Wr S makes O(log n) products, not two per letter
    calls = []
    mul = WreathGroup.mul
    monkeypatch.setattr(WreathGroup, "mul", lambda self, x, y: calls.append(1) or mul(self, x, y))
    counts = []
    for n in (1000, 10 ** 6):
        ctx = get_context(f"x1^{n}")
        cert = ctx.psi_from_witness(3)
        calls.clear()
        replayed = cert.replay(ctx.QS)
        counts.append(len(calls))
        assert ctx.QS.equal(replayed, ctx.psi(3))
    assert counts[1] <= 2 * counts[0], counts


def _rank_sequence(seq):
    """The inverse of unrank_sequence: one block 1 0^s per entry s."""
    return int("".join("1" + "0" * s for s in seq), 2) - 1


def _compositions(total):
    """Every nonempty sequence of naturals s with sum(s_j + 1) <= total."""
    out = []
    for first in range(total):
        out.append((first,))
        out += [(first,) + rest for rest in _compositions(total - first - 1)]
    return out


def test_unrank_sequence_is_a_bijection_onto_compositions():
    seqs = [unrank_sequence(i) for i in range(2 ** 12 - 1)]
    assert len(set(seqs)) == len(seqs)
    assert set(seqs) == set(_compositions(12))
    assert all(_rank_sequence(seq) == i for i, seq in enumerate(seqs))
    assert seqs[:4] == [(0,), (1,), (0, 0), (2,)]
    with pytest.raises(ValueError):
        unrank_sequence(-1)


def _d_index(ctx, letters):
    """The enumeration index of a D word given as (kind, arg, exp) letters:
    ("c", None, e) or ("pi", T letters, e), T letters being
    (generator index, exp) with generators the witness-argument tops
    followed by chi(1), chi(2), ..."""
    symbols = []
    for kind, arg, e in letters:
        if kind == "c":
            symbols.append(0 if e == 1 else 1)
        else:
            j = _rank_sequence(tuple(2 * g + (t == -1) for g, t in arg))
            symbols.append(2 + 2 * j + (e == -1))
    return 2 + 2 * _rank_sequence(tuple(symbols))


def test_enumerate_d_reaches_hand_built_words():
    QS, TC = CTX.QS, CTX.TC
    x1, x2 = CTX.t_generators
    chi = {n: len(CTX.t_generators) - 1 + n for n in (1, 2)}  # index of chi(n)
    words = [
        # pi(chi(2))^-1 * c * pi(x1)
        ([("pi", [(chi[2], 1)], -1), ("c", None, 1), ("pi", [(0, 1)], 1)],
         TC.mul(TC.mul(TC.inv(CTX.pi(CTX.chi(2))), CTX.c_elem(1)), CTX.pi(x1))),
        # c^-1 * pi(x2^-1 * chi(1)) * c^-1
        ([("c", None, -1), ("pi", [(1, -1), (chi[1], 1)], 1), ("c", None, -1)],
         TC.mul(TC.mul(CTX.c_elem(-1), CTX.pi(QS.mul(QS.inv(x2), CTX.chi(1)))),
                CTX.c_elem(-1))),
        # pi(x1 * x2)^-1
        ([("pi", [(0, 1), (1, 1)], -1)], TC.inv(CTX.pi(QS.mul(x1, x2)))),
    ]
    for letters, product in words:
        assert TC.equal(CTX.enumerate_D(_d_index(CTX, letters)), product)
    # the first even indices: c, c^-1, c^2, pi(t_0) with t_0 = x1
    assert [CTX.enumerate_D(k) for k in (2, 4, 6)] == [CTX.c_elem(e) for e in (1, -1, 2)]
    assert TC.equal(CTX.enumerate_D(8), CTX.pi(x1))


def test_enumerate_d_far_indices_are_cheap():
    fresh = VerbalContext("[x1,x2]")
    assert fresh.enumerate_D(10 ** 6).group is fresh.TC
    el = fresh.omega_commutator(10 ** 5, 0)
    dval = fresh.TC.comm(fresh.enumerate_D(10 ** 5), fresh.enumerate_D(0))
    assert fresh.TC.equal(el.eval(0), dval)


def test_enumerate_d_concurrent_requests_agree():
    ks = list(range(0, 40)) + [97, 1000, 12_345, 19_171, 10 ** 5]
    reference = VerbalContext("[x1,x2]")
    expected = {k: reference.TC.fmt(reference.enumerate_D(k)) for k in ks}
    shared = VerbalContext("[x1,x2]")
    barrier = threading.Barrier(4)
    results = [None] * 4

    def worker(t):
        order = list(ks)
        Random(t).shuffle(order)
        barrier.wait()
        results[t] = {k: shared.TC.fmt(shared.enumerate_D(k)) for k in order}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
    finally:
        sys.setswitchinterval(interval)
    assert results == [expected] * 4
