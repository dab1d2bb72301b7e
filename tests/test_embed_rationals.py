import sys
from collections import Counter
from fractions import Fraction
from random import Random

import pytest

from helpers import product_qc_element, product_w_element

from wreathord import embed_rationals
from wreathord.groundwork import Ordering
from wreathord.nilpotent import Word
from wreathord.reporting import FAIL
from wreathord.wreath import WreathGroup, net_exponents
from wreathord.embed_rationals import (
    QC,
    W,
    alpha,
    beta_tilde,
    big_phi,
    c_elem,
    commutator_table,
    expected_commutator_case,
    g_word_element,
    phi,
    phi_element,
    random_g_word,
    random_qc_element,
    random_rational,
    random_w_element,
    subnormal_chain,
    tau,
    verify_order_laws,
    verify_section2,
    verify_theorem1,
)
from wreathord.reporting import emit_report


def test_tau_values():
    t3 = tau(3)
    assert t3.eval(-1) == 0
    assert t3.eval(0) == Fraction(-1, 3)
    assert t3.eval(5) == Fraction(-1, 3)
    assert t3.eval(-(10**9)) == 0


def test_phi_values():
    assert phi(1).eval(0) == Fraction(1, 1)
    assert phi(4).eval(0) == Fraction(1, 4)
    assert phi(4).eval(1) == 0
    with pytest.raises(ValueError):
        tau(0)
    with pytest.raises(ValueError):
        phi(-2)


def test_alpha_values():
    a = alpha()
    assert QC.equal(a.eval(0), c_elem())
    assert QC.is_identity(a.eval(-5))
    assert QC.equal(a.eval(7), tau(7))


def test_big_phi_word_and_values():
    assert big_phi(Fraction(0)).letters == ()
    assert W.is_identity(phi_element(Fraction(0)))

    e = phi_element(Fraction(1, 2))
    inner = e.eval(0)
    assert inner.eval(0) == Fraction(1, 2)
    for j in (-3, -1, 1, 2):
        assert QC.is_identity(e.eval(j))

    # pointwise oracle for a negative numerator: evaluate the raw word,
    # with no certificate attached, and read the value off directly
    word = big_phi(Fraction(-3, 4))
    raw = g_word_element(word)
    assert raw.top == 0
    assert raw.eval(0).eval(0) == Fraction(-3, 4)
    assert QC.is_identity(raw.eval(2))
    assert W.equal(raw, phi_element(Fraction(-3, 4)))


def test_a_word_power_past_what_a_word_can_hold_raises_before_repeating():
    w = Word(((1, 1), (2, 1)))
    for m in (sys.maxsize // 2 + 1, -(sys.maxsize // 2 + 1), 10 ** 20):
        with pytest.raises(ValueError, match="more runs than a word can hold"):
            w ** m
    assert (w ** -2).letters == ((2, -1), (1, -1)) * 2


def test_commutator_table_five_cases():
    for n in range(1, 9):
        for j in range(-2 * n - 4, 2 * n + 5):
            got = commutator_table(n, j)
            if j == 0:
                assert QC.equal(got, phi(n))
            else:
                assert QC.is_identity(got)
            assert QC.equal(got, expected_commutator_case(n, j))


def _factors(el):
    return tuple((a.shift, a.exp) for a in el.atoms)


def test_g_normal_form_examples():
    # a G element is its own normal form: z^top times its atoms in order
    # (x1 = alpha, x2 = z)
    el = g_word_element(Word(((1, 1), (2, 2))))
    assert (el.top, _factors(el)) == (2, ((2, 1),))

    el = g_word_element(Word(((2, 5),)))
    assert (el.top, _factors(el)) == (5, ())

    comm_word = Word((
        (2, 3), (1, -1), (2, -3),
        (1, -1),
        (2, 3), (1, 1), (2, -3),
        (1, 1),
    ))
    el = g_word_element(comm_word)
    assert el.top == 0
    assert _factors(el) == ((-3, -1), (0, -1), (-3, 1), (0, 1))
    assert dict(sorted(net_exponents(el.atoms).items())) == {-3: 0, 0: 0}


def test_g_normal_form_evaluation_preserving():
    rng = Random(31)
    for _ in range(500):
        word = random_g_word(rng, max_len=30)
        el = g_word_element(word)
        rebuilt = W.element(el.top, el.atoms)
        assert el.top == rebuilt.top
        for j in range(-8, 9):
            assert QC.equal(el.eval(j), rebuilt.eval(j))


def test_normal_form_bound_below_min_shift():
    rng = Random(32)
    for _ in range(100):
        el = g_word_element(random_g_word(rng, max_len=20))
        if not el.atoms:
            continue
        lo = min(s for s, _ in _factors(el))
        for j in (lo - 1, lo - 2, lo - 40):
            assert QC.is_identity(el.eval(j))


def test_beta_tilde():
    sf = beta_tilde([(0, 2, 1)])
    assert sf.value(-1) == 0
    assert sf.value(0) == Fraction(-1, 2)
    sf2 = beta_tilde([(0, 2, 1), (0, 3, 2)])
    assert sf2.value(0) == Fraction(-7, 6)
    assert sf2.value(9) == Fraction(-7, 6)
    assert beta_tilde([]).is_trivial
    with pytest.raises(ValueError):
        beta_tilde([(0, 0, 1)])


def test_phi_homomorphism_and_order_samples():
    rng = Random(33)
    for _ in range(60):
        p, q = random_rational(rng), random_rational(rng)
        assert W.equal(W.mul(phi_element(p), phi_element(q)), phi_element(p + q))
        if p != q:
            assert (W.compare(phi_element(p), phi_element(q)) is Ordering.LESS) == (p < q)
    assert W.is_identity(phi_element(Fraction(0)))
    assert not W.is_identity(phi_element(Fraction(-7, 9)))


def test_verify_theorem1_small_budget():
    report = verify_theorem1(seed=3, budget=24)
    assert report.all_pass
    names = {c.name for c in report.checks}
    assert "relations-tau-c" in names
    assert "delta2-witness" in names


def test_delta2_witness_fails_when_its_tuple_is_trivial(monkeypatch):
    # the check has no fallback: a trivial default tuple is a FAIL
    monkeypatch.setattr(embed_rationals, "derived_commutator", lambda group, elems: W.identity())
    record = verify_theorem1(seed=3, budget=4).check("delta2-witness")
    assert (record.status, record.details) == (FAIL, {"note": "no delta2 witness found"})


def test_subnormal_chain_report():
    report = subnormal_chain(seed=3, budget=24)
    assert report.all_pass
    assert report.check("chain-negative-control").details["support"] == "z^-1"


def test_verify_section2_merges_and_is_deterministic():
    r1 = verify_section2(seed=9, budget=16)
    r2 = verify_section2(seed=9, budget=16)
    assert emit_report(r1) == emit_report(r2)
    assert emit_report(r1, "json") == emit_report(r2, "json")
    assert r1.all_pass


def test_verify_order_laws_small():
    report = verify_order_laws(seed=4, budget=40)
    assert report.all_pass


@pytest.mark.parametrize("sampler, reference", [
    (random_qc_element, product_qc_element),
    (random_w_element, product_w_element),
])
def test_samplers_build_the_factor_by_factor_product(sampler, reference):
    for seed in range(200):
        rng, ref_rng = Random(seed), Random(seed)
        x, ref = sampler(rng), reference(ref_rng)
        assert rng.getstate() == ref_rng.getstate()
        group = x.group
        assert ref.group is group and x.top == ref.top
        assert x.atoms == ref.atoms, seed


def test_sampling_reduces_once_per_element(monkeypatch):
    for n in range(1, 11):  # fill the tau and phi caches first
        tau(n), phi(n)
    calls = Counter()
    for name in ("product", "atom_element", "_reduce"):
        orig = getattr(WreathGroup, name)
        monkeypatch.setattr(WreathGroup, name, lambda self, *args, _o=orig, _n=name:
                            calls.update([(_n, self.name)]) or _o(self, *args))
    nested = []
    sample_qc = embed_rationals.random_qc_element
    monkeypatch.setattr(embed_rationals, "random_qc_element",
                        lambda rng: nested.append(1) or sample_qc(rng))
    for sampler, level in ((random_qc_element, "QwrC"), (random_w_element, "W")):
        for count in (100, 200):
            rng = Random(count)
            calls.clear()
            nested.clear()
            for _ in range(count):
                sampler(rng)
            expected = Counter({("_reduce", level): count})
            expected[("_reduce", "QwrC")] += len(nested)
            assert calls == expected
