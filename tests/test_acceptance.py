"""Acceptance battery: every release criterion at its stated size, one
test (and one printed pass line) per criterion.  All checks are exact;
there are no numeric tolerances anywhere.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion lines directly).
"""

from random import Random

import pytest

from helpers import confirm_verdict

from wreathord.reporting import emit_report
from wreathord.embed_rationals import (
    QC,
    W,
    c_elem,
    commutator_table,
    expected_commutator_case,
    g_word_element,
    phi,
    random_g_word,
    random_qc_element,
    random_w_element,
    tau,
    verify_order_laws,
    verify_section2,
    verify_theorem1,
)
from wreathord.embed_verbal import get_context, verify_theorem2

SEED = 20250808


@pytest.fixture(scope="module")
def theorem1_report():
    return verify_theorem1(seed=SEED, budget=200)


@pytest.fixture(scope="module")
def theorem2_reports():
    return {
        "commutator": verify_theorem2("[x1,x2]", seed=SEED, budget=200),
        "power2": verify_theorem2("x1^2", seed=SEED, budget=200),
    }


def _passed(report, name):
    assert report.check(name).status == "pass", report.check(name)


def test_criterion_1_relations():
    for n in range(1, 51):
        assert QC.equal(QC.comm(tau(n), c_elem()), phi(n))
    for m in range(1, 51):
        for n in range(1, 51):
            assert QC.is_identity(QC.comm(tau(m), tau(n)))
    print("criterion 1: PASS - relations [tau_n, c] = phi_n and "
          "[tau_m, tau_n] = 1 exact for n,m <= 50")


def test_criterion_2_commutator_table():
    for n in range(1, 21):
        for j in range(-2 * n - 4, 2 * n + 5):
            assert QC.equal(commutator_table(n, j), expected_commutator_case(n, j))
    print("criterion 2: PASS - commutator case values match for n <= 20, "
          "|j| <= 2n+4")


def test_criterion_3_theorem1_embedding(theorem1_report):
    _passed(theorem1_report, "phi-homomorphism")
    _passed(theorem1_report, "phi-injectivity")
    _passed(theorem1_report, "phi-order-preserving")
    assert theorem1_report.check("phi-homomorphism").details.get("pairs") == 200
    assert theorem1_report.check("phi-order-preserving").details.get("pairs") == 200
    assert theorem1_report.unknown == 0
    print("criterion 3: PASS - embedding is a homomorphism, injective and "
          "order-preserving on 200 pairs with zero unknown verdicts")


def test_criterion_4_order_laws():
    report = verify_order_laws(seed=SEED, budget=500, window=64)
    assert report.all_pass, [c for c in report.checks if c.status != "pass"]
    for family in ("qc", "w"):
        assert report.check(f"{family}-total-transitive").details["triples"] == 500
        assert report.check(f"{family}-bi-invariance").details["translations"] == 20
        assert report.check(f"{family}-brute-agreement").details["window"] == 64
    print("criterion 4: PASS - full order total, transitive, bi-invariant "
          "and equal to the brute-force least-difference scan in both families")


def test_criterion_5_group_properties(theorem1_report):
    _passed(theorem1_report, "torsion-free")
    assert theorem1_report.check("torsion-free").details["words"] == 200
    _passed(theorem1_report, "solvable-length-3")
    assert theorem1_report.check("solvable-length-3").details["tuples"] == 50
    _passed(theorem1_report, "delta2-witness")
    assert "witness" in theorem1_report.check("delta2-witness").details
    print("criterion 5: PASS - torsion-freeness (200 words, k <= 10), "
          "delta_3 identity (50 tuples), delta_2 witness recorded")


def test_criterion_6_theorem2_both_families(theorem2_reports):
    for name, report in theorem2_reports.items():
        assert report.all_pass, (name, [c for c in report.checks if c.status != "pass"])
        assert report.unknown == 0
        _passed(report, "psi-via-witness")
        _passed(report, "rho-pi-identity")
        _passed(report, "omega-commutators")
        _passed(report, "embed-homomorphism")
        _passed(report, "embed-order-preserving")
        assert report.check("embed-homomorphism").details.get("pairs") == 100
        assert report.check("embed-order-preserving").details.get("pairs") == 100
    print("criterion 6: PASS - verbal embedding verified for [x1,x2] and "
          "x1^2: psi_n identity (n <= 50), rho/pi, omega commutators "
          "(n,m <= 8), end-to-end on 100 pairs, zero unknown verdicts")


def test_criterion_7_verdict_soundness():
    rng = Random(SEED)
    ctx = get_context("[x1,x2]")
    checked = 0
    for _ in range(200):
        x, y = random_qc_element(rng), random_qc_element(rng)
        y = QC.element(x.top, y.atoms)
        assert confirm_verdict(x, y, QC.min_difference(x, y))
        checked += 1
    for _ in range(200):
        x, y = random_w_element(rng), random_w_element(rng)
        y = W.element(x.top, y.atoms)
        assert confirm_verdict(x, y, W.min_difference(x, y))
        checked += 1
    for _ in range(100):
        x = g_word_element(random_g_word(rng, max_len=4), ctx.omega())
        y = g_word_element(random_g_word(rng, max_len=4), ctx.omega())
        y = ctx.DZ.element(x.top, y.atoms)
        assert confirm_verdict(x, y, ctx.DZ.min_difference(x, y))
        checked += 1
    assert checked == 500
    print("criterion 7: PASS - 500 Equal/Distinct verdicts confirmed by "
          "brute-force window evaluation")


def test_criterion_8_determinism():
    outputs = []
    for _ in range(2):
        chunk = []
        chunk.append(emit_report(verify_section2(seed=7, budget=16)))
        chunk.append(emit_report(verify_section2(seed=7, budget=16), "json"))
        chunk.append(emit_report(verify_theorem2("[x1,x2]", seed=7, budget=16)))
        chunk.append(emit_report(verify_theorem2("x1^2", seed=7, budget=16)))
        chunk.append(emit_report(verify_order_laws(seed=7, budget=24)))
        chunk.append(emit_report(verify_order_laws(seed=7, budget=24), "json"))
        outputs.append("\n".join(chunk))
    assert outputs[0] == outputs[1]
    print("criterion 8: PASS - every verify suite byte-identical across "
          "two runs at the same seed and budget")
