"""The benchmark's workloads: seeded inputs, the library calls that answer
them, and the known-answer gate.

Everything here runs inside a worker process (see ``worker.py``), after
``wreathord`` has been imported.  Inputs depend only on the pass seed, so
a run is reproducible from its ``--seed``; the library sees only the
generated expressions, rationals and indices.
"""

from __future__ import annotations

import random
from fractions import Fraction

# The three workloads and the suite calls a verify pass makes.  The sizes
# are the acceptance sizes of ``wreathord verify``; they are fixed inputs,
# not knobs (the omega-commutators window inside verify_theorem2 is an
# oracle and is exercised at its full size).
SUITES = {
    "verify-rational": (
        ("section2", lambda er, ev, s: er.verify_section2(s, budget=200)),
        ("orders", lambda er, ev, s: er.verify_order_laws(s, budget=500, window=64)),
    ),
    "verify-verbal": (
        ("verbal[x1,x2]", lambda er, ev, s: ev.verify_theorem2("[x1,x2]", s, budget=200)),
        ("verbal[x1^2]", lambda er, ev, s: ev.verify_theorem2("x1^2", s, budget=200)),
    ),
}
LARGE = "large-elements"
WORKLOADS = (*SUITES, LARGE)

FAMILIES = ("[x1,x2]", "x1^2")

# large-elements: queries of each kind per block, one per size stratum.
# Stratifying the sizes keeps the size mix of every block the same while
# the values inside each stratum come from the seed.  Embeds, the typical
# cheap query, are the most numerous, so the median query is an embed.  An
# embed's cost depends on how many of its one to three denominators are
# new to the process, so a pass needs many embeds for its median not to
# hinge on a few inputs.  Beyond the 95th percentile lie the D sweeps and
# the widest Equal alpha windows.
STRATA = {"fold": 10, "alpha": 10, "embed": 40, "omega": 10}
SIZE_RANGES = {
    "fold": (50, 300),        # atoms per Q Wr C product
    "alpha": (500, 12_000),   # n in [alpha^(z^-n), alpha]; inside the 20,000 alpha window
    "embed": (2, 300),        # denominator of p (q's divides it)
    "omega": (1, 19_999),     # largest enumeration index; sweep level 4 at most
}
KINDS = tuple(SIZE_RANGES)
_ORDER_NAME = {-1: "LESS", 0: "EQUAL", 1: "GREATER"}


class Mismatch(Exception):
    """A query or a suite check gave an answer other than the known one."""


def fraction_order(a: Fraction, b: Fraction) -> str:
    """The expected order of two embedded rationals, read off Fraction."""
    return _ORDER_NAME[(a > b) - (a < b)]


def _strata(rng: random.Random, kind: str) -> list[int]:
    lo, hi = SIZE_RANGES[kind]
    n = STRATA[kind]
    width = (hi - lo + 1) / n
    return [rng.randint(lo + int(i * width), lo + int((i + 1) * width) - 1)
            for i in range(n)]


def _rational(rng: random.Random, den: int) -> Fraction:
    num = rng.choice([-1, 1]) * rng.randint(1, 3 * den)
    return Fraction(num, den)


def _fold_query(rng: random.Random, atoms: int, equal: bool) -> dict:
    terms = [f"(pow shift(tau({rng.randint(1, 500)}),{rng.randint(-5000, 5000)}) "
             f"{rng.choice([-3, -2, -1, 1, 2, 3])})" for _ in range(atoms)]
    x = "(* " + " ".join(terms) + ")"
    if equal:
        # the base of Q Wr C is abelian, so any reordering is the same element
        rng.shuffle(terms)
        expect = "EQUAL"
    else:
        # one more positive point atom: y - x is 1/k at c^s, so x < y
        k = rng.randint(1, 500)
        terms.insert(rng.randint(0, atoms), f"shift(phi({k}),{rng.randint(-5000, 5000)})")
        expect = fraction_order(Fraction(0), Fraction(1, k))
    return {"x": x, "y": "(* " + " ".join(terms) + ")", "expect": expect}


def _alpha_query(n: int, equal: bool) -> dict:
    # [alpha^(z^-n), alpha] is the certified image of 1/n
    q = Fraction(1, n) if equal else Fraction(1, n + 1)
    return {"x": f"(comm (conj alpha (pow z {-n})) alpha)", "q": str(q),
            "expect": fraction_order(Fraction(1, n), q)}


def _embed_query(rng: random.Random, family: str, den: int) -> dict:
    # q's denominator divides p's, so p + q stays within the stratum's
    # denominator and the work of a query is set by its stratum
    p = _rational(rng, den)
    q = _rational(rng, rng.choice([k for k in range(1, den) if den % k == 0]))
    # embed is a homomorphism and order-preserving
    return {"family": family, "p": str(p), "q": str(q),
            "expect": "EQUAL " + fraction_order(p, q)}


def _omega_query(rng: random.Random, family: str, top: int) -> dict:
    other = rng.randrange(0, top)
    a, b = (top, other) if rng.random() < 0.5 else (other, top)
    # omega_commutator(a, b) is the point function [d_a, d_b] at z^0
    return {"family": family, "a": a, "b": b, "expect": "EQUAL"}


def make_block(pass_seed: int) -> list[dict]:
    """One pass of large-elements: STRATA[kind] queries of every kind, one
    per size stratum.  For fold and alpha, the larger query of each pair of
    neighbouring strata expects Equal; the two word families alternate
    over the strata.  So every pass has the same mix of work, and both
    families reach the largest sizes.

    The order is fixed: each kind's queries come in ascending size, and
    the kinds interleave in proportion to their counts.  The seed picks
    the values inside each stratum, not the order.  Order decides which
    query pays for filling a cache (the tau values an alpha window needs,
    a level of the D sweep, a denominator's commutator), so a seeded
    order moved that cost from query to query and with it the median."""
    rng = random.Random(f"{LARGE}:{pass_seed}")
    queries = []
    for kind in KINDS:
        sizes = _strata(rng, kind)
        flags = [i % 2 == 1 for i in range(len(sizes))]
        first = rng.randrange(2)
        n = len(sizes)
        for i, (size, flag) in enumerate(zip(sizes, flags)):
            family = FAMILIES[(first + i) % 2]
            if kind == "fold":
                q = _fold_query(rng, size, flag)
            elif kind == "alpha":
                q = _alpha_query(size, flag)
            elif kind == "embed":
                q = _embed_query(rng, family, size)
            else:
                q = _omega_query(rng, family, size)
            q.update(kind=kind, size=size)
            queries.append(((i + 0.5) / n, KINDS.index(kind), q))
    queries = [q for *_, q in sorted(queries, key=lambda t: t[:2])]
    for i, q in enumerate(queries):
        q["id"] = f"{pass_seed}/{i}"
    return queries


def cache_keys(q: dict) -> list[tuple]:
    """The arguments of the library's memoised calls that a query makes;
    a query whose keys were seen earlier in the same process is a repeat."""
    kind = q["kind"]
    if kind == "fold":
        return [("fold", q["x"])]
    if kind == "alpha":
        return [("alpha", q["x"]), ("phi_element", q["q"])]
    if kind == "embed":
        f = q["family"]
        return [(f, q["p"]), (f, q["q"]), (f, str(Fraction(q["p"]) + Fraction(q["q"])))]
    return [(q["family"], "omega", q["a"], q["b"])]


def answer(q: dict, wreathord) -> str:
    """Ask the library the query's question; returns Ordering names."""
    er, ev, exprs = wreathord.embed_rationals, wreathord.embed_verbal, wreathord.exprs
    kind = q["kind"]
    if kind == "fold":
        _, x = exprs.build_element(exprs.parse_expr(q["x"]))
        _, y = exprs.build_element(exprs.parse_expr(q["y"]))
        return er.QC.compare(x, y).name
    if kind == "alpha":
        _, x = exprs.build_element(exprs.parse_expr(q["x"]))
        return er.W.compare(x, er.phi_element(Fraction(q["q"]))).name
    ctx = ev.get_context(q["family"])
    if kind == "embed":
        a, b = Fraction(q["p"]), Fraction(q["q"])
        ea, eb = ctx.embed(a), ctx.embed(b)
        hom = ctx.DZ.compare(ctx.DZ.mul(ea, eb), ctx.embed(a + b))
        return f"{hom.name} {ctx.DZ.compare(ea, eb).name}"
    a, b = q["a"], q["b"]
    at0 = ctx.omega_commutator(a, b).eval(0)
    return ctx.TC.compare(at0, ctx.TC.comm(ctx.enumerate_D(a), ctx.enumerate_D(b))).name


def check_answer(q: dict, got: str) -> None:
    """The known-answer gate for one query."""
    if got != q["expect"]:
        raise Mismatch(f"query {q['id']} ({q['kind']}, size {q['size']}): "
                       f"expected {q['expect']}, got {got}")


def check_report(suite: str, report, reporting) -> int:
    """The gate for one suite report: a FAIL record is a wrong answer;
    returns the number of UNKNOWN records, which count as failed."""
    for rec in report.checks:
        if rec.status == reporting.FAIL:
            raise Mismatch(f"suite {suite} seed {report.seed}: check {rec.name} "
                           f"failed {rec.details}")
    return sum(rec.status == reporting.UNKNOWN for rec in report.checks)
