import time
from itertools import product
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import free_reduction, unit_letters
from wreathord.groundwork import Ordering
from wreathord.nilpotent import (
    Nil2Group,
    UnsupportedWordSet,
    Word,
    eval_word,
    normalize_family,
    parse_word,
    select_S,
    verify_witness,
)

G2 = Nil2Group(2)
X1, X2 = G2.generator(1), G2.generator(2)


# -- independent oracle: the integer Heisenberg group --------------------
#
# x1 -> I + E12, x2 -> I + E23 identifies the free class-2 group of rank 2
# with the 3x3 upper unitriangular integer matrices, and
# x1^a x2^b [x1,x2]^f has matrix entries (12) = a, (23) = b, (13) = f + a*b.

def _mat_mul(A, B):
    return tuple(
        tuple(sum(A[i][k] * B[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )

_I = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
_M1 = ((1, 1, 0), (0, 1, 0), (0, 0, 1))
_M1i = ((1, -1, 0), (0, 1, 0), (0, 0, 1))
_M2 = ((1, 0, 0), (0, 1, 1), (0, 0, 1))
_M2i = ((1, 0, 0), (0, 1, -1), (0, 0, 1))


def heisenberg_coords(letters):
    """(e1, e2, f12) of a word over x1, x2 via matrix multiplication."""
    M = _I
    for var, exp in letters:
        M = _mat_mul(M, {(1, 1): _M1, (1, -1): _M1i, (2, 1): _M2, (2, -1): _M2i}[(var, exp)])
    e1, e2 = M[0][1], M[1][2]
    return e1, e2, M[0][2] - e1 * e2


def test_heisenberg_oracle_basic_commutator():
    # frozen: x1^-1 x2^-1 x1 x2 has coordinates (0, 0, 1)
    assert heisenberg_coords([(1, -1), (2, -1), (1, 1), (2, 1)]) == (0, 0, 1)


def test_collection_examples():
    assert G2.mul(X1, X2) == G2.element((1, 1), (0,))
    # frozen from the Heisenberg oracle: x2*x1 collects to f12 = -1
    assert heisenberg_coords([(2, 1), (1, 1)]) == (1, 1, -1)
    assert G2.mul(X2, X1) == G2.element((1, 1), (-1,))
    g = G2.element((3, -2), (5,))
    assert G2.mul(g, G2.inv(g)) == G2.identity()


def test_eval_word_agrees_with_heisenberg_on_short_words():
    letters_pool = [(1, 1), (1, -1), (2, 1), (2, -1)]
    count = 0
    for length in range(0, 7):
        for combo in product(letters_pool, repeat=length):
            w = Word(tuple(combo))
            got = eval_word(w, (X1, X2), G2)
            e1, e2, f = heisenberg_coords(combo)
            assert (got.gens, got.comms) == ((e1, e2), (f,))
            count += 1
    assert count > 5000


def test_eval_word_examples():
    comm = Word.commutator(Word(((1, 1),)), Word(((2, 1),)))
    assert eval_word(comm, (X1, X2), G2) == G2.element((0, 0), (1,))
    g = G2.element((2, 1), (3,))
    assert eval_word(Word.power(1, 3), (g,), G2) == G2.pow(g, 3)
    assert eval_word(comm, (g, g), G2) == G2.identity()
    with pytest.raises(ValueError):
        eval_word(comm, (X1,), G2)


def test_compare_examples():
    assert G2.compare(X1, G2.identity()) is Ordering.GREATER
    g = G2.element((4, -1), (2,))
    assert G2.compare(g, g) is Ordering.EQUAL
    # coordinate-comparison oracle: e([x1,x2]) = (0,0) versus e(x1^-1) =
    # (-1,0); the first differing generator exponent is 0 > -1
    comm = G2.comm(X1, X2)
    assert G2.compare(comm, G2.inv(X1)) is Ordering.GREATER


def test_group_axioms_random():
    rng = Random(77)
    for _ in range(1000):
        g, h, u = (
            G2.element(
                (rng.randint(-20, 20), rng.randint(-20, 20)),
                (rng.randint(-20, 20),),
            )
            for _ in range(3)
        )
        assert G2.mul(G2.mul(g, h), u) == G2.mul(g, G2.mul(h, u))
        assert G2.mul(g, G2.identity()) == g
        assert G2.mul(g, G2.inv(g)) == G2.identity()


def test_order_total_and_bi_invariant_random():
    rng = Random(78)
    for _ in range(1000):
        g, h, x = (
            G2.element(
                (rng.randint(-20, 20), rng.randint(-20, 20)),
                (rng.randint(-20, 20),),
            )
            for _ in range(3)
        )
        o = G2.compare(g, h)
        assert G2.compare(h, g) is o.reversed()
        if o is Ordering.LESS:
            assert G2.compare(G2.mul(g, x), G2.mul(h, x)) is Ordering.LESS
            assert G2.compare(G2.mul(x, g), G2.mul(x, h)) is Ordering.LESS


def test_torsion_free_random():
    rng = Random(79)
    for _ in range(200):
        g = G2.element(
            (rng.randint(-20, 20), rng.randint(-20, 20)),
            (rng.randint(-20, 20),),
        )
        if g == G2.identity():
            continue
        for k in range(1, 11):
            assert G2.pow(g, k) != G2.identity()


def test_class_two_law():
    rng = Random(80)
    for _ in range(200):
        g, h, u = (
            G2.element(
                (rng.randint(-10, 10), rng.randint(-10, 10)),
                (rng.randint(-10, 10),),
            )
            for _ in range(3)
        )
        assert G2.comm(G2.comm(g, h), u) == G2.identity()


def test_element_checks_coordinate_counts():
    G3 = Nil2Group(3)
    assert G3.element((1, 2, 3)) == G3.element((1, 2, 3), (0, 0, 0))
    for gens, comms in (((1, 2), ()), ((1, 2, 3, 4), ()), ((1, 2, 3), (1, 2)),
                        ((1, 2, 3), (1, 2, 3, 4))):
        with pytest.raises(ValueError):
            G3.element(gens, comms)
    with pytest.raises(ValueError):
        G2.element((1,), (1,))


def test_pow_matches_repeated_multiplication():
    rng = Random(81)
    for _ in range(100):
        g = G2.element((rng.randint(-5, 5), rng.randint(-5, 5)), (rng.randint(-5, 5),))
        acc = G2.identity()
        for k in range(8):
            assert G2.pow(g, k) == acc
            acc = G2.mul(acc, g)
        assert G2.pow(g, -3) == G2.inv(G2.pow(g, 3))


def test_word_parsing():
    assert parse_word("x1^3").letters == ((1, 3),)
    assert parse_word("[x1,x2]").letters == ((1, -1), (2, -1), (1, 1), (2, 1))
    w = parse_word("x1^2*x2^-1")
    assert w.letters == ((1, 2), (2, -1))
    assert parse_word("(x1*x2)^2").letters == ((1, 1), (2, 1)) * 2
    with pytest.raises(ValueError):
        parse_word("x1^")
    with pytest.raises(ValueError):
        parse_word("[x1,x2")
    with pytest.raises(ValueError):
        parse_word("y1")


_RUN = st.tuples(st.integers(1, 3), st.integers(-50, 50).filter(bool))
_RUNS = st.lists(_RUN, max_size=6)
_NIL2 = st.builds(lambda a, b, f: G2.element((a, b), (f,)),
                  st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3))


@st.composite
def run_words(draw):
    """Run words u * m * u^-1 in x1..x3: when m is empty or cancels, the
    reduction cascades through all of u; runs of u may also split one
    variable's exponent, so neighbouring runs merge."""
    u, m = draw(_RUNS), draw(st.lists(_RUN, max_size=3))
    if draw(st.booleans()):
        m = [(v, -e) for v, e in reversed(m)] + m
    return Word(tuple(u + m + [(v, -e) for v, e in reversed(u)] + draw(_RUNS)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(run_words())
def test_reduced_runs_match_letter_by_letter_reduction(word):
    reduced = word.reduced()
    assert unit_letters(reduced) == free_reduction(unit_letters(word))
    # each variable's run is whole: no two neighbours share a variable
    assert all(a[0] != b[0] for a, b in zip(reduced.letters, reduced.letters[1:]))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_RUNS, st.lists(_NIL2, min_size=3, max_size=3))
def test_eval_word_of_runs_matches_unit_letters_in_nil2(runs, args):
    word = Word(tuple(runs))
    assert eval_word(word, args, G2) == eval_word(Word(unit_letters(word)), args, G2)


def test_normalize_family_reduces_renumbers_and_passes_plugins_through():
    assert normalize_family("x5*x2*x2^-1*x5") == Word(((1, 2),))
    assert normalize_family(Word(((3, 1), (7, -2), (7, 2)))) == Word(((1, 1),))
    plugin = object()
    assert normalize_family(plugin) is plugin


def test_a_power_word_selects_S_in_products_per_run(monkeypatch):
    # growth pin: x1^n is one run, so reading S off it makes the same
    # number of Nil2Group products at any n, not one per letter
    calls = []
    mul = Nil2Group.mul
    monkeypatch.setattr(Nil2Group, "mul", lambda self, x, y: calls.append(1) or mul(self, x, y))
    counts = []
    for n in (1000, 10 ** 6):
        calls.clear()
        select_S(f"x1^{n}")
        counts.append(len(calls))
    assert counts[1] <= 2 * counts[0], counts


def test_parsing_validates_each_letter_once(monkeypatch):
    # growth pin: parsing a text of n factors validates O(n) letters, not
    # a new Word holding every letter so far at each "*"
    validated = []
    check = Word.__post_init__

    def counting(self):
        validated.append(len(self.letters))
        check(self)

    monkeypatch.setattr(Word, "__post_init__", counting)

    def letters_validated(n):
        validated.clear()
        parse_word("*".join(f"x{k % 3 + 1}^{k % 2 + 1}" for k in range(n)))
        return sum(validated)

    small, large = letters_validated(300), letters_validated(600)
    assert large <= 2.5 * small, (small, large)


def test_select_power_word():
    group, witness, key = select_S("x1^3")
    assert key == "x1^3"
    assert group.rank == 1
    assert witness.element == group.element((3,))
    # oracle: the verbal subgroup of Z under x^3 is 3Z, by enumerating
    # substitutions v(g) = 3g for g in a window
    values = {3 * g for g in range(-10, 11)}
    assert witness.element.gens[0] in values
    assert min(v for v in values if v > 0) == 3
    assert group.compare(witness.element, group.identity()) is Ordering.GREATER


def test_select_commutator_word():
    group, witness, key = select_S("[x1,x2]")
    assert key == "[x1,x2]"
    assert group.rank == 2
    assert witness.element == group.element((0, 0), (1,))
    assert group.compare(witness.element, group.identity()) is Ordering.GREATER


def test_select_unsupported():
    with pytest.raises(UnsupportedWordSet, match="class >= 3"):
        select_S("[[x1,x2],x3]")
    with pytest.raises(ValueError):
        select_S("x1*x1^-1")


_LETTER = st.tuples(st.integers(1, 4), st.sampled_from([1, -1]))


@st.composite
def words(draw):
    """Words in x1..x4 of length <= 12.  Half are u times a rearrangement
    of u^-1, with every exponent sum zero, so both reductions are drawn."""
    u = draw(st.lists(_LETTER, max_size=6))
    if draw(st.booleans()):
        return u + draw(st.lists(_LETTER, max_size=6))
    return u + [(v, -e) for v, e in draw(st.permutations(u))]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(words())
def test_select_reads_S_and_witness_off_any_word(letters):
    # oracle without Nil2Group: the exponent sums, and the [x_p,x_q]
    # exponent as the Heisenberg f12 of the word with every other
    # variable deleted (sent to 1)
    sums = [sum(e for v, e in letters if v == i) for i in range(1, 5)]
    comms = [heisenberg_coords([(1 if v == p else 2, e) for v, e in letters if v in (p, q)])[2]
             for p in range(1, 5) for q in range(p + 1, 5)]
    word = Word(tuple(letters))
    if not any(sums) and not any(comms):
        with pytest.raises((UnsupportedWordSet, ValueError)):
            select_S(word)
        return
    group, witness, key = select_S(word)
    assert verify_witness(witness, group).all_pass
    assert group.compare(witness.element, group.identity()) is Ordering.GREATER
    if any(sums):
        e = abs(next(e for e in sums if e))
        assert (group.rank, witness.element.gens) == (1, (e,))
        assert key == ("x1" if e == 1 else f"x1^{e}")
    else:
        f = abs(next(f for f in comms if f))
        assert (group.rank, witness.element.comms) == (2, (f,))
        assert key == ("[x1,x2]" if f == 1 else f"[x1,x2]^{f}")


def test_select_renumbers_the_occurring_variables():
    t = time.perf_counter()
    group, witness, key = select_S("[x1,x1000000]")
    assert time.perf_counter() - t < 1.0
    assert (group.rank, key) == (2, "[x1,x2]")
    assert witness.presentation[0][0] == parse_word("[x1,x2]")


def test_select_plugin_object():
    from wreathord.nilpotent import VerbalWitness

    class FifthPowers:
        def select(self):
            g = Nil2Group(1)
            gen = g.generator(1)
            witness = VerbalWitness(g.pow(gen, 5), ((Word.power(1, 5), (gen,), 1),))
            return g, witness

    group, witness, _ = select_S(FifthPowers())
    assert witness.element == group.element((5,))
    assert verify_witness(witness, group).all_pass


class _Box:
    """An S element with identity equality: each product is a new box."""

    def __init__(self, e):
        self.e = e


class _UnhashableBox(_Box):
    def __eq__(self, other):
        return self.e == other.e

    __hash__ = None


@pytest.mark.parametrize("box", [_Box, _UnhashableBox])
def test_select_rejects_a_plugin_without_value_equality(box):
    from wreathord.nilpotent import VerbalWitness

    class Boxed:
        g = Nil2Group(1)

        def identity(self):
            return box(self.g.identity())

        def mul(self, x, y):
            return box(self.g.mul(x.e, y.e))

    class Plugin:
        family_key = "boxed"

        def select(self):
            group = Boxed()
            a = box(group.g.generator(1))
            return group, VerbalWitness(a, ((Word.power(1, 1), (a,), 1),))

    with pytest.raises(UnsupportedWordSet, match="'boxed'.*hashable with value equality"):
        select_S(Plugin())


def test_verify_witness_pass_and_corrupted():
    group, witness, _ = select_S("[x1,x2]")
    assert verify_witness(witness, group).all_pass
    from wreathord.nilpotent import VerbalWitness
    word, args, sign = witness.presentation[0]
    corrupted = VerbalWitness(witness.element, ((word, args, -sign),))
    report = verify_witness(corrupted, group)
    assert not report.all_pass
    assert report.check("witness-reconstruct").status == "fail"

    group2, witness2, _ = select_S("x1^2")
    rep2 = verify_witness(witness2, group2)
    assert rep2.all_pass
    assert witness2.element == group2.element((2,))
