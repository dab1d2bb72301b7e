import json
import re
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import token_parse_expr
from wreathord.cli import Command, main, parse_argv, run_command
from wreathord.exprs import (
    Comm,
    Conj,
    ExprSyntaxError,
    IndexedAtom,
    Inv,
    Mul,
    NameAtom,
    PiAtom,
    Pow,
    ShiftAtom,
    build_element,
    infer_level,
    joint_levels,
    parse_expr,
    print_expr,
)
from wreathord.reporting import PASS, CheckRecord, Report, exit_status, run_checks


def test_parse_examples():
    t = parse_expr("(comm tau(2) c)")
    assert t == Comm(IndexedAtom("tau", 2), NameAtom("c"))

    t2 = parse_expr("(pow (comm (conj alpha (pow z -3)) alpha) 2)")
    assert t2 == Pow(
        Comm(Conj(NameAtom("alpha"), Pow(NameAtom("z"), -3)), NameAtom("alpha")), 2
    )
    assert print_expr(t2) == "(pow (comm (conj alpha (pow z -3)) alpha) 2)"

    assert parse_expr("shift(tau(2), 3)") == ShiftAtom(IndexedAtom("tau", 2), 3)
    assert parse_expr("pi((* chi(1) psi(2)))") == PiAtom(
        Mul((IndexedAtom("chi", 1), IndexedAtom("psi", 2)))
    )


def test_parse_errors_carry_positions():
    with pytest.raises(ExprSyntaxError) as e:
        parse_expr("tau(0)")
    assert "must be >= 1" in str(e.value)
    with pytest.raises(ExprSyntaxError):
        parse_expr("(comm tau(2)")
    with pytest.raises(ExprSyntaxError):
        parse_expr("(frob alpha)")
    with pytest.raises(ExprSyntaxError):
        parse_expr("alpha alpha")
    with pytest.raises(ExprSyntaxError):
        parse_expr("(* )")


def test_expression_nodes_are_slotted_values():
    # one node of each class; an atom's pos takes no part in equality or hashing
    text = "(* c shift(tau(5),-2) pi((comm chi(2) (conj psi(1) (inv (pow chi(3) 4))))))"
    tree = parse_expr(text)
    by_hand = Mul((NameAtom("c"), ShiftAtom(IndexedAtom("tau", 5), -2), PiAtom(Comm(
        IndexedAtom("chi", 2), Conj(IndexedAtom("psi", 1), Inv(Pow(IndexedAtom("chi", 3), 4)))))))
    assert tree == by_hand and hash(tree) == hash(by_hand)
    assert NameAtom("c", 3) != NameAtom("z", 3) and IndexedAtom("tau", 5) != IndexedAtom("tau", 6)
    assert len({tree, by_hand, parse_expr("  " + text)}) == 1
    # the repr, atom positions included, as the frozen records printed it
    assert repr(tree) == (
        "Mul(args=(NameAtom(name='c', pos=3), ShiftAtom(atom=IndexedAtom(name='tau', n=5, "
        "pos=11), k=-2), PiAtom(arg=Comm(x=IndexedAtom(name='chi', n=2, pos=31), "
        "y=Conj(x=IndexedAtom(name='psi', n=1, pos=44), y=Inv(arg=Pow(arg=IndexedAtom("
        "name='chi', n=3, pos=61), n=4)))), pos=22)))")
    nodes = [tree, *tree.args, tree.args[1].atom, tree.args[2].arg, tree.args[2].arg.y,
             tree.args[2].arg.y.y, tree.args[2].arg.y.y.arg]
    assert {type(n).__name__ for n in nodes} == {
        "Mul", "NameAtom", "ShiftAtom", "IndexedAtom", "PiAtom", "Comm", "Conj", "Inv", "Pow"}
    assert not any(hasattr(n, "__dict__") for n in nodes)


# (text, message) pairs recorded from the character-by-character parser
# that preceded the regex tokenizer; both the wording and the position
# must stay as they were
_GOLDEN_SYNTAX_ERRORS = [
    ('', 'expected a name (at position 0; expected atom or operator)'),
    ('   ', 'expected a name (at position 3; expected atom or operator)'),
    ('(*)', 'expected a name (at position 2; expected atom or operator)'),
    ('(foo tau(1))', "unknown operator 'foo' (at position 4; expected one of *, inv, pow, conj, comm)"),
    ('(*tau(1))', "unknown operator '*tau' (at position 5; expected one of *, inv, pow, conj, comm)"),
    ('tau', "unexpected '' (at position 3; expected '(')"),
    ('tau(x)', 'expected an integer (at position 4; expected integer)'),
    ('tau(-)', 'expected an integer (at position 5; expected integer)'),
    ('tau( 0)', 'tau index must be >= 1 (at position 4)'),
    ('tau(-3)', 'tau index must be >= 1 (at position 4)'),
    ('tau(2', "unexpected '' (at position 5; expected ')')"),
    ('bogus', "unknown atom 'bogus' (at position 5; expected one of alpha, omega, c, z, tau, phi, "
              "chi, psi, pi, shift)"),
    ('c_1', "unknown atom 'c_1' (at position 3; expected one of alpha, omega, c, z, tau, phi, "
            "chi, psi, pi, shift)"),
    ('shift(tau(1) 3)', "unexpected '3' (at position 13; expected ',')"),
    ('shift((* tau(1)),2)', 'expected a name (at position 6; expected atom or operator)'),
    ('(pow tau(1))', 'expected an integer (at position 11; expected integer)'),
    ('(pow\ttau(1)\n- 3)', 'expected an integer (at position 13; expected integer)'),
    ('(pow tau(1) 2 3)', "unexpected '3' (at position 14; expected ')')"),
    ('(inv tau(1) tau(2))', "unexpected 't' (at position 12; expected ')')"),
    ('(comm tau(1) tau(2)', "unexpected '' (at position 19; expected ')')"),
    ('pi(chi(1)', "unexpected '' (at position 9; expected ')')"),
    ('  ( *\ttau(1)\n  phi(2) )  x', 'trailing input after the expression (at position 25)'),
    ('alpha(1)', 'trailing input after the expression (at position 5)'),
    ('(* tau(1) ())', 'expected a name (at position 11; expected atom or operator)'),
    # one malformed input per fused production: "(" operator, name "(" index ")",
    # "shift(" / "pi(", "," shift ")" and exponent ")"
    ('(', 'expected a name (at position 1; expected atom or operator)'),
    ('(* tau(1)', 'expected a name (at position 9; expected atom or operator)'),
    ('tau(1 2)', "unexpected '2' (at position 6; expected ')')"),
    ('pi', "unexpected '' (at position 2; expected '(')"),
    ('shift(tau(1),)', 'expected an integer (at position 13; expected integer)'),
    ('shift(tau(1),-)', 'expected an integer (at position 14; expected integer)'),
    ('shift (tau(1),2', "unexpected '' (at position 15; expected ')')"),
    ('(pow tau(1) x)', 'expected an integer (at position 12; expected integer)'),
    ('(pow shift(tau(1),2 3)', "unexpected '3' (at position 20; expected ')')"),
]


def test_parse_error_messages_and_positions_are_golden():
    for text, message in _GOLDEN_SYNTAX_ERRORS:
        with pytest.raises(ExprSyntaxError) as e:
            parse_expr(text)
        assert str(e.value) == message, text
        assert f"at position {e.value.position}" in message


def test_an_over_long_integer_literal_is_a_syntax_error_at_the_literal(capsys):
    digits = "7" * 5000
    for text, at in ((f"tau({digits})", 4), (f"shift(tau(1), -{digits})", 14),
                     (f"shift(tau({digits}),2)", 10), (f"shift( tau ( {digits}),2)", 13),
                     (f"(pow c {digits})", 7), (f"(pow c\t{digits} )", 7)):
        with pytest.raises(ExprSyntaxError) as e:
            parse_expr(text)
        assert str(e.value) == f"integer literal is too long (at position {at})", text
    assert main(["eval", f"tau({digits})"]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: integer literal is too long (at position 4)\n")
    # the other integers of the command line fail in the CLI's own words
    # too, without Python's conversion limit or an echo of the digits
    for argv, message in (
            (["verify", "verbal", "--word", f"x1^{digits}"], "integer literal is too long (at position 3)"),
            (["verify", "verbal", "--word", f"[x1, x2]^ -{digits}"],
             "integer literal is too long (at position 10)"),
            (["verify", "verbal", "--word", f"x{digits}"], "integer literal is too long (at position 1)"),
            (["embed-q", digits], "rational literal is too long"),
            (["embed-q", f"1/{digits}"], "rational literal is too long"),
            (["table", digits], "integer literal for n is too long"),
            (["table", "1", digits], "integer literal for j is too long"),
            (["eval", "z", "--at", f"z:{digits}"], "integer literal for the coordinate is too long"),
            (["table", "1", "x"], "j must be an integer, got 'x'"),
            (["verify", "section2", "--seed", digits], "integer literal for --seed is too long"),
            (["verify", "orders", "--budget", digits], "integer literal for --budget is too long"),
            (["verify", "orders", "--window", digits], "integer literal for --window is too long"),
            (["eval", "c", "--window", digits], "integer literal for --window is too long"),
            (["verify", "section2", "--seed", "x"], "--seed must be an integer, got 'x'"),
            (["verify", "verbal", "--budget", "2.5"], "--budget must be an integer, got '2.5'"),
            (["mul", "c", "c", "--window", "w"], "--window must be an integer, got 'w'")):
        assert main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: {message}\n"), argv


@pytest.mark.parametrize("argv", [["embed-q", "99999999999999999999"],
                                  ["embed-verbal", "99999999999999999999/7"]])
def test_a_numerator_past_what_a_word_can_hold_is_a_usage_error(capsys, argv):
    # the word repeats its runs |m| times; 20 digits are more runs than a
    # tuple can index, so the power is refused before any run is repeated
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: the word's power 99999999999999999999 has more "
                              "runs than a word can hold\n")


@pytest.mark.parametrize("argv", [
    lambda d: ["cmp", "(inv " * d + "c" + ")" * d, "c"],
    lambda d: ["eval", "(* " * d + "c" + ")" * d],
])
def test_deep_nesting_is_a_usage_error_not_a_crash(capsys, argv):
    # a shallow nesting keeps its answer; one deeper than the interpreter's
    # recursion allows is one error line and status 2
    assert main(argv(700)) == 0
    assert capsys.readouterr().err == ""
    assert main(argv(5000)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: expression nested too deeply") and err.count("\n") == 1


def test_a_tree_too_deep_to_build_is_a_usage_error():
    # a hand-built tree has no parser to stop it
    deep = NameAtom("c")
    for _ in range(5000):
        deep = Inv(deep)
    with pytest.raises(ValueError, match="^expression nested too deeply to build$"):
        build_element(deep)


def test_a_recursion_error_in_a_shallow_build_is_not_a_usage_error(monkeypatch):
    # only the nesting is reported as too deep; a fault below a shallow
    # node propagates as it is
    from wreathord import embed_rationals as er

    def runaway(n):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(er, "tau", runaway)
    with pytest.raises(RecursionError):
        build_element(parse_expr("(* c (inv tau(2)))"))


def test_an_empty_product_builds_the_identity():
    # a hand-built Mul(()) is product([]): each level's identity
    from wreathord.embed_verbal import get_context
    from wreathord.exprs import bind_levels

    for level, (group, _) in bind_levels(get_context()).items():
        assert build_element(Mul(()), level=level) == (level, group.product([]))
        assert group.is_identity(group.product([]))
    assert build_element(Mul(()))[0] == "qc"


# fold-shaped texts: products of shifted tau powers and shifted phi points,
# with any whitespace, digits from any script, and then one character
# deleted, inserted or replaced
_DIGITS = ["0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669",
           "\uff10\uff11\uff12\uff13\uff14\uff15\uff16\uff17\uff18\uff19"]
_GAPS = st.sampled_from(["", "", " ", "  ", "\t", "\n", " \r\n "])


@st.composite
def _fold_text(draw):
    def num(lo, hi):
        n = draw(st.integers(lo, hi))
        script = draw(st.sampled_from(_DIGITS))
        return ("-" if n < 0 else "") + "".join(script[int(c)] for c in str(abs(n)))

    def gap():
        return draw(_GAPS)

    def term():
        kind = draw(st.sampled_from(["pow", "shift", "atom"]))
        name = draw(st.sampled_from(["tau", "phi"]))
        atom = f"{name}{gap()}({gap()}{num(0, 500)}{gap()}){gap()}"
        if kind == "atom":
            return atom
        shifted = f"shift{gap()}({gap()}{atom},{gap()}{num(-5000, 5000)}{gap()}){gap()}"
        if kind == "shift":
            return shifted
        return f"({gap()}pow {gap()}{shifted}{num(-3, 3)}{gap()}){gap()}"

    text = gap() + f"({gap()}*{gap() or ' '}" + "".join(term() + " " for _ in
                                                       range(draw(st.integers(1, 4)))) + ")" + gap()
    edit = draw(st.sampled_from(["none", "delete", "insert", "replace"]))
    if edit != "none":
        i = draw(st.integers(0, len(text) - (edit != "insert")))
        ch = draw(st.sampled_from(list("(),-* \t0129x") + ["\u0663", "tau", "pi", "shift("]))
        if edit == "delete":
            text = text[:i] + text[i + 1:]
        elif edit == "insert":
            text = text[:i] + ch + text[i:]
        else:
            text = text[:i] + ch + text[i + 1:]
    return text


def _parsed(parse, text):
    try:
        tree = parse(text)
    except ExprSyntaxError as e:
        return "error", str(e), e.position
    return "tree", tree, repr(tree)


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(_fold_text())
def test_fused_parser_agrees_with_the_token_parser(text):
    # the same tree, atom positions included, or the same error at the same place
    assert _parsed(parse_expr, text) == _parsed(token_parse_expr, text)


_BARE = st.sampled_from(["c", "z", "alpha", "omega"]).map(NameAtom)
_INDEXED = st.builds(IndexedAtom, st.sampled_from(["tau", "phi", "chi", "psi"]),
                     st.integers(1, 10**12))


def _compound(inner):
    atom = st.one_of(_BARE, _INDEXED, st.builds(PiAtom, inner))
    return st.one_of(
        st.builds(ShiftAtom, atom, st.integers(-10**12, 10**12)),
        st.builds(PiAtom, inner),
        st.lists(inner, min_size=1, max_size=4).map(lambda xs: Mul(tuple(xs))),
        st.builds(Inv, inner),
        st.builds(Pow, inner, st.integers(-10**12, 10**12)),
        st.builds(Conj, inner, inner),
        st.builds(Comm, inner, inner),
    )


_EXPRS = st.recursive(st.one_of(_BARE, _INDEXED), _compound, max_leaves=12)
_TOKEN = re.compile(r"-?\d+|[\w*]+|\S")


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_EXPRS, st.data())
def test_parse_print_round_trip_with_varied_whitespace(tree, data):
    tokens = _TOKEN.findall(print_expr(tree))
    gaps = st.sampled_from(["", " ", "  ", "\t", "\n", " \r\n "])
    text = data.draw(gaps)
    for prev, tok in zip([""] + tokens, tokens):
        gap = data.draw(gaps)
        # two word-like tokens need whitespace between them
        if not gap and prev and re.match(r"[\w*]", prev[-1]) and re.match(r"[\w*]", tok[0]):
            gap = " "
        text += (gap if prev else "") + tok
    text += data.draw(gaps)
    assert parse_expr(text) == tree


def _random_atom(rng: Random):
    kind = rng.randrange(6)
    if kind == 0:
        return NameAtom(rng.choice(["c", "z", "alpha", "omega"]))
    if kind == 1:
        return IndexedAtom(rng.choice(["tau", "phi", "chi", "psi"]), rng.randint(1, 9))
    if kind == 2:
        return ShiftAtom(_random_atom(rng), rng.randint(-9, 9))
    if kind == 3:
        return PiAtom(_random_expr(rng, 1))
    return NameAtom(rng.choice(["c", "z"]))


def _random_expr(rng: Random, depth: int):
    if depth <= 0 or rng.random() < 0.35:
        return _random_atom(rng)
    kind = rng.randrange(5)
    if kind == 0:
        return Mul(tuple(_random_expr(rng, depth - 1) for _ in range(rng.randint(1, 3))))
    if kind == 1:
        return Inv(_random_expr(rng, depth - 1))
    if kind == 2:
        return Pow(_random_expr(rng, depth - 1), rng.randint(-6, 6))
    if kind == 3:
        return Conj(_random_expr(rng, depth - 1), _random_expr(rng, depth - 1))
    return Comm(_random_expr(rng, depth - 1), _random_expr(rng, depth - 1))


def test_parser_round_trip_random():
    rng = Random(51)
    for _ in range(500):
        tree = _random_expr(rng, 3)
        assert parse_expr(print_expr(tree)) == tree


def test_infer_level():
    assert infer_level(parse_expr("(comm tau(2) c)")) == "qc"
    assert infer_level(parse_expr("(comm (conj alpha (pow z -2)) alpha)")) == "w"
    assert infer_level(parse_expr("(* chi(1) psi(2))")) == "qs"
    assert infer_level(parse_expr("(comm pi(psi(2)) c)")) == "tc"
    assert infer_level(parse_expr("(conj omega (pow z -4))")) == "dz"
    with pytest.raises(ExprSyntaxError):
        infer_level(parse_expr("(* alpha c)"))
    with pytest.raises(ExprSyntaxError):
        infer_level(parse_expr("(* omega alpha)"))


def test_build_element_phi_word():
    level, el = build_element(parse_expr("(comm (conj alpha (pow z -3)) alpha)"))
    assert level == "w"
    assert el.top == 0
    from wreathord.embed_rationals import QC, phi
    assert QC.equal(el.eval(0), phi(3))


def test_build_element_embedded_rational_word():
    # (pow (comm (conj alpha (pow z -3)) alpha) 2) is the word carrying 2/3
    from fractions import Fraction
    from wreathord.embed_rationals import W, phi_element
    _, el = build_element(parse_expr("(pow (comm (conj alpha (pow z -3)) alpha) 2)"))
    assert W.equal(el, phi_element(Fraction(2, 3)))


def test_a_power_holds_the_atoms_it_folds_to():
    # pow's bound counts the atoms held, not len(atoms) * |n|: this power
    # telescopes to two atoms, and the doubling one holds 2n
    _, el = build_element(parse_expr("(pow (* z alpha (pow shift(alpha,-1) -1)) 1000000000000)"))
    assert len(el.atoms) == 2
    _, el = build_element(parse_expr("(pow (* alpha shift(alpha,1)) 4096)"))
    assert len(el.atoms) == 8192


def test_a_power_past_the_atom_bound_is_a_usage_error():
    # every squaring doubles two alpha atoms that do not commute; run with
    # its address space capped and a timeout, so an unbounded fold fails
    # fast here instead of filling the machine
    import os
    import resource
    import subprocess
    import sys
    from pathlib import Path
    from wreathord.wreath import POW_ATOMS
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    done = subprocess.run([sys.executable, "-m", "wreathord", "cmp",
                           "(pow (* alpha shift(alpha,1)) 99999999999999)", "alpha"],
                          cwd=root, env=env, capture_output=True, text=True, timeout=120,
                          preexec_fn=cap)
    assert (done.returncode, done.stdout, done.stderr) == (
        2, "", f"error: W: power holds over {POW_ATOMS} atoms\n")


def test_run_cmp_phi_words():
    status, out = run_command(Command(
        "cmp",
        ("(comm (conj alpha (pow z -3)) alpha)", "(comm (conj alpha (pow z -2)) alpha)"),
    ))
    assert status == 0
    assert out == "Less\n"


def test_run_eval_alpha_at():
    status, out = run_command(Command("eval", ("alpha",), {"at": "z:3"}))
    assert status == 0
    assert "{i<0: 0, i>=0: -1/3}" in out


def test_run_eval_window_lists_support():
    status, out = run_command(Command("eval", ("(comm tau(2) c)",), {"window": 4}))
    assert status == 0
    assert "c^0: 1/2" in out


def test_eval_window_zero_is_honoured(capsys):
    assert main(["eval", "alpha", "--window", "0"]) == 0
    out = capsys.readouterr().out
    assert out.endswith("values on [0, 0]:\n  z^0: c^1 * {all: 0}\n")


def test_run_mul():
    status, out = run_command(Command("mul", ("tau(2)", "tau(3)"), {"at": "c:0"}))
    assert status == 0
    assert "-5/6" in out


def test_run_table_single():
    status, out = run_command(Command("table", ("3", "0")))
    assert status == 0
    assert "j=0" in out and "1/3" in out


def test_run_embed_q():
    status, out = run_command(Command("embed-q", ("5/6",)))
    assert status == 0
    assert "(pow (comm (conj alpha (pow z -6)) alpha) 5)" in out
    assert "5/6" in out


def test_run_embed_verbal_families():
    status, out = run_command(Command("embed-verbal", ("1/3",), {"word": "[x1,x2]"}))
    assert status == 0
    assert "z^32" in out
    status, out = run_command(Command("embed-verbal", ("1/2",), {"word": "x1^2"}))
    assert status == 0
    assert "z^8" in out
    # the shift 2^15999 has more digits than Python converts an int to text
    status, out = run_command(Command("embed-verbal", ("1/8000",)))
    assert status == 0
    assert "z^(2^15999)" in out


def test_run_normal_form():
    status, out = run_command(Command("normal-form", ("(* alpha (pow z 2))",)))
    assert status == 0
    assert "z^2 * (alpha^[z^2])^1" in out


def test_usage_errors_exit_2():
    status, out = run_command(Command("eval", ("tau(0)",)))
    assert status == 2 and "error" in out
    status, _ = run_command(Command("cmp", ("tau(2)", "alpha")))
    assert status == 2
    status, _ = run_command(Command("verify", ("bogus",)))
    assert status == 2
    status, _ = run_command(Command("embed-verbal", ("1/2",), {"word": "[[x1,x2],x3]"}))
    assert status == 2


def test_gamma3_error_shows_the_word_as_typed(capsys):
    assert main(["verify", "verbal", "--word", "[[x1,x2],x3]"]) == 2
    out, err = capsys.readouterr()
    # the CLI writes its one error line to stderr, like argparse
    assert err.startswith("error: word '[[x1,x2],x3]' lies in gamma_3(F)")
    assert err.count("\n") == 1 and out == ""


def test_verify_determinism_and_exit_codes():
    cmd = Command("verify", ("section2",), {"seed": 7, "budget": 12})
    s1, out1 = run_command(cmd)
    s2, out2 = run_command(cmd)
    assert (s1, out1) == (s2, out2)
    assert s1 == 0
    assert out1.endswith("ok: 16 checks\n")

    jcmd = Command("verify", ("orders",), {"seed": 7, "budget": 10, "json": True})
    s3, out3 = run_command(jcmd)
    s4, out4 = run_command(jcmd)
    assert out3 == out4 and s3 == 0
    doc = json.loads(out3)
    assert doc["schema_version"] == 1
    assert doc["summary"]["failed"] == 0


def test_verify_budget_zero_is_honoured(capsys):
    assert main(["verify", "section2", "--budget", "0", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["budget"] == 0


def test_exit_status_mapping():
    passing = Report("s", 0, 1, (CheckRecord("a", "pass"),))
    failing = Report("s", 0, 1, (CheckRecord("a", "pass"), CheckRecord("b", "fail")))
    undecided = Report("s", 0, 1, (CheckRecord("a", "unknown"),))
    assert exit_status(passing) == 0
    assert exit_status(failing) == 1
    assert exit_status(undecided) == 3


def test_run_checks_records_exceptions():
    def broken(rng, budget):
        raise ZeroDivisionError("boom")

    def fine(rng, budget):
        return PASS, {"n": budget}

    report = run_checks("s", 0, 3, [("b", broken), ("c", fine)])
    assert [(c.name, c.status, c.details) for c in report.checks] == [
        ("b", "fail", {"error": "ZeroDivisionError"}),
        ("c", "pass", {"n": 3}),
    ]
    assert exit_status(report) == 1


def test_lone_c_or_z_takes_the_level_of_the_other_expression(capsys):
    # c exists in Q Wr C and T Wr C, z in (Q Wr C) Wr Z and D Wr Z
    assert run_command(Command("cmp", ("(* pi(chi(1)) c)", "c"))) == (0, "Greater\n")
    assert run_command(Command("cmp", ("c", "(* pi(chi(1)) c)"))) == (0, "Less\n")
    assert run_command(Command("cmp", ("(* omega z)", "z"))) == (0, "Greater\n")
    status, out = run_command(Command("eval", ("(* omega z)", "(pow z -1)")))
    assert status == 0 and out.startswith("level: dz\n")
    assert main(["mul", "(pow c 2)", "pi(psi(1))"]) == 0
    assert capsys.readouterr().out.startswith("level: tc\n")
    # the grammar has no atom-free expression, but the API can build one
    assert joint_levels([Mul(()), parse_expr("omega")]) == ["dz", "dz"]
    # alone, or beside another open expression, each keeps its own level
    assert infer_level(parse_expr("c")) == "qc"
    assert joint_levels([parse_expr("c"), parse_expr("z")]) == ["qc", "w"]
    assert run_command(Command("cmp", ("c", "z")))[0] == 2
    assert run_command(Command("cmp", ("c", "(* omega z)")))[0] == 2


def test_cmp_decides_far_tail_pairs_exactly(capsys):
    # a point far beyond the alpha shifts (phi_5 moved to z^25001) commutes
    # with alpha; pairs whose alpha or omega nets differ at a far shift
    # are decided there, with no scan from z^0 up to it
    far = "(conj (comm (conj alpha (pow z -5)) alpha) (pow z 25001))"
    assert main(["cmp", f"(* alpha {far})", f"(* {far} alpha)"]) == 0
    assert capsys.readouterr().out == "Equal\n"
    for k in (2 * 10**6, 10**12):
        for gen in ("alpha", "omega"):
            argv = ["cmp", f"(* {gen} shift({gen},{k}))", f"(* {gen} (pow shift({gen},{k}) 2))"]
            assert main(argv) == 0
            assert capsys.readouterr().out == "Less\n"


def test_main_entrypoint(capsys):
    status = main(["cmp", "tau(2)", "tau(2)"])
    assert status == 0
    assert capsys.readouterr().out == "Equal\n"
    assert main(["table", "2"]) == 0
    capsys.readouterr()


def test_parse_argv():
    cmd = parse_argv(["verify", "verbal", "--word", "x1^2", "--seed", "3", "--json"])
    assert cmd == Command("verify", ("verbal",),
                          {"word": "x1^2", "seed": 3, "budget": 200, "json": True})


@pytest.mark.parametrize("argv, after_dashes", [
    (["embed-q", "-3/7"], ["embed-q", "--", "-3/7"]),
    (["embed-q", "-3"], ["embed-q", "--", "-3"]),
    (["embed-verbal", "-1/2", "--word", "x1^2"], ["embed-verbal", "--word", "x1^2", "--", "-1/2"]),
    (["embed-verbal", "--word", "[x1,x2]", "-5/3"], ["embed-verbal", "--word", "[x1,x2]", "--", "-5/3"]),
])
def test_a_negative_rational_is_a_rational_not_an_option(capsys, argv, after_dashes):
    assert main(after_dashes) == 0
    expected = capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr() == expected
    assert expected.out.startswith(f"rational: {after_dashes[-1]}\n")


def test_other_options_and_negative_positionals_are_unchanged():
    assert parse_argv(["table", "3", "-2"]).args == ("3", "-2")
    assert parse_argv(["embed-verbal", "-1/2", "--word", "x1^2"]) == Command(
        "embed-verbal", ("-1/2",), {"word": "x1^2"})
    assert parse_argv(["embed-q", "--", "-3/7"]) == Command("embed-q", ("-3/7",), {})
    assert parse_argv(["eval", "(pow c -2)", "--at", "c:-1"]) == Command(
        "eval", ("(pow c -2)",), {"at": "c:-1"})


def test_python_dash_m_runs_the_cli():
    import os
    import subprocess
    import sys
    from pathlib import Path
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, "-m", "wreathord", "cmp", "c", "c"],
                          cwd=root, env=env, capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (0, "Equal\n", "")


def test_cmp_takes_no_window(capsys):
    assert main(["cmp", "c", "c", "--window", "3"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv, fragment", [
    (["cmp", "c", "c", "--window", "3"], "--window"),
    (["verify", "bogus"], "bogus"),
    (["eval"], "expr"),
    (["table", "3", "--word", "x1"], "--word"),
])
def test_argparse_usage_errors_are_one_line(capsys, argv, fragment):
    # argparse's own message, without its usage block
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
    assert fragment in err


def test_help_still_prints_and_exits_zero(capsys):
    assert main(["--help"]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: wreathord") and err == ""


def test_an_omega_window_reads_omega_at_its_powers_of_two(monkeypatch, capsys):
    # the window reaches atom_values as a range, which reads omega only
    # where its support lies; a list of coordinates would read all 8,193
    from wreathord.embed_verbal import OmegaFn
    calls = []
    value = OmegaFn.value
    monkeypatch.setattr(OmegaFn, "value", lambda self, rel: calls.append(rel) or value(self, rel))
    assert main(["eval", "omega", "--window", "4096"]) == 0
    assert "  z^2048: " in capsys.readouterr().out
    assert len(calls) <= 64, len(calls)


@pytest.mark.parametrize("window", [0, 1, 4])
def test_verify_orders_small_window_is_honoured(capsys, window):
    argv = ["verify", "orders", "--window", str(window), "--budget", "100", "--json"]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["params"]["window"] == window
    assert doc["summary"] == {"failed": 0, "passed": 7, "total": 7, "unknown": 0}
    for family in ("qc", "w"):
        [check] = [c for c in doc["checks"] if c["name"] == f"{family}-brute-agreement"]
        assert check["details"] == {"pairs": 100, "window": window}


@pytest.mark.parametrize("argv", [
    ["eval", "alpha", "--window", "-1"],
    ["mul", "tau(2)", "tau(3)", "--window", "-3"],
    ["verify", "orders", "--window", "-2", "--budget", "5"],
    ["verify", "section2", "--budget", "-1"],
    ["verify", "verbal", "--budget", "-1", "--json"],
])
def test_negative_window_or_budget_is_a_usage_error(capsys, argv):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: --") and err.count("\n") == 1 and out == ""


@pytest.mark.parametrize("argv", [
    ["eval", "alpha", "--at", "z:3", "--window", "5"],
    ["mul", "alpha", "z", "--window", "0", "--at", "z:1"],
])
def test_window_does_not_apply_with_at(capsys, argv):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: --window does not apply with --at\n")


@pytest.mark.parametrize("suite", ["section2", "verbal"])
def test_verify_window_only_applies_to_orders(capsys, suite):
    assert main(["verify", suite, "--window", "3", "--budget", "1"]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: verify {suite} takes no --window\n")


@pytest.mark.parametrize("suite", ["section2", "orders"])
def test_verify_word_only_applies_to_verbal(capsys, suite):
    assert main(["verify", suite, "--word", "x1^2", "--budget", "1"]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: verify {suite} takes no --word\n")


@pytest.mark.parametrize("argv", [
    ["verify", "verbal", "--word", "", "--budget", "1"],
    ["embed-verbal", "1/2", "--word", ""],
    ["cmp", "c", "c", "--word", ""],
])
def test_an_empty_word_is_a_usage_error(capsys, argv):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and err.count("\n") == 1 and out == ""


def test_embed_outputs_are_golden():
    from pathlib import Path
    golden = json.loads((Path(__file__).parent / "embed_golden.json").read_text())
    assert len(golden) == 15
    for key, expected in golden.items():
        name, q, *rest = key.split(" ")
        options = {"word": rest[1]} if rest else {}
        assert run_command(Command(name, (q,), options)) == (0, expected), key


def test_verify_reports_are_golden():
    # text and JSON reports of every suite at seed 7 and budget 20; each key
    # is the command line that prints the value
    from pathlib import Path
    golden = json.loads((Path(__file__).parent / "report_golden.json").read_text())
    assert len(golden) == 8
    for argv, expected in golden.items():
        assert run_command(parse_argv(argv.split(" "))) == (0, expected), argv


def test_element_commands_are_golden():
    # eval/mul/cmp/normal-form/table at all five levels and both built-in
    # word families, same-shift products included; each argv is a list
    # because expressions contain spaces
    from pathlib import Path
    golden = json.loads((Path(__file__).parent / "cli_golden.json").read_text())
    assert len(golden) == 46
    for case in golden:
        assert run_command(parse_argv(case["argv"])) == (case["status"], case["output"]), case["argv"]


# (argv, status, output) triples recorded before the level table named
# each level's atoms, group and coordinates once: the coordinate errors,
# the empty integer window, one mixture error per marker atom and the
# normal-form and pi argument errors must read as they did
_GOLDEN_LEVEL_PATHS = [
    (["eval", "tau(2)", "--at", "z:1"], 2, "error: level uses coordinates c:<int>, got 'z:1'\n"),
    (["eval", "chi(1)", "--at", "c:1"], 2, "error: level uses coordinates a:<int>, got 'c:1'\n"),
    (["eval", "tau(2)", "--at", "c:x"], 2,
     "error: coordinate must look like z:3 or c:-2, got 'c:x'\n"),
    (["eval", "shift(chi(1),2)", "--at", "a:-1"], 0,
     "level: qs\nelement: {ray(1): {i<2: 0, i>=2: 1}}\nvalue at [x1,x2]^-1: 0\n"),
    (["eval", "shift(pi(chi(1)),-2)", "--at", "c:-2"], 0,
     "level: tc\nelement: {i<-2: {0}, i>=-2: {ray(1): {i<0: 0, i>=0: 1}}}\n"
     "value at c^-2: {ray(1): {i<0: 0, i>=0: 1}}\n"),
    (["eval", "(comm tau(2) tau(3))"], 0,
     "level: qc\nelement: {all: 0}\nvalues on [-8, 8]:\n"
     "  identity at every coordinate in the window\n"),
    (["eval", "(* c z)"], 2, "error: atoms ['c'] cannot appear beside alpha/z (at position 3)\n"),
    (["eval", "(* omega alpha)"], 2,
     "error: atoms ['alpha'] cannot appear beside omega (at position 9)\n"),
    (["eval", "(* pi(chi(1)) tau(2))"], 2,
     "error: atoms ['tau'] cannot appear beside pi (at position 14)\n"),
    (["eval", "(* alpha tau(2))"], 2,
     "error: atoms ['tau'] cannot appear beside alpha/z (at position 9)\n"),
    (["eval", "(* chi(1) tau(2))"], 2,
     "error: atoms ['tau'] cannot appear beside chi/psi (at position 10)\n"),
    (["eval", "(* pi(chi(1)) chi(1))"], 2,
     "error: atoms ['chi'] cannot appear beside pi (at position 14)\n"),
    (["eval", "pi(c)"], 2,
     "error: the argument of pi must be a Q Wr S expression (at position 3)\n"),
    (["normal-form", "tau(2)"], 2, "error: normal-form applies to alpha/z or omega/z words\n"),
]


@pytest.mark.parametrize("argv, status, output", _GOLDEN_LEVEL_PATHS)
def test_level_paths_are_golden(argv, status, output):
    assert run_command(parse_argv(argv)) == (status, output)


@pytest.mark.parametrize("text, level, message", [
    ("tau(2)", "w", "atom 'tau' is not available at level w (at position 0)"),
    ("pi(chi(1))", "qs", "pi(...) only builds T Wr C elements (at position 0)"),
])
def test_an_atom_built_at_a_foreign_level_is_rejected(text, level, message):
    from wreathord.embed_verbal import get_context
    with pytest.raises(ExprSyntaxError) as e:
        build_element(parse_expr(text), get_context("[x1,x2]"), level)
    assert str(e.value) == message


@pytest.mark.parametrize("text, message", [
    ("(*  shift( c ,1) (inv  z))", "atoms ['c'] cannot appear beside alpha/z (at position 11)"),
    ("pi((* chi(1) c tau(1)))", "atoms ['c', 'tau'] cannot appear beside chi/psi (at position 13)"),
    ("(* c pi((* tau(1) c)))", "the argument of pi must be a Q Wr S expression (at position 11)"),
    ("(* c (inv pi(pi(chi(1)))))", "the argument of pi must be a Q Wr S expression (at position 13)"),
])
def test_level_errors_point_at_the_offending_atom(text, message):
    with pytest.raises(ExprSyntaxError) as e:
        build_element(parse_expr(text))
    assert str(e.value) == message


@pytest.mark.parametrize("word", ["[x1,x2]", "x1^2"])
def test_level_table_names_the_atoms_its_builders_bind(word):
    from wreathord.embed_verbal import get_context
    from wreathord.exprs import LEVELS, bind_levels
    ctx = get_context(word)
    bound = bind_levels(ctx)
    assert list(bound) == list(LEVELS) == ["qc", "w", "qs", "tc", "dz"]
    texts = {"tau": "tau(1)", "phi": "phi(1)", "chi": "chi(1)", "psi": "psi(1)",
             "pi": "pi(chi(1))"}
    for level, (atoms, marker) in LEVELS.items():
        group, builders = bound[level]
        assert set(builders) == atoms and set(marker) <= atoms, level
        for name in atoms:
            expr = parse_expr(texts.get(name, name))
            assert build_element(expr, ctx, level)[1].group is group, (level, name)


def test_levels_of_lists_every_level_holding_the_atoms():
    from wreathord.exprs import levels_of
    assert levels_of(parse_expr("(pow c 2)")) == ("qc", "tc")
    assert levels_of(parse_expr("shift(z, 3)")) == ("w", "dz")
    assert levels_of(Mul(())) == ("qc", "w", "qs", "tc", "dz")
    assert levels_of(parse_expr("(* pi(chi(1)) c)")) == ("tc",)
    assert levels_of(parse_expr("(* c z)")) == ()


def test_perfbench_tracer_installs_against_src():
    # every library name the benchmark's tracer wraps must still exist
    import os
    import subprocess
    import sys
    from pathlib import Path
    root = Path(__file__).resolve().parent.parent
    code = ("from fractions import Fraction\n"
            "from tracer import Tracer\n"
            "from wreathord import embed_rationals as er\n"
            "t = Tracer()\n"
            "t.install()\n"
            "er.phi_element(Fraction(2, 3))\n"
            "print(t.calls['embed_rationals.phi_element'])\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "perfbench")]))
    done = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (0, "1\n", "")
