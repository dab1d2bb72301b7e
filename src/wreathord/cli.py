"""wreathord command line: evaluate, multiply, compare, embed, verify.

Exit statuses: 0 all good, 1 a verification check failed, 2 usage or
parse error; the status-2 ``error:`` line goes to stderr, with nothing
on stdout.  Every comparison is decided exactly, so ``cmp`` always
prints Less, Equal or Greater.
All numeric input and output is exact.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import dataclass, field

from .groundwork import format_rational, parse_rational
from .nilpotent import UnsupportedWordSet, WordSyntaxError
from .reporting import emit_report, exit_status
from .wreath import WreathElement, net_exponents
from . import embed_rationals as er
from . import embed_verbal as ev
from .exprs import ExprSyntaxError, build_element, joint_levels, parse_expr

USAGE_ERROR = 2


@dataclass(frozen=True)
class Command:
    name: str
    args: tuple[str, ...] = ()
    options: dict = field(default_factory=dict)


def _ctx(options) -> ev.VerbalContext:
    return ev.get_context(options.get("word", ev.DEFAULT_WORD))


_DECIMAL = re.compile(r"\s*[+-]?\d+\s*")


def _int_arg(name: str, text: str, malformed: str | None = None) -> int:
    """int(text), or a usage error: ``malformed``, or for more digits
    than Python converts, one that does not echo them."""
    try:
        return int(text)
    except ValueError:
        if _DECIMAL.fullmatch(text):
            raise ValueError(f"integer literal for {name} is too long") from None
        raise ValueError(malformed or f"{name} must be an integer, got {text!r}") from None


def _render_eval(element: WreathElement, level: str, at: str | None, window: int) -> str:
    group = element.group
    coords, fiber = group.coords, group.fiber
    lines = [f"level: {level}", f"element: {group.fmt(element)}"]
    # one reader for --at and the window: a form level's form, printed above,
    # or a tail level's atoms, which atom_values reads over a range sparsely
    form = None if group.tail_kind else group.base_canonical(element)

    def read(indices):
        if form is None:
            return group.atom_values(element, indices)
        return (form.value(coords.witness_power(i)) for i in indices)

    if at is not None:
        letter, _, num = at.partition(":")
        k = _int_arg("the coordinate", num, f"coordinate must look like z:3 or c:-2, got {at!r}")
        if letter != coords.letter:
            raise ValueError(f"level uses coordinates {coords.letter}:<int>, got {at!r}")
        (v,) = read((k,))
        lines.append(f"value at {coords.fmt(coords.witness_power(k))}: {fiber.fmt(v)}")
        return "\n".join(lines) + "\n"
    if level == "qs":
        head = "values along the witness ray:"
        empty = f"identity at every a^i, |i| <= {window}"
    else:
        head = f"values on [{-window}, {window}]:"
        empty = "identity at every coordinate in the window"
    lines.append(head)
    window_range = range(-window, window + 1)
    shown = [f"  {coords.letter}^{i}: {fiber.fmt(v)}"
             for i, v in zip(window_range, read(window_range)) if not fiber.is_identity(v)]
    lines += shown or [f"  {empty}"]
    return "\n".join(lines) + "\n"


def run_command(cmd: Command) -> tuple[int, str]:
    """Execute one parsed command; returns (exit status, output text)."""
    opts = cmd.options
    for name in ("window", "budget"):
        if opts.get(name, 0) < 0:
            return USAGE_ERROR, f"error: --{name} must be >= 0, got {opts[name]}\n"
    window = opts.get("window", 8)
    try:
        if cmd.name in ("eval", "mul"):
            if "window" in opts and "at" in opts:
                return USAGE_ERROR, "error: --window does not apply with --at\n"
            ctx = _ctx(opts)
            trees = [parse_expr(a) for a in cmd.args]
            levels, elements = zip(*(build_element(t, ctx, lv)
                                     for t, lv in zip(trees, joint_levels(trees))))
            if len(set(levels)) > 1:
                return USAGE_ERROR, "error: expressions live at different levels\n"
            el = elements[0].group.product(elements)
            return 0, _render_eval(el, levels[0], opts.get("at"), window)

        if cmd.name == "cmp":
            ctx = _ctx(opts)
            trees = [parse_expr(a) for a in cmd.args]
            (l1, x), (l2, y) = (build_element(t, ctx, lv)
                                for t, lv in zip(trees, joint_levels(trees)))
            if l1 != l2:
                return USAGE_ERROR, f"error: cannot compare {l1} with {l2}\n"
            return 0, f"{x.group.compare(x, y)}\n"

        if cmd.name == "embed-q":
            q = parse_rational(cmd.args[0])
            word = er.big_phi(q)
            el = er.phi_element(q)
            n = q.denominator
            expr = (f"(pow (comm (conj alpha (pow z {-n})) alpha) {q.numerator})"
                    if q != 0 else "(* )")
            out = [
                f"rational: {format_rational(q)}",
                f"word: {er.fmt_g_word(word, 'alpha')}",
                f"expression: {expr}" if q != 0 else "expression: identity",
                "certificate: value "
                + (er.QC.fmt(el.eval(0)) if q != 0 else "identity")
                + " at z^0; identity at every other coordinate",
            ]
            return 0, "\n".join(out) + "\n"

        if cmd.name == "embed-verbal":
            ctx = _ctx(opts)
            q = parse_rational(cmd.args[0])
            word = ctx.embed_word(q)
            el = ctx.embed(q)
            out = [
                f"rational: {format_rational(q)}",
                f"word-family: {ctx.family_key}",
                f"word: {er.fmt_g_word(word, 'omega')}",
                "certificate: value "
                + (ctx.TC.fmt(el.eval(0)) if q != 0 else "identity")
                + " at z^0; identity at every other coordinate",
            ]
            return 0, "\n".join(out) + "\n"

        if cmd.name == "normal-form":
            ctx = _ctx(opts)
            _, el = build_element(parse_expr(cmd.args[0]), ctx)
            if el.group.tail_kind is None:
                return USAGE_ERROR, "error: normal-form applies to alpha/z or omega/z words\n"
            parts = [f"z^{el.top}"]
            parts += [f"({a.fn.fmt()}^[z^{a.shift}])^{a.exp}" for a in el.atoms]
            grouped = ", ".join(f"{s}: {e}" for s, e in sorted(net_exponents(el.atoms).items()))
            return 0, (f"normal form: {' * '.join(parts)}\n"
                       f"grouped exponents: {{{grouped}}}\n")

        if cmd.name == "table":
            n = _int_arg("n", cmd.args[0])
            if n < 1:
                return USAGE_ERROR, "error: n must be >= 1\n"
            if len(cmd.args) > 1:
                js = [_int_arg("j", cmd.args[1])]
            else:
                js = list(range(-2 * n - 4, 2 * n + 5))
            lines = [f"[alpha^(z^-{n}), alpha] at z^j:"]
            for j in js:
                lines.append(f"  j={j}: {er.QC.fmt(er.commutator_table(n, j))}")
            return 0, "\n".join(lines) + "\n"

        if cmd.name == "verify":
            suite = cmd.args[0]
            if "window" in opts and suite != "orders":
                return USAGE_ERROR, f"error: verify {suite} takes no --window\n"
            if "word" in opts and suite != "verbal":
                return USAGE_ERROR, f"error: verify {suite} takes no --word\n"
            seed = opts.get("seed", 0)
            budget = opts.get("budget", 200)
            if suite == "section2":
                report = er.verify_section2(seed=seed, budget=budget)
            elif suite == "verbal":
                report = ev.verify_theorem2(opts.get("word", ev.DEFAULT_WORD),
                                            seed=seed, budget=budget)
            elif suite == "orders":
                report = er.verify_order_laws(seed=seed, budget=budget,
                                              window=opts.get("window", 64))
            else:
                return USAGE_ERROR, f"error: unknown suite {suite!r}\n"
            fmt = "json" if opts.get("json") else "text"
            return exit_status(report), emit_report(report, fmt)

        return USAGE_ERROR, f"error: unknown command {cmd.name!r}\n"

    except (ExprSyntaxError, WordSyntaxError, UnsupportedWordSet, ValueError) as e:
        return USAGE_ERROR, f"error: {e}\n"


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str):  # main prints one error: line, no usage block
        raise ValueError(message)


def _build_argparser() -> argparse.ArgumentParser:
    ap = _ArgumentParser(
        prog="wreathord",
        description="Exact order-preserving embeddings of the rationals "
                    "into two-generator wreath-product groups.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, *, word=True, window=True):
        if word:
            p.add_argument("--word", help="word family, e.g. '[x1,x2]' or 'x1^2'")
        if window:
            p.add_argument("--window", help="scan window half-width")

    p = sub.add_parser("eval", help="evaluate an element expression")
    p.add_argument("expr")
    p.add_argument("--at", help="coordinate, e.g. z:3")
    common(p)

    p = sub.add_parser("mul", help="multiply element expressions")
    p.add_argument("exprs", nargs="+")
    p.add_argument("--at", help="coordinate, e.g. z:3")
    common(p)

    p = sub.add_parser("cmp", help="compare two elements in the full order")
    p.add_argument("left")
    p.add_argument("right")
    common(p, window=False)

    p = sub.add_parser("embed-q", help="embed a rational via the alpha/z word")
    p.add_argument("rational")

    p = sub.add_parser("embed-verbal", help="embed a rational via the omega/z word")
    p.add_argument("rational")
    common(p, window=False)

    p = sub.add_parser("normal-form", help="z^k times shifted generator powers")
    p.add_argument("expr")
    common(p, window=False)

    p = sub.add_parser("table", help="commutator values [alpha^(z^-n), alpha](z^j)")
    p.add_argument("n")
    p.add_argument("j", nargs="?")

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=["section2", "verbal", "orders"])
    p.add_argument("--seed", default=0)
    p.add_argument("--budget", default=200)
    p.add_argument("--json", action="store_true")
    common(p)

    return ap


# argparse takes "-3/7" for an option; no option of the embed commands
# starts with "-" and a digit, so such a token is a rational
_NEGATIVE_RATIONAL = re.compile(r"-\d")


def _rationals_last(argv: list[str]) -> list[str]:
    """argv of embed-q or embed-verbal with a negative rational moved
    behind "--", where argparse reads it as the positional."""
    if argv[:1] not in (["embed-q"], ["embed-verbal"]) or "--" in argv:
        return argv
    negative = [a for a in argv[1:] if _NEGATIVE_RATIONAL.match(a)]
    if not negative:
        return argv
    return [a for a in argv if a not in negative] + ["--"] + negative


def parse_argv(argv: list[str]) -> Command:
    ns = _build_argparser().parse_args(_rationals_last(argv))
    options = {
        k: v
        for k, v in vars(ns).items()
        if k not in ("command", "expr", "exprs", "left", "right", "rational", "n", "j", "suite")
        and v is not None and v is not False
    }
    # read here, not by argparse, so a bad value is one error line
    for name in ("seed", "budget", "window"):
        if isinstance(options.get(name), str):
            options[name] = _int_arg(f"--{name}", options[name])
    if ns.command in ("eval", "normal-form"):
        args = (ns.expr,)
    elif ns.command == "mul":
        args = tuple(ns.exprs)
    elif ns.command == "cmp":
        args = (ns.left, ns.right)
    elif ns.command in ("embed-q", "embed-verbal"):
        args = (ns.rational,)
    elif ns.command == "table":
        args = (ns.n,) if ns.j is None else (ns.n, ns.j)
    elif ns.command == "verify":
        args = (ns.suite,)
    else:
        args = ()
    return Command(ns.command, args, options)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        cmd = parse_argv(argv)
    except SystemExit as e:  # --help printed its text
        return e.code
    except ValueError as e:
        sys.stderr.write(f"error: {e}\n")
        return USAGE_ERROR
    status, output = run_command(cmd)
    (sys.stderr if status == USAGE_ERROR else sys.stdout).write(output)
    return status


if __name__ == "__main__":
    sys.exit(main())
