"""The README's library map names only what the library defines, its form
protocol exactly what every form class offers, its fiber protocol only
what every fiber offers, its S contract exactly the operations
``select_S`` checks, and its examples show what the command line
prints."""

import importlib
import inspect
import re
import shlex
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"

# a plain or dotted Python name, optionally followed by an argument list
_NAME = re.compile(r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\([^()]*\))?")


def _library_map() -> list[tuple[list[str], list[str]]]:
    """(module names, backticked tokens) of each row of the table."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library map", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        if not line.startswith("| `"):
            continue
        cells = line.strip().strip("|").split("|")
        assert len(cells) == 2, line
        modules, contents = (re.findall(r"`([^`]*)`", c) for c in cells)
        rows.append((modules, contents))
    return rows


def _has_path(obj, parts: list[str]) -> bool:
    for part in parts:
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def _resolves(name: str, modules: list) -> bool:
    """Whether ``name`` is an attribute path of one of the modules, or of
    a class one of them defines."""
    parts = name.split(".")
    for m in modules:
        owners = [m] + [c for _, c in inspect.getmembers(m, inspect.isclass)
                        if c.__module__ == m.__name__]
        if any(_has_path(owner, parts) for owner in owners):
            return True
    return False


def test_library_map_names_resolve_in_their_modules():
    rows = _library_map()
    assert len(rows) >= 6
    for module_names, tokens in rows:
        modules = [importlib.import_module(n) for n in module_names]
        names = [m.group(1) for m in map(_NAME.fullmatch, tokens) if m]
        assert names, module_names
        missing = [n for n in names if not _resolves(n, modules)]
        assert not missing, (module_names, missing)


def test_a_name_the_library_lacks_does_not_resolve():
    from wreathord import embed_rationals, wreath
    assert _resolves("phi_element", [embed_rationals])
    assert _resolves("WreathGroup.point", [wreath])
    assert _resolves("certified", [wreath])
    assert not _resolves("g_normal_form", [embed_rationals])
    assert not _resolves("WreathGroup.no_such_method", [wreath])
    assert not _resolves("phi_element", [wreath])


def test_every_form_class_offers_the_readme_protocol():
    from wreathord.wreath import FiberSteps, RayStepFunction, StepFunction
    text = README.read_text(encoding="utf-8")
    protocol = re.search(r"share one protocol \(([^)]*)\)", text)
    assert protocol, "README names no form protocol"
    names = re.findall(r"`(\w+)`", protocol.group(1))
    assert names == ["of_atoms", "is_trivial", "least_difference", "fmt"], names
    for cls in (StepFunction, RayStepFunction, FiberSteps):
        missing = [n for n in names if not hasattr(cls, n)]
        assert not missing, (cls.__name__, missing)


def test_every_fiber_offers_the_readme_fiber_protocol():
    from wreathord.embed_rationals import QC
    from wreathord.embed_verbal import get_context
    from wreathord.groundwork import RATIONALS
    ctx = get_context("[x1,x2]")
    text = " ".join(README.read_text(encoding="utf-8").split())
    protocol = re.search(r"A fiber offers \w+ operations \(([^)]*)\)", text)
    assert protocol, "README states no fiber protocol"
    names = re.findall(r"`(\w+)`", protocol.group(1))
    assert names, protocol.group(0)
    for fiber in (RATIONALS, QC, ctx.QS, ctx.TC):
        missing = [n for n in names if not hasattr(fiber, n)]
        assert not missing, (fiber, missing)


def test_the_readme_s_contract_is_s_operations():
    from wreathord.nilpotent import S_OPERATIONS
    text = " ".join(README.read_text(encoding="utf-8").split())
    contract = re.search(r"S must offer every operation in "
                         r"`wreathord\.nilpotent\.S_OPERATIONS`: (.*?)\. ", text)
    assert contract, "README states no S contract"
    names = [re.sub(r"\(.*\)$", "", n) for n in re.findall(r"`([^`]*)`", contract.group(1))]
    assert tuple(names) == S_OPERATIONS


def _examples() -> list[tuple[list[str], list[str]]]:
    """(argv, shown output lines) of each ``$ wreathord …`` line in the
    README's examples block."""
    text = README.read_text(encoding="utf-8")
    block = text.split("Examples:\n\n```\n", 1)[1].split("```", 1)[0]
    runs: list[tuple[list[str], list[str]]] = []
    for line in block.splitlines():
        if line.startswith("$ wreathord "):
            runs.append((shlex.split(line)[2:], []))
        else:
            runs[-1][1].append(line)
    return runs


def _shows(shown: list[str], out: str) -> bool:
    """Whether the output is the shown lines, a ``...`` line standing for
    any run of lines."""
    pattern = "".join(r"(?:.*\n)*?" if line == "..." else re.escape(line) + r"\n"
                      for line in shown)
    return re.fullmatch(pattern, out) is not None


def test_readme_examples_show_what_the_cli_prints(capsys):
    from wreathord.cli import main
    assert _shows(["a", "...", "b"], "a\nx\ny\nb\n") and not _shows(["a", "b"], "a\nx\nb\n")
    runs = _examples()
    assert len(runs) >= 3
    for argv, shown in runs:
        assert main(argv) == 0, argv
        out = capsys.readouterr().out
        assert _shows(shown, out), (argv, shown, out)
