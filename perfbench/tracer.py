"""Outside-in tracing: wrap the library's layer boundaries at run time.

No file of the library is edited.  Each wrapped call is a span with a
name, a start, an end and a parent (the innermost enclosing span).  For
every name the tracer keeps the call count and the self time, a span's
duration minus the time its child spans cover.

The hot inner operations run millions of times a pass, so only the
boundary spans are kept one by one: the benchmark's query and suite
spans, the L3 embeddings, the tail criteria, the expression layer, and
the canonical folds a comparison asks for.  Each kept span records its
nearest kept ancestor and a size tag (atom count, window, index or
denominator), so per-size curves can be read from the written trace.
Spans past ``MAX_SPANS`` are only counted.
"""

from __future__ import annotations

import time
from fractions import Fraction

MAX_SPANS = 100_000
SPAN_FIELDS = ("id", "parent", "name", "start_s", "dur_s", "self_s", "tag")

L0_NIL2_OPS = ("identity", "mul", "pow", "compare", "ray_decompose")
L2_OPS = ("mul", "eval", "is_identity", "min_difference", "compare")
LEVELS = ("QwrC", "W", "QwrS", "TwrC", "DwrZ")
KEPT = frozenset((
    "query", "suite", "exprs.parse_expr", "exprs.build_element",
    "embed_rationals.phi_element", "embed_rationals.alpha_tail", "embed_verbal.omega_tail",
    "embed_verbal.embed", "embed_verbal.omega_commutator", "embed_verbal.enumerate_D",
))
_FOLD = "wreath.base_canonical."
_RATIONAL_FIBER_OPS = ("identity", "mul", "inv", "pow", "is_identity", "equal",
                       "equal_verdict", "compare", "is_positive", "key", "fmt")


def _timed(names: list[str]) -> list[str]:
    return [f"{n}.{part}" for n in names for part in ("calls", "self_s")]


def metric_names() -> list[str]:
    """The per-layer metric names, in the order BENCHMARK.json lists them."""
    names = _timed([f"nilpotent.{op}" for op in L0_NIL2_OPS])
    names += _timed(["groundwork.rational_fiber"])
    names += _timed([f"wreath.base_canonical.{lv}" for lv in LEVELS])
    names += _timed(["wreath.stepfn_add", "wreath.rays_add", "wreath.fibersteps_mul"])
    names += _timed([f"wreath.{op}.{lv}" for op in L2_OPS for lv in LEVELS])
    names += [f"wreath.verdicts.{v}" for v in ("equal", "distinct", "unknown")]
    names += _timed(["embed_rationals.alpha_tail", "embed_verbal.omega_tail",
                     "embed_rationals.phi_element", "embed_verbal.embed",
                     "embed_verbal.omega_commutator", "embed_verbal.enumerate_D"])
    names += ["embed_verbal.enumerate_D.max_index"]
    names += _timed(["exprs.parse_expr", "exprs.build_element"])
    return names


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter()
        # open spans: [id, kept parent id, name, start, child time, kept]
        self.stack: list[list] = [[0, None, "root", self.t0, 0.0, True]]
        self.next_id = 1
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.spans: list[tuple] = []
        self.dropped = 0

    # -- spans -----------------------------------------------------------

    def enter(self, name: str) -> list:
        parent = self.stack[-1]
        # a fold is kept when a comparison at its own level asked for it
        keep = name in KEPT or (name.startswith(_FOLD) and
                                parent[2] == "wreath.min_difference." + name[len(_FOLD):])
        frame = [self.next_id, parent[0] if parent[5] else parent[1], name,
                 time.perf_counter(), 0.0, keep]
        self.next_id += 1
        self.stack.append(frame)
        return frame

    def exit(self, frame: list, tag=None) -> None:
        end = time.perf_counter()
        self.stack.pop()
        dur = end - frame[3]
        own = dur - frame[4]
        self.stack[-1][4] += dur
        name = frame[2]
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + own
        if frame[5]:
            if len(self.spans) < MAX_SPANS:
                self.spans.append((frame[0], frame[1], name, frame[3] - self.t0, dur, own, tag))
            else:
                self.dropped += 1

    # -- wrapping --------------------------------------------------------

    def wrap(self, owner, attr: str, name, tag=None) -> None:
        """Replace ``owner.attr`` by a traced wrapper.  ``name`` is a string
        or a function of the call's arguments; ``tag(args, result)`` gives
        the span's size tag."""
        orig = getattr(owner, attr)
        enter, exit_ = self.enter, self.exit
        name_of = name if callable(name) else (lambda args, _n=name: _n)

        def traced(*args, **kwargs):
            frame = enter(name_of(args))
            result = None
            try:
                result = orig(*args, **kwargs)
                return result
            finally:
                exit_(frame, tag(args, result) if tag is not None and result is not None else None)

        traced.__wrapped__ = orig
        setattr(owner, attr, traced)

    def install(self) -> None:
        """Wrap the public methods of every layer named in metric_names(),
        for the rest of the process."""
        from wreathord import embed_rationals as er, embed_verbal as ev, exprs
        from wreathord import groundwork, nilpotent, wreath

        for op in L0_NIL2_OPS:
            self.wrap(nilpotent.Nil2Group, op, f"nilpotent.{op}")
        for op in _RATIONAL_FIBER_OPS:
            self.wrap(groundwork.RationalFiber, op, "groundwork.rational_fiber")
        self.wrap(wreath.StepFunction, "add", "wreath.stepfn_add")
        self.wrap(wreath.RayStepFunction, "add", "wreath.rays_add")
        self.wrap(wreath.FiberSteps, "mul", "wreath.fibersteps_mul")

        def level_name(op):
            # the verbal levels carry their word family as a [..] suffix
            return lambda args: f"wreath.{op}.{args[0].name.partition('[')[0]}"

        for op in L2_OPS:
            self.wrap(wreath.WreathGroup, op, level_name(op),
                      self._count_verdict if op == "min_difference" else None)
        self.wrap(wreath.WreathGroup, "base_canonical", level_name("base_canonical"),
                  lambda args, _: len(args[1].atoms))

        def window(args, _):
            shifts = [a.shift for a in args[3]]
            return max(shifts) - min(shifts)

        def dyadic_window(args, result):
            # omega shifts are powers of two; tag by the exponent
            return window(args, result).bit_length()

        self.wrap(er.AlphaFn, "tail_identity", "embed_rationals.alpha_tail", window)
        self.wrap(ev.OmegaFn, "tail_identity", "embed_verbal.omega_tail", dyadic_window)
        self.wrap(er, "phi_element", "embed_rationals.phi_element",
                  lambda args, _: Fraction(args[0]).denominator)
        self.wrap(ev.VerbalContext, "embed", "embed_verbal.embed",
                  lambda args, _: Fraction(args[1]).denominator)
        self.wrap(ev.VerbalContext, "omega_commutator", "embed_verbal.omega_commutator",
                  lambda args, _: max(args[1], args[2]))
        self.wrap(ev.VerbalContext, "enumerate_D", "embed_verbal.enumerate_D",
                  self._note_index)
        self.wrap(exprs, "parse_expr", "exprs.parse_expr", lambda args, _: len(args[0]))
        self.wrap(exprs, "build_element", "exprs.build_element",
                  lambda args, result: len(result[1].atoms))

    def _count_verdict(self, args, verdict):
        kind = "equal" if verdict.is_equal else "distinct" if verdict.is_distinct else "unknown"
        name = f"wreath.verdicts.{kind}"
        self.counts[name] = self.counts.get(name, 0) + 1
        return None

    def _note_index(self, args, _):
        k = args[1]
        if k > self.counts.get("embed_verbal.enumerate_D.max_index", -1):
            self.counts["embed_verbal.enumerate_D.max_index"] = k
        return k

    # -- output ----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric of this tracer (0 where a layer was idle)."""
        out = {}
        for m in metric_names():
            base, _, part = m.rpartition(".")
            if part == "calls":
                out[m] = self.calls.get(base, 0)
            elif part == "self_s":
                out[m] = self.self_s.get(base, 0.0)
            else:
                out[m] = self.counts.get(m, 0)
        return out

    def dump(self) -> dict:
        return {
            "span_fields": list(SPAN_FIELDS),
            "spans": self.spans,
            "spans_dropped": self.dropped,
            "calls": self.calls,
            "self_s": self.self_s,
            "counts": self.counts,
        }
