"""Exact order-preserving (and verbal) embeddings of the additive
rationals into 2-generator fully ordered groups built from iterated
wreath products, with a computable bi-invariant comparison."""

from .groundwork import (
    Ordering,
    Rational,
    Verdict,
    canonical_fraction,
    format_rational,
    parse_rational,
)
from .nilpotent import (
    MalcevElement,
    Nil2Group,
    UnsupportedWordSet,
    VerbalWitness,
    Word,
    eval_word,
    parse_word,
    select_S,
    verify_witness,
)
from .wreath import (
    Atom,
    BaseFunction,
    FiberSteps,
    PointFn,
    RayStepFunction,
    StepFunction,
    ThresholdFn,
    WreathElement,
    WreathGroup,
    derived_commutator,
)
from .embed_rationals import (
    QC,
    W,
    alpha,
    beta_tilde,
    big_phi,
    commutator_table,
    fmt_g_word,
    g_word_element,
    phi,
    phi_element,
    subnormal_chain,
    tau,
    verify_order_laws,
    verify_section2,
    verify_theorem1,
)
from .embed_verbal import (
    ConstructionViolation,
    VerbalContext,
    get_context,
    verify_theorem2,
)
from .reporting import CheckRecord, Report, emit_report, exit_status
from .exprs import ExprSyntaxError, build_element, parse_expr, print_expr
from .cli import Command, main, run_command

__version__ = "0.1.0"
