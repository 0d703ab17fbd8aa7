"""Toolkit for epistemic logic with global and local announcements.

Parsing and printing of the formula language, Kripke models with
per-agent equivalence relations, pointed-model refinement semantics,
bisimulation checking, bounded satisfiability, and the bundled example
scenarios, all behind one CLI (``glal``).
"""

from .errors import (
    BoundExceeded,
    EmptyResult,
    FormatError,
    FormulaSyntaxError,
    GlalError,
    InvalidModel,
    NotPalFragment,
    UnknownAgent,
    UnknownOperator,
    UnknownWorld,
)
from .model import (
    KripkeModel,
    PointedModel,
    Violation,
    load,
    save,
    validate,
)
from .semantics import (
    EvalContext,
    EvalTrace,
    RefinementKey,
    check,
    check_pal_equiv,
    check_traced,
    refine_global,
    refine_local,
    refine_pal,
    refine_semiprivate,
    sat_set,
)
from .syntax import (
    EVERYONE,
    And,
    AnnGlobal,
    AnnLocal,
    Atom,
    Bot,
    Coalition,
    Common,
    DiaGlobal,
    DiaLocal,
    Distributed,
    Dual,
    Everybody,
    Formula,
    Iff,
    Implies,
    Know,
    KnowWhether,
    Not,
    Or,
    PalAnn,
    Top,
    expand_derived,
    parse,
    print_formula,
    translate_pal,
)

__version__ = "0.1.0"
GRAMMAR_VERSION = "1"
