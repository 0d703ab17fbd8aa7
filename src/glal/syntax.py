"""Formula language: AST, concrete syntax, parser, printer, derived forms.

The concrete grammar (ASCII, loosest to tightest binding):

    formula := iff
    iff     := impl ( "<->" impl )*          left associative
    impl    := or ( "->" impl )?             right associative
    or      := and ( "|" and )*
    and     := unary ( "&" unary )*
    unary   := "!" unary | box unary | "(" formula ")" | "true" | "false" | IDENT
    box     := "K{" agents "}" | "C{" agents "}" | "E{" agents "}"
             | "Kw{" agents "}" | "M{" agents "}" | "D{" agents "}"
             | "[" formula "]" sign "{" agents "}"
             | "<" formula ">" sign "{" agents "}"
             | "[" formula "]"               public announcement
    sign    := "-" | "+" | ""                "" only for singleton coalitions
    agents  := IDENT ("," IDENT)* | "*" | ""

K/Kw/M take exactly one agent.  An operator head (``K{`` etc.) is an
identifier immediately followed by ``{``; whitespace in between is a
syntax error.  ``*`` in agent position is the everyone placeholder
produced by the public-announcement translation.

Each operator is one dataclass; its fields annotated ``Formula`` are its
subformulas, which ``children`` and ``_rebuild`` read.  Nodes are
hash-consed: structurally equal formulas are one object, so ``==`` and
``hash`` are identity and cost O(1), which keeps formula-keyed memos
cheap.  Nodes are built only through their constructors (directly or via
``dataclasses.replace``, ``pickle`` or ``copy``), which return the
interned node.  The node classes are declared with ``_node``, so
``dataclass`` generates none of their methods: construction, frozenness
(``__setattr__`` and ``__delattr__`` raise ``FrozenInstanceError``) and
``repr`` live once on ``Formula``, which keeps importing this module cheap.
A node class needs a docstring, or ``dataclass`` computes one from
``inspect.signature``, which costs more than the rest of the class.  A new
operator needs its node class, a parser rule, a printer clause and an
evaluator clause (an entry of ``semantics._CLAUSES``); a derived one also
needs an ``expand_derived`` clause.  The formula generators in ``fuzz`` and
``bisim`` build it once it joins an operator group below or their own
class lists.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import FrozenInstanceError, dataclass, fields, replace

from .errors import FormulaSyntaxError, NotPalFragment, UnknownOperator

# Deepest formula (a leaf has depth 1) and deepest nesting of operators and
# parentheses that parse accepts.  Evaluation recurses about three frames per
# level and the parser up to seven, inside the default recursion limit of 1000.
MAX_DEPTH = 100

_IDENT_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_")


@dataclass(frozen=True)
class Coalition:
    """A finite set of agent names, or the everyone placeholder.

    The placeholder stands for "all agents of the model at hand" and is
    resolved at evaluation time.
    """

    members: frozenset = frozenset()
    everyone: bool = False

    @staticmethod
    def of(*names: str) -> "Coalition":
        return Coalition(frozenset(names))

    def resolve(self, agents) -> tuple:
        """Concrete, sorted agent tuple relative to a model's agent set."""
        if self.everyone:
            return tuple(agents)
        return tuple(sorted(self.members))

    def __str__(self) -> str:
        return "*" if self.everyone else ",".join(sorted(self.members))


EVERYONE = Coalition(everyone=True)


class Formula:
    """Base class for formula AST nodes.

    Nodes are immutable and hash-consed: the constructor, called with the
    node's fields by position or by name, returns the one live node of that
    class with those field values.  So ``==`` and ``hash`` are identity.
    Assigning or deleting an attribute raises ``FrozenInstanceError``.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        names = _FIELDS[cls]
        if kwargs:  # dataclasses.replace passes every field by name
            args += tuple(kwargs.pop(name) for name in names[len(args):] if name in kwargs)
        if kwargs or len(args) != len(names):
            raise TypeError(f"{cls.__name__}() takes the fields ({', '.join(names)})")
        # Subformulas in the key are nodes already, so they hash by identity.
        key = (cls, *args)
        node = _NODES.get(key)
        if node is None:
            node = super().__new__(cls)
            for name, value in zip(names, args):
                object.__setattr__(node, name, value)
            with _NODES_LOCK:  # publish only a complete node, and only one per key
                node = _NODES.setdefault(key, node)
        return node

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # pickle and copy rebuild through the constructor, so they return
        # the interned node.
        return type(self), tuple(getattr(self, name) for name in _FIELDS[type(self)])

    def __repr__(self) -> str:
        # The dataclass format: Know(agent='a', sub=Atom(name='p')).
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in _FIELDS[type(self)])
        return f"{type(self).__qualname__}({args})"

    def __str__(self) -> str:
        return print_formula(self)


# (class, *field values) -> the live node with those fields.  Entries go when
# their node is no longer referenced, so the table holds only formulas in use.
_NODES = weakref.WeakValueDictionary()
_NODES_LOCK = threading.Lock()

# Declares a node class: a dataclass (so ``fields`` and ``replace`` work) for
# which ``dataclass`` generates no methods, since ``Formula`` supplies them.
_node = dataclass(eq=False, init=False, repr=False)


@_node
class Atom(Formula):
    """A propositional atom."""

    name: str


@_node
class Top(Formula):
    """The constant true."""


@_node
class Bot(Formula):
    """The constant false."""


@_node
class Not(Formula):
    """Negation."""

    sub: Formula


@_node
class And(Formula):
    """Conjunction."""

    left: Formula
    right: Formula


@_node
class Or(Formula):
    """Disjunction."""

    left: Formula
    right: Formula


@_node
class Implies(Formula):
    """Implication."""

    left: Formula
    right: Formula


@_node
class Iff(Formula):
    """Biconditional."""

    left: Formula
    right: Formula


@_node
class Know(Formula):
    """``K{agent} sub``: the agent knows ``sub``."""

    agent: str
    sub: Formula


@_node
class KnowWhether(Formula):
    """``Kw{agent} sub``: the agent knows whether ``sub`` holds."""

    agent: str
    sub: Formula


@_node
class Dual(Formula):
    """Epistemic possibility, the dual of Know."""

    agent: str
    sub: Formula


@_node
class Common(Formula):
    """``C{coalition} sub``: common knowledge among the coalition."""

    coalition: Coalition
    sub: Formula


@_node
class Everybody(Formula):
    """``E{coalition} sub``: every member knows ``sub``."""

    coalition: Coalition
    sub: Formula


@_node
class Distributed(Formula):
    """``D{coalition} sub``: distributed knowledge of the coalition."""

    coalition: Coalition
    sub: Formula


@_node
class AnnLocal(Formula):
    """Local announcement box: split only the actual world's classes."""

    announced: Formula
    coalition: Coalition
    sub: Formula


@_node
class AnnGlobal(Formula):
    """Global announcement box: split every class in the closure region."""

    announced: Formula
    coalition: Coalition
    sub: Formula


@_node
class DiaLocal(Formula):
    """Local announcement diamond, the dual of ``AnnLocal``."""

    announced: Formula
    coalition: Coalition
    sub: Formula


@_node
class DiaGlobal(Formula):
    """Global announcement diamond, the dual of ``AnnGlobal``."""

    announced: Formula
    coalition: Coalition
    sub: Formula


@_node
class PalAnn(Formula):
    """Public announcement box in the world-deleting style."""

    announced: Formula
    sub: Formula


# Each node class's field names, in order, and among them its subformulas:
# the fields annotated ``Formula`` (under postponed evaluation an annotation
# is the string written in the class body).
_FIELDS = {cls: tuple(field.name for field in fields(cls)) for cls in Formula.__subclasses__()}
_SUBFORMULAS = {
    cls: tuple(field.name for field in fields(cls) if field.type == "Formula")
    for cls in _FIELDS
}

TOP = Top()
BOT = Bot()

# Operator groups: node classes built alike (same labels beside their
# subformulas).  The formula generators in fuzz and bisim draw from these.
BINARY = (And, Or, Implies, Iff)
AGENT_OPS = (Know, KnowWhether, Dual)
COALITION_OPS = (Common, Everybody, Distributed)
ANNOUNCE_OPS = (AnnLocal, AnnGlobal, DiaLocal, DiaGlobal)


def _subformula_fields(f: Formula) -> tuple:
    try:
        return _SUBFORMULAS[type(f)]
    except KeyError:
        raise TypeError(f"not a formula node: {f!r}") from None


def children(f: Formula) -> tuple:
    """Immediate subformulas of a node, left to right."""
    return tuple(getattr(f, name) for name in _subformula_fields(f))


def _rebuild(f: Formula, subs) -> Formula:
    """Copy a node with fresh subformulas (same kind and labels)."""
    return replace(f, **dict(zip(_subformula_fields(f), subs)))


def size(f: Formula) -> int:
    """Node count; strictly larger than the size of any proper subformula."""
    return 1 + sum(size(c) for c in children(f))


def depth(f: Formula) -> int:
    subs = children(f)
    return 1 + (max(depth(c) for c in subs) if subs else 0)


def atoms(f: Formula) -> frozenset:
    out = set()

    def walk(g):
        if isinstance(g, Atom):
            out.add(g.name)
        for c in children(g):
            walk(c)

    walk(f)
    return frozenset(out)


def agents(f: Formula) -> frozenset:
    """Agent names mentioned by the formula (the placeholder adds none)."""
    out = set()

    def walk(g):
        if isinstance(g, AGENT_OPS):
            out.add(g.agent)
        elif isinstance(g, COALITION_OPS + ANNOUNCE_OPS):
            if not g.coalition.everyone:
                out.update(g.coalition.members)
        for c in children(g):
            walk(c)

    walk(f)
    return frozenset(out)


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

_BOX_NAMES = {"K", "C", "E", "Kw", "M", "D"}


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    column: int


def _tokenize(text: str):
    tokens = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        start_col = col
        if text.startswith("<->", i):
            tokens.append(_Token("<->", "<->", line, col))
            i += 3
            col += 3
            continue
        if text.startswith("->", i):
            tokens.append(_Token("->", "->", line, col))
            i += 2
            col += 2
            continue
        if ch in "()[]<>{},!&|+-*":
            tokens.append(_Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        if ch in _IDENT_CHARS:
            j = i
            while j < n and text[j] in _IDENT_CHARS:
                j += 1
            name = text[i:j]
            col += j - i
            i = j
            # An identifier glued to "{" heads an operator block.
            if i < n and text[i] == "{":
                tokens.append(_Token("boxhead", name, line, start_col))
                tokens.append(_Token("{", "{", line, col))
                i += 1
                col += 1
            elif name == "true":
                tokens.append(_Token("true", name, line, start_col))
            elif name == "false":
                tokens.append(_Token("false", name, line, start_col))
            else:
                tokens.append(_Token("ident", name, line, start_col))
            continue
        raise FormulaSyntaxError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("eof", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens, aliases):
        self.tokens = tokens
        self.pos = 0
        self.nesting = 0
        self.aliases = aliases  # identifier -> (formula, its depth)

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, expected=None) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise FormulaSyntaxError(
                f"unexpected {tok.text or 'end of input'!r}",
                tok.line,
                tok.column,
                expected or {kind},
            )
        return self.advance()

    def fail(self, expected) -> FormulaSyntaxError:
        tok = self.peek()
        return FormulaSyntaxError(
            f"unexpected {tok.text or 'end of input'!r}", tok.line, tok.column, expected
        )

    # grammar levels -------------------------------------------------------
    #
    # Each level returns the parsed node and its depth (a leaf has depth 1).

    def deeper(self, depth: int, tok: _Token) -> int:
        """Depth of a node over a child of ``depth``, checked against the limit."""
        if depth >= MAX_DEPTH:
            raise FormulaSyntaxError(
                f"formula nested deeper than {MAX_DEPTH} levels", tok.line, tok.column
            )
        return depth + 1

    def formula(self) -> tuple:
        left, d = self.implication()
        while self.peek().kind == "<->":
            tok = self.advance()
            right, e = self.implication()
            left, d = Iff(left, right), self.deeper(max(d, e), tok)
        return left, d

    def implication(self) -> tuple:
        operands, arrows = [self.disjunction()], []
        while self.peek().kind == "->":
            arrows.append(self.advance())
            operands.append(self.disjunction())
        right, d = operands.pop()
        while operands:
            (left, e), tok = operands.pop(), arrows.pop()
            right, d = Implies(left, right), self.deeper(max(d, e), tok)
        return right, d

    def disjunction(self) -> tuple:
        left, d = self.conjunction()
        while self.peek().kind == "|":
            tok = self.advance()
            right, e = self.conjunction()
            left, d = Or(left, right), self.deeper(max(d, e), tok)
        return left, d

    def conjunction(self) -> tuple:
        left, d = self.unary()
        while self.peek().kind == "&":
            tok = self.advance()
            right, e = self.unary()
            left, d = And(left, right), self.deeper(max(d, e), tok)
        return left, d

    def unary(self) -> tuple:
        # Every recursive descent passes through here, so bounding the
        # nesting of unary levels (parentheses included) bounds the stack.
        tok = self.peek()
        self.nesting = self.deeper(self.nesting, tok)
        node = self.operand(tok)
        self.nesting -= 1
        return node

    def operand(self, tok: _Token) -> tuple:
        if tok.kind == "!":
            self.advance()
            sub, d = self.unary()
            return Not(sub), self.deeper(d, tok)
        if tok.kind == "(":
            self.advance()
            inner = self.formula()
            self.expect(")")
            return inner
        if tok.kind == "true":
            self.advance()
            return TOP, 1
        if tok.kind == "false":
            self.advance()
            return BOT, 1
        if tok.kind == "ident":
            self.advance()
            alias = self.aliases.get(tok.text)
            if alias is None:
                return Atom(tok.text), 1
            # The body's levels continue below its position.
            if self.nesting + alias[1] - 1 > MAX_DEPTH:
                raise FormulaSyntaxError(
                    f"formula nested deeper than {MAX_DEPTH} levels", tok.line, tok.column
                )
            return alias
        if tok.kind == "boxhead":
            return self.epistemic_box()
        if tok.kind == "[":
            return self.announcement("[", "]")
        if tok.kind == "<":
            return self.announcement("<", ">")
        raise self.fail({"formula"})

    def epistemic_box(self) -> tuple:
        head = self.advance()
        if head.text not in _BOX_NAMES:
            raise UnknownOperator(
                f"unknown operator {head.text + '{…}'!r}", head.line, head.column
            )
        self.expect("{")
        coalition = self.agent_list()
        self.expect("}")
        if head.text in ("K", "Kw", "M"):
            if coalition.everyone or len(coalition.members) != 1:
                raise FormulaSyntaxError(
                    f"{head.text}{{…}} takes exactly one agent", head.line, head.column
                )
            (agent,) = coalition.members
            sub, d = self.unary()
            cls = {"K": Know, "Kw": KnowWhether, "M": Dual}[head.text]
            return cls(agent, sub), self.deeper(d, head)
        sub, d = self.unary()
        cls = {"C": Common, "E": Everybody, "D": Distributed}[head.text]
        return cls(coalition, sub), self.deeper(d, head)

    def announcement(self, open_kind: str, close_kind: str) -> tuple:
        open_tok = self.expect(open_kind)
        announced, e = self.formula()
        self.expect(close_kind)
        sign = self.peek()
        if sign.kind in ("-", "+"):
            self.advance()
            self.expect("{")
            coalition = self.agent_list()
            self.expect("}")
            sub, d = self.unary()
            if open_kind == "[":
                cls = AnnLocal if sign.kind == "-" else AnnGlobal
            else:
                cls = DiaLocal if sign.kind == "-" else DiaGlobal
            return cls(announced, coalition, sub), self.deeper(max(d, e), open_tok)
        if sign.kind == "{":
            self.advance()
            coalition = self.agent_list()
            self.expect("}")
            if coalition.everyone or len(coalition.members) != 1:
                raise FormulaSyntaxError(
                    "announcement without sign takes exactly one agent",
                    sign.line,
                    sign.column,
                )
            sub, d = self.unary()
            # Local and global refinements coincide for a single agent.
            cls = AnnLocal if open_kind == "[" else DiaLocal
            return cls(announced, coalition, sub), self.deeper(max(d, e), open_tok)
        if open_kind == "[":
            sub, d = self.unary()
            return PalAnn(announced, sub), self.deeper(max(d, e), open_tok)
        raise FormulaSyntaxError(
            "diamond announcement needs a sign or singleton coalition",
            open_tok.line,
            open_tok.column,
            {"-", "+", "{"},
        )

    def agent_list(self) -> Coalition:
        tok = self.peek()
        if tok.kind == "}":
            return Coalition(frozenset())
        if tok.kind == "*":
            self.advance()
            return EVERYONE
        names = [self.expect("ident", {"agent name", "*", "}"}).text]
        while self.peek().kind == ",":
            self.advance()
            names.append(self.expect("ident", {"agent name"}).text)
        return Coalition(frozenset(names))


def parse(text: str, aliases=None) -> Formula:
    """Parse concrete formula text into its AST.

    ``aliases`` maps identifiers to formulas that replace atoms of that
    name; agent names are never replaced.  Formulas nested deeper than
    MAX_DEPTH levels, counting parentheses and the levels of substituted
    alias bodies, are rejected, so that printing and evaluating a parsed
    formula stay within the interpreter's default recursion limit.
    """
    bodies = {name: (body, depth(body)) for name, body in (aliases or {}).items()}
    parser = _Parser(_tokenize(text), bodies)
    result, _ = parser.formula()
    tok = parser.peek()
    if tok.kind != "eof":
        raise FormulaSyntaxError(
            f"trailing input {tok.text!r}", tok.line, tok.column, {"end of input"}
        )
    return result


# ---------------------------------------------------------------------------
# Printer
# ---------------------------------------------------------------------------

_BINARY_GLYPH = {And: "&", Or: "|", Implies: "->", Iff: "<->"}
_AGENT_GLYPH = {Know: "K", KnowWhether: "Kw", Dual: "M"}
_COALITION_GLYPH = {Common: "C", Everybody: "E", Distributed: "D"}


def print_formula(f: Formula) -> str:
    """Fully parenthesized canonical text; ``parse(print_formula(f)) == f``."""
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Top):
        return "true"
    if isinstance(f, Bot):
        return "false"
    if isinstance(f, Not):
        return f"!({print_formula(f.sub)})"
    if isinstance(f, BINARY):
        glyph = _BINARY_GLYPH[type(f)]
        return f"({print_formula(f.left)}) {glyph} ({print_formula(f.right)})"
    if isinstance(f, AGENT_OPS):
        glyph = _AGENT_GLYPH[type(f)]
        return f"{glyph}{{{f.agent}}} ({print_formula(f.sub)})"
    if isinstance(f, COALITION_OPS):
        glyph = _COALITION_GLYPH[type(f)]
        return f"{glyph}{{{f.coalition}}} ({print_formula(f.sub)})"
    if isinstance(f, (AnnLocal, AnnGlobal)):
        sign = "-" if isinstance(f, AnnLocal) else "+"
        return f"[{print_formula(f.announced)}]{sign}{{{f.coalition}}} ({print_formula(f.sub)})"
    if isinstance(f, (DiaLocal, DiaGlobal)):
        sign = "-" if isinstance(f, DiaLocal) else "+"
        return f"<{print_formula(f.announced)}>{sign}{{{f.coalition}}} ({print_formula(f.sub)})"
    if isinstance(f, PalAnn):
        return f"[{print_formula(f.announced)}] ({print_formula(f.sub)})"
    raise TypeError(f"not a formula node: {f!r}")


# ---------------------------------------------------------------------------
# Derived forms
# ---------------------------------------------------------------------------


def translate_pal(f: Formula) -> Formula:
    """Embed a pure public-announcement formula into the two-operator core.

    Every public announcement box becomes a global announcement to the
    everyone placeholder; all other nodes are mapped homomorphically.
    Raises NotPalFragment if the formula already contains local/global
    announcement operators.
    """
    if isinstance(f, PalAnn):
        return AnnGlobal(translate_pal(f.announced), EVERYONE, translate_pal(f.sub))
    if isinstance(f, ANNOUNCE_OPS):
        raise NotPalFragment(
            f"not in the public-announcement fragment: {print_formula(f)}"
        )
    return _rebuild(f, [translate_pal(c) for c in children(f)])


def expand_derived(f: Formula) -> Formula:
    """Rewrite to the core connectives: Atom/Top/Bot/Not/And plus Common,
    Distributed and the two announcement boxes.

    Know(a, x) becomes Common({a}, x); Everybody expands to the conjunction
    of its members' Know formulas in sorted name order (Top when empty);
    Kw, Dual, Or, Implies, Iff and the diamonds expand classically; public
    announcements go through the global-announcement embedding.
    """
    if isinstance(f, Or):
        return _or(expand_derived(f.left), expand_derived(f.right))
    if isinstance(f, Implies):
        return Not(And(expand_derived(f.left), Not(expand_derived(f.right))))
    if isinstance(f, Iff):
        a, b = expand_derived(f.left), expand_derived(f.right)
        return And(Not(And(a, Not(b))), Not(And(b, Not(a))))
    if isinstance(f, Know):
        return Common(Coalition.of(f.agent), expand_derived(f.sub))
    if isinstance(f, Everybody):
        if f.coalition.everyone:
            raise ValueError("cannot expand the everyone placeholder without a model")
        sub = expand_derived(f.sub)
        conjuncts = [Common(Coalition.of(a), sub) for a in sorted(f.coalition.members)]
        if not conjuncts:
            return TOP
        out = conjuncts[0]
        for c in conjuncts[1:]:
            out = And(out, c)
        return out
    if isinstance(f, KnowWhether):
        sub = expand_derived(f.sub)
        knows = Common(Coalition.of(f.agent), sub)
        knows_not = Common(Coalition.of(f.agent), Not(sub))
        return _or(knows, knows_not)
    if isinstance(f, Dual):
        return Not(Common(Coalition.of(f.agent), Not(expand_derived(f.sub))))
    if isinstance(f, DiaLocal):
        return Not(AnnLocal(expand_derived(f.announced), f.coalition, Not(expand_derived(f.sub))))
    if isinstance(f, DiaGlobal):
        return Not(AnnGlobal(expand_derived(f.announced), f.coalition, Not(expand_derived(f.sub))))
    if isinstance(f, PalAnn):
        return AnnGlobal(expand_derived(f.announced), EVERYONE, expand_derived(f.sub))
    return _rebuild(f, [expand_derived(c) for c in children(f)])


def _or(a: Formula, b: Formula) -> Formula:
    return Not(And(Not(a), Not(b)))
