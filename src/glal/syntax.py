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

K/Kw/M take exactly one agent.  An identifier is ``[A-Za-z0-9_]+`` other
than ``true`` and ``false``, and whitespace is space, tab, CR and LF.  An
operator head (``K{`` etc.) is an identifier immediately followed by ``{``;
whitespace in between is a syntax error.  ``*`` in agent position is the
everyone placeholder produced by the public-announcement translation.

One compiled pattern, ``_TOKEN``, splits the text into ``(kind, text,
offset)`` tokens; a syntax error works out its line and column from the
offset when it is raised.  The parser is recursive descent: one method
reads every binary level of ``_BINARY_LEVELS``, and each node it builds is
checked against ``MAX_DEPTH`` through the depth the node stores.

Each operator is one dataclass; its fields annotated ``Formula`` are its
subformulas, which ``children`` and ``_rebuild`` read.  Nodes are
hash-consed: structurally equal formulas are one object, so ``==`` and
``hash`` are identity and cost O(1), which keeps formula-keyed memos
cheap.  Nodes are built only through their constructors (directly or via
``dataclasses.replace``, ``pickle`` or ``copy``), which return the
interned node.  The node table, ``_NODES``, is a plain dict from a node's
class and field values to a weak reference to the node: a constructor
looks its key up without a lock and takes ``_NODES_LOCK`` only to publish
a new node, and a node's reference drops its entry once the node is dead,
so the table holds only formulas in use.  The node classes are declared
with ``_node``, so ``dataclass`` generates none of their methods:
construction, frozenness (``__setattr__`` and ``__delattr__`` raise
``FrozenInstanceError``) and ``repr`` live once on ``Formula``, which keeps
importing this module cheap.
A new node also stores its depth and the agents it names, which are not
fields, so ``depth`` and ``agents`` cost O(1).  A node class needs a
docstring, or ``dataclass`` computes one from ``inspect.signature``,
which costs more than the rest of the class.  A new operator needs its
node class, a printer clause and an evaluator clause (an entry of
``semantics._CLAUSES``, and of ``semantics._COMBINES`` for an epistemic
one read through partitions), and a parser rule: a binary connective is
one more row of ``_BINARY_LEVELS`` (and its glyph in ``_TOKEN`` if new), an
epistemic one an entry of ``_AGENT_HEADS`` or ``_COALITION_HEADS``.  A
derived one also needs an ``expand_derived`` clause.  The formula generators
in ``fuzz`` and ``bisim`` build it once it joins an operator group below or
their own class lists.
"""

from __future__ import annotations

import re
import threading
import weakref
from _weakref import _remove_dead_weakref
from dataclasses import FrozenInstanceError, dataclass, fields, replace

from .errors import FormulaSyntaxError, NotPalFragment, UnknownOperator

# Deepest formula (a leaf has depth 1) and deepest nesting of operators and
# parentheses that parse accepts.  Evaluation recurses about three frames per
# level and the parser up to four, plus one per enclosing binary connective,
# inside the default recursion limit of 1000.
MAX_DEPTH = 100


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
    Assigning or deleting an attribute raises ``FrozenInstanceError``.  A
    new node stores its depth (1 + its deepest subformula's) in ``_depth``
    and the agents it names in ``_agents`` (one shared empty frozenset for
    a node that names none), which are not fields.
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
        ref = _NODES.get(key)
        node = None if ref is None else ref()
        if node is None:
            node = super().__new__(cls)
            values = node.__dict__
            values.update(zip(names, args))
            subformulas, label = _SHAPES[cls]
            deepest = 0
            named = _NO_AGENTS
            for name in subformulas:
                sub = values[name]
                if not isinstance(sub, Formula):
                    raise TypeError(f"{cls.__name__}.{name} must be a formula node, not {sub!r}")
                if sub._depth > deepest:
                    deepest = sub._depth
                theirs = sub._agents
                if theirs and theirs is not named:
                    named = named | theirs if named else theirs
            if label == "agent":
                agent = values["agent"]
                if agent not in named:
                    named = named | {agent} if named else frozenset((agent,))
            elif label and not values["coalition"].everyone:
                theirs = values["coalition"].members
                if not theirs <= named:
                    named = named | theirs if named else theirs
            values["_depth"] = deepest + 1
            values["_agents"] = named
            with _NODES_LOCK:  # publish only a complete node, and only one per key
                ref = _NODES.get(key)
                live = None if ref is None else ref()
                if live is None:
                    ref = _Entry(node, _drop)
                    ref.key = key
                    _NODES[key] = ref
                else:
                    node = live
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


# (class, *field values) -> a weak reference to the live node with those
# fields.  Lookups take no lock; publishing a node takes _NODES_LOCK.  When
# a node is no longer referenced, its reference's callback drops the entry,
# but only while the entry still holds a dead reference: a node published
# for the key since then stays.  So the table holds only formulas in use.
_NODES: dict = {}
_NODES_LOCK = threading.Lock()


class _Entry(weakref.ref):
    """A weak reference to a node, carrying the node's key in ``_NODES``."""

    __slots__ = ("key",)


def _drop(ref, _nodes=_NODES, _remove=_remove_dead_weakref):
    """``ref``'s callback: drops its entry if that still holds a dead
    reference.  It takes no lock, as it can run inside the locked section."""
    _remove(_nodes, ref.key)


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

# ``_agents`` of a node that names no agent.
_NO_AGENTS = frozenset()
# Node class -> its subformula fields, and the field holding its agent or
# its coalition ("agent", "coalition" or None).
_SHAPES = {cls: (_SUBFORMULAS[cls], "agent" if "agent" in names else
                 "coalition" if "coalition" in names else None)
           for cls, names in _FIELDS.items()}

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
    """Height of the formula tree (a leaf has depth 1), stored on each node."""
    return f._depth


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
    """Agent names mentioned by the formula (the placeholder adds none),
    stored on each node."""
    return f._agents


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

# An atom, agent or alias name.  The ASCII classes are spelled out, since
# ``\w`` would also match other letters and digits.
_IDENT = "[A-Za-z0-9_]+"

# One token after optional whitespace.  An operator or constant is its own
# kind; an identifier glued to "{" heads an operator block; the empty match
# at the end is "eof", and any other character is "bad".
_TOKEN = re.compile(
    r"[ \t\r\n]*(?:"
    r"(?P<op><->|->|[()\[\]<>{},!&|+*-]|(?:true|false)(?![A-Za-z0-9_{]))"
    r"|(?P<boxhead>" + _IDENT + r")(?=\{)"
    r"|(?P<ident>" + _IDENT + r")"
    r"|(?P<eof>)\Z"
    r"|(?P<bad>.))",
    re.DOTALL,
)


def is_name(text: str) -> bool:
    """Whether a formula can mention ``text`` as an atom, agent or alias."""
    return re.fullmatch(_IDENT, text) is not None and text not in ("true", "false")


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

# The binary connectives, loosest first.  "->" associates to the right, the
# others to the left.
_BINARY_LEVELS = (("<->", Iff), ("->", Implies), ("|", Or), ("&", And))
_BINARY = {kind: (level, cls) for level, (kind, cls) in enumerate(_BINARY_LEVELS)}
_AGENT_HEADS = {"K": Know, "Kw": KnowWhether, "M": Dual}
_COALITION_HEADS = {"C": Common, "E": Everybody, "D": Distributed}
# Announcement classes by opening bracket, unsigned or "-" first, then "+".
_ANNOUNCEMENTS = {"[": (AnnLocal, AnnGlobal), "<": (DiaLocal, DiaGlobal)}


class _Parser:
    """Recursive descent over ``(kind, text, offset)`` tokens."""

    def __init__(self, text: str, aliases):
        self.text = text
        self.aliases = aliases  # identifier -> formula
        self.nesting = 0
        self.pos = 0
        self.tokens = []
        for match in _TOKEN.finditer(text):
            group = match.lastgroup
            word = match[group]
            if group == "bad":
                raise self.error(match.start(group), f"unexpected character {word!r}")
            self.tokens.append((word if group == "op" else group, word, match.start(group)))

    def error(self, offset: int, message: str, expected=(), kind=FormulaSyntaxError):
        """The error at ``offset`` in the text, placed by line and column."""
        line = self.text.count("\n", 0, offset) + 1
        column = offset - self.text.rfind("\n", 0, offset)
        return kind(message, line, column, expected)

    def unexpected(self, expected) -> FormulaSyntaxError:
        _, word, offset = self.peek()
        return self.error(offset, f"unexpected {word or 'end of input'!r}", expected)

    def peek(self) -> tuple:
        return self.tokens[self.pos]

    def advance(self) -> tuple:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, expected=None) -> tuple:
        if self.peek()[0] != kind:
            raise self.unexpected(expected or {kind})
        return self.advance()

    def limit(self, depth: int, tok: tuple) -> None:
        """Raise at ``tok`` if ``depth``, of a node or of the nesting, passes the limit."""
        if depth > MAX_DEPTH:
            raise self.error(tok[2], f"formula nested deeper than {MAX_DEPTH} levels")

    # grammar levels -------------------------------------------------------
    #
    # Each level returns the parsed node; a node is checked against the depth
    # limit at the operator that built it.

    def binary(self, level: int = 0) -> Formula:
        """A formula whose connectives bind no looser than ``_BINARY_LEVELS[level]``.

        Operator-precedence parsing: a left-associative connective folds as
        it reads, and "->" reads its whole chain, then folds from the right.
        """
        left = self.unary()
        while True:
            kind = self.peek()[0]
            at, cls = _BINARY.get(kind, (-1, None))
            if at < level:
                return left
            if kind != "->":
                tok = self.advance()
                left = cls(left, self.binary(at + 1))
                self.limit(left._depth, tok)
                continue
            operands, arrows = [left], []
            while self.peek()[0] == kind:
                arrows.append(self.advance())
                operands.append(self.binary(at + 1))
            left = operands.pop()
            while operands:
                left = cls(operands.pop(), left)
                self.limit(left._depth, arrows.pop())

    def unary(self) -> Formula:
        # Every recursive descent passes through here, so bounding the
        # nesting of unary levels (parentheses included) bounds the stack.
        tok = self.peek()
        self.nesting += 1
        self.limit(self.nesting, tok)
        node = self.operand(tok)
        self.nesting -= 1
        self.limit(node._depth, tok)  # "!", a box or an announcement built here
        return node

    def operand(self, tok: tuple) -> Formula:
        kind, word, _ = tok
        if kind == "!":
            self.advance()
            return Not(self.unary())
        if kind == "(":
            self.advance()
            inner = self.binary()
            self.expect(")")
            return inner
        if kind in ("true", "false"):
            self.advance()
            return TOP if kind == "true" else BOT
        if kind == "ident":
            self.advance()
            body = self.aliases.get(word)
            if body is None:
                return Atom(word)
            # The body's levels continue below its position.
            self.limit(self.nesting + body._depth - 1, tok)
            return body
        if kind == "boxhead":
            return self.epistemic_box()
        if kind in _ANNOUNCEMENTS:
            return self.announcement()
        raise self.unexpected({"formula"})

    def epistemic_box(self) -> Formula:
        _, name, offset = self.advance()
        if name not in _AGENT_HEADS and name not in _COALITION_HEADS:
            raise self.error(offset, f"unknown operator {name + '{…}'!r}", kind=UnknownOperator)
        self.expect("{")
        coalition = self.agent_list()
        self.expect("}")
        if name in _AGENT_HEADS:
            if coalition.everyone or len(coalition.members) != 1:
                raise self.error(offset, f"{name}{{…}} takes exactly one agent")
            (agent,) = coalition.members
            return _AGENT_HEADS[name](agent, self.unary())
        return _COALITION_HEADS[name](coalition, self.unary())

    def announcement(self) -> Formula:
        opening, _, offset = self.advance()
        announced = self.binary()
        self.expect("]" if opening == "[" else ">")
        sign = self.peek()
        if sign[0] in ("-", "+"):
            self.advance()
        elif sign[0] != "{":
            if opening == "[":
                return PalAnn(announced, self.unary())
            raise self.error(offset, "diamond announcement needs a sign or singleton coalition",
                             {"-", "+", "{"})
        self.expect("{")
        coalition = self.agent_list()
        self.expect("}")
        if sign[0] == "{" and (coalition.everyone or len(coalition.members) != 1):
            raise self.error(sign[2], "announcement without sign takes exactly one agent")
        # Local and global refinements coincide for a single agent.
        cls = _ANNOUNCEMENTS[opening][sign[0] == "+"]
        return cls(announced, coalition, self.unary())

    def agent_list(self) -> Coalition:
        kind = self.peek()[0]
        if kind == "}":
            return Coalition(frozenset())
        if kind == "*":
            self.advance()
            return EVERYONE
        names = [self.expect("ident", {"agent name", "*", "}"})[1]]
        while self.peek()[0] == ",":
            self.advance()
            names.append(self.expect("ident", {"agent name"})[1])
        return Coalition(frozenset(names))


def parse(text: str, aliases=None) -> Formula:
    """Parse concrete formula text into its AST.

    ``aliases`` maps identifiers to formulas that replace atoms of that
    name; agent names are never replaced.  Formulas nested deeper than
    MAX_DEPTH levels, counting parentheses and the levels of substituted
    alias bodies, are rejected, so that printing and evaluating a parsed
    formula stay within the interpreter's default recursion limit.
    """
    parser = _Parser(text, aliases or {})
    result = parser.binary()
    kind, word, offset = parser.peek()
    if kind != "eof":
        raise parser.error(offset, f"trailing input {word!r}", {"end of input"})
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
