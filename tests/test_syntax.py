import copy
import dataclasses
import gc
import hashlib
import pickle
import random
import sys
import threading

import pytest

from glal import syntax
from glal.errors import FormulaSyntaxError, NotPalFragment, UnknownOperator
from glal.fuzz import FRAGMENTS, random_formula
from glal.syntax import (
    EVERYONE,
    And,
    AnnGlobal,
    AnnLocal,
    Atom,
    BOT,
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
    TOP,
    agents,
    atoms,
    children,
    depth,
    expand_derived,
    parse,
    print_formula,
    size,
    translate_pal,
)


def test_parse_know():
    assert parse("K{a} p") == Know("a", Atom("p"))


def test_parse_father_announcement():
    f = parse("[m_r | m_g | m_b]-{r,g,b} E{r,g,b} (m_r | m_g | m_b)")
    chain = Or(Or(Atom("m_r"), Atom("m_g")), Atom("m_b"))
    assert f == AnnLocal(chain, Coalition.of("r", "g", "b"),
                         Everybody(Coalition.of("r", "g", "b"), chain))


def test_parse_missing_continuation():
    with pytest.raises(FormulaSyntaxError):
        parse("[p]+{}")


def test_empty_coalition_is_legal_syntax():
    assert parse("[p]+{} q") == AnnGlobal(Atom("p"), Coalition(frozenset()), Atom("q"))


def test_singleton_announcement_is_local():
    f = parse("[p]{a} q")
    assert f == AnnLocal(Atom("p"), Coalition.of("a"), Atom("q"))


def test_bare_announcement_rejects_multi_agent():
    with pytest.raises(FormulaSyntaxError):
        parse("[p]{a,b} q")
    with pytest.raises(FormulaSyntaxError):
        parse("[p]{*} q")


def test_bare_singleton_diamond():
    assert parse("<p>{a} q") == DiaLocal(Atom("p"), Coalition.of("a"), Atom("q"))
    with pytest.raises(FormulaSyntaxError):
        parse("<p> q")  # diamonds have no public-announcement form


def test_k_needs_exactly_one_agent():
    with pytest.raises(FormulaSyntaxError):
        parse("K{a,b} p")
    with pytest.raises(FormulaSyntaxError):
        parse("Kw{} p")


def test_unknown_operator():
    with pytest.raises(UnknownOperator):
        parse("Q{a} p")


_DEEP = "!" * (syntax.MAX_DEPTH - 1) + "p"
_CONJUNCTS = " & ".join(["p"] * (syntax.MAX_DEPTH + 1))
_TOO_DEEP = f"formula nested deeper than {syntax.MAX_DEPTH} levels at 1:"

# One row per raise site: id, text, exception type, str, line, column, expected.
# Parsed with "deep" an alias for a formula of the full depth limit.
ERROR_POSITIONS = [
    ("bad-e-acute", "p é q", FormulaSyntaxError,
     "unexpected character 'é' at 1:3", 1, 3, set()),
    ("bad-form-feed", "p &\x0cq", FormulaSyntaxError,
     "unexpected character '\\x0c' at 1:4", 1, 4, set()),
    ("bad-nbsp", "K{a}\xa0p", FormulaSyntaxError,
     "unexpected character '\\xa0' at 1:5", 1, 5, set()),
    ("bad-after-newline", "(p)\n  $", FormulaSyntaxError,
     "unexpected character '$' at 2:3", 2, 3, set()),
    ("column-after-tab", "p\t\t& )", FormulaSyntaxError,
     "unexpected ')' at 1:6 (expected formula)", 1, 6, {"formula"}),
    ("column-after-cr", "p\r\r& )", FormulaSyntaxError,
     "unexpected ')' at 1:6 (expected formula)", 1, 6, {"formula"}),
    ("end-after-newline", "p &\n", FormulaSyntaxError,
     "unexpected 'end of input' at 2:1 (expected formula)", 2, 1, {"formula"}),
    ("operator-after-newline", "p &\n& q", FormulaSyntaxError,
     "unexpected '&' at 2:1 (expected formula)", 2, 1, {"formula"}),
    ("unclosed-parenthesis", "(p\n", FormulaSyntaxError,
     "unexpected 'end of input' at 2:1 (expected ))", 2, 1, {")"}),
    ("unclosed-agents", "K{r", FormulaSyntaxError,
     "unexpected 'end of input' at 1:4 (expected })", 1, 4, {"}"}),
    ("agent-list-start", "K{,} p", FormulaSyntaxError,
     "unexpected ',' at 1:3 (expected *, agent name, })", 1, 3, {"*", "agent name", "}"}),
    ("agent-list-after-comma", "C{a,} p", FormulaSyntaxError,
     "unexpected '}' at 1:5 (expected agent name)", 1, 5, {"agent name"}),
    ("sign-without-brace", "[p]+ q", FormulaSyntaxError,
     "unexpected 'q' at 1:6 (expected {)", 1, 6, {"{"}),
    ("unclosed-box", "[p q", FormulaSyntaxError,
     "unexpected 'q' at 1:4 (expected ])", 1, 4, {"]"}),
    ("unclosed-diamond", "<p]+{a} q", FormulaSyntaxError,
     "unexpected ']' at 1:3 (expected >)", 1, 3, {">"}),
    ("trailing", "p q", FormulaSyntaxError,
     "trailing input 'q' at 1:3 (expected end of input)", 1, 3, {"end of input"}),
    ("trailing-after-implication", "(p) -> q r", FormulaSyntaxError,
     "trailing input 'r' at 1:10 (expected end of input)", 1, 10, {"end of input"}),
    ("unknown-operator", "Q{a} p", UnknownOperator,
     "unknown operator 'Q{…}' at 1:1", 1, 1, set()),
    ("constant-as-operator", "true{a} p", UnknownOperator,
     "unknown operator 'true{…}' at 1:1", 1, 1, set()),
    ("K-two-agents", "K{a,b} p", FormulaSyntaxError,
     "K{…} takes exactly one agent at 1:1", 1, 1, set()),
    ("Kw-no-agent", "Kw{} p", FormulaSyntaxError,
     "Kw{…} takes exactly one agent at 1:1", 1, 1, set()),
    ("M-everyone", "M{*} p", FormulaSyntaxError,
     "M{…} takes exactly one agent at 1:1", 1, 1, set()),
    ("unsigned-two-agents", "[p]{a,b} q", FormulaSyntaxError,
     "announcement without sign takes exactly one agent at 1:4", 1, 4, set()),
    ("unsigned-everyone-after-newline", "\t\n\t[p]{*} q", FormulaSyntaxError,
     "announcement without sign takes exactly one agent at 2:5", 2, 5, set()),
    ("diamond-without-sign", "<p>\n q", FormulaSyntaxError,
     "diamond announcement needs a sign or singleton coalition at 1:1 (expected +, -, {)",
     1, 1, {"+", "-", "{"}),
    ("depth-not", "!" + _DEEP, FormulaSyntaxError,
     _TOO_DEEP + "101", 1, 101, set()),
    ("depth-and", _CONJUNCTS, FormulaSyntaxError,
     _TOO_DEEP + "399", 1, 399, set()),
    ("depth-implies", _CONJUNCTS.replace("&", "->"), FormulaSyntaxError,
     _TOO_DEEP + "3", 1, 3, set()),
    ("depth-parentheses", "(" * 101 + "p" + ")" * 101, FormulaSyntaxError,
     _TOO_DEEP + "101", 1, 101, set()),
    ("depth-alias-not", "!deep", FormulaSyntaxError,
     _TOO_DEEP + "2", 1, 2, set()),
    ("depth-alias-parentheses", "p & (deep)", FormulaSyntaxError,
     _TOO_DEEP + "6", 1, 6, set()),
    # Two faults: the chain passes the limit before the stray ")" is read.
    ("depth-before-stray-parenthesis", _CONJUNCTS + " )", FormulaSyntaxError,
     _TOO_DEEP + "399", 1, 399, set()),
]


@pytest.mark.parametrize("text, kind, message, line, column, expected",
                         [row[1:] for row in ERROR_POSITIONS],
                         ids=[row[0] for row in ERROR_POSITIONS])
def test_error_positions(text, kind, message, line, column, expected):
    with pytest.raises(FormulaSyntaxError) as info:
        parse(text, {"deep": parse(_DEEP)})
    exc = info.value
    assert type(exc) is kind
    assert (str(exc), exc.line, exc.column, exc.expected) == (message, line, column, expected)


def test_trailing_input_rejected():
    with pytest.raises(FormulaSyntaxError):
        parse("p q")


def test_operator_head_must_be_glued():
    # "K {a}" is an atom K followed by a stray brace.
    with pytest.raises(FormulaSyntaxError):
        parse("K {a} p")


def test_pal_box():
    assert parse("[p] q") == PalAnn(Atom("p"), Atom("q"))


def test_precedence():
    f = parse("!p & q | r -> s <-> t")
    assert f == Iff(Implies(Or(And(Not(Atom("p")), Atom("q")), Atom("r")), Atom("s")),
                    Atom("t"))


def test_implication_right_associative():
    assert parse("p -> q -> r") == Implies(Atom("p"), Implies(Atom("q"), Atom("r")))


def test_box_binds_tighter_than_and():
    assert parse("K{a} p & q") == And(Know("a", Atom("p")), Atom("q"))


def test_print_examples():
    assert print_formula(Know("a", Atom("p"))) == "K{a} (p)"
    assert (
        print_formula(AnnGlobal(Atom("p"), Coalition.of("a", "b"),
                                Common(Coalition.of("a", "b"), Atom("p"))))
        == "[p]+{a,b} (C{a,b} (p))"
    )
    assert print_formula(Not(BOT)) == "!(false)"


def test_everyone_marker_round_trip():
    f = AnnGlobal(Atom("p"), EVERYONE, Atom("q"))
    assert print_formula(f) == "[p]+{*} (q)"
    assert parse(print_formula(f)) == f


def test_round_trip_fuzz():
    rng = random.Random(2024)
    for _ in range(300):
        f = random_formula(rng, 6, ["p", "q", "m_r"], ["a", "b", "c"])
        assert parse(print_formula(f)) == f


def test_random_formula_draws_are_pinned():
    # Seeded corpora (glal suite, the property tests) depend on the order of
    # the generator's rng draws; this digest changes if that order does.
    printed = []
    for fragment in FRAGMENTS:
        rng = random.Random(7)
        printed += [
            print_formula(random_formula(rng, 4, ["p", "q"], ["a", "b", "c"], fragment))
            for _ in range(200)
        ]
    digest = hashlib.sha256("\n".join(printed).encode()).hexdigest()
    assert digest == "4645462e931ebbdd5db21ae7cdda5c991a0b56e7d0fd87d0199ffa10d8e1f3e3"


def test_children_in_field_order():
    p, q = Atom("p"), Atom("q")
    assert children(AnnLocal(p, Coalition.of("a"), q)) == (p, q)
    assert children(Iff(q, p)) == (q, p)
    assert children(Know("a", p)) == (p,)
    assert children(TOP) == ()
    with pytest.raises(TypeError):
        children("p")


def test_size_strictly_decreasing():
    rng = random.Random(7)
    for _ in range(100):
        f = random_formula(rng, 5, ["p"], ["a", "b"])
        for sub in children(f):
            assert size(sub) < size(f)


def test_atoms_and_agents_collectors():
    f = parse("[m_r]-{r,g} K{b} (m_g & true)")
    assert atoms(f) == frozenset({"m_r", "m_g"})
    assert agents(f) == frozenset({"r", "g", "b"})


CORE = (Atom, type(TOP), type(BOT), Not, And, Common, Distributed, AnnLocal, AnnGlobal)


def _core_only(f):
    if not isinstance(f, CORE):
        return False
    return all(_core_only(c) for c in children(f))


def test_expand_derived_examples():
    assert expand_derived(Know("a", Atom("p"))) == Common(Coalition.of("a"), Atom("p"))
    assert expand_derived(Everybody(Coalition.of("a", "b"), Atom("p"))) == And(
        Common(Coalition.of("a"), Atom("p")), Common(Coalition.of("b"), Atom("p"))
    )
    assert expand_derived(TOP) == TOP
    assert expand_derived(Everybody(Coalition(frozenset()), Atom("p"))) == TOP


def test_expand_derived_core_only():
    rng = random.Random(13)
    for _ in range(200):
        f = random_formula(rng, 5, ["p", "q"], ["a", "b"])
        assert _core_only(expand_derived(f))


def test_expand_derived_idempotent_on_core():
    rng = random.Random(3)
    for _ in range(50):
        f = expand_derived(random_formula(rng, 4, ["p"], ["a", "b"]))
        assert expand_derived(f) == f


def test_translate_pal_clauses():
    assert translate_pal(PalAnn(Atom("p"), Know("a", Atom("p")))) == AnnGlobal(
        Atom("p"), EVERYONE, Know("a", Atom("p"))
    )
    assert translate_pal(Atom("p")) == Atom("p")
    nested = PalAnn(PalAnn(Atom("p"), Atom("q")), Atom("r"))
    assert translate_pal(nested) == AnnGlobal(
        AnnGlobal(Atom("p"), EVERYONE, Atom("q")), EVERYONE, Atom("r")
    )


def test_translate_pal_identity_on_announcement_free():
    rng = random.Random(6)
    for _ in range(100):
        f = random_formula(rng, 4, ["p", "q"], ["a", "b"], fragment="epistemic")
        assert translate_pal(f) == f


def test_translate_pal_rejects_refinement_operators():
    with pytest.raises(NotPalFragment):
        translate_pal(AnnLocal(Atom("p"), Coalition.of("a"), Atom("q")))
    with pytest.raises(NotPalFragment):
        translate_pal(Not(DiaLocal(Atom("p"), Coalition.of("a"), Atom("q"))))


def test_derived_operators_parse():
    f = parse("Kw{a} p & M{b} q & D{a,b} r")
    assert f == And(
        And(KnowWhether("a", Atom("p")), Dual("b", Atom("q"))),
        Distributed(Coalition.of("a", "b"), Atom("r")),
    )


def test_depth_of_channel_distinguisher():
    assert depth(parse("[bit0]{r} K{e} Kw{r} bit0")) == 4


def _height(f):
    subs = children(f)
    return 1 + (max(_height(c) for c in subs) if subs else 0)


def test_stored_depth_is_the_height_of_the_tree():
    rng = random.Random(14)
    for _ in range(500):
        f = random_formula(rng, 7, ["p", "q"], ["a", "b", "c"])
        assert depth(f) == _height(f)
        for g in [dataclasses.replace(f), pickle.loads(pickle.dumps(f)), copy.copy(f),
                  copy.deepcopy(f)]:
            assert depth(g) == depth(f)
        if children(f):
            g = dataclasses.replace(f, **{syntax._SUBFORMULAS[type(f)][-1]: Not(f)})
            assert depth(g) == depth(f) + 2 == _height(g)
    # Loaded after its formulas are gone, a pickle builds every node afresh.
    data = pickle.dumps([random_formula(rng, 7, ["fresh"], ["d"]) for _ in range(20)])
    gc.collect()
    assert all(depth(g) == _height(g) for g in pickle.loads(data))


def test_structurally_equal_formulas_are_one_object():
    p, q = Atom("m_r"), Atom("m_g")
    f = AnnGlobal(And(p, Not(q)), EVERYONE, Know("r", p))
    routes = [
        # The parser slices names out of the text: equal strings, new objects.
        parse(print_formula(f)),
        dataclasses.replace(f),
        dataclasses.replace(f, sub=Know("r", Atom("m_r"))),
        syntax._rebuild(f, children(f)),
        translate_pal(PalAnn(And(Atom("m_r"), Not(Atom("m_g"))), Know("r", Atom("m_r")))),
        AnnGlobal(And(Atom("m_r"), Not(Atom("m_g"))), EVERYONE, Know("r", Atom("m_r"))),
        AnnGlobal(announced=And(p, Not(q)), sub=Know(agent="r", sub=p), coalition=EVERYONE),
    ]
    assert all(g is f for g in routes)

    derived = Iff(KnowWhether("r", q), Everybody(Coalition.of("r", "g"), p))
    assert expand_derived(derived) is expand_derived(derived)
    drawn = [random_formula(random.Random(9), 5, ["p", "q"], ["a", "b"]) for _ in range(2)]
    assert drawn[0] is drawn[1]

    for g in [f, expand_derived(derived), drawn[0], TOP]:
        assert pickle.loads(pickle.dumps(g)) is g
        assert copy.copy(g) is g
        assert copy.deepcopy(g) is g


def test_node_constructors_check_their_fields():
    for build in [lambda: Atom(), lambda: Atom("p", "q"), lambda: Not(body=TOP),
                  lambda: Not(TOP, sub=TOP), lambda: Know("a"), lambda: Not("p")]:
        with pytest.raises(TypeError):
            build()
    with pytest.raises(dataclasses.FrozenInstanceError):
        Atom("p").name = "q"


_P, _A = Atom("p"), Coalition.of("a")

# One node of every class, with its repr in the dataclass format.
NODE_REPRS = [
    (_P, "Atom(name='p')"),
    (TOP, "Top()"),
    (BOT, "Bot()"),
    (Not(_P), "Not(sub=Atom(name='p'))"),
    (And(_P, TOP), "And(left=Atom(name='p'), right=Top())"),
    (Or(_P, BOT), "Or(left=Atom(name='p'), right=Bot())"),
    (Implies(TOP, _P), "Implies(left=Top(), right=Atom(name='p'))"),
    (Iff(BOT, _P), "Iff(left=Bot(), right=Atom(name='p'))"),
    (Know("a", _P), "Know(agent='a', sub=Atom(name='p'))"),
    (KnowWhether("b", _P), "KnowWhether(agent='b', sub=Atom(name='p'))"),
    (Dual("a", TOP), "Dual(agent='a', sub=Top())"),
    (Common(_A, _P),
     "Common(coalition=Coalition(members=frozenset({'a'}), everyone=False), "
     "sub=Atom(name='p'))"),
    (Everybody(EVERYONE, _P),
     "Everybody(coalition=Coalition(members=frozenset(), everyone=True), "
     "sub=Atom(name='p'))"),
    (Distributed(Coalition.of(), _P),
     "Distributed(coalition=Coalition(members=frozenset(), everyone=False), "
     "sub=Atom(name='p'))"),
    (AnnLocal(_P, _A, TOP),
     "AnnLocal(announced=Atom(name='p'), coalition=Coalition(members=frozenset({'a'}), "
     "everyone=False), sub=Top())"),
    (AnnGlobal(TOP, EVERYONE, _P),
     "AnnGlobal(announced=Top(), coalition=Coalition(members=frozenset(), everyone=True), "
     "sub=Atom(name='p'))"),
    (DiaLocal(_P, _A, Know("a", _P)),
     "DiaLocal(announced=Atom(name='p'), coalition=Coalition(members=frozenset({'a'}), "
     "everyone=False), sub=Know(agent='a', sub=Atom(name='p')))"),
    (DiaGlobal(BOT, _A, _P),
     "DiaGlobal(announced=Bot(), coalition=Coalition(members=frozenset({'a'}), "
     "everyone=False), sub=Atom(name='p'))"),
    (PalAnn(_P, Not(_P)), "PalAnn(announced=Atom(name='p'), sub=Not(sub=Atom(name='p')))"),
]


def test_every_node_class_keeps_the_dataclass_contract():
    assert {type(node) for node, _ in NODE_REPRS} == set(Formula.__subclasses__())
    for node, text in NODE_REPRS:
        cls = type(node)
        assert repr(node) == text
        # A class without a docstring gets one that dataclass computes from
        # inspect.signature, which is most of the cost of creating the class.
        assert cls.__doc__ and not cls.__doc__.startswith(cls.__name__ + "(")
        assert dataclasses.is_dataclass(node) and dataclasses.is_dataclass(cls)
        names = tuple(field.name for field in dataclasses.fields(cls))
        assert text == f"{cls.__name__}(" + ", ".join(
            f"{name}={getattr(node, name)!r}" for name in names) + ")"
        assert dataclasses.replace(node) is node
        assert dataclasses.replace(node, **{n: getattr(node, n) for n in names}) is node
        if "sub" in names:
            assert dataclasses.replace(node, sub=BOT) is cls(
                *(BOT if n == "sub" else getattr(node, n) for n in names))
        for name in names + ("extra",):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(node, name, TOP)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(node, name)
        assert repr(node) == text and not hasattr(node, "extra")


def test_node_table_holds_only_live_formulas():
    gc.collect()
    before = len(syntax._NODES)
    rng = random.Random(11)
    for _ in range(10_000):
        random_formula(rng, 5, ["p", "q", "r"], ["a", "b", "c"])
    gc.collect()
    assert len(syntax._NODES) <= before + 10


def test_node_table_is_shared_across_threads():
    # In each round the threads drop their formulas together and build the
    # same ones again at once, while the main thread runs young-generation
    # collections, so dead entries are dropped while equal nodes are
    # published.  Each formula must be one object in every thread, and the
    # table must empty of them once they are gone.
    gc.collect()
    before = len(syntax._NODES)
    results = [None] * 4
    same = []
    step = threading.Barrier(len(results), timeout=60)

    def build(slot):
        for _ in range(3):
            results[slot] = None
            step.wait()
            rng = random.Random(29)
            results[slot] = [random_formula(rng, 5, ["p", "q", "r"], ["a", "b", "c"])
                             for _ in range(100)]
            step.wait()
            same.append(all(f is g for f, g in zip(results[0], results[slot], strict=True)))
            step.wait()

    threads = [threading.Thread(target=build, args=(slot,)) for slot in range(len(results))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        while any(thread.is_alive() for thread in threads):
            gc.collect(0)
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert same == [True] * 12
    del results
    gc.collect()
    assert len(syntax._NODES) == before


def test_a_late_callback_keeps_the_node_published_since():
    # A node's entry may be replaced by a new node's before the dead one's
    # callback runs; the callback drops only an entry whose node is dead.
    class Gone:
        pass

    node = Atom("late_callback")
    key = (Atom, "late_callback")
    gone = Gone()
    stale = syntax._Entry(gone, None)
    stale.key = key
    del gone
    assert stale() is None
    syntax._drop(stale)
    assert syntax._NODES[key]() is node
    live = syntax._NODES[key]
    syntax._NODES[key] = stale
    syntax._drop(stale)
    assert key not in syntax._NODES
    syntax._NODES[key] = live
    assert Atom("late_callback") is node
