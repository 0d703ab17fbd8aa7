import gc
import hashlib
import json
import random
import tracemalloc
import weakref

import pytest

from glal.errors import EmptyResult, NotPalFragment, UnknownAgent
from glal.fuzz import FRAGMENTS, random_coalition, random_formula, random_model, random_pointed
from glal.model import KripkeModel, PointedModel
from glal.semantics import (
    EvalContext,
    check,
    check_pal_equiv,
    check_traced,
    refine_global,
    refine_local,
    refine_pal,
    refine_semiprivate,
    sat_set,
)
from glal.scenarios import at_least_one_muddy, bit_channel, muddy
from glal.syntax import (
    ANNOUNCE_OPS,
    EVERYONE,
    AnnGlobal,
    AnnLocal,
    Atom,
    BOT,
    Coalition,
    Common,
    Distributed,
    Implies,
    Know,
    TOP,
    expand_derived,
    parse,
    print_formula,
)
from model_checks import assert_canonical, assert_refines, class_of
from uncached_context import UncachedContext

ALPHA = "(m_r | m_g | m_b)"


def alpha3():
    return at_least_one_muddy(muddy(3))


def test_sat_set_common_of_tautology():
    m = muddy(3)
    assert sat_set(m, parse("C{r,g,b} true")) == set(m.worlds)


def test_sat_set_father_local_red_learns():
    m = muddy(3)
    holds = sat_set(m, parse(f"[{ALPHA}]-{{r,g,b}} K{{r}} m_r"))
    assert "100" in holds


def test_sat_set_local_common_only_vacuous():
    m = muddy(3)
    holds = sat_set(m, parse(f"[{ALPHA}]-{{r,g,b}} C{{r,g,b}} {ALPHA}"))
    assert holds == {"000"}


def test_refine_local_splits_only_red():
    m = muddy(3)
    refined = refine_local(m, "100", alpha3(), ["r", "g", "b"])
    assert refined.worlds == m.worlds
    assert refined.valuation == m.valuation
    assert class_of(refined, "r", "100") == {"100"}
    assert class_of(refined, "r", "000") == {"000"}
    # every other class of every agent is untouched
    for agent in m.agents:
        for w in m.worlds:
            if agent == "r" and w in ("100", "000"):
                continue
            assert class_of(refined, agent, w) == class_of(m, agent, w)


def test_refine_with_tautology_is_identity():
    m = muddy(2)
    assert refine_local(m, "10", TOP, ["r", "g"]) == m
    assert refine_global(m, "10", TOP, ["r", "g"]) == m


def test_refine_with_contradiction_is_identity():
    m = muddy(2)
    assert refine_global(m, "10", BOT, ["r", "g"]) == m


def test_refine_empty_coalition_is_identity():
    m = muddy(2)
    assert refine_local(m, "10", Atom("m_r"), []) == m
    assert refine_semiprivate(m, "10", Atom("m_r"), []) == m


def test_refine_global_pair_updates_both():
    m = muddy(3)
    refined = refine_global(m, "100", alpha3(), ["r", "b"])
    assert class_of(refined, "r", "100") == {"100"}
    assert class_of(refined, "b", "000") == {"000"}
    assert class_of(refined, "b", "001") == {"001"}
    # green untouched, and classes outside the r,b closure untouched
    for w in m.worlds:
        assert class_of(refined, "g", w) == class_of(m, "g", w)
    assert class_of(refined, "r", "110") == class_of(m, "r", "110")


def test_singleton_local_equals_global():
    rng = random.Random(31)
    ctx = EvalContext()
    for _ in range(40):
        m = random_model(rng, rng.randint(2, 5), ["a", "b"], ["p", "q"])
        w = rng.choice(m.worlds)
        psi = random_formula(rng, 3, ["p", "q"], ["a", "b"])
        a = rng.choice(m.agents)
        assert refine_local(m, w, psi, [a], context=ctx) == refine_global(
            m, w, psi, [a], context=ctx
        )


def test_refine_pal_restriction():
    m = muddy(3)
    restricted = refine_pal(m, alpha3())
    assert set(restricted.worlds) == set(m.worlds) - {"000"}
    assert refine_pal(m, TOP) == m
    single = refine_pal(m, parse("m_r & !m_g & !m_b"))
    assert single.worlds == ("100",)
    assert class_of(single, "r", "100") == {"100"}


def test_refine_pal_empty_result():
    with pytest.raises(EmptyResult):
        refine_pal(muddy(2), BOT)


def test_semiprivate_full_coalition_on_connected_equals_global():
    rng = random.Random(8)
    ctx = EvalContext()
    for _ in range(30):
        m = random_model(rng, rng.randint(2, 5), ["a", "b"], ["p"], connected=True)
        w = rng.choice(m.worlds)
        psi = random_formula(rng, 3, ["p"], ["a", "b"])
        assert refine_semiprivate(m, w, psi, m.agents, context=ctx) == refine_global(
            m, w, psi, m.agents, context=ctx
        )


def test_semiprivate_on_channel_matches_local():
    n = bit_channel("N")
    assert refine_semiprivate(n, "w1", Atom("bit0"), ["r"]) == refine_local(
        n, "w1", Atom("bit0"), ["r"]
    )


def test_semiprivate_wider_scope_than_local():
    np = bit_channel("Nprime")
    semi = refine_semiprivate(np, "w1", Atom("bit0"), ["r"])
    loc = refine_local(np, "w1", Atom("bit0"), ["r"])
    # local splits only the receiver's class of w1; the semi-private update
    # reaches the other copy through the all-agent closure
    assert class_of(loc, "r", "v1") == {"v1", "v2"}
    assert class_of(semi, "r", "v1") == {"v1"}


def test_refinements_only_remove_pairs_and_stay_valid():
    rng = random.Random(77)
    ctx = EvalContext()
    for _ in range(150):
        m = random_model(rng, rng.randint(2, 5), ["a", "b", "c"][: rng.randint(1, 3)],
                         ["p", "q"])
        w = rng.choice(m.worlds)
        psi = random_formula(rng, 3, ["p", "q"], m.agents)
        co = random_coalition(rng, m.agents, allow_empty=True)
        for refine in (refine_local, refine_global, refine_semiprivate):
            refined = refine(m, w, psi, co, context=ctx)
            assert_canonical(refined)
            assert_refines(refined, m)
            assert refined.valuation == m.valuation


def test_check_example1_global_booleans():
    p = PointedModel(muddy(3), "100")
    assert check(p, parse(f"[{ALPHA}]+{{r,b}} C{{r,b}} {ALPHA}"))
    assert not check(p, parse(f"[{ALPHA}]+{{r,b}} C{{r,g,b}} {ALPHA}"))
    assert check(p, parse(f"[{ALPHA}]-{{r,g,b}} M{{b}} M{{r}} M{{b}} !{ALPHA}"))


def test_check_unknown_agent():
    with pytest.raises(UnknownAgent):
        check(PointedModel(muddy(2), "10"), parse("K{z} m_r"))


def test_each_coalition_is_resolved_once_per_agent_set(monkeypatch):
    from glal import semantics

    resolved = []
    resolve = semantics.coalition_names
    monkeypatch.setattr(semantics, "coalition_names",
                        lambda m, c: resolved.append(c) or resolve(m, c))
    ctx = EvalContext()
    f = parse(f"[{ALPHA}]+{{r,g,b}} C{{r,g}} E{{r,g}} (D{{r,g}} m_r | [!m_b]-{{*}} E{{*}} m_g)")
    m = muddy(3)
    assert sat_set(m, f, context=ctx) == sat_set(m, f, context=UncachedContext())
    coalitions = [Coalition.of("r", "g", "b"), Coalition.of("r", "g"), EVERYONE]
    assert sorted(resolved, key=str) == sorted(coalitions, key=str)
    resolved.clear()
    sat_set(muddy(2), parse("E{r,g} m_r & [m_r]-{*} C{r,g} m_g"), context=ctx)
    assert sorted(resolved, key=str) == sorted(coalitions[1:], key=str)
    # A coalition with an unknown member is not memoized: it raises each time.
    bad = parse("m_r -> C{r,z} m_g")
    for _ in range(2):
        with pytest.raises(UnknownAgent):
            check(PointedModel(m, "100"), bad, context=ctx)


def test_empty_coalition_announcement_reduces_to_implication():
    rng = random.Random(12)
    ctx = EvalContext()
    for _ in range(40):
        m = random_model(rng, 4, ["a"], ["p", "q"])
        psi = random_formula(rng, 3, ["p", "q"], ["a"])
        chi = random_formula(rng, 3, ["p", "q"], ["a"])
        empty = Coalition(frozenset())
        for cls in (AnnLocal, AnnGlobal):
            assert sat_set(m, cls(psi, empty, chi), context=ctx) == sat_set(
                m, Implies(psi, chi), context=ctx
            )


def test_distributed_knowledge_semantics():
    rng = random.Random(40)
    ctx = EvalContext()
    for _ in range(30):
        m = random_model(rng, 4, ["a", "b"], ["p"])
        phi = random_formula(rng, 3, ["p"], ["a", "b"])
        # empty coalition: identity intersection
        assert sat_set(m, Distributed(Coalition(frozenset()), phi), context=ctx) == sat_set(
            m, phi, context=ctx
        )
        # singleton: same as individual knowledge
        assert sat_set(m, Distributed(Coalition.of("a"), phi), context=ctx) == sat_set(
            m, Know("a", phi), context=ctx
        )
        # wider coalitions know at least as much
        small = sat_set(m, Distributed(Coalition.of("a"), phi), context=ctx)
        big = sat_set(m, Distributed(Coalition.of("a", "b"), phi), context=ctx)
        assert small <= big


def test_expand_derived_preserves_evaluation():
    rng = random.Random(50)
    ctx = EvalContext()
    for _ in range(120):
        m = random_model(rng, rng.randint(2, 4), ["a", "b"], ["p", "q"])
        f = random_formula(rng, 4, ["p", "q"], ["a", "b"])
        assert sat_set(m, f, context=ctx) == sat_set(m, expand_derived(f), context=ctx)


def test_pal_equivalence_examples():
    p = PointedModel(muddy(3), "110")
    assert check_pal_equiv(p, parse(f"[{ALPHA}] E{{r,g,b}} {ALPHA}")) == (True, True)
    # announcement false at the point holds vacuously on both routes
    vac = parse("[m_r & !m_r] false")
    assert check_pal_equiv(p, vac) == (True, True)


def test_pal_equivalence_fuzz():
    rng = random.Random(60)
    ctx = EvalContext()
    for _ in range(120):
        m = random_model(rng, rng.randint(2, 5), ["a", "b"], ["p", "q"], connected=True)
        f = random_formula(rng, 4, ["p", "q"], ["a", "b"], fragment="pal")
        p = random_pointed(rng, m)
        native, translated = check_pal_equiv(p, f, context=ctx)
        assert native == translated


def test_pal_equiv_rejects_refinement_formulas():
    with pytest.raises(NotPalFragment):
        check_pal_equiv(PointedModel(muddy(2), "10"),
                        parse("[m_r]-{r} m_r"))


def test_expand_derived_preserves_meaning():
    rng = random.Random(4242)
    for i in range(320):
        agents = ["a", "b", "c"][: rng.randint(1, 3)]
        m = random_model(rng, rng.randint(1, 4), agents, ["p", "q"])
        f = random_formula(rng, 4, ["p", "q"], agents, FRAGMENTS[i % 4])
        assert sat_set(m, expand_derived(f)) == sat_set(m, f), str(f)
    # Fuzzed pairs do not tell local from global announcements; these do.
    cube = muddy(3)
    for text in (f"<{ALPHA}>-{{r,g,b}} !C{{r,g,b}} {ALPHA}", f"[{ALPHA}] C{{r,g,b}} {ALPHA}"):
        f = parse(text)
        assert sat_set(cube, expand_derived(f)) == sat_set(cube, f), text


def test_cache_equals_no_cache():
    rng = random.Random(70)
    for _ in range(40):
        m = random_model(rng, rng.randint(2, 4), ["a", "b"], ["p", "q"])
        f = random_formula(rng, 4, ["p", "q"], ["a", "b"])
        cached = sat_set(m, f, context=EvalContext())
        plain = sat_set(m, f, context=UncachedContext())
        assert cached == plain


def test_shared_context_never_answers_for_a_dead_model():
    # None of these models is interned, so each dies after its call and a
    # later model may be allocated at its address.
    rng = random.Random(0)
    shared = EvalContext()
    for _ in range(3000):
        m = random_model(rng, rng.randint(1, 4), ["a", "b"], ["p", "q"])
        f = random_formula(rng, 3, ["p", "q"], ["a", "b"])
        assert shared.mask(m, f, m._full) == UncachedContext().mask(m, f, m._full)


def test_calls_on_a_long_lived_model_retain_nothing():
    # Each check() makes its own context; what it derived must go with it
    # and not accumulate on the model the caller keeps.
    rng = random.Random(0)
    m = muddy(4)
    agents, atoms = list(m.agents), list(m.atom_names())
    check(PointedModel(m, m.worlds[0]), parse("m_r"))  # build the lazy index views
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for _ in range(200):
            f = random_formula(rng, 4, atoms, agents)
            check(PointedModel(m, rng.choice(m.worlds)), f)
        del f
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert retained < 64 * 1024


def test_memo_makes_no_reference_cycles():
    # The announcement holds everywhere, so its refinement splits nothing and
    # is the model itself, which the context's memo then holds under that
    # model.  With the cyclic collector off, the model must die with its last
    # reference.
    f = parse("[m_r | !m_r]-{r} (K{g} m_r | !K{g} m_r)")
    gc.disable()
    try:
        m = muddy(3)
        ctx = EvalContext()
        assert check(PointedModel(m, "100"), f, context=ctx)
        dead = weakref.ref(m)
        del m, ctx
        assert dead() is None
    finally:
        gc.enable()


def test_trace_records_nested_refinements():
    m = muddy(3)
    p = PointedModel(m, "100")
    f = parse(f"[{ALPHA}]-{{r,g,b}} [m_r]-{{g}} K{{g}} m_r")
    result, trace = check_traced(p, f)
    assert result is True
    assert trace.result is True
    assert len(trace.steps) == 1
    outer = trace.steps[0]
    assert outer.key.kind == "local"
    assert outer.key.coalition == ("b", "g", "r")
    assert len(outer.children) == 1
    inner = outer.children[0]
    assert inner.key.coalition == ("g",)
    obj = trace.to_obj()
    assert obj["root"]["point"] == "100"
    step = obj["steps"][0]
    assert set(step["key"]) == {"kind", "coalition", "announced", "scope"}
    assert step["model"]["worlds"] == list(m.worlds)
    assert step["children"][0]["children"] == []


def test_trace_skips_untruthful_announcement():
    p = PointedModel(muddy(3), "000")
    _, trace = check_traced(p, parse(f"[{ALPHA}]-{{r,g,b}} K{{r}} m_r"))
    assert trace.result is True  # vacuously
    assert trace.steps == ()


def test_commute_law_counterexample_pinned():
    # The coalition form of the commute law fails: refining at a neighbour
    # touches different classes than refining at the point.
    m = KripkeModel.from_partitions(
        ["u0", "u1", "u2", "u3", "u4"],
        ["a", "b"],
        {"a": [["u0", "u1", "u3"], ["u2"], ["u4"]],
         "b": [["u0", "u1", "u2"], ["u3"], ["u4"]]},
        {"q": ["u1", "u3", "u4"]},
    )
    phi = Atom("q")
    psi = parse("C{a,b} q")
    co = Coalition.of("a", "b")
    p = PointedModel(m, "u1")
    lhs = AnnLocal(phi, co, parse("E{a,b} (C{a,b} q)"))
    rhs = Implies(phi, parse("E{a,b} ([q]-{a,b} C{a,b} q)"))
    assert check(p, lhs) is True
    assert check(p, rhs) is False


def test_global_commute_counterexample_pinned():
    # phi-worlds connected only through a !phi-world become unreachable in
    # the refined model, so the global commute law fails for coalitions.
    m = KripkeModel.from_partitions(
        ["v", "w", "x"],
        ["a", "b"],
        {"a": [["w", "x"], ["v"]], "b": [["x", "v"], ["w"]]},
        {"p": ["w", "v"], "q": ["w", "x"]},
    )
    co = Coalition.of("a", "b")
    p = PointedModel(m, "w")
    lhs = AnnGlobal(Atom("p"), co, Common(co, Atom("q")))
    rhs = Implies(Atom("p"), Common(co, AnnGlobal(Atom("p"), co, Atom("q"))))
    assert check(p, lhs) is True
    assert check(p, rhs) is False


def test_distributed_separation_formula_values():
    # The joint-knowledge separation needs "knowing the value"; the plain
    # form fails on both channel models because the eavesdropper always
    # considers a world possible where the bit is 1.
    pn = PointedModel(bit_channel("N"), "w1")
    pq = PointedModel(bit_channel("Nprime"), "w1")
    literal = parse("[bit0]{r} K{e} D{r,e} bit0")
    assert check(pn, literal) is False
    assert check(pq, literal) is False
    value_form = parse("[bit0]{r} K{e} (D{r,e} bit0 | D{r,e} !bit0)")
    assert check(pn, value_form) is True
    assert check(pq, value_form) is False


# The digest of every ``check_traced`` JSON over the corpus below.  It pins the
# trace output across refactors of the refinement layer; change it only with a
# deliberate, documented change of that output.
TRACE_CORPUS_SHA256 = "6b8715c34137d6c7481e9efc48de95bbc86fb1a7d2265aee9d21434c3a1feac6"


def _trace_corpus():
    rng = random.Random(4711)
    m3, n, nprime = muddy(3), bit_channel("N"), bit_channel("Nprime")
    fixed = [
        (m3, "100", f"[{ALPHA}]-{{r,g,b}} [m_r]+{{g}} K{{g}} m_r"),
        (m3, "110", f"[{ALPHA}]+{{r,g,b}} <!K{{r}} m_r>-{{}} (C{{r,g}} {ALPHA} & [m_g]+{{}} K{{g}} m_g)"),
        (m3, "111", f"[{ALPHA}] [m_r]-{{r}} [!m_b]+{{}} (m_r & <m_g>+{{r,b}} E{{r,b}} m_g)"),
        (n, "w1", "[bit0]-{s,r} K{r} bit0"),
        (nprime, "v1", "[bit0]+{s,r} (K{r} bit0 & [!bit0]-{e} K{e} bit0)"),
        (nprime, "w2", "[!bit0] <bit0 | !bit0>-{} [true]+{s,r,e} !K{e} bit0"),
    ]
    for m, point, text in fixed:
        yield PointedModel(m, point), parse(text)
    models = [m3, n, nprime]
    for _ in range(12):
        agents = ["a", "b", "c"][: rng.randint(1, 3)]
        models.append(random_model(rng, rng.randint(1, 5), agents, ["p", "q"]))
    for m in models:
        atoms, agents = list(m.atom_names()), list(m.agents)
        for fragment in FRAGMENTS:
            for _ in range(25):
                yield random_pointed(rng, m), random_formula(rng, 5, atoms, agents, fragment)


def test_trace_output_is_pinned():
    digest = hashlib.sha256()
    seen = set()  # (kind, coalition is empty) of every step

    def walk(step):
        seen.add((step.key.kind, not step.key.coalition))
        for child in step.children:
            walk(child)

    for pointed, f in _trace_corpus():
        _, trace = check_traced(pointed, f)
        for step in trace.steps:
            walk(step)
        digest.update(json.dumps(trace.to_obj(), sort_keys=True).encode() + b"\n")
    assert {("local", True), ("global", True), ("local", False), ("global", False),
            ("pal", True)} <= seen
    assert digest.hexdigest() == TRACE_CORPUS_SHA256


def test_announcements_with_equal_extensions_share_refinements(monkeypatch):
    from glal import semantics

    built = []
    split = semantics._split_model
    monkeypatch.setattr(semantics, "_split_model", lambda *a: built.append(a) or split(*a))
    ctx = EvalContext()
    m = random_model(random.Random(3), 5, ["a", "b"], ["p", "q"])
    first = sat_set(m, parse("[p]-{a,b} K{a} q"), context=ctx)
    assert built
    built.clear()
    assert sat_set(m, parse("[!!p]-{a,b} K{a} q"), context=ctx) == first
    assert built == []


def test_announcement_on_copies_refines_once_per_layer(monkeypatch):
    # Each copy of muddy(3) is an all-agents component, and the r-th group
    # of every copy shares one refined model: k copies take as many
    # refinements as one.
    from glal import semantics
    from glal.bisim import _disjoint_union

    built = []
    split = semantics._split_model
    monkeypatch.setattr(semantics, "_split_model", lambda *a: built.append(a) or split(*a))
    m = muddy(3)
    f = parse("[m_r | m_g]-{r,g,b} (K{r} m_r | M{g} !m_b)")
    one = sat_set(m, f)
    groups = len(built)
    assert groups > 1
    for k in (2, 3, 5):
        built.clear()
        assert sat_set(_disjoint_union([m] * k), f) == {
            f"{i}.{w}" for i in range(k) for w in one}
        assert len(built) == groups, k


def test_channel_search_builds_few_refined_models(monkeypatch):
    # 417 refined unions when each group of announced worlds was refined on
    # its own; refining a layer of groups at once leaves 113.
    from glal import semantics
    from glal.bisim import distinguishing_formula_search

    built = []
    split = semantics._split_model
    monkeypatch.setattr(semantics, "_split_model", lambda *a: built.append(a) or split(*a))
    p = PointedModel(bit_channel("N"), "w1")
    q = PointedModel(bit_channel("Nprime"), "w1")
    f = distinguishing_formula_search(p, q, 4)
    assert print_formula(f) == "[bit0]-{e,r} (C{e,r} (bit0))"
    assert len(built) <= 150


def test_bodies_under_one_announcement_agree_with_uncached_evaluation():
    # One announced formula and coalition carry several bodies, so the
    # refinement plan made for the first body serves the others, in whole
    # satisfaction sets and in pointed checks at every world.
    rng = random.Random(22)
    for _ in range(40):
        agents = ["a", "b", "c"][: rng.randint(1, 3)]
        m = random_model(rng, rng.randint(1, 6), agents, ["p", "q"])
        psi = random_formula(rng, 3, ["p", "q"], agents)
        bodies = [random_formula(rng, 3, ["p", "q"], agents) for _ in range(4)]
        coalitions = [Coalition.of(), EVERYONE, random_coalition(rng, agents)]
        formulas = [cls(psi, co, chi) for cls in ANNOUNCE_OPS for co in coalitions for chi in bodies]
        expected = [UncachedContext().mask(m, f, m._full) for f in formulas]
        whole = EvalContext()
        assert [whole.mask(m, f, m._full) for f in formulas] == expected
        pointed = EvalContext()
        for i, w in enumerate(m.worlds):
            got = [check(PointedModel(m, w), f, context=pointed) for f in formulas]
            assert got == [bool(sat >> i & 1) for sat in expected]


def test_announcement_groups_are_found_once_whatever_the_bodies(monkeypatch):
    calls = []
    groups = EvalContext._groups
    monkeypatch.setattr(EvalContext, "_groups",
                        lambda self, *args: calls.append(args) or groups(self, *args))
    m = muddy(4)
    psi = parse("m_r | m_g")
    bodies = [parse(text) for text in (
        "K{g} m_r", "C{r,g} m_b", "E{*} !m_c4", "D{r,b} m_g", "M{b} m_r", "m_r")]
    for cls in ANNOUNCE_OPS:
        for co in (Coalition.of(), Coalition.of("r", "g"), EVERYONE):
            ctx = EvalContext()
            for k, chi in enumerate(bodies):
                for w in m.worlds:
                    check(PointedModel(m, w), cls(psi, co, chi), context=ctx)
                sat_set(m, cls(psi, co, chi), context=ctx)
                if not k:
                    first = list(calls)
            # Once per (model, kind, positions, announced worlds asked for).
            assert calls == first and len(set(calls)) == len(calls) > 1
            calls.clear()


def test_tree_refine_and_check_share_the_groups_of_a_point(monkeypatch):
    # check_traced, refine_* and check at one point read the same memoized
    # layers: each (kind, positions, announced worlds) is grouped once.
    calls = []
    groups = EvalContext._groups
    monkeypatch.setattr(EvalContext, "_groups",
                        lambda self, *args: calls.append(args) or groups(self, *args))
    m = muddy(3)
    psi = parse("m_r | m_g")
    point = PointedModel(m, "110")
    hold = 1 << m.world_index("110")
    for cls, refine, kind in ((AnnLocal, refine_local, "local"),
                              (AnnGlobal, refine_global, "global")):
        calls.clear()
        f = cls(psi, Coalition.of("r", "g"), parse("K{r} m_r"))
        ctx = EvalContext()
        result, _ = check_traced(point, f, context=ctx)
        refined = refine(m, "110", psi, ("r", "g"), context=ctx)
        assert check(point, f, context=ctx) == result
        positions = (m.agent_position("g"), m.agent_position("r"))
        assert [args for args in calls if args[1:] == (kind, positions, hold)]
        assert len(set(calls)) == len(calls), kind
        assert refined is ctx.intern(refine(m, "110", psi, ("r", "g")))


def _random_need(rng, model):
    return rng.randint(1, model._full)


def test_partial_need_agrees_with_uncached_evaluation():
    # A shared context answers requests for random worlds; every bit asked
    # for must match the reference, which evaluates everything everywhere.
    rng = random.Random(1212)
    shared = EvalContext()
    for i in range(400):
        agents = ["a", "b", "c"][: rng.randint(1, 3)]
        m = shared.intern(random_model(rng, rng.randint(1, 6), agents, ["p", "q"]))
        f = random_formula(rng, 4, ["p", "q"], agents, FRAGMENTS[i % len(FRAGMENTS)])
        expected = UncachedContext().mask(m, f, m._full)
        for _ in range(3):
            need = _random_need(rng, m)
            assert shared.mask(m, f, need) & need == expected & need, str(f)
        fresh = EvalContext()
        need = _random_need(rng, m)
        assert fresh.mask(m, f, need) & need == expected & need, str(f)


def test_partial_full_partial_requests_agree():
    m = muddy(4)
    point = 1 << m.world_index("1100")
    formulas = [
        parse("[m_r | m_g | m_b | m_c4]-{*} [!Kw{r} m_r & !Kw{g} m_g]-{r,g} K{r} m_r"),
        parse("<m_r>+{r,g} C{r,g} m_r | [!m_g]-{b} D{r,b} !m_g"),
        parse("E{r,g} [m_r | m_b]-{g} M{g} !m_r"),
        parse("[m_r] (K{g} m_r | [m_g]-{b,c4} Kw{b} m_g)"),
    ]
    rng = random.Random(5)
    atoms, agents = list(m.atom_names()), list(m.agents)
    formulas += [random_formula(rng, 5, atoms, agents) for _ in range(30)]
    for f in formulas:
        ctx = EvalContext()
        expected = UncachedContext().mask(m, f, m._full)
        assert ctx.mask(m, f, point) & point == expected & point, str(f)
        assert ctx.mask(m, f, m._full) == expected, str(f)
        other = _random_need(rng, m)
        assert ctx.mask(m, f, other) & other == expected & other, str(f)


def test_pointed_local_check_refines_only_along_its_path(monkeypatch):
    # Three nested local announcements at a point refine the model at most
    # once each; evaluating whole satisfaction sets took 3,244 splits a check.
    from glal import semantics

    m = muddy(6)
    defs = {
        "alpha": parse(" | ".join(f"m_{a}" for a in m.agents)),
        "ign": parse(" & ".join(f"!Kw{{{a}}} m_{a}" for a in m.agents)),
        "resolved": parse(" & ".join(f"(m_{a} -> Kw{{{a}}} m_{a})" for a in m.agents)),
    }
    f = parse("[alpha]-{*} [ign]-{*} [ign]-{*} resolved", defs)
    expected = sat_set(m, f, context=UncachedContext())
    built = []
    split = semantics._split_model
    monkeypatch.setattr(semantics, "_split_model", lambda *a: built.append(a) or split(*a))
    for w in m.worlds:
        built.clear()
        assert check(PointedModel(m, w), f) == (w in expected)
        assert len(built) <= 3, (w, len(built))


def test_every_formula_class_has_a_clause():
    from glal.semantics import _CLAUSES
    from glal.syntax import Formula

    assert set(Formula.__subclasses__()) <= set(_CLAUSES)
    m = muddy(2)
    for bad in ("m_r", object(), 3):
        with pytest.raises(TypeError):
            EvalContext().mask(m, bad, m._full)
