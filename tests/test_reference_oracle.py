"""Differential test against a deliberately naive reference evaluator.

The reference below works on plain name sets, evaluates every derived
operator from its quantifier definition, and builds one refined model per
evaluated world straight from the case table, with no caching, bitmasks,
class sharing or interning.  Agreement with the engine on a fuzz corpus
checks both the satisfaction clauses and the engine's assumption that
refinements coincide across worlds with equal scope signatures.
"""

import random
from functools import reduce
from operator import or_

from glal import syntax as sx
from glal.bisim import _disjoint_union
from glal.fuzz import random_formula, random_model
from glal.model import KripkeModel
from glal.semantics import EvalContext, sat_set
from model_checks import class_names
from uncached_context import UncachedContext


def to_plain(model):
    nbr = {}
    for agent, part in zip(model.agents, model.cells):
        nbr[agent] = {}
        for cell in part:
            members = frozenset(class_names(model, cell))
            nbr[agent].update(dict.fromkeys(members, members))
    val = {atom: set(class_names(model, mask)) for atom, mask in model.valuation}
    return {"worlds": list(model.worlds), "nbr": nbr, "val": val}


def closure(m, coalition, w):
    reach = {w}
    frontier = [w]
    while frontier:
        u = frontier.pop()
        for a in coalition:
            for v in m["nbr"][a][u]:
                if v not in reach:
                    reach.add(v)
                    frontier.append(v)
    return reach


def refine(m, w, psi_set, coalition, scope_of):
    new_nbr = {a: dict(m["nbr"][a]) for a in m["nbr"]}
    for a in coalition:
        scope = scope_of(a)
        for v in m["worlds"]:
            if v in scope and v in psi_set:
                new_nbr[a][v] = m["nbr"][a][v] & psi_set
            elif v in scope and v not in psi_set:
                new_nbr[a][v] = m["nbr"][a][v] - psi_set
    return {"worlds": m["worlds"], "nbr": new_nbr, "val": m["val"]}


def restrict(m, keep):
    return {
        "worlds": [w for w in m["worlds"] if w in keep],
        "nbr": {a: {w: m["nbr"][a][w] & keep for w in m["worlds"] if w in keep}
                for a in m["nbr"]},
        "val": {p: ws & keep for p, ws in m["val"].items()},
    }


def ref_sat(m, f):
    worlds = set(m["worlds"])
    if isinstance(f, sx.Atom):
        return set(m["val"].get(f.name, set()))
    if isinstance(f, sx.Top):
        return set(worlds)
    if isinstance(f, sx.Bot):
        return set()
    if isinstance(f, sx.Not):
        return worlds - ref_sat(m, f.sub)
    if isinstance(f, sx.And):
        return ref_sat(m, f.left) & ref_sat(m, f.right)
    if isinstance(f, sx.Or):
        return ref_sat(m, f.left) | ref_sat(m, f.right)
    if isinstance(f, sx.Implies):
        return (worlds - ref_sat(m, f.left)) | ref_sat(m, f.right)
    if isinstance(f, sx.Iff):
        left, right = ref_sat(m, f.left), ref_sat(m, f.right)
        return (left & right) | (worlds - left - right)
    if isinstance(f, sx.Know):
        sub = ref_sat(m, f.sub)
        return {w for w in worlds if m["nbr"][f.agent][w] <= sub}
    if isinstance(f, sx.KnowWhether):
        sub = ref_sat(m, f.sub)
        return {w for w in worlds
                if m["nbr"][f.agent][w] <= sub or not (m["nbr"][f.agent][w] & sub)}
    if isinstance(f, sx.Dual):
        sub = ref_sat(m, f.sub)
        return {w for w in worlds if m["nbr"][f.agent][w] & sub}
    if isinstance(f, sx.Everybody):
        coalition = f.coalition.resolve(sorted(m["nbr"]))
        sub = ref_sat(m, f.sub)
        return {w for w in worlds if all(m["nbr"][a][w] <= sub for a in coalition)}
    if isinstance(f, sx.Common):
        coalition = f.coalition.resolve(sorted(m["nbr"]))
        sub = ref_sat(m, f.sub)
        return {w for w in worlds if closure(m, coalition, w) <= sub}
    if isinstance(f, sx.Distributed):
        coalition = f.coalition.resolve(sorted(m["nbr"]))
        sub = ref_sat(m, f.sub)
        out = set()
        for w in worlds:
            meet = {w} if not coalition else set.intersection(
                *(set(m["nbr"][a][w]) for a in coalition)
            )
            if meet <= sub:
                out.add(w)
        return out
    if isinstance(f, (sx.AnnLocal, sx.AnnGlobal, sx.DiaLocal, sx.DiaGlobal)):
        coalition = f.coalition.resolve(sorted(m["nbr"]))
        psi = ref_sat(m, f.announced)
        holds_after = set()
        for w in psi:
            if isinstance(f, (sx.AnnLocal, sx.DiaLocal)):
                refined = refine(m, w, psi, coalition, lambda a: m["nbr"][a][w])
            else:
                region = closure(m, coalition, w)
                refined = refine(m, w, psi, coalition, lambda a: region)
            if w in ref_sat(refined, f.sub):
                holds_after.add(w)
        if isinstance(f, (sx.DiaLocal, sx.DiaGlobal)):
            return holds_after
        return (worlds - psi) | holds_after
    if isinstance(f, sx.PalAnn):
        psi = ref_sat(m, f.announced)
        if not psi:
            return set(worlds)
        refined = restrict(m, psi)
        kept = ref_sat(refined, f.sub)
        return (worlds - psi) | (psi & kept)
    raise TypeError(f)


def test_engine_matches_reference_evaluator():
    rng = random.Random(20240)
    ctx = EvalContext()
    for trial in range(250):
        agents = ["a", "b", "c"][: rng.randint(1, 3)]
        model = random_model(rng, rng.randint(1, 5), agents, ["p", "q"])
        f = random_formula(rng, 4, ["p", "q"], agents)
        expected = ref_sat(to_plain(model), f)
        got = sat_set(model, f, context=ctx)
        assert got == expected, (trial, sx.print_formula(f), sorted(got), sorted(expected))


def test_engine_matches_reference_on_pal_fragment():
    rng = random.Random(515)
    ctx = EvalContext()
    for trial in range(120):
        model = random_model(rng, rng.randint(2, 4), ["a", "b"], ["p"])
        f = random_formula(rng, 4, ["p"], ["a", "b"], fragment="pal")
        assert sat_set(model, f, context=ctx) == ref_sat(to_plain(model), f), trial


def test_engine_matches_reference_deep_nesting():
    rng = random.Random(9090)
    for trial in range(40):
        model = random_model(rng, rng.randint(2, 4), ["a", "b"], ["p", "q"])
        f = random_formula(rng, 6, ["p", "q"], ["a", "b"])
        assert sat_set(model, f) == ref_sat(to_plain(model), f), trial


# Fuzzed formulas almost never tell a local announcement from a global one;
# nested knowledge of several members and common knowledge under a two-agent
# announcement often do, on models of three worlds or more.
SEPARATING_ANNOUNCED = ["p", "!p", "q", "p | q"]
SEPARATING_BODIES = ["K{a} K{b} q", "K{b} K{a} p", "K{a} C{a,b} q", "C{a,b} q",
                     "M{a} K{b} !q", "E{a,b} K{a} p"]


def _separating_corpus(rng, trials):
    """(model, local formula, global formula) triples of the corpus above."""
    for _ in range(trials):
        model = random_model(rng, rng.randint(3, 6), ["a", "b"], ["p", "q"])
        for psi in SEPARATING_ANNOUNCED:
            for body in SEPARATING_BODIES:
                for box in ("[{}]{}{{a,b}} {}", "<{}>{}{{a,b}} {}"):
                    local, glob = (sx.parse(box.format(psi, sign, body)) for sign in "-+")
                    yield model, local, glob


def test_engine_matches_reference_where_local_and_global_differ():
    rng = random.Random(7)
    ctx = EvalContext()
    differ = 0
    for trial, (model, local, glob) in enumerate(_separating_corpus(rng, 40)):
        plain = to_plain(model)
        expected = [ref_sat(plain, f) for f in (local, glob)]
        got = [sat_set(model, f, context=ctx) for f in (local, glob)]
        assert got == expected, (trial, sx.print_formula(local))
        differ += expected[0] != expected[1]
    assert differ >= 100


def test_partial_need_matches_reference_where_local_and_global_differ():
    # Asked for a random set of worlds only, the engine must agree with the
    # reference and with the uncached evaluator on every world asked for.
    rng = random.Random(8)
    ctx = EvalContext()
    for model, local, glob in _separating_corpus(rng, 20):
        model = ctx.intern(model)
        plain = to_plain(model)
        for f in (local, glob):
            need = rng.randint(1, model._full)
            got = ctx.mask(model, f, need) & need
            assert got == UncachedContext().mask(model, f, model._full) & need
            assert model.world_names(got) == ref_sat(plain, f) & model.world_names(need), (
                sx.print_formula(f))


# An announcement refines once per layer of groups, layer r holding the r-th
# group of each all-agents component (EvalContext._layers); two groups of
# one component must never share a layer.  In JOINED the {a,b}-components
# {x0,x1} and {y0,y1} are two groups of a global {a,b} announcement, joined
# into one all-agents component by agent c, and the bodies below read one
# of them through c from the other.  UncachedContext refines by the same
# layers, so it is no oracle for them; the naive ref_sat and evaluation of
# each block on its own are.
JOINED = KripkeModel.from_partitions(
    ["x0", "x1", "y0", "y1"], ["a", "b", "c"],
    {"a": [["x0", "x1"]], "b": [["y0", "y1"]], "c": [["x1", "y0"]]},
    {"p": ["x0", "y0"], "q": ["x1", "y1"]})
LAYER_ANNOUNCED = ["p", "!q", "p | q", "K{c} p", "M{a} q"]
LAYER_BODIES = ["M{c} K{b} q", "K{c} K{a} p", "M{c} C{a,b} q", "K{c} E{a,b} !p",
                "C{*} (p | q)", "M{c} D{a,b} p", "K{a} M{c} K{b} !q"]
LAYER_COALITIONS = [sx.Coalition.of("a", "b"), sx.EVERYONE, sx.Coalition.of("a", "c"),
                    sx.Coalition.of("b"), sx.Coalition.of()]


def _layer_corpus(rng, trials):
    """(blocks, their disjoint union, formulas): JOINED beside random models,
    under local and global announcements, boxes and diamonds."""
    for _ in range(trials):
        blocks = [JOINED] + [random_model(rng, rng.randint(1, 4), ["a", "b", "c"], ["p", "q"])
                             for _ in range(rng.randint(1, 3))]
        rng.shuffle(blocks)
        formulas = []
        for _ in range(8):
            psi = sx.parse(rng.choice(LAYER_ANNOUNCED))
            chi = rng.choice([sx.parse(rng.choice(LAYER_BODIES)),
                              random_formula(rng, 3, ["p", "q"], ["a", "b", "c"])])
            cls = rng.choice(sx.ANNOUNCE_OPS)
            formulas.append(cls(psi, rng.choice(LAYER_COALITIONS), chi))
        yield blocks, _disjoint_union(blocks), formulas


def test_layered_announcements_match_reference_and_each_block():
    rng = random.Random(2424)
    for blocks, union, formulas in _layer_corpus(rng, 40):
        plain = to_plain(union)
        ctx = EvalContext()
        for f in formulas:
            expected = ref_sat(plain, f)
            assert sat_set(union, f, context=ctx) == expected, sx.print_formula(f)
            for k, block in enumerate(blocks):
                prefix = f"{k}."
                alone = {prefix + w for w in sat_set(block, f)}
                assert alone == {w for w in expected if w.startswith(prefix)}, sx.print_formula(f)


def test_layered_announcements_match_reference_on_partial_need():
    # need masks of at least two worlds and not all of them, asked of a
    # fresh context, so that the announcement reads only some groups.
    rng = random.Random(2525)
    for _, union, formulas in _layer_corpus(rng, 40):
        plain = to_plain(union)
        for f in formulas:
            need = 0
            while bin(need).count("1") < 2 or need == union._full:
                need = rng.randint(1, union._full)
            got = EvalContext().mask(union, f, need) & need
            assert union.world_names(got) == ref_sat(plain, f) & union.world_names(need), (
                sx.print_formula(f))


def test_each_layer_refines_each_component_as_its_group_does():
    # Local, global and semi-private groups alike: the layers partition the
    # groups with at most one group of an all-agents component per layer,
    # a layer's refined model agrees with each of its groups' refined models
    # on every cell of that group's component, and the span is the union of
    # the groups' scopes.
    rng = random.Random(2626)
    for _, union, _ in _layer_corpus(rng, 30):
        ctx = EvalContext()
        union = ctx.intern(union)
        everyone = tuple(range(len(union.agents)))
        comps = union.components(everyone)
        for kind in ("local", "global", "semiprivate"):
            for members in ((0, 1), everyone, (2,)):
                hold = rng.randint(1, union._full)
                groups = ctx._groups(union, kind, members, hold)
                layers, span = ctx._layers(union, kind, members, hold)
                scopes = (scope for splits, _ in groups for _, scope in splits)
                assert span == reduce(or_, scopes, 0)
                per_comp = [sum(1 for _, worlds in groups if worlds & comp) for comp in comps]
                assert len(layers) == max(per_comp)
                psi = rng.randint(0, union._full)
                placed = 0
                for splits, worlds in layers:
                    refined = ctx.refined(union, splits, psi)
                    inside = [(g, w) for g, w in groups if w & worlds]
                    assert sum(w for _, w in inside) == worlds
                    for group, group_worlds in inside:
                        comp = next(c for c in comps if c & group_worlds)
                        assert not worlds & comp & ~group_worlds, (kind, members)
                        alone = ctx.refined(union, group, psi)
                        for k in everyone:
                            assert ([c for c in refined.cells[k] if c & comp]
                                    == [c for c in alone.cells[k] if c & comp]), (kind, members)
                    placed += len(inside)
                assert placed == len(groups)
