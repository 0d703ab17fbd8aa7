import dataclasses
import functools
import itertools
import random
import time
from unittest import mock

import pytest

import bisim_reference as reference
from glal import bisim as glal_bisim
from glal.bisim import (
    KINDS,
    _disjoint_union,
    _refinement_probes,
    distinguishing_formula_search,
    max_bisim,
    pointed_bisim,
    verify_bisim,
)
from glal.fuzz import duplicate_worlds, random_formula, random_model, random_partition
from glal.model import KripkeModel, PointedModel
from glal.semantics import EvalContext, check, refine_global, refine_local
from glal.scenarios import bit_channel, muddy
from glal.syntax import (
    AGENT_OPS, ANNOUNCE_OPS, COALITION_OPS, EVERYONE, And, AnnGlobal, AnnLocal, Atom, Coalition,
    Not, PalAnn, _rebuild, children, depth, print_formula,
)


def channel_points():
    n = bit_channel("N")
    np = bit_channel("Nprime")
    return PointedModel(n, "w1"), PointedModel(np, "w1")


def test_modal_bisim_channel():
    n, np = bit_channel("N"), bit_channel("Nprime")
    relation = max_bisim(n, np, "modal")
    assert relation == frozenset(
        {("w1", "v1"), ("w1", "w1"), ("w2", "v2"), ("w2", "w2")}
    )


def test_plusminus_separates_channel():
    n, np = bit_channel("N"), bit_channel("Nprime")
    assert max_bisim(n, np, "plusminus") == frozenset()
    result = pointed_bisim(*channel_points(), "plusminus")
    assert not result.related
    assert result.fail_reason.condition in ("Forth", "Back", "Reach")


def test_collective_relates_channel():
    result = pointed_bisim(*channel_points(), "collective", total=True)
    assert result.related
    assert verify_bisim(bit_channel("N"), bit_channel("Nprime"),
                        result.witness, "collective") == []


def test_self_bisim_contains_identity():
    rng = random.Random(3)
    for _ in range(15):
        m = random_model(rng, rng.randint(2, 5), ["a", "b"], ["p"])
        for kind in ("modal", "plusminus", "collective"):
            relation = max_bisim(m, m, kind)
            assert {(w, w) for w in m.worlds} <= relation


def test_witnesses_verify():
    n, np = bit_channel("N"), bit_channel("Nprime")
    for kind in ("modal", "collective"):
        relation = max_bisim(n, np, kind)
        assert verify_bisim(n, np, relation, kind) == []
    rng = random.Random(9)
    for _ in range(20):
        m = random_model(rng, 4, ["a", "b"], ["p"])
        ext, _ = duplicate_worlds(rng, m, copies=1)
        res = pointed_bisim(PointedModel(m, m.worlds[0]),
                            PointedModel(ext, m.worlds[0]), "plusminus")
        assert res.related
        assert verify_bisim(m, ext, res.witness, "plusminus") == []


def test_plusminus_implies_modal_and_collective():
    rng = random.Random(14)
    for _ in range(25):
        m = random_model(rng, rng.randint(2, 4), ["a", "b"], ["p"])
        ext, twins = duplicate_worlds(rng, m, copies=1)
        modal = max_bisim(m, ext, "modal")
        coll = max_bisim(m, ext, "collective")
        for w in m.worlds:
            res = pointed_bisim(PointedModel(m, w), PointedModel(ext, w), "plusminus")
            if res.related:
                assert (w, w) in modal and (w, w) in coll
                assert res.witness <= modal
                assert res.witness <= coll


def fuzzed_pairs(rng, count):
    """Twin extensions, alternating with unrelated models whose agent and
    atom sets may differ from the left model's."""
    for i in range(count):
        agents = rng.choice([["a"], ["a", "b"], ["a", "b", "c"]])
        left = random_model(rng, rng.randint(1, 4), agents, rng.choice([["p"], ["p", "q"]]))
        if i % 2:
            yield left, duplicate_worlds(rng, left, copies=rng.randint(1, 2))[0]
        else:
            agents = rng.choice([["a"], ["a", "b"], ["b", "c"]])
            yield left, random_model(rng, rng.randint(1, 4), agents, rng.choice([["p"], ["q"], []]))


def cycle_and_triangles(n):
    """An n-cycle of a-, b- and c-links against n/3 triangles of them.

    Every world looks alike locally, so the Forth/Back fixpoint keeps each
    cycle world paired with its counterparts in every triangle; but an
    exact-profile bisimulation would be an isomorphism, so Reach fails.
    """
    width = len(str(n - 1))
    cycle = [f"h{i:0{width}}" for i in range(n)]
    triangles = [[f"t{j:0{width}}.{i}" for i in range(3)] for j in range(n // 3)]
    agents = ["a", "b", "c"]
    return (
        KripkeModel.from_partitions(cycle, agents, {
            a: [[cycle[i], cycle[(i + 1) % n]] for i in range(k, n, 3)]
            for k, a in enumerate(agents)}),
        KripkeModel.from_partitions(sum(triangles, []), agents, {
            a: [[t[k], t[(k + 1) % 3]] for t in triangles] for k, a in enumerate(agents)}),
    )


def assert_matches_reference(left, right, rng, outcomes=None, relations=3, points=None):
    """The engine and the name-based reference agree on ``max_bisim``, on
    ``pointed_bisim`` at each point pair of ``points`` (default: all) with
    and without ``total``, and on ``verify_bisim`` of each witness and of
    random relations.  The reference's per-model tables are built once."""
    pairs = [(w, w2) for w in left.worlds for w2 in right.worlds]
    tables = functools.lru_cache(maxsize=None)(reference._Side)
    with mock.patch.object(reference, "_Side", tables):
        for kind in KINDS:
            assert max_bisim(left, right, kind) == reference.max_bisim(left, right, kind)
            for w, w2 in pairs if points is None else points:
                p, q = PointedModel(left, w), PointedModel(right, w2)
                for total in (False, True):
                    got = pointed_bisim(p, q, kind, total)
                    assert got.to_obj() == reference.pointed_bisim(p, q, kind, total).to_obj()
                    if got.related:
                        assert verify_bisim(left, right, got.witness, kind) == []
                    if outcomes is not None:
                        outcomes.add(got.fail_reason.condition if got.fail_reason else kind)
            for _ in range(relations):
                relation = rng.sample(pairs, rng.randint(0, len(pairs)))
                assert verify_bisim(left, right, relation, kind) == reference.verify_bisim(
                    left, right, relation, kind)


def test_engine_matches_name_based_reference():
    rng = random.Random(2024)
    outcomes = set()
    for left, right in [cycle_and_triangles(6), *fuzzed_pairs(rng, 50)]:
        assert_matches_reference(left, right, rng, outcomes)
    assert outcomes == {"Atoms", "Forth", "Back", "Reach"} | set(KINDS)


@pytest.mark.parametrize("n", [3, 4])
def test_engine_matches_reference_on_muddy_twins(n):
    # The shape of the benchmark's twin queries, at sizes the reference
    # can check at every point pair.
    rng = random.Random(n)
    model = muddy(n)
    twins, _ = duplicate_worlds(rng, model, copies=2)
    assert_matches_reference(model, twins, rng, relations=1)


@pytest.mark.parametrize("n", [12, 18])
def test_engine_matches_reference_on_cycles_against_triangles(n):
    # Cycle worlds are alike up to rotation, so a sample of point pairs
    # stands for all of them.
    rng = random.Random(n)
    left, right = cycle_and_triangles(n)
    points = [(w, w2) for w in left.worlds[:4] for w2 in right.worlds[:4]]
    assert_matches_reference(left, right, rng, relations=1, points=points)
    result = pointed_bisim(PointedModel(left, left.worlds[0]),
                           PointedModel(right, right.worlds[0]), "plusminus")
    assert result.fail_reason.condition == "Reach"


def test_engine_matches_reference_when_agent_sets_differ():
    # An agent that one model lacks links nothing there: a move by it, or
    # by a profile that holds it, has no target on that side.
    rng = random.Random(5)
    model = muddy(3)
    twins, _ = duplicate_worlds(rng, model, copies=1)
    dropped = KripkeModel(model.worlds, model.agents[1:], model.cells[1:], model.valuation)
    added = KripkeModel(twins.worlds, twins.agents + ("z",), twins.cells + ((twins._full,),),
                        twins.valuation)
    outcomes = set()
    for left, right in ((model, dropped), (dropped, twins), (twins, added), (added, dropped)):
        assert_matches_reference(left, right, rng, outcomes, relations=2)
    assert {"Forth", "Back"} <= outcomes
    coll = pointed_bisim(PointedModel(model, "111"), PointedModel(dropped, "111"), "collective")
    assert coll.fail_reason.to_obj() == {
        "pair": ["111", "111"], "condition": "Forth", "detail": ["011", ("r",)]}


def test_total_flag_detects_unmatched_world():
    left = KripkeModel.from_partitions(["w"], ["a"], {}, {"p": ["w"]})
    right = KripkeModel.from_partitions(
        ["w", "x"], ["a"], {"a": [["w"], ["x"]]}, {"p": ["w"], "q": ["x"]}
    )
    pointwise = pointed_bisim(PointedModel(left, "w"), PointedModel(right, "w"), "modal")
    assert pointwise.related
    total = pointed_bisim(PointedModel(left, "w"), PointedModel(right, "w"),
                          "modal", total=True)
    assert not total.related


def test_distinguishing_formula_on_channel():
    p, q = channel_points()
    # Nprime's w2 differs from N's w1 on an atom: depth 1 separates them,
    # and nothing has depth 0.
    other = PointedModel(bit_channel("Nprime"), "w2")
    for right, bound in ((q, 5), (other, 1), (other, 0)):
        f = distinguishing_formula_search(p, right, bound)
        if bound == 0:
            assert f is None
            continue
        assert f is not None
        assert depth(f) <= bound
        assert check(p, f) and not check(right, f)
    # What the search has returned on the channel pair since before it
    # evaluated candidates on one disjoint union.
    for bound in (3, 4, 5):
        f = distinguishing_formula_search(p, q, bound)
        assert print_formula(f) == "[bit0]-{e,r} (C{e,r} (bit0))"


def atoms_at(pointed):
    m = pointed.model
    i = m.world_index(pointed.point)
    return {atom for atom, mask in m.valuation if mask >> i & 1}


def search_pairs(rng, count):
    """Fuzzed points that agree on their atoms where the models allow it.
    Every third pair differs in its agent sets and every third in its atom
    sets; in the others the right model is the left one with one agent's
    classes drawn again.  Operator sets and depths 1-3 take turns."""
    for i in range(count):
        agents = rng.choice([["a"], ["a", "b"], ["a", "b", "c"]])
        atoms = rng.choice([["p"], ["p", "q"]])
        left = random_model(rng, rng.randint(1, 4), agents, atoms)
        if i % 3 == 0:
            cells = list(left.cells)
            bits = [1 << k for k in range(len(left.worlds))]
            cells[rng.randrange(len(cells))] = [sum(c) for c in random_partition(rng, bits)]
            right = KripkeModel(left.worlds, left.agents, tuple(cells), left.valuation)
        else:
            if i % 3 == 1:
                agents = rng.choice([["a"], ["a", "b"], ["b", "c"], ["a", "c"]])
            else:
                atoms = rng.choice([["p"], ["q"], [], ["p", "q"]])
            right = random_model(rng, rng.randint(1, 4), agents, atoms)
        p = PointedModel(left, rng.choice(left.worlds))
        points = [PointedModel(right, w) for w in right.worlds]
        alike = [q for q in points if atoms_at(q) == atoms_at(p)]
        yield p, rng.choice(alike or points), ("all", "epistemic")[i % 2], 1 + i % 3


def recorded_levels(module, monkeypatch) -> list:
    """Patch ``module._applications`` to record the representatives each
    level is built from; returns the list they are appended to."""
    levels = []
    applications = module._applications

    def record(base, *args):
        levels.append(list(base))
        return applications(base, *args)

    monkeypatch.setattr(module, "_applications", record)
    return levels


def test_search_matches_per_probe_reference(monkeypatch):
    # The reference evaluates each candidate on every probe model and
    # generates every candidate: the search must keep the same
    # representatives level by level and return the same formula.
    got_levels = recorded_levels(glal_bisim, monkeypatch)
    want_levels = recorded_levels(reference, monkeypatch)
    rng = random.Random(20)
    found = {}
    for p, q, operators, bound in search_pairs(rng, 600):
        got = distinguishing_formula_search(p, q, bound, operators)
        want = reference.distinguishing_formula_search(p, q, bound, operators)
        assert (got and print_formula(got)) == (want and print_formula(want)), (p, q)
        assert got_levels == want_levels
        got_levels.clear()
        want_levels.clear()
        key = (operators, None if got is None else depth(got))
        found[key] = found.get(key, 0) + 1
    for operators in ("all", "epistemic"):
        assert found.get((operators, None), 0) >= 10
        assert found.get((operators, 2), 0) >= 10
    assert found.get(("all", 3), 0) + found.get(("epistemic", 3), 0) >= 3


def test_search_signatures_are_the_satisfaction_sets_of_their_nodes(monkeypatch):
    # The search works out each candidate's signature from its children's and
    # builds few nodes: built here, every candidate's node must have that
    # signature as its satisfaction set on the union, asked of a context of
    # its own.  Each pair is searched as it comes and, with the bisimulation
    # shortcut off, from its left point to itself: nothing separates a point
    # from itself, so every level runs, up to the bound or saturation.
    applications = glal_bisim._applications
    counts = dict.fromkeys((Not, And, *AGENT_OPS, *COALITION_OPS, AnnLocal, AnnGlobal), 0)

    def checked(base, sigs, fresh, ctx, union, *args):
        reference_ctx = EvalContext()
        for cls, fields, sig in applications(base, sigs, fresh, ctx, union, *args):
            node = cls(*fields)
            assert sig == reference_ctx.mask(union, node, union._full), print_formula(node)
            counts[cls] += 1
            yield cls, fields, sig

    monkeypatch.setattr(glal_bisim, "_applications", checked)
    pairs = list(search_pairs(random.Random(20), 150))
    for p, q, operators, bound in pairs:
        distinguishing_formula_search(p, q, bound, operators)
    monkeypatch.setattr(glal_bisim, "pointed_bisim",
                        lambda p, q, kind: glal_bisim.BisimResult(False, kind))
    for p, _, operators, bound in pairs:
        assert distinguishing_formula_search(p, p, bound, operators) is None
    assert min(counts.values()) >= 100, counts


def test_search_rechecks_its_formula_on_the_points(monkeypatch):
    # With the first two blocks of the union swapped, the signature test
    # picks a formula true at q and false at p: the recheck on the two
    # points in their own models must refuse it.
    a = KripkeModel.from_partitions(["u1", "u2"], ["a"], {"a": [["u1", "u2"]]}, {"p": ["u1"]})
    b = KripkeModel.from_partitions(["u1", "u2"], ["a"], {"a": [["u1"], ["u2"]]}, {"p": ["u1"]})
    union = glal_bisim._disjoint_union
    monkeypatch.setattr(glal_bisim, "_disjoint_union",
                        lambda probes: union([probes[1], probes[0], *probes[2:]]))
    with pytest.raises(RuntimeError, match="does not distinguish the points"):
        distinguishing_formula_search(PointedModel(a, "u1"), PointedModel(b, "u1"), 3)


def with_everyone(rng, f):
    """``f`` with about a third of its coalitions replaced by ``*``."""
    subs = [with_everyone(rng, sub) for sub in children(f)]
    f = _rebuild(f, subs) if subs else f
    if isinstance(f, COALITION_OPS + ANNOUNCE_OPS) and rng.random() < 0.35:
        f = dataclasses.replace(f, coalition=EVERYONE)
    return f


def test_disjoint_union_is_each_model_side_by_side():
    # Truth at a world depends only on its generated submodel, so block k of
    # a satisfaction set on the union is the set on model k.
    rng = random.Random(77)
    choices = [["a", "b"], ["a", "b", "c"], ["a", "c"]]
    for trial in range(120):
        if trial % 2:
            vocabularies = [rng.choice(choices) for _ in range(4)]
        else:
            vocabularies = [rng.choice(choices)] * 4
        models = [random_model(rng, rng.randint(1, 4), agents,
                               rng.choice([["p"], ["p", "q"], ["q"]]))
                  for agents in vocabularies[:rng.randint(2, 4)]]
        common = sorted(set.intersection(*(set(m.agents) for m in models)))
        union = _disjoint_union(models)
        assert union.worlds == tuple(sorted(union.worlds))
        for _ in range(4):
            f = random_formula(rng, 4, ["p", "q"], common, fragment=rng.choice(["full", "pal"]))
            if rng.random() < 0.4:
                f = PalAnn(random_formula(rng, 3, ["p", "q"], common, fragment="pal"), f)
            if len({m.agents for m in models}) == 1:
                f = with_everyone(rng, f)
            got = EvalContext().mask(union, f, union._full)
            shift = 0
            for m in models:
                assert got >> shift & m._full == EvalContext().mask(m, f, m._full), \
                    print_formula(f)
                shift += len(m.worlds)
    # Eleven blocks need two-digit block names to sort in index order.
    singles = [random_model(rng, 1, ["a"], ["p"]) for _ in range(11)]
    union = _disjoint_union(singles)
    assert union.worlds[-1] == "10.u0" and union.worlds == tuple(sorted(union.worlds))


def test_distinguishing_formula_identical_models():
    n = bit_channel("N")
    assert distinguishing_formula_search(
        PointedModel(n, "w1"), PointedModel(n, "w1"), 4
    ) is None


def test_distinguishing_search_exhausts_its_depth_on_unrelated_points():
    # Every a-class and b-class of the right model pairs a p-world with a
    # !p-world, as the single class of the left model does, so the points
    # are modally bisimilar; but a and b jointly rule out every p-world only
    # on the right.  Nothing of depth 2 tells them apart.
    left = KripkeModel.from_partitions(["v", "w"], ["a", "b"],
                                       {"a": [["v", "w"]], "b": [["v", "w"]]}, {"p": ["v"]})
    right = KripkeModel.from_partitions(
        ["v1", "v2", "w1", "w2"], ["a", "b"],
        {"a": [["w1", "v1"], ["w2", "v2"]], "b": [["w1", "v2"], ["w2", "v1"]]},
        {"p": ["v1", "v2"]},
    )
    p, q = PointedModel(left, "w"), PointedModel(right, "w1")
    assert pointed_bisim(p, q, "modal").related
    assert not pointed_bisim(p, q, "collective").related
    assert not pointed_bisim(p, q, "plusminus").related
    for operators in ("epistemic", "all"):
        assert distinguishing_formula_search(p, q, 2, operators=operators) is None
        f = distinguishing_formula_search(p, q, 3, operators=operators)
        assert f is not None and depth(f) == 3
        assert check(p, f) and not check(q, f)


def test_distinguishing_search_stops_once_saturated():
    # a is discrete and b total on both sides; p holds at u0 on the left and
    # at u0, u1 on the right.  The representatives stop growing at level 5,
    # so a search of any depth ends there.
    left = KripkeModel.from_partitions(["u0", "u1"], ["a", "b"], {"b": [["u0", "u1"]]},
                                       {"p": ["u0"]})
    right = KripkeModel.from_partitions(["u0", "u1", "u2"], ["a", "b"],
                                        {"b": [["u0", "u1", "u2"]]}, {"p": ["u0", "u1"]})
    p, q = PointedModel(left, "u0"), PointedModel(right, "u0")
    assert not pointed_bisim(p, q, "plusminus").related
    start = time.perf_counter()
    assert distinguishing_formula_search(p, q, 10**6) is None
    assert time.perf_counter() - start < 1


def test_refinement_probes_match_the_per_world_refinements():
    # The probes are the distinct one-step local and global refinements by
    # an atom or a negated atom, one per layer of groups.  On connected
    # models that is each refinement taken at every world in turn, in order
    # of first appearance.  On any model, the probes refine each all-agents
    # component exactly as the per-world refinements do, in some probe each.
    rng = random.Random(16)
    agents, atoms = ["a", "b", "c"], ["p", "q"]
    everyone = range(len(agents))
    coalitions = [Coalition.of(*combo) for k in (1, 2, 3)
                  for combo in itertools.combinations(agents, k)]

    def pieces(m, refined):
        """Each all-agents component of ``m`` with its cells in each model
        of ``refined`` that shares m's worlds and valuation."""
        return {(comp, tuple(tuple(c for c in x.cells[k] if c & comp) for k in everyone))
                for x in refined if (x.worlds, x.valuation) == (m.worlds, m.valuation)
                for comp in m.components(everyone)}

    found = disconnected = 0
    for n in range(60):
        models = tuple(random_model(rng, rng.randint(1, 5), agents, atoms) for _ in range(2))
        if n % 2:
            extra = random_model(rng, rng.randint(1, 3), agents, atoms)
            models = (_disjoint_union([models[0], extra]), models[1])
        expected = []
        for m in models:
            for psi in [Atom(a) for a in atoms] + [Not(Atom(a)) for a in atoms]:
                for co in coalitions:
                    for refine in (refine_local, refine_global):
                        for w in m.worlds:
                            refined = refine(m, w, psi, co)
                            if refined not in models and refined not in expected:
                                expected.append(refined)
        ctx = EvalContext()
        probes = _refinement_probes(ctx, tuple(map(ctx.intern, models)), atoms, coalitions)
        if all(len(m.components(everyone)) == 1 for m in models):
            assert probes == expected
        else:
            disconnected += 1
        for m in models:
            assert pieces(m, (m, *probes)) == pieces(m, (m, *expected))
        found += len(probes)
    assert found > 200 and disconnected > 20


def test_distinguishing_search_rejects_unknown_operator_set():
    p = PointedModel(bit_channel("N"), "w1")
    with pytest.raises(ValueError, match="bogus"):
        distinguishing_formula_search(p, p, 2, operators="bogus")


def test_distinguishing_epistemic_for_modal_inequivalent():
    a = KripkeModel.from_partitions(["u1", "u2"], ["a"], {"a": [["u1", "u2"]]},
                                    {"p": ["u1"]})
    b = KripkeModel.from_partitions(["u1", "u2"], ["a"], {"a": [["u1"], ["u2"]]},
                                    {"p": ["u1"]})
    f = distinguishing_formula_search(PointedModel(a, "u1"), PointedModel(b, "u1"), 3,
                                      operators="epistemic")
    assert f is not None, "modal-inequivalent pair must have an epistemic distinguisher"
    assert check(PointedModel(a, "u1"), f) and not check(PointedModel(b, "u1"), f)


def test_modal_related_pairs_agree_on_epistemic_formulas():
    rng = random.Random(21)
    ctx = EvalContext()
    for _ in range(10):
        m = random_model(rng, 4, ["a", "b"], ["p"])
        ext, _ = duplicate_worlds(rng, m, copies=1)
        relation = max_bisim(m, ext, "modal")
        for (w, w2) in sorted(relation):
            for _ in range(10):
                f = random_formula(rng, 4, ["p"], ["a", "b"], fragment="epistemic")
                assert check(PointedModel(m, w), f, context=ctx) == check(
                    PointedModel(ext, w2), f, context=ctx
                ), print_formula(f)
