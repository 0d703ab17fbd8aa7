import itertools
import random
import time

import pytest

import bisim_reference as reference
from glal.bisim import (
    KINDS,
    _refinement_probes,
    distinguishing_formula_search,
    max_bisim,
    pointed_bisim,
    verify_bisim,
)
from glal.fuzz import duplicate_worlds, random_formula, random_model
from glal.model import KripkeModel, PointedModel
from glal.semantics import EvalContext, check, refine_global, refine_local
from glal.scenarios import bit_channel
from glal.syntax import Atom, Coalition, Not, depth, print_formula


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


def hexagon_and_triangles():
    """A six-cycle of a-, b- and c-links against two triangles of them.

    Every world looks alike locally, so the Forth/Back fixpoint keeps each
    hexagon world paired with its counterparts in both triangles; but an
    exact-profile bisimulation would be an isomorphism, so Reach fails.
    """
    hexagon = KripkeModel.from_partitions(
        [f"h{i}" for i in range(6)], ["a", "b", "c"],
        {"a": [["h0", "h1"], ["h3", "h4"]], "b": [["h1", "h2"], ["h4", "h5"]],
         "c": [["h2", "h3"], ["h5", "h0"]]})
    triangles = KripkeModel.from_partitions(
        ["t0", "t1", "t2", "u0", "u1", "u2"], ["a", "b", "c"],
        {"a": [["t0", "t1"], ["u0", "u1"]], "b": [["t1", "t2"], ["u1", "u2"]],
         "c": [["t2", "t0"], ["u2", "u0"]]})
    return hexagon, triangles


def test_engine_matches_name_based_reference():
    rng = random.Random(2024)
    outcomes = set()
    for left, right in [hexagon_and_triangles(), *fuzzed_pairs(rng, 50)]:
        pairs = [(w, w2) for w in left.worlds for w2 in right.worlds]
        for kind in KINDS:
            assert max_bisim(left, right, kind) == reference.max_bisim(left, right, kind)
            for w, w2 in pairs:
                p, q = PointedModel(left, w), PointedModel(right, w2)
                for total in (False, True):
                    got = pointed_bisim(p, q, kind, total).to_obj()
                    assert got == reference.pointed_bisim(p, q, kind, total).to_obj()
                    outcomes.add(got["fail_reason"]["condition"] if "fail_reason" in got else kind)
            for _ in range(3):
                relation = rng.sample(pairs, rng.randint(0, len(pairs)))
                assert verify_bisim(left, right, relation, kind) == reference.verify_bisim(
                    left, right, relation, kind)
    assert outcomes == {"Atoms", "Forth", "Back", "Reach"} | set(KINDS)


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
    # The probes are every distinct one-step local and global refinement by
    # an atom or a negated atom, in order of first appearance when each is
    # taken at every world in turn.
    rng = random.Random(16)
    agents, atoms = ["a", "b", "c"], ["p", "q"]
    coalitions = [Coalition.of(*combo) for k in (1, 2, 3)
                  for combo in itertools.combinations(agents, k)]
    found = 0
    for _ in range(30):
        models = tuple(random_model(rng, rng.randint(1, 5), agents, atoms) for _ in range(2))
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
        assert probes == expected
        found += len(probes)
    assert found > 100


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
