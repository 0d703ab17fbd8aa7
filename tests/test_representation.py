"""The partition-mask model representation against a naive pair-set oracle.

The oracle below builds refinements and restrictions the way models used to
be stored, as per-agent sets of (world, world) name pairs, and is compared
with the mask constructors on fuzzed models and announcements.
"""

import json
import random

import pytest

from glal.errors import FormatError, InvalidModel
from glal.fuzz import duplicate_worlds, random_coalition, random_formula, random_model
from glal.model import KripkeModel, in_world_order, load, lowest_bit, save
from glal.sat import SatQuery, sat_bounded
from glal.semantics import (
    EvalContext,
    _restrict_model,
    _split_model,
    refine_global,
    refine_local,
    refine_pal,
    refine_semiprivate,
)
from glal.syntax import parse
from model_checks import (
    assert_canonical,
    assert_refines,
    class_names,
    pairs_of,
    valuation_names,
)


def naive_split(model, splits, psi):
    """Pair-set refinement: in each split agent's classes that meet its scope,
    keep only the pairs that agree on the announced set."""
    rel = pairs_of(model)
    psi_names = set(class_names(model, psi))
    out = {}
    for agent in model.agents:
        if agent not in splits:
            out[agent] = rel[agent]
            continue
        scope = set(class_names(model, splits[agent]))
        touched = {u for (u, v) in rel[agent] if v in scope}
        out[agent] = frozenset(
            (u, v) for (u, v) in rel[agent]
            if u not in touched or (u in psi_names) == (v in psi_names)
        )
    return out


def naive_restrict(model, keep):
    kept = set(class_names(model, keep))
    rel = pairs_of(model)
    relations = {
        a: frozenset((u, v) for (u, v) in rel[a] if u in kept and v in kept)
        for a in model.agents
    }
    valuation = tuple((atom, ws & kept) for atom, ws in valuation_names(model))
    return tuple(sorted(kept)), relations, valuation


def fuzzed_models(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        agents = ["a", "b", "c"][: rng.randint(1, 3)]
        yield rng, random_model(rng, rng.randint(1, 6), agents, ["p", "q"])


def test_split_matches_pair_oracle():
    for rng, m in fuzzed_models(101, 300):
        full = (1 << len(m.worlds)) - 1
        psi = rng.randint(0, full)
        chosen = rng.sample(range(len(m.agents)), rng.randint(0, len(m.agents)))
        # A scope is a union of the agent's cells (a class or a closure).
        splits = {
            m.agents[k]: sum(c for c in m.cells[k] if rng.random() < 0.5) for k in chosen
        }
        refined = _split_model(m, [(m.agents.index(a), s) for a, s in splits.items()], psi)
        assert_canonical(refined)
        assert_refines(refined, m)
        assert refined.valuation is m.valuation
        if refined.cells == m.cells:
            assert refined is m
        assert pairs_of(refined) == naive_split(m, splits, psi)


def test_restrict_matches_pair_oracle():
    for rng, m in fuzzed_models(102, 300):
        keep = rng.randint(1, (1 << len(m.worlds)) - 1)
        restricted = _restrict_model(m, keep)
        assert_canonical(restricted)
        worlds, relations, valuation = naive_restrict(m, keep)
        assert restricted.worlds == worlds
        assert pairs_of(restricted) == relations
        assert valuation_names(restricted) == valuation


def test_in_world_order_places_moved_masks():
    rng = random.Random(105)
    for _ in range(300):
        n = rng.randint(1, 40)
        part = sorted(_random_cells(rng, n), key=lowest_bit)
        moved = rng.sample(part, rng.randint(0, min(len(part), rng.choice([1, 3, len(part)]))))
        kept = [cell for cell in part if cell not in moved]
        rng.shuffle(moved)
        assert in_world_order(kept, moved) == tuple(part)


def _random_cells(rng, n):
    """The cells of a random partition of ``n`` worlds, as masks."""
    cells = {}
    for i in range(n):
        cells.setdefault(rng.randrange(n), []).append(i)
    return [sum(1 << i for i in c) for c in cells.values()]


def test_few_cells_split_in_large_models():
    # A split or restriction that moves a few cells of many places each one
    # by itself; the small fuzzed models above always sort.
    rng = random.Random(106)
    for _ in range(40):
        n = rng.randint(12, 40)
        agents = ["a", "b", "c"][: rng.randint(1, 3)]
        worlds = [f"u{i:02}" for i in range(n)]
        cells = [_random_cells(rng, n) for _ in agents]
        m = KripkeModel(tuple(worlds), tuple(agents), tuple(map(tuple, cells)), {"p": 0})
        psi = rng.choice(cells[0][:4])
        psi ^= 1 << rng.randrange(n)
        splits = {a: m._full for a in agents}
        refined = _split_model(m, [(m.agents.index(a), s) for a, s in splits.items()], psi)
        assert_canonical(refined)
        assert pairs_of(refined) == naive_split(m, splits, psi)
        keep = m._full & ~rng.choice(cells[-1]) | 1
        restricted = _restrict_model(m, keep)
        assert_canonical(restricted)
        assert (restricted.worlds, pairs_of(restricted)) == naive_restrict(m, keep)[:2]


def test_every_constructed_model_is_canonical():
    ctx = EvalContext()
    for rng, m in fuzzed_models(103, 150):
        assert_canonical(m)
        twin, _ = duplicate_worlds(rng, m, copies=rng.randint(1, 3))
        assert_canonical(twin)
        w = rng.choice(m.worlds)
        psi = random_formula(rng, 3, ["p", "q"], m.agents)
        co = random_coalition(rng, m.agents, allow_empty=True)
        built = [refine(m, w, psi, co, context=ctx)
                 for refine in (refine_local, refine_global, refine_semiprivate)]
        if ctx.mask(ctx.intern(m), psi, m._full):
            built.append(refine_pal(m, psi, context=ctx))
        for model in built:
            assert_canonical(model)
            back = load(save(model))
            assert back == model and hash(back) == hash(model)
    for text in ("K{a} p & !K{b} p", "M{a} p & M{a} !p & K{b} (p | q)", "C{a,b} p & !p"):
        result = sat_bounded(SatQuery(parse(text), max_worlds=3))
        if result.witness is not None:
            assert_canonical(result.witness.model)


def test_pairs_and_partitions_load_to_the_same_model():
    for _, m in fuzzed_models(104, 60):
        obj = m.to_obj()
        rel = pairs_of(m)
        obj["relations"] = {a: {"pairs": sorted(map(list, rel[a]))} for a in m.agents}
        assert load(json.dumps(obj)) == m


def test_direct_constructor_normalizes_and_checks():
    m = KripkeModel(("u", "v", "w"), ("b", "a"), ((0b110, 0b001), (0b111,)),
                    {"q": 0, "p": 0b101})
    assert m.agents == ("a", "b")
    assert m.cells == ((0b111,), (0b001, 0b110))
    assert m.valuation == (("p", 0b101), ("q", 0))
    assert m == KripkeModel.from_partitions(
        ["w", "v", "u"], ["a", "b"], {"a": [["u", "v", "w"]], "b": [["v", "w"]]},
        {"p": ["u", "w"], "q": []},
    )
    bad = [
        (("u", "v"), ("a",), ((0b01,),), {}),  # v uncovered
        (("u", "v"), ("a",), ((0b11, 0b01),), {}),  # overlap
        (("u", "v"), ("a",), ((0b11, 0),), {}),  # empty cell
        (("u", "v"), ("a",), ((0b111,),), {}),  # a world beyond the last
        (("v", "u"), ("a",), ((0b11,),), {}),  # unsorted worlds
        (("u", "u"), ("a",), ((0b11,),), {}),
        (("u",), ("a", "a"), ((0b1,), (0b1,)), {}),
        (("u",), ("a",), (), {}),
        (("u",), ("a",), ((0b1,),), {"p": 0b10}),  # a world beyond the last
        (("u",), ("a",), ((0b1,),), {"p": -1}),
    ]
    for args in bad:
        with pytest.raises(FormatError):
            KripkeModel(*args)


def test_from_pairs_rejects_intransitive_lists():
    with pytest.raises(InvalidModel):
        KripkeModel.from_pairs(["x", "y", "z"], ["a"], {"a": [("x", "y"), ("y", "z")]})
    m = KripkeModel.from_pairs(["x", "y", "z"], ["a", "b"], {"a": [("z", "x")]})
    assert m.cells == ((0b101, 0b010), (0b001, 0b010, 0b100))
