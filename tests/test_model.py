import copy
import json
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

from glal.errors import FormatError, InvalidModel, UnknownWorld
from glal.fuzz import duplicate_worlds, random_model
from glal.model import KripkeModel, PointedModel, load, save, validate
from glal.scenarios import bit_channel, muddy
from model_checks import (
    assert_canonical,
    class_names,
    class_of,
    closure_of,
    pairs_of,
    profile,
    reference_from_partitions,
    reference_load,
)


def closure_class(model, agents, world) -> frozenset:
    """The class of ``world`` among ``model.components`` of the agents."""
    comps = model.components([model.agent_position(a) for a in agents])
    return frozenset(next(
        class_names(model, c) for c in comps if world in class_names(model, c)
    ))


def test_neighborhood_muddy():
    m = muddy(3)
    assert class_of(m, "r", "100") == {"100", "000"}
    assert class_of(m, "g", "110") == {"110", "100"}


def test_neighborhood_contains_world():
    rng = random.Random(1)
    for _ in range(20):
        m = random_model(rng, 4, ["a", "b"], ["p"])
        for a in m.agents:
            classes = set()
            for w in m.worlds:
                cls = class_of(m, a, w)
                assert w in cls
                classes.add(cls)
            # classes partition the worlds
            seen = [w for cls in classes for w in cls]
            assert sorted(seen) == sorted(m.worlds)


def test_neighborhood_channel_eavesdropper():
    n = bit_channel("N")
    assert class_of(n, "e", "w1") == {"w1", "w2"}


def test_common_closure_connected_cube():
    m = muddy(3)
    assert m.components(range(len(m.agents))) == (m._full,)
    for w in m.worlds:
        assert closure_class(m, ["r", "g", "b"], w) == set(m.worlds)


def test_common_closure_empty_coalition():
    m = muddy(3)
    assert m.components(()) == tuple(1 << i for i in range(len(m.worlds)))
    assert closure_class(m, [], "101") == {"101"}


def test_common_closure_channel():
    np = bit_channel("Nprime")
    assert closure_class(np, ["r"], "w1") == {"w1", "w2"}


def test_common_closure_is_union_reach_fixpoint():
    rng = random.Random(5)
    for _ in range(20):
        m = random_model(rng, 5, ["a", "b", "c"], ["p"])
        for coalition in ([], ["a"], ["a", "b"], ["b", "c"], ["a", "b", "c"]):
            comps = m.components([m.agent_position(a) for a in coalition])
            lows = [c & -c for c in comps]
            assert lows == sorted(lows)
            for w in m.worlds:
                assert closure_class(m, coalition, w) == closure_of(m, coalition, w)


def test_exact_profile():
    m = muddy(2)
    for w in m.worlds:
        assert profile(m, w, w) == set(m.agents)
    np = bit_channel("Nprime")
    assert profile(np, "v1", "w1") == {"s", "e"}
    n = bit_channel("N")
    assert profile(n, "w1", "w2") == {"r", "e"}


def test_validate_clean_models():
    for m in (muddy(3), bit_channel("Nprime")):
        assert_canonical(m)
        pairs = pairs_of(m)
        assert validate(m.worlds, m.agents, [pairs[a] for a in m.agents]) == []


def test_validate_missing_reflexive():
    violations = validate(("w1", "w2"), ("a",), (frozenset({("w1", "w2")}),))
    kinds = {(v.kind, v.witness) for v in violations}
    assert ("reflexivity", ("w1", "w1")) in kinds
    assert ("symmetry", ("w1", "w2")) in kinds


def test_validate_missing_symmetry():
    violations = validate(
        ("w1", "w2"), ("a",), (frozenset({("w1", "w1"), ("w2", "w2"), ("w1", "w2")}),)
    )
    assert ("symmetry", ("w1", "w2")) in {(v.kind, v.witness) for v in violations}


def test_validate_intransitive():
    with pytest.raises(InvalidModel) as exc:
        KripkeModel.from_pairs(
            ["w1", "w2", "w3"], ["a"], {"a": [("w1", "w2"), ("w2", "w3")]}
        )
    assert {(v.kind, v.witness) for v in exc.value.violations} == {
        ("transitivity", ("w1", "w2", "w3")),
        ("transitivity", ("w3", "w2", "w1")),
    }


def test_validate_matches_bruteforce_scan():
    # independent oracle: scan all pairs/triples directly on the pair sets
    rng = random.Random(17)
    for _ in range(30):
        worlds = ["w1", "w2", "w3"]
        pairs = set()
        for u in worlds:
            for v in worlds:
                if rng.random() < 0.4:
                    pairs.add((u, v))
        expected_clean = (
            all((w, w) in pairs for w in worlds)
            and all((v, u) in pairs for (u, v) in pairs)
            and all(
                (u, w) in pairs
                for (u, v) in pairs
                for (v2, w) in pairs
                if v2 == v
            )
        )
        assert (validate(worlds, ("a",), (frozenset(pairs),)) == []) == expected_clean
        if expected_clean:
            m = KripkeModel.from_pairs(worlds, ["a"], {"a": sorted(pairs)})
            assert_canonical(m)
            assert pairs_of(m)["a"] == pairs


def test_save_channel_partitions():
    obj = json.loads(save(bit_channel("N")))
    assert obj["relations"] == {
        "s": {"partition": [["w1"], ["w2"]]},
        "r": {"partition": [["w1", "w2"]]},
        "e": {"partition": [["w1", "w2"]]},
    }
    assert obj["valuation"] == {"bit0": ["w1"]}


def test_load_save_round_trip():
    for m in (muddy(3), bit_channel("N"), bit_channel("Nprime")):
        back = load(save(m))
        assert back == m and hash(back) == hash(m)


def test_load_save_round_trip_fuzz():
    rng = random.Random(23)
    for _ in range(25):
        m = random_model(rng, rng.randint(1, 5), ["a", "b"], ["p", "q"])
        back = load(save(m))
        assert_canonical(back)
        assert back == m and hash(back) == hash(m)


# Pickles muddy(3) and prints the pickle (hex) and the model's hash.
_PICKLE_MUDDY = """
import pickle
from glal.scenarios import muddy
m = muddy(3)
print(pickle.dumps(m).hex(), hash(m))
"""


def test_pickled_and_copied_models_hash_like_fresh_ones():
    # A model computes its hash once; string hashes differ between
    # processes, so a pickle from another process must not carry it.
    src = str(Path(__file__).resolve().parents[1] / "src")
    seed = os.environ.get("PYTHONHASHSEED", "")
    other = str(int(seed) + 1) if seed.isdigit() else "1"
    env = dict(os.environ, PYTHONHASHSEED=other, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", _PICKLE_MUDDY], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    data, their_hash = proc.stdout.split()
    fresh = muddy(3)
    assert int(their_hash) != hash(fresh)
    for back in (pickle.loads(bytes.fromhex(data)), pickle.loads(pickle.dumps(fresh)),
                 copy.copy(fresh), copy.deepcopy(fresh)):
        assert back == fresh and hash(back) == hash(fresh)
        assert {fresh: "found"}[back] == "found"
        assert_canonical(back)


def test_load_rejects_world_in_two_cells():
    text = json.dumps({
        "worlds": ["w1", "w2"],
        "agents": ["a"],
        "relations": {"a": {"partition": [["w1", "w2"], ["w2"]]}},
        "valuation": {},
    })
    with pytest.raises(FormatError):
        load(text)


def test_load_pairs_closes_symmetry_not_transitivity():
    good = json.dumps({
        "worlds": ["w1", "w2"],
        "agents": ["a"],
        "relations": {"a": {"pairs": [["w1", "w2"]]}},
        "valuation": {},
    })
    m = load(good)
    assert class_of(m, "a", "w2") == {"w1", "w2"}

    intransitive = json.dumps({
        "worlds": ["w1", "w2", "w3"],
        "agents": ["a"],
        "relations": {"a": {"pairs": [["w1", "w2"], ["w2", "w3"]]}},
        "valuation": {},
    })
    with pytest.raises(InvalidModel) as exc:
        load(intransitive)
    assert any(v.kind == "transitivity" for v in exc.value.violations)


def test_load_schema_errors():
    with pytest.raises(FormatError):
        load("not json")
    with pytest.raises(FormatError):
        load(json.dumps({"worlds": ["w"]}))
    with pytest.raises(FormatError):
        load(json.dumps({
            "worlds": ["w"], "agents": ["a"],
            "relations": {"b": {"partition": [["w"]]}}, "valuation": {},
        }))
    with pytest.raises(FormatError):
        load(json.dumps({
            "worlds": ["w"], "agents": ["a"],
            "relations": {}, "valuation": {"p": ["nope"]},
        }))
    ill_typed = [
        {"worlds": "ab", "agents": [], "valuation": {}},
        {"worlds": ["a", 1], "agents": [], "valuation": {}},
        {"worlds": ["a"], "agents": "x", "valuation": {}},
        {"worlds": ["a", "b"], "agents": [], "valuation": {"p": "a"}},
        {"worlds": ["a"], "agents": ["x"], "relations": [], "valuation": {}},
        {"worlds": ["a", "b"], "agents": ["x"],
         "relations": {"x": {"partition": ["ab"]}}, "valuation": {}},
        {"worlds": ["a", "b"], "agents": ["x"],
         "relations": {"x": {"partition": "ab"}}, "valuation": {}},
        {"worlds": ["a", "b"], "agents": ["x"],
         "relations": {"x": {"pairs": ["ab"]}}, "valuation": {}},
        {"worlds": ["a", "b"], "agents": ["x"],
         "relations": {"x": {"pairs": [["a", "b", "a"]]}}, "valuation": {}},
    ]
    for obj in ill_typed:
        with pytest.raises(FormatError):
            load(json.dumps(obj))


def test_missing_relation_defaults_to_identity():
    m = load(json.dumps({"worlds": ["w1", "w2"], "agents": ["a"], "valuation": {}}))
    assert class_of(m, "a", "w1") == {"w1"}


def test_pointed_model_checks_point():
    with pytest.raises(UnknownWorld):
        PointedModel(muddy(2), "99")


def test_save_is_deterministic():
    assert save(muddy(3)) == save(muddy(3))
    m1 = KripkeModel.from_partitions(["b", "a"], ["y", "x"], {}, {"p": ["b", "a"]})
    m2 = KripkeModel.from_partitions(["a", "b"], ["x", "y"], {}, {"p": ["a", "b"]})
    assert save(m1) == save(m2)


# ---------------------------------------------------------------------------
# The one-pass loader against the name-by-name reference loader
# ---------------------------------------------------------------------------


def load_outcome(loader, text):
    """The model ``loader`` builds from ``text`` with its hash, or the class,
    message and violations of the error it raises."""
    try:
        model = loader(text)
    except Exception as exc:  # the class must match, whatever it is
        return type(exc), str(exc), getattr(exc, "violations", None)
    return model, hash(model)


def assert_loads_like_reference(text):
    outcome = load_outcome(load, text)
    assert outcome == load_outcome(reference_load, text), text
    return outcome


def _partitions(obj):
    return [spec["partition"] for spec in obj["relations"].values() if "partition" in spec]


def _reverse_cells(rng, obj):
    for part in _partitions(obj):
        part.reverse()
        for cell in part:
            cell.reverse()


def _shuffle_names(rng, obj):
    for part in _partitions(obj):
        for cell in part:
            rng.shuffle(cell)


def _shuffle_worlds(rng, obj):
    rng.shuffle(obj["worlds"])


def _reorder_agents(rng, obj):
    rng.shuffle(obj["agents"])
    items = list(obj["relations"].items())
    rng.shuffle(items)
    obj["relations"] = dict(items)


def _empty_cells(rng, obj):
    for part in _partitions(obj):
        part.insert(rng.randint(0, len(part)), [])


def _repeat_valuation_names(rng, obj):
    for names in obj["valuation"].values():
        names.extend(rng.sample(names, rng.randint(0, len(names))))


def _pairs_form(rng, obj):
    agent = rng.choice(obj["agents"])
    part = obj["relations"][agent]["partition"]
    obj["relations"][agent] = {"pairs": [[u, v] for cell in part for u in cell for v in cell
                                         if u < v or rng.random() < 0.2]}


def _omit_relations(rng, obj):
    for agent in rng.sample(obj["agents"], rng.randint(1, len(obj["agents"]))):
        del obj["relations"][agent]


# Rewritings that keep the file's meaning; omitting relations changes it.
SAME_MODEL = (_reverse_cells, _shuffle_names, _shuffle_worlds, _reorder_agents, _empty_cells,
              _repeat_valuation_names, _pairs_form)


def rewritten(rng, model):
    """``model`` saved, then written back each way a hand-made file may
    differ from a saved one, and every way at once: (text, same model) pairs."""
    base = json.loads(save(model))
    out = []
    for edits in [(edit,) for edit in SAME_MODEL + (_omit_relations,)] + [SAME_MODEL]:
        obj = copy.deepcopy(base)
        for edit in edits:
            if obj["agents"] or edit not in (_pairs_form, _omit_relations):
                edit(rng, obj)
        out.append((json.dumps(obj), _omit_relations not in edits))
    return out


def loader_corpus(seed):
    rng = random.Random(seed)
    models = [muddy(n) for n in range(1, 8)] + [bit_channel("N"), bit_channel("Nprime")]
    for _ in range(40):
        agents = ["a", "b", "c"][: rng.randint(0, 3)]
        m = random_model(rng, rng.randint(1, 6), agents, ["p", "q"][: rng.randint(0, 2)])
        models.append(m)
        if agents:
            models.append(duplicate_worlds(rng, m, copies=rng.randint(1, 3))[0])
    return rng, models


def test_load_matches_reference_on_rewritten_files():
    rng, models = loader_corpus(31)
    for m in models:
        for text, same in rewritten(rng, m):
            back, back_hash = assert_loads_like_reference(text)
            assert_canonical(back)
            if same:
                assert back == m and back_hash == hash(m)


MALFORMED = [
    "not json",
    "[1, 2]",
    json.dumps({"worlds": ["w"]}),
    json.dumps({"agents": ["a"]}),
    json.dumps({"worlds": 5}),
    json.dumps({"worlds": ["w"], "agents": ["a"],
                "relations": {"b": {"partition": [["w"]]}}, "valuation": {}}),
    json.dumps({"worlds": ["w"], "agents": ["a"], "relations": {}, "valuation": {"p": ["nope"]}}),
    json.dumps({"worlds": "ab", "agents": [], "valuation": {}}),
    json.dumps({"worlds": ["a", 1], "agents": [], "valuation": {}}),
    json.dumps({"worlds": ["a"], "agents": "x", "valuation": {}}),
    json.dumps({"worlds": ["a", "b"], "agents": [], "valuation": {"p": "a"}}),
    json.dumps({"worlds": ["a"], "agents": ["x"], "relations": [], "valuation": {}}),
    json.dumps({"worlds": ["a", "b"], "agents": ["x"],
                "relations": {"x": {"partition": ["ab"]}}, "valuation": {}}),
    json.dumps({"worlds": ["a", "b"], "agents": ["x"],
                "relations": {"x": {"partition": "ab"}}, "valuation": {}}),
    json.dumps({"worlds": ["a", "b"], "agents": ["x"],
                "relations": {"x": {"pairs": ["ab"]}}, "valuation": {}}),
    json.dumps({"worlds": ["a", "b"], "agents": ["x"],
                "relations": {"x": {"pairs": [["a", "b", "a"]]}}, "valuation": {}}),
    json.dumps({"worlds": ["w1", "w2"], "agents": ["a"],
                "relations": {"a": {"partition": [["w1", "w2"], ["w2"]]}}, "valuation": {}}),
    json.dumps({"worlds": ["w1", "w2", "w3"], "agents": ["a"],
                "relations": {"a": {"pairs": [["w1", "w2"], ["w2", "w3"]]}}, "valuation": {}}),
    json.dumps({"worlds": ["a", "a"], "agents": ["x"]}),
    json.dumps({"worlds": ["a"], "agents": ["x", "x"]}),
    json.dumps({"worlds": ["a"], "agents": ["x"], "valuation": []}),
    json.dumps({"worlds": ["a"], "agents": ["x"], "relations": {"x": {}}}),
    json.dumps({"worlds": ["a"], "agents": ["x"], "relations": {"x": {"partition": [["a"]],
                                                                       "pairs": []}}}),
    json.dumps({"worlds": ["a"], "agents": ["x"], "relations": {"x": {"cells": [["a"]]}}}),
    json.dumps({"worlds": ["a"], "agents": ["x"], "relations": {"x": {"pairs": [["a", "zz"]]}}}),
    # Two faults: a repeated name and an unknown world in one cell, either
    # first; two agents with faults, reported in the order of "agents".
    json.dumps({"worlds": ["a", "b"], "agents": ["x"],
                "relations": {"x": {"partition": [["a", "a", "zz"]]}}}),
    json.dumps({"worlds": ["a", "b"], "agents": ["x"],
                "relations": {"x": {"partition": [["zz", "a", "a"]]}}}),
    json.dumps({"worlds": ["a", "b"], "agents": ["y", "x"],
                "relations": {"x": {"partition": [["zz"]]}, "y": {"partition": [["b"], ["b"]]}}}),
    # A type error outranks any name: a non-string valuation entry beside an
    # unknown partition world, a non-string cell entry beside a repeat.
    json.dumps({"worlds": ["a", "b"], "agents": ["x"],
                "relations": {"x": {"partition": [["zz"]]}}, "valuation": {"p": ["a", 3]}}),
    json.dumps({"worlds": ["a", "b"], "agents": ["x"],
                "relations": {"x": {"partition": [["a", "a"], [None]]}}}),
    # Unknown worlds in partition and valuation; several in one valuation.
    json.dumps({"worlds": ["a"], "agents": ["x"], "relations": {"x": {"partition": [["q"]]}},
                "valuation": {"p": ["zz"]}}),
    json.dumps({"worlds": ["a"], "agents": [], "valuation": {"p": ["zz", "a", "b", "zz"]}}),
]


def test_load_errors_match_reference():
    for text in MALFORMED:
        outcome = assert_loads_like_reference(text)
        assert outcome[0] in (FormatError, InvalidModel), text


def _break(rng, obj):
    """Apply one random fault to a model object."""
    parts = _partitions(obj)
    cells = [cell for part in parts for cell in part if isinstance(cell, list)]
    fault = rng.randrange(12)
    if fault == 0 and cells:
        rng.choice(cells).insert(rng.randint(0, 1), "zz")
    elif fault == 1 and cells:
        cell = rng.choice(cells)
        cell.insert(rng.randint(0, len(cell)), rng.choice(obj["worlds"]))
    elif fault == 2 and cells:
        rng.choice(cells).append(rng.choice([1, None, ["a"], 2.5]))
    elif fault == 3 and parts:
        rng.choice(parts).append(rng.choice(["ab", 3, {"a": 1}]))
    elif fault == 4 and obj["valuation"]:
        rng.choice(list(obj["valuation"].values())).append(rng.choice(["zz", "yy", 7]))
    elif fault == 5:
        obj["worlds"].append(rng.choice(obj["worlds"] + ["zz"]))
    elif fault == 6:
        obj["agents"].append(rng.choice(obj["agents"] + ["zz"]))
    elif fault == 7:
        obj["relations"]["zz"] = {"partition": []}
    elif fault == 8 and obj["agents"]:
        agent = rng.choice(obj["agents"])
        obj["relations"][agent] = {"pairs": [[rng.choice(obj["worlds"] + ["zz"])
                                              for _ in range(rng.choice([1, 2, 2, 3]))]]}
    elif fault == 9:
        del obj[rng.choice(["worlds", "agents", "relations", "valuation"])]
    elif fault == 10:
        obj[rng.choice(["relations", "valuation"])] = rng.choice([[], "x", None])
    elif fault == 11 and len(cells) > 1:
        a, b = rng.sample(cells, 2)
        if a:
            b.append(rng.choice(a))


def test_load_errors_match_reference_on_broken_files():
    rng, models = loader_corpus(37)
    for m in models:
        for _ in range(20):
            obj = json.loads(save(m))
            for _ in range(rng.randint(1, 3)):
                if not isinstance(obj.get("relations"), dict) or not isinstance(
                        obj.get("valuation"), dict) or "worlds" not in obj or "agents" not in obj:
                    break
                _break(rng, obj)
            assert_loads_like_reference(json.dumps(obj))


def test_from_partitions_matches_reference():
    rng = random.Random(41)
    for _ in range(200):
        worlds = [f"u{i}" for i in range(rng.randint(0, 6))]
        names = worlds + ["zz"] * rng.randint(0, 1)
        agents = ["a", "b", "c"][: rng.randint(0, 3)] + ["a"] * (rng.random() < 0.1)
        partitions = {a: [rng.sample(names, rng.randint(0, min(3, len(names))))
                          for _ in range(rng.randint(0, 4))] for a in agents}
        valuation = {p: rng.sample(names, rng.randint(0, len(names))) for p in ("p", "q")}
        worlds += worlds[:1] * (rng.random() < 0.1)
        outcomes = []
        for build in (KripkeModel.from_partitions, reference_from_partitions):
            try:
                model = build(worlds, agents, partitions, valuation)
                outcomes.append((model, hash(model)))
            except FormatError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]
