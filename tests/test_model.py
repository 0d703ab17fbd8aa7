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
from glal.fuzz import random_model
from glal.model import KripkeModel, PointedModel, load, save, validate
from glal.scenarios import bit_channel, muddy
from model_checks import (
    assert_canonical,
    class_names,
    class_of,
    closure_of,
    pairs_of,
    profile,
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
