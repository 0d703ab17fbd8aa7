"""Test-side views of a model's masks: derived pair and name views, name-based
oracles for classes, closures and profiles, the invariants every
constructed model must satisfy, and a reference loader that resolves world
names one at a time."""

import json

from glal.errors import FormatError
from glal.model import KripkeModel, _with_pairs, iter_bits


def class_names(model, cell) -> list:
    return [w for i, w in enumerate(model.worlds) if cell >> i & 1]


def class_of(model, agent, world) -> frozenset:
    """The names in ``world``'s class under ``agent``'s relation."""
    for cell in model.cells[model.agents.index(agent)]:
        names = class_names(model, cell)
        if world in names:
            return frozenset(names)
    raise KeyError(world)


def closure_of(model, agents, world) -> frozenset:
    """The worlds reachable from ``world`` by steps along the relations of
    ``agents``: the closure class that common knowledge quantifies over."""
    reach = {world}
    while True:
        step = reach | {v for u in reach for a in agents for v in class_of(model, a, u)}
        if step == reach:
            return frozenset(reach)
        reach = step


def profile(model, u, v) -> frozenset:
    """The agents whose relation links worlds ``u`` and ``v``."""
    return frozenset(a for a in model.agents if v in class_of(model, a, u))


def valuation_names(model) -> tuple:
    """The valuation as sorted (atom, frozenset of world names) entries."""
    return tuple((atom, frozenset(class_names(model, mask))) for atom, mask in model.valuation)


def pairs_of(model) -> dict:
    """Per agent, the relation as a set of (world, world) name pairs."""
    out = {}
    for agent, part in zip(model.agents, model.cells):
        out[agent] = frozenset(
            (u, v) for cell in part for u in class_names(model, cell)
            for v in class_names(model, cell)
        )
    return out


def assert_canonical(model):
    """Sorted names; per agent, nonempty disjoint cells covering every world,
    ordered by lowest world."""
    assert list(model.worlds) == sorted(set(model.worlds))
    assert list(model.agents) == sorted(set(model.agents))
    assert len(model.cells) == len(model.agents)
    full = (1 << len(model.worlds)) - 1
    for part in model.cells:
        covered = 0
        for cell in part:
            assert cell > 0
            assert cell & covered == 0
            covered |= cell
        assert covered == full
        lows = [cell & -cell for cell in part]
        assert lows == sorted(lows)
    assert [atom for atom, _ in model.valuation] == sorted({a for a, _ in model.valuation})
    for _, mask in model.valuation:
        assert mask & ~full == 0


def assert_refines(refined, original):
    """Same worlds and agents; every refined cell lies inside an original cell."""
    assert refined.worlds == original.worlds
    assert refined.agents == original.agents
    for fine, coarse in zip(refined.cells, original.cells):
        for cell in fine:
            assert any(cell & big == cell for big in coarse)


# ---------------------------------------------------------------------------
# Reference loader
# ---------------------------------------------------------------------------


def reference_from_partitions(worlds, agents, partitions, valuation=None):
    """``KripkeModel.from_partitions`` name by name: each world of each cell is
    looked up and checked against the worlds already seen for its agent, and
    the result goes through the checking constructor."""
    worlds = tuple(sorted(worlds))
    bit = {w: 1 << i for i, w in enumerate(worlds)}
    full = (1 << len(worlds)) - 1
    cells = []
    for agent in agents:
        seen, part = 0, []
        for cell in (partitions or {}).get(agent, ()):
            mask = 0
            for w in cell:
                b = bit.get(w)
                if b is None:
                    raise FormatError(f"unknown world {w!r} in partition of {agent!r}")
                if b & seen:
                    raise FormatError(f"world {w!r} occurs in two cells for {agent!r}")
                seen |= b
                mask |= b
            if mask:
                part.append(mask)
        part.extend(1 << i for i in iter_bits(full & ~seen))
        cells.append(part)
    masks = {}
    for atom, names in dict(valuation or {}).items():
        names = set(names)
        unknown = names - bit.keys()
        if unknown:
            raise FormatError(f"unknown world {min(unknown)!r} in valuation of {atom!r}")
        masks[atom] = sum(bit[w] for w in names)
    return KripkeModel(worlds, tuple(agents), tuple(cells), masks)


def reference_load(text: str):
    """``glal.model.load`` with every entry type-checked on its own and the
    model built by ``reference_from_partitions``."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise FormatError("model JSON must be an object")
    try:
        worlds = _strings(data["worlds"], "worlds")
        agents = _strings(data["agents"], "agents")
    except KeyError as exc:
        raise FormatError(f"missing key {exc.args[0]!r}") from None
    if len(set(worlds)) != len(worlds):
        raise FormatError("duplicate world names")
    if len(set(agents)) != len(agents):
        raise FormatError("duplicate agent names")
    relations = data.get("relations", {})
    if not isinstance(relations, dict):
        raise FormatError("relations must be an object")
    for agent in relations:
        if agent not in agents:
            raise FormatError(f"relation for unknown agent {agent!r}")
    partitions, pairs = {}, {}
    for agent, spec in relations.items():
        if not isinstance(spec, dict) or len(spec) != 1:
            raise FormatError(f"relation of {agent!r} needs exactly one of partition/pairs")
        if "partition" in spec:
            partitions[agent] = _string_lists(spec["partition"], f"partition of {agent!r}")
        elif "pairs" in spec:
            pairs[agent] = _string_lists(spec["pairs"], f"pairs of {agent!r}")
            if any(len(p) != 2 for p in pairs[agent]):
                raise FormatError(f"each of the pairs of {agent!r} must name two worlds")
        else:
            raise FormatError(f"relation of {agent!r} needs partition or pairs")
    valuation = data.get("valuation", {})
    if not isinstance(valuation, dict):
        raise FormatError("valuation must be an object")
    for atom, ws in valuation.items():
        _strings(ws, f"valuation of {atom!r}")
    model = reference_from_partitions(worlds, agents, partitions, valuation)
    return _with_pairs(model, pairs) if pairs else model


def _strings(value, what: str) -> list:
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise FormatError(f"{what} must be a list of strings")
    return value


def _string_lists(value, what: str) -> list:
    if not isinstance(value, list):
        raise FormatError(f"{what} must be a list of lists of strings")
    return [_strings(item, f"each entry of the {what}") for item in value]
