"""Kripke models: per-agent indistinguishability relations, closures, JSON I/O.

Relations are stored as pair sets so that validation has something to
check; the file format's canonical form is per-agent partitions, which
make the equivalence invariant unfalsifiable at rest.  Worlds, agents and
valuation entries are kept lexicographically sorted, so structural
equality and saved output are deterministic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

from .errors import FormatError, InvalidModel, UnknownAgent, UnknownWorld


@dataclass(frozen=True)
class Violation:
    """One broken model invariant, with a witnessing tuple."""

    kind: str  # reflexivity | symmetry | transitivity | dangling-reference
    agent: str | None
    witness: tuple

    def __str__(self) -> str:
        where = f" [{self.agent}]" if self.agent else ""
        return f"{self.kind}{where} {self.witness}"


class _Compiled:
    """Index/bitmask view of a valid model, built lazily and shared."""

    __slots__ = ("index", "n", "full", "atom_mask", "nbr", "cells", "agent_index")

    def __init__(self, model: "KripkeModel"):
        self.index = {w: i for i, w in enumerate(model.worlds)}
        self.n = len(model.worlds)
        self.full = (1 << self.n) - 1
        self.atom_mask = {
            atom: _mask_of(worlds, self.index) for atom, worlds in model.valuation
        }
        self.agent_index = {a: k for k, a in enumerate(model.agents)}
        self.nbr = []
        self.cells = []
        for rel in model.relations:
            nbr = [0] * self.n
            for (u, v) in rel:
                nbr[self.index[u]] |= 1 << self.index[v]
            self.nbr.append(nbr)
            seen, cells = set(), []
            for m in nbr:
                if m and m not in seen:
                    seen.add(m)
                    cells.append(m)
            self.cells.append(cells)


def _mask_of(worlds, index) -> int:
    m = 0
    for w in worlds:
        m |= 1 << index[w]
    return m


def _names_of(mask: int, worlds) -> frozenset:
    out = []
    while mask:
        low = mask & -mask
        out.append(worlds[low.bit_length() - 1])
        mask ^= low
    return frozenset(out)


def iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class KripkeModel:
    worlds: tuple
    agents: tuple
    relations: tuple  # per agent, frozenset of (world, world) pairs
    valuation: tuple  # sorted (atom, frozenset of worlds) entries

    def __post_init__(self):
        worlds = tuple(sorted(self.worlds))
        if len(set(worlds)) != len(worlds):
            raise FormatError("duplicate world names")
        if len(self.relations) != len(self.agents):
            raise FormatError("one relation per agent required")
        order = sorted(range(len(self.agents)), key=lambda i: self.agents[i])
        agents = tuple(self.agents[i] for i in order)
        if len(set(agents)) != len(agents):
            raise FormatError("duplicate agent names")
        relations = tuple(frozenset(map(tuple, self.relations[i])) for i in order)
        valuation = tuple(
            sorted((atom, frozenset(ws)) for atom, ws in dict(self.valuation).items())
        )
        object.__setattr__(self, "worlds", worlds)
        object.__setattr__(self, "agents", agents)
        object.__setattr__(self, "relations", relations)
        object.__setattr__(self, "valuation", valuation)

    # construction ---------------------------------------------------------

    @staticmethod
    def from_partitions(worlds, agents, partitions, valuation=None) -> "KripkeModel":
        """Build from per-agent equivalence classes.

        Worlds missing from an agent's cells become singleton classes;
        agents missing from the mapping get the identity relation.
        """
        worlds = tuple(sorted(worlds))
        world_set = set(worlds)
        relations = []
        for agent in agents:
            cells = [tuple(c) for c in (partitions or {}).get(agent, ())]
            seen = set()
            pairs = set()
            for cell in cells:
                for w in cell:
                    if w not in world_set:
                        raise FormatError(f"unknown world {w!r} in partition of {agent!r}")
                    if w in seen:
                        raise FormatError(f"world {w!r} occurs in two cells for {agent!r}")
                    seen.add(w)
                pairs.update((u, v) for u in cell for v in cell)
            pairs.update((w, w) for w in world_set - seen)
            relations.append(frozenset(pairs))
        return KripkeModel(
            worlds, tuple(agents), tuple(relations), _valuation_entries(valuation, world_set)
        )

    @staticmethod
    def from_pairs(worlds, agents, pairs, valuation=None) -> "KripkeModel":
        """Build from per-agent pair lists.

        Reflexive pairs may be omitted and symmetry closure is applied;
        transitivity is *not* inferred, so the result may fail validate().
        """
        worlds = tuple(sorted(worlds))
        world_set = set(worlds)
        relations = []
        for agent in agents:
            rel = set()
            for u, v in (pairs or {}).get(agent, ()):
                if u not in world_set or v not in world_set:
                    raise FormatError(f"unknown world in pair ({u!r}, {v!r}) for {agent!r}")
                rel.add((u, v))
                rel.add((v, u))
            rel.update((w, w) for w in world_set)
            relations.append(frozenset(rel))
        return KripkeModel(
            worlds, tuple(agents), tuple(relations), _valuation_entries(valuation, world_set)
        )

    # views ------------------------------------------------------------------

    @cached_property
    def _c(self) -> _Compiled:
        return _Compiled(self)

    def atom_worlds(self, atom: str) -> frozenset:
        for name, worlds in self.valuation:
            if name == atom:
                return worlds
        return frozenset()

    def atom_names(self) -> tuple:
        return tuple(name for name, _ in self.valuation)

    def world_index(self, world: str) -> int:
        try:
            return self._c.index[world]
        except KeyError:
            raise UnknownWorld(f"unknown world {world!r}") from None

    def agent_position(self, agent: str) -> int:
        try:
            return self._c.agent_index[agent]
        except KeyError:
            raise UnknownAgent(f"unknown agent {agent!r}") from None

    def world_names(self, mask: int) -> frozenset:
        return _names_of(mask, self.worlds)

    # serialization ----------------------------------------------------------

    def to_obj(self) -> dict:
        """Canonical JSON object (partitions form). Requires a valid model."""
        problems = validate(self)
        if problems:
            raise InvalidModel(problems)
        relations = {}
        for k, agent in enumerate(self.agents):
            cells, seen = [], set()
            for w in self.worlds:
                if w in seen:
                    continue
                cell = sorted(v for (u, v) in self.relations[k] if u == w)
                seen.update(cell)
                cells.append(cell)
            relations[agent] = {"partition": cells}
        return {
            "worlds": list(self.worlds),
            "agents": list(self.agents),
            "relations": relations,
            "valuation": {atom: sorted(ws) for atom, ws in self.valuation},
        }


def _valuation_entries(valuation, world_set) -> tuple:
    entries = []
    for atom, ws in (valuation or {}).items():
        ws = frozenset(ws)
        unknown = ws - world_set
        if unknown:
            raise FormatError(f"unknown world {sorted(unknown)[0]!r} in valuation of {atom!r}")
        entries.append((atom, ws))
    return tuple(sorted(entries))


@dataclass(frozen=True)
class PointedModel:
    model: KripkeModel
    point: str

    def __post_init__(self):
        if self.point not in self.model.worlds:
            raise UnknownWorld(f"unknown world {self.point!r}")


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------


def _coalition_names(model: KripkeModel, coalition) -> tuple:
    """Normalize a Coalition or iterable of names; reject unknown agents."""
    resolve = getattr(coalition, "resolve", None)
    names = resolve(model.agents) if resolve else tuple(sorted(set(coalition)))
    for a in names:
        if a not in model._c.agent_index:
            raise UnknownAgent(f"unknown agent {a!r}")
    return names


def neighborhood(model: KripkeModel, agent: str, world: str) -> frozenset:
    """The equivalence class of ``world`` under ``agent``'s relation."""
    k = model.agent_position(agent)
    i = model.world_index(world)
    return model.world_names(model._c.nbr[k][i])


def union_reach(model: KripkeModel, coalition, world: str) -> frozenset:
    """One-step union of the member classes; empty coalition yields the empty set."""
    names = _coalition_names(model, coalition)
    i = model.world_index(world)
    m = 0
    for a in names:
        m |= model._c.nbr[model.agent_position(a)][i]
    return model.world_names(m)


def common_closure(model: KripkeModel, coalition, world: str) -> frozenset:
    """Reflexive-transitive closure of the union relation, seeded at ``world``."""
    return model.world_names(closure_mask(model, _coalition_names(model, coalition), world))


def closure_mask(model: KripkeModel, names, world: str) -> int:
    c = model._c
    reach = 1 << model.world_index(world)
    cell_lists = [c.cells[c.agent_index[a]] for a in names]
    changed = True
    while changed:
        changed = False
        for cells in cell_lists:
            for cell in cells:
                if cell & reach and cell | reach != reach:
                    reach |= cell
                    changed = True
    return reach


def exact_profile(model: KripkeModel, w: str, v: str) -> frozenset:
    """The exact set of agents whose relation links ``w`` and ``v``."""
    i = model.world_index(w)
    j = model.world_index(v)
    c = model._c
    return frozenset(a for a, k in c.agent_index.items() if c.nbr[k][i] >> j & 1)


def validate(model: KripkeModel) -> list:
    """All invariant violations; empty iff every relation is an equivalence."""
    out = []
    world_set = set(model.worlds)
    for atom, ws in model.valuation:
        for w in sorted(ws - world_set):
            out.append(Violation("dangling-reference", None, (atom, w)))
    for k, agent in enumerate(model.agents):
        rel = model.relations[k]
        nbrs = {w: set() for w in model.worlds}
        dangling = False
        for (u, v) in sorted(rel):
            if u not in world_set or v not in world_set:
                out.append(Violation("dangling-reference", agent, (u, v)))
                dangling = True
                continue
            nbrs[u].add(v)
        if dangling:
            continue
        for w in model.worlds:
            if w not in nbrs[w]:
                out.append(Violation("reflexivity", agent, (w, w)))
        for u in model.worlds:
            for v in sorted(nbrs[u]):
                if u not in nbrs[v]:
                    out.append(Violation("symmetry", agent, (u, v)))
        for u in model.worlds:
            for v in sorted(nbrs[u]):
                for w in sorted(nbrs[v]):
                    if w not in nbrs[u]:
                        out.append(Violation("transitivity", agent, (u, v, w)))
    return out


# ---------------------------------------------------------------------------
# JSON format
# ---------------------------------------------------------------------------


def load(text: str) -> KripkeModel:
    """Parse model JSON; reject schema problems and invalid relations."""
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

    partition_model = KripkeModel.from_partitions(
        worlds, agents, partitions, valuation
    )
    if not pairs:
        model = partition_model
    else:
        merged = []
        for k, agent in enumerate(partition_model.agents):
            if agent in pairs:
                by_pairs = KripkeModel.from_pairs(worlds, [agent], {agent: pairs[agent]})
                merged.append(by_pairs.relations[0])
            else:
                merged.append(partition_model.relations[k])
        model = KripkeModel(
            partition_model.worlds, partition_model.agents, tuple(merged),
            partition_model.valuation,
        )
    problems = validate(model)
    if problems:
        raise InvalidModel(problems)
    return model


def _strings(value, what: str) -> list:
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise FormatError(f"{what} must be a list of strings")
    return value


def _string_lists(value, what: str) -> list:
    if not isinstance(value, list):
        raise FormatError(f"{what} must be a list of lists of strings")
    return [_strings(item, f"each entry of the {what}") for item in value]


def save(model: KripkeModel) -> str:
    """Canonical JSON text; ``load(save(m)) == m`` for valid models."""
    return json.dumps(model.to_obj(), sort_keys=True, separators=(",", ":")) + "\n"
