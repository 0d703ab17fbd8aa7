"""Seeded random models and formulas for the property suites.

Everything here is driven by an explicit random.Random so that suites and
CLI runs are reproducible.
"""

from __future__ import annotations

import random

from . import syntax as sx
from .model import KripkeModel, PointedModel, closure, iter_bits

FRAGMENTS = ("propositional", "epistemic", "pal", "full")


def random_partition(rng: random.Random, items) -> list:
    """A uniformly-shaped random partition via a random growth code."""
    items = list(items)
    cells = {}
    blocks = 0
    for item in items:
        c = rng.randint(0, blocks)  # a fresh block when c == blocks
        blocks = max(blocks, c + 1)
        cells.setdefault(c, []).append(item)
    return list(cells.values())


def random_model(
    rng: random.Random, n_worlds: int, agents, atoms, connected: bool = False
) -> KripkeModel:
    worlds = [f"u{i}" for i in range(n_worlds)]
    for _ in range(40):
        partitions = {a: random_partition(rng, worlds) for a in agents}
        valuation = {
            p: [w for w in worlds if rng.random() < 0.5] for p in atoms
        }
        model = KripkeModel.from_partitions(worlds, agents, partitions, valuation)
        if not connected or closure(model.cells, 1) == model._full:
            return model
    # Force connectivity by coarsening the first agent's relation.
    partitions[agents[0]] = [list(worlds)]
    return KripkeModel.from_partitions(worlds, agents, partitions, valuation)


def random_pointed(rng: random.Random, model: KripkeModel) -> PointedModel:
    return PointedModel(model, rng.choice(model.worlds))


def random_coalition(rng: random.Random, agents, allow_empty: bool = False) -> sx.Coalition:
    agents = list(agents)
    k_min = 0 if allow_empty else 1
    k = rng.randint(k_min, len(agents))
    return sx.Coalition(frozenset(rng.sample(agents, k)))


def random_formula(
    rng: random.Random, max_depth: int, atoms, agents, fragment: str = "full"
) -> sx.Formula:
    """Random AST of at most the given depth over the vocabulary."""
    if fragment not in FRAGMENTS:
        raise ValueError(f"unknown fragment {fragment!r}")
    atoms = list(atoms)
    agents = list(agents)

    def leaf():
        roll = rng.random()
        if atoms and roll < 0.8:
            return sx.Atom(rng.choice(atoms))
        return sx.TOP if roll < 0.9 else sx.BOT

    def go(budget):
        if budget <= 1 or rng.random() < 0.25:
            return leaf()
        ops = [sx.Not, *sx.BINARY]
        if fragment != "propositional" and agents:
            ops += [*sx.AGENT_OPS, sx.Common, sx.Everybody]
        if fragment == "pal":
            ops += [sx.PalAnn, sx.PalAnn]
        if fragment == "full" and agents:
            ops += [sx.Distributed, *sx.ANNOUNCE_OPS]
        cls = rng.choice(ops)
        if cls is sx.Not:
            return sx.Not(go(budget - 1))
        if cls in sx.BINARY or cls is sx.PalAnn:
            return cls(go(budget - 1), go(budget - 1))
        if cls in sx.AGENT_OPS:
            return cls(rng.choice(agents), go(budget - 1))
        if cls in sx.COALITION_OPS:
            return cls(random_coalition(rng, agents, allow_empty=cls is not sx.Distributed),
                       go(budget - 1))
        return cls(go(budget - 1), random_coalition(rng, agents, allow_empty=True),
                   go(budget - 1))

    return go(max_depth)


def duplicate_worlds(rng: random.Random, model: KripkeModel, copies: int = 1) -> tuple:
    """Clone random worlds as universal twins (same valuation, same classes).

    The twin joins every class of its original for every agent, so exact
    agent profiles are preserved and the identity-plus-twin relation is an
    exact-profile bisimulation between the model and its extension.
    Returns (extended model, {original: twin}).
    """
    chosen = rng.sample(list(model.worlds), min(copies, len(model.worlds)))
    twin_of = {w: f"{w}_twin" for w in chosen}
    new_worlds = tuple(sorted(model.worlds + tuple(twin_of.values())))
    bit = {w: 1 << i for i, w in enumerate(new_worlds)}
    spread = [bit[w] | bit.get(twin_of.get(w), 0) for w in model.worlds]

    def extend(mask):
        return sum(spread[i] for i in iter_bits(mask))

    cells = tuple(tuple(extend(cell) for cell in part) for part in model.cells)
    valuation = {atom: extend(mask) for atom, mask in model.valuation}
    extended = KripkeModel(new_worlds, model.agents, cells, valuation)
    return extended, twin_of
