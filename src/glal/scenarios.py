"""Builders for the bundled example models and their announcement rounds."""

from __future__ import annotations

from .errors import BoundExceeded
from .model import KripkeModel, PointedModel
from .semantics import EvalContext, refine_global, refine_local
from .syntax import And, Atom, Formula, KnowWhether, Not, Or

MAX_CHILDREN = 10

_DEFAULT_NAMES = ["r", "g", "b"]


def muddy_agent_names(n: int) -> list:
    return [_DEFAULT_NAMES[i] if i < 3 else f"c{i + 1}" for i in range(n)]


def muddy(n: int) -> KripkeModel:
    """The n-children puzzle start: bit-vector worlds, one flip per agent.

    World names are the bit strings themselves ("100" = first child muddy);
    agent i's relation links worlds differing in at most bit i.
    """
    if n < 1:
        raise ValueError("need at least one child")
    if n > MAX_CHILDREN:
        raise BoundExceeded(f"{n} children means 2^{n} worlds; capped at {MAX_CHILDREN}")
    agents = muddy_agent_names(n)
    worlds = [format(i, f"0{n}b") for i in range(2 ** n)]
    partitions = {
        agent: [
            [w, w[:i] + ("1" if w[i] == "0" else "0") + w[i + 1:]]
            for w in worlds
            if w[i] == "0"
        ]
        for i, agent in enumerate(agents)
    }
    valuation = {
        muddy_atom(agent).name: [w for w in worlds if w[i] == "1"]
        for i, agent in enumerate(agents)
    }
    return KripkeModel.from_partitions(worlds, agents, partitions, valuation)


def muddy_atom(agent: str) -> Atom:
    return Atom(f"m_{agent}")


def at_least_one_muddy(model: KripkeModel) -> Formula:
    """The father's fact: some child is muddy (disjunction over the agents)."""
    out = None
    for agent in model.agents:
        atom = muddy_atom(agent)
        out = atom if out is None else Or(out, atom)
    return out


def nobody_knows_own_state(model: KripkeModel) -> Formula:
    """No child knows whether she is muddy (conjunction over the agents)."""
    out = None
    for agent in model.agents:
        conjunct = Not(KnowWhether(agent, muddy_atom(agent)))
        out = conjunct if out is None else And(out, conjunct)
    return out


def muddy_round(
    pointed: PointedModel, kind: str, coalition=None, *, context: EvalContext | None = None
) -> PointedModel:
    """One announcement round of the puzzle, as a pointed-model transformer.

    father_local / father_global announce "at least one muddy" (locally to
    everyone, or globally to the supplied coalition); no_stepping globally
    announces that no child knows her own state.  The refinement is applied
    whether or not the announced formula holds at the point.
    """
    model, point = pointed.model, pointed.point
    if kind == "father_local":
        refined = refine_local(model, point, at_least_one_muddy(model), model.agents,
                               context=context)
    elif kind == "father_global":
        refined = refine_global(model, point, at_least_one_muddy(model),
                                coalition if coalition is not None else model.agents,
                                context=context)
    elif kind == "no_stepping":
        refined = refine_global(model, point, nobody_knows_own_state(model), model.agents,
                                context=context)
    else:
        raise ValueError(f"unknown round kind {kind!r}")
    return PointedModel(refined, point)


def bit_channel(variant: str) -> KripkeModel:
    """Sender/receiver/eavesdropper bit models.

    N: two worlds, the sender knows the bit, receiver and eavesdropper do
    not.  Nprime: two stacked copies (v1,v2,w1,w2); the receiver separates
    the copies, the sender separates bit values across copies, and the
    eavesdropper's relation closes to one four-world class.
    """
    if variant == "N":
        return KripkeModel.from_partitions(
            ["w1", "w2"],
            ["s", "r", "e"],
            {"s": [["w1"], ["w2"]], "r": [["w1", "w2"]], "e": [["w1", "w2"]]},
            {"bit0": ["w1"]},
        )
    if variant == "Nprime":
        return KripkeModel.from_partitions(
            ["v1", "v2", "w1", "w2"],
            ["s", "r", "e"],
            {
                "s": [["v1", "w1"], ["v2", "w2"]],
                "r": [["v1", "v2"], ["w1", "w2"]],
                "e": [["v1", "v2", "w1", "w2"]],
            },
            {"bit0": ["v1", "w1"]},
        )
    raise ValueError(f"unknown channel variant {variant!r} (want N or Nprime)")
