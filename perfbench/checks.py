"""Verdict checks for the benchmark's queries, and a naive reference evaluator.

Every check derives the expected answer from a property of the input
(a closed form of the muddy-children puzzle, a law proved in the paper,
or an evaluation by the naive evaluator below), never from a stored copy
of the program's output.  Checks take the CLI's exit code and stdout and
return True when both agree with the expectation.

The evaluator works on the model JSON files the CLI read, with plain name
sets and one refined copy per evaluated world, and dispatches on the class
names of the formula AST, so it shares no code with ``glal.semantics``.
"""

from __future__ import annotations

import json

EX_TRUE, EX_FALSE = 0, 1


# -- expected verdicts ---------------------------------------------------------


def muddy_global_expected(point: str, rounds: int) -> bool:
    """``[alpha]+{*} ([ign]+{*})^rounds resolved`` at a muddy-children world.

    A global announcement to every agent is the public announcement, so
    this is the muddy-children theorem: the muddy children know their
    state after ``rounds`` rounds of "nobody knows" iff at most
    ``rounds + 1`` of them are muddy.
    """
    return point.count("1") <= rounds + 1


def muddy_local_expected(point: str, rounds: int) -> bool:
    """The same query with local announcements ``-{*}``.

    A local announcement splits only the actual world's classes, so the
    ignorance rounds give no child news: the answer is true iff at most
    one child is muddy, whatever the number of rounds.
    """
    return point.count("1") <= 1


BOUNDED_STATUS = {"valid": "valid-up-to-bound", "sat": "unsat-up-to-bound"}


# -- checks on CLI output ----------------------------------------------------------


def _payload(out: str):
    try:
        return json.loads(out)
    except ValueError:
        return None


def check_verdict(expected: bool, rc: int, out: str) -> bool:
    """``glal check``: exit code and JSON both carry the expected boolean."""
    return rc == (EX_TRUE if expected else EX_FALSE) and _payload(out) == {
        "result": expected
    }


def check_bounded(command: str, rc: int, out: str) -> bool:
    """``glal valid`` of a law / ``glal sat`` of a contradiction.

    The paper proves the laws valid and the contradictions unsatisfiable,
    so the enumeration must exhaust its bound: valid-up-to-bound (exit 0)
    or unsat-up-to-bound (exit 1), with a positive ``models_examined``.
    """
    payload = _payload(out)
    if not isinstance(payload, dict):
        return False
    examined = payload.get("models_examined")
    return (
        rc == (EX_TRUE if command == "valid" else EX_FALSE)
        and payload.get("status") == BOUNDED_STATUS[command]
        and isinstance(examined, int)
        and examined > 0
    )


BISIM_KIND = {"m": "modal", "pm": "plusminus", "coll": "collective"}


def check_bisim(kind: str, related: bool, rc: int, out: str, left, right) -> bool:
    """``glal bisim`` of ``left`` against ``right``, each ``(model path, world)``.

    Beyond the expected relatedness, exit code and kind: a related pair's
    witness must contain the pair itself, and an unrelated pair (queried
    with ``--distinguish``) must come with a formula that the naive
    evaluator finds true at the left point and false at the right one.
    """
    payload = _payload(out)
    if not isinstance(payload, dict):
        return False
    if payload.get("kind") != BISIM_KIND[kind] or payload.get("related") is not related:
        return False
    if rc != (EX_TRUE if related else EX_FALSE):
        return False
    if related:
        return [left[1], right[1]] in (payload.get("witness") or [])
    text = payload.get("distinguishing_formula")
    return isinstance(text, str) and distinguishes(text, left, right)


def distinguishes(text: str, left, right) -> bool:
    from glal.syntax import parse

    formula = parse(text)
    (lpath, lworld), (rpath, rworld) = left, right
    return lworld in sat(load_plain(lpath), formula) and rworld not in sat(
        load_plain(rpath), formula
    )


# -- naive reference evaluator -----------------------------------------------------


def load_plain(path: str) -> dict:
    """A model file as plain sets: worlds, per-agent class of each world, valuation."""
    with open(path, encoding="utf-8") as handle:
        obj = json.load(handle)
    worlds = list(obj["worlds"])
    nbr = {}
    for agent in obj["agents"]:
        cls = {w: frozenset([w]) for w in worlds}
        for cell in obj.get("relations", {}).get(agent, {}).get("partition", []):
            for w in cell:
                cls[w] = frozenset(cell)
        nbr[agent] = cls
    val = {atom: frozenset(ws) for atom, ws in obj.get("valuation", {}).items()}
    return {"worlds": worlds, "nbr": nbr, "val": val}


def _closure(m: dict, agents, w) -> set:
    reach, frontier = {w}, [w]
    while frontier:
        u = frontier.pop()
        for a in agents:
            for v in m["nbr"][a][u] - reach:
                reach.add(v)
                frontier.append(v)
    return reach


def _split(m: dict, agents, scope_of, psi) -> dict:
    """Copy of ``m`` where each agent's classes inside its scope are cut by ``psi``."""
    nbr = dict(m["nbr"])
    for a in agents:
        scope = scope_of(a)
        cls = dict(nbr[a])
        for v in scope:
            cls[v] = cls[v] & psi if v in psi else cls[v] - psi
        nbr[a] = cls
    return {"worlds": m["worlds"], "nbr": nbr, "val": m["val"]}


def sat(m: dict, f) -> set:
    """Worlds of ``m`` satisfying ``f``, straight from the quantifier clauses."""
    worlds = set(m["worlds"])
    name = type(f).__name__
    if name == "Atom":
        return set(m["val"].get(f.name, ()))
    if name == "Top":
        return worlds
    if name == "Bot":
        return set()
    if name == "Not":
        return worlds - sat(m, f.sub)
    if name in ("And", "Or", "Implies", "Iff"):
        left, right = sat(m, f.left), sat(m, f.right)
        return {
            "And": left & right,
            "Or": left | right,
            "Implies": (worlds - left) | right,
            "Iff": (left & right) | (worlds - left - right),
        }[name]
    if name in ("Know", "KnowWhether", "Dual"):
        sub, cls = sat(m, f.sub), m["nbr"][f.agent]
        if name == "Know":
            return {w for w in worlds if cls[w] <= sub}
        if name == "KnowWhether":
            return {w for w in worlds if cls[w] <= sub or not cls[w] & sub}
        return {w for w in worlds if cls[w] & sub}
    if name in ("Everybody", "Common", "Distributed"):
        agents = f.coalition.resolve(sorted(m["nbr"]))
        sub = sat(m, f.sub)
        if name == "Everybody":
            return {w for w in worlds if all(m["nbr"][a][w] <= sub for a in agents)}
        if name == "Common":
            return {w for w in worlds if _closure(m, agents, w) <= sub}
        out = set()
        for w in worlds:
            meet = set(worlds)
            for a in agents:
                meet &= m["nbr"][a][w]
            if (meet if agents else {w}) <= sub:
                out.add(w)
        return out
    if name in ("AnnLocal", "AnnGlobal", "DiaLocal", "DiaGlobal"):
        agents = f.coalition.resolve(sorted(m["nbr"]))
        psi = frozenset(sat(m, f.announced))
        after = set()
        for w in psi:
            if name.endswith("Local"):
                refined = _split(m, agents, lambda a: m["nbr"][a][w], psi)
            else:
                region = _closure(m, agents, w)
                refined = _split(m, agents, lambda a: region, psi)
            if w in sat(refined, f.sub):
                after.add(w)
        return after if name.startswith("Dia") else (worlds - psi) | after
    raise TypeError(f"the reference evaluator does not cover {name}")
