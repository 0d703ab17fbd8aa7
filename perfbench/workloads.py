"""Seeded query lists, one per workload.

``build(workload, seed, workdir)`` writes the model and alias files a user
would hand to ``glal`` into ``workdir`` and returns one pass of queries:
the argv of each call and the check of its verdict.  The mix of query
shapes in a pass is fixed per workload; the seed chooses points, twins,
agent and atom names, and the order within the pass.  Every query of a
workload does the same kind of work whatever the seed, so runs with
different seeds measure the same thing.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable

import checks


@dataclass(frozen=True)
class Query:
    argv: tuple
    check: Callable[[int, str], bool]


@dataclass(frozen=True)
class Workload:
    build: Callable
    # query_tail_ms is this percentile of the run's query times; a run keeps
    # going until at least ten samples lie beyond it.
    tail_pct: Fraction

    @property
    def min_queries(self) -> int:
        return -(-10 // (1 - self.tail_pct / 100))


def _write(workdir: str, name: str, text: str) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path


def _muddy_queries(rng, workdir, sign, plan, expected) -> list:
    """``glal check muddyN.json:<w> "[alpha]S{*} ([ign]S{*})^k resolved" --defs``.

    ``plan`` lists (children, rounds, queries per pass); points are drawn
    uniformly from the 2^n worlds.
    """
    from glal.model import save
    from glal.scenarios import muddy

    files = {}
    for n in sorted({n for n, _, _ in plan}):
        model = muddy(n)
        defs = {
            "alpha": " | ".join(f"m_{a}" for a in model.agents),
            "ign": " & ".join(f"!Kw{{{a}}} m_{a}" for a in model.agents),
            "resolved": " & ".join(f"(m_{a} -> Kw{{{a}}} m_{a})" for a in model.agents),
        }
        files[n] = (
            _write(workdir, f"muddy{n}.json", save(model)),
            _write(workdir, f"defs{n}.json", json.dumps(defs)),
            model.worlds,
        )
    queries = []
    for n, rounds, count in plan:
        path, defs_path, worlds = files[n]
        text = f"[alpha]{sign}{{*}} " + f"[ign]{sign}{{*}} " * rounds + "resolved"
        for _ in range(count):
            point = rng.choice(worlds)
            queries.append(Query(
                ("check", f"{path}:{point}", text, "--defs", defs_path),
                partial(checks.check_verdict, expected(point, rounds)),
            ))
    return queries


def muddy_global(rng, workdir) -> list:
    plan = [(7, 1, 2), (7, 2, 2), (7, 3, 2)]
    return _muddy_queries(rng, workdir, "+", plan, checks.muddy_global_expected)


def muddy_local(rng, workdir) -> list:
    plan = [(4, 1, 2), (4, 2, 2), (5, 1, 2), (5, 2, 2)]
    return _muddy_queries(rng, workdir, "-", plan, checks.muddy_local_expected)


# Laws of the paper (valid) and contradictions (unsatisfiable), so every
# query exhausts its bound.  A1/A2 and P1/P2 are replaced by seeded names.
BOUNDED = [
    ("valid", "[P2]-{A1,A2} !P1 <-> (P2 -> ![P2]-{A1,A2} P1)", 3, ()),
    ("valid", "[P2]-{A1,A2} P1 <-> (P2 -> P1)", 3, ()),
    ("valid", "[P1]+{A1,A2} C{A1,A2} P1", 4, ()),
    ("valid", "[P1]-{A1} E{A1} K{A2} P1 <-> (P1 -> E{A1} [P1]-{A1} K{A2} P1)", 4, ()),
    ("sat", "K{A1} P1 & !P1", 4, ("--agents", "A1,A2")),
    ("sat", "C{A1,A2} P1 & !K{A1} P1", 4, ()),
    ("sat", "P1 & [P1]+{A1,A2} !P1", 4, ()),
]
AGENT_POOL = ("a", "b", "c", "d", "x", "y")
ATOM_POOL = ("p", "q", "r", "s", "t", "u")


def sat_valid(rng, workdir) -> list:
    queries = []
    for command, template, worlds, extra in BOUNDED:
        # Sorted, so A1 and P1 keep the first place in the vocabulary and the
        # enumeration meets the same candidates in the same roles.
        names = dict(zip(("A1", "A2"), sorted(rng.sample(AGENT_POOL, 2))))
        names.update(zip(("P1", "P2"), sorted(rng.sample(ATOM_POOL, 2))))

        def rename(text):
            for placeholder, name in names.items():
                text = text.replace(placeholder, name)
            return text

        argv = (command, rename(template), "--max-worlds", str(worlds)) + tuple(
            rename(x) for x in extra
        )
        queries.append(Query(argv, partial(checks.check_bounded, command)))
    return queries


def bisim(rng, workdir) -> list:
    """Twin pairs (related in every kind) and the channel pair of Example 2."""
    from glal.fuzz import duplicate_worlds
    from glal.model import save
    from glal.scenarios import bit_channel, muddy

    queries = []
    for n, pairs in ((5, 3), (6, 1)):
        model = muddy(n)
        twins, twin_of = duplicate_worlds(rng, model, copies=2)
        left = _write(workdir, f"muddy{n}.json", save(model))
        right = _write(workdir, f"muddy{n}_twins.json", save(twins))
        # The first pair sets a world against its twin, the others a world
        # against its own copy in the extension.
        points = [rng.choice(sorted(twin_of))]
        points += [rng.choice(model.worlds) for _ in range(pairs - 1)]
        for i, w in enumerate(points):
            w2 = twin_of[w] if i == 0 else w
            for kind in ("m", "pm", "coll"):
                queries.append(Query(
                    ("bisim", "--kind", kind, "--left", f"{left}:{w}",
                     "--right", f"{right}:{w2}", "--distinguish", "3"),
                    partial(checks.check_bisim, kind, True, left=(left, w), right=(right, w2)),
                ))
    n_path = _write(workdir, "N.json", save(bit_channel("N")))
    nprime_path = _write(workdir, "Nprime.json", save(bit_channel("Nprime")))
    for depth in (3, 4):
        for kind in ("m", "pm", "coll"):
            queries.append(Query(
                ("bisim", "--kind", kind, "--left", f"{n_path}:w1",
                 "--right", f"{nprime_path}:w1", "--distinguish", str(depth)),
                partial(checks.check_bisim, kind, kind != "pm",
                        left=(n_path, "w1"), right=(nprime_path, "w1")),
            ))
    return queries


WORKLOADS = {
    "muddy_global": Workload(muddy_global, Fraction(98)),
    "muddy_local": Workload(muddy_local, Fraction(95)),
    "sat_valid": Workload(sat_valid, Fraction(90)),
    "bisim": Workload(bisim, Fraction(975, 10)),
}


def build(workload: str, seed: int, workdir: str) -> list:
    """One pass of the workload's queries, with its input files in ``workdir``."""
    rng = random.Random(f"{workload}:{seed}")
    os.makedirs(workdir, exist_ok=True)
    queries = WORKLOADS[workload].build(rng, workdir)
    rng.shuffle(queries)
    return queries
