"""The named regression suite behind the ``suite`` CLI subcommand.

Checks are grouped (example1, example2, bisimulation, validity,
nonvalidity); each produces an expected/actual string pair.  The validity
group runs the law corpus over seeded random models, so a fixed seed gives
byte-identical reports.
"""

from __future__ import annotations

import functools
import random
import time
from dataclasses import dataclass

from .bisim import distinguishing_formula_search, max_bisim, pointed_bisim
from .fuzz import random_coalition, random_formula, random_model
from .model import PointedModel
from .sat import SatQuery, sat_bounded, valid_bounded
from .semantics import EvalContext, check, sat_set
from .scenarios import at_least_one_muddy, bit_channel, muddy, nobody_knows_own_state
from .syntax import (
    And,
    AnnGlobal,
    AnnLocal,
    Atom,
    Coalition,
    Common,
    Everybody,
    Iff,
    Implies,
    Not,
    parse,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    group: str
    expected: str
    actual: str
    ok: bool
    seconds: float

    def to_obj(self) -> dict:
        # Wall time is reported on a separate channel to keep stdout stable.
        return {
            "name": self.name,
            "group": self.group,
            "expected": self.expected,
            "actual": self.actual,
            "ok": self.ok,
        }


# ---------------------------------------------------------------------------
# Validity corpus
# ---------------------------------------------------------------------------

LAW_NAMES = (
    "propositional-local-everybody",
    "propositional-global-common",
    "reduce-atom-local",
    "reduce-atom-global",
    "reduce-negation-local",
    "reduce-negation-global",
    "reduce-conjunction-local",
    "reduce-conjunction-global",
    "commute-everybody-single-agent",
    "commute-everybody-propositional",
    "commute-common-single-agent",
    "compose-nested-local",
    "compose-nested-global",
    "axiom-k-local",
    "axiom-k-global",
)


def law_instances(rng: random.Random, agents) -> list:
    """One fuzzed instance of every corpus law over the given agent pool."""
    atoms = ["p", "q"]
    phi = random_formula(rng, 3, atoms, agents)
    psi = random_formula(rng, 3, atoms, agents)
    chi = random_formula(rng, 2, atoms, agents)
    phi2 = random_formula(rng, 3, atoms, agents)
    prop_phi = random_formula(rng, 3, atoms, agents, fragment="propositional")
    prop_psi = random_formula(rng, 3, atoms, agents, fragment="propositional")
    co = random_coalition(rng, agents)
    single = Coalition.of(rng.choice(list(agents)))
    p = Atom("p")
    return [
        ("propositional-local-everybody", AnnLocal(prop_phi, co, Everybody(co, prop_phi))),
        ("propositional-global-common", AnnGlobal(prop_phi, co, Common(co, prop_phi))),
        ("reduce-atom-local", Iff(AnnLocal(phi, co, p), Implies(phi, p))),
        ("reduce-atom-global", Iff(AnnGlobal(phi, co, p), Implies(phi, p))),
        ("reduce-negation-local",
         Iff(AnnLocal(phi, co, Not(psi)), Implies(phi, Not(AnnLocal(phi, co, psi))))),
        ("reduce-negation-global",
         Iff(AnnGlobal(phi, co, Not(psi)), Implies(phi, Not(AnnGlobal(phi, co, psi))))),
        ("reduce-conjunction-local",
         Iff(AnnLocal(phi, co, And(psi, chi)),
             And(AnnLocal(phi, co, psi), AnnLocal(phi, co, chi)))),
        ("reduce-conjunction-global",
         Iff(AnnGlobal(phi, co, And(psi, chi)),
             And(AnnGlobal(phi, co, psi), AnnGlobal(phi, co, chi)))),
        ("commute-everybody-single-agent",
         Iff(AnnLocal(phi, single, Everybody(single, psi)),
             Implies(phi, Everybody(single, AnnLocal(phi, single, psi))))),
        ("commute-everybody-propositional",
         Iff(AnnLocal(phi, co, Everybody(co, prop_psi)),
             Implies(phi, Everybody(co, AnnLocal(phi, co, prop_psi))))),
        ("commute-common-single-agent",
         Iff(AnnGlobal(phi, single, Common(single, psi)),
             Implies(phi, Common(single, AnnGlobal(phi, single, psi))))),
        ("compose-nested-local",
         Iff(AnnLocal(phi, co, AnnLocal(phi2, co, psi)),
             AnnLocal(And(phi, AnnLocal(phi, co, phi2)), co, psi))),
        ("compose-nested-global",
         Iff(AnnGlobal(phi, co, AnnGlobal(phi2, co, psi)),
             AnnGlobal(And(phi, AnnGlobal(phi, co, phi2)), co, psi))),
        ("axiom-k-local",
         Implies(AnnLocal(phi, co, Implies(psi, chi)),
                 Implies(AnnLocal(phi, co, psi), AnnLocal(phi, co, chi)))),
        ("axiom-k-global",
         Implies(AnnGlobal(phi, co, Implies(psi, chi)),
                 Implies(AnnGlobal(phi, co, psi), AnnGlobal(phi, co, chi)))),
    ]


def run_validity_corpus(seed: int, n_models: int, context: EvalContext | None = None):
    """Counts of law failures over the random model corpus.

    Returns (failures per law name, necessitation report), where the
    necessitation report is (count of corpus-valid bodies, count of their
    announced versions that stayed corpus-valid).
    """
    rng = random.Random(seed)
    ctx = context or EvalContext()
    failures = dict.fromkeys(LAW_NAMES, 0)

    models = []
    for _ in range(n_models):
        agents = ["a", "b", "c"][: rng.randint(1, 3)]
        models.append(random_model(rng, rng.randint(2, 5), agents, ["p", "q"]))
    for model in models:
        for name, law in law_instances(rng, model.agents):
            if sat_set(model, law, context=ctx) != frozenset(model.worlds):
                failures[name] += 1

    # Necessitation: a body valid over the whole corpus stays valid under
    # announcing.  The pool seeds obvious tautologies so the check never
    # runs vacuously.
    pool = [parse("p | !p"), parse("(p & q) -> p"), parse("K{a} true")]
    pool += [random_formula(rng, 2, ["p", "q"], ["a"]) for _ in range(6)]
    compatible = [m for m in models if "a" in m.agents]
    valid_bodies = [
        body for body in pool
        if all(sat_set(m, body, context=ctx) == frozenset(m.worlds) for m in compatible)
    ]
    announced_still_valid = 0
    for body in valid_bodies:
        boxes = [
            AnnLocal(Atom("p"), Coalition.of("a"), body),
            AnnGlobal(Atom("p"), Coalition.of("a"), body),
        ]
        if all(
            sat_set(m, boxed, context=ctx) == frozenset(m.worlds)
            for m in compatible
            for boxed in boxes
        ):
            announced_still_valid += 1
    return failures, (len(valid_bodies), announced_still_valid)


# ---------------------------------------------------------------------------
# Named checks
# ---------------------------------------------------------------------------


def build_checks(seed: int = 2024, n_models: int = 150) -> list:
    """(name, group, thunk) triples; each thunk returns (expected, actual)."""
    checks = []

    def add(name, group, thunk):
        checks.append((name, group, thunk))

    ctx = EvalContext()
    cube = muddy(3)
    alpha = at_least_one_muddy(cube)
    point = PointedModel(cube, "100")

    def example1(formula_text, expected):
        def thunk():
            return str(expected), str(check(point, parse(formula_text), context=ctx))
        return thunk

    a = "(m_r | m_g | m_b)"
    add("example1.local-everybody-learns", "example1",
        example1(f"[{a}]-{{r,g,b}} E{{r,g,b}} {a}", True))
    add("example1.local-red-learns-muddy", "example1",
        example1(f"[{a}]-{{r,g,b}} K{{r}} m_r", True))
    add("example1.local-no-common-knowledge", "example1",
        example1(f"[{a}]-{{r,g,b}} C{{r,g,b}} {a}", False))
    add("example1.local-doubt-path-survives", "example1",
        example1(f"[{a}]-{{r,g,b}} M{{b}} M{{r}} M{{b}} !{a}", True))
    add("example1.global-pair-common-knowledge", "example1",
        example1(f"[{a}]+{{r,b}} C{{r,b}} {a}", True))
    add("example1.global-pair-not-grand-common", "example1",
        example1(f"[{a}]+{{r,b}} C{{r,g,b}} {a}", False))

    def no_common_anywhere():
        f = parse(f"[{a}]-{{r,g,b}} C{{r,g,b}} {a}")
        holds = sat_set(cube, f, context=ctx)
        return "only 000", "only 000" if holds == frozenset(["000"]) else f"holds at {sorted(holds)}"

    add("example1.local-common-fails-everywhere", "example1", no_common_anywhere)

    n_model = bit_channel("N")
    nprime = bit_channel("Nprime")
    pn = PointedModel(n_model, "w1")
    pq = PointedModel(nprime, "w1")

    add("example2.receiver-learns-bit", "example2",
        lambda: ("True", str(check(pn, parse("[bit0]{r} K{r} bit0"), context=ctx))))
    add("example2.eavesdropper-learns-that-not-what", "example2",
        lambda: ("True", str(check(
            pn, parse("[bit0]{r} (!Kw{e} bit0 & K{e} Kw{r} bit0)"), context=ctx))))
    add("example2.copies-hide-receiver-learning", "example2",
        lambda: ("True", str(check(
            pq, parse("[bit0]{r} !K{e} Kw{r} bit0"), context=ctx))))

    def joint_value_split():
        f = parse("[bit0]{r} K{e} (D{r,e} bit0 | D{r,e} !bit0)")
        return "True/False", f"{check(pn, f, context=ctx)}/{check(pq, f, context=ctx)}"

    add("example2.joint-value-knowledge-separates", "example2", joint_value_split)

    add("bisimulation.modal-relates-channel-models", "bisimulation",
        lambda: ("True", str(("w1", "w1") in max_bisim(n_model, nprime, "modal"))))
    add("bisimulation.exact-profile-separates", "bisimulation",
        lambda: ("False", str(pointed_bisim(pn, pq, "plusminus").related)))
    add("bisimulation.collective-relates", "bisimulation",
        lambda: ("True", str(pointed_bisim(pn, pq, "collective", total=True).related)))

    def distinguisher():
        f = distinguishing_formula_search(pn, pq, 5)
        if f is None:
            return "found and verified", "no formula found"
        good = check(pn, f, context=ctx) and not check(pq, f, context=ctx)
        return "found and verified", "found and verified" if good else "found but wrong"

    add("bisimulation.distinguishing-formula", "bisimulation", distinguisher)

    @functools.cache
    def corpus():
        return run_validity_corpus(seed, n_models)

    def validity_thunk(law):
        def thunk():
            failures, _ = corpus()
            return "0 counterexamples", f"{failures[law]} counterexamples"
        return thunk

    for law in LAW_NAMES:
        add(f"validity.{law}", "validity", validity_thunk(law))

    def necessitation():
        _, (bodies, kept) = corpus()
        return f"{bodies}/{bodies} preserved", f"{kept}/{bodies} preserved"

    add("validity.necessitation", "validity", necessitation)

    def axiom_t():
        result = valid_bounded(parse("[p]{a} q -> q"), 2)
        return "counterexample", result.status

    add("nonvalidity.axiom-t-fails", "nonvalidity", axiom_t)

    def axiom_4():
        cube_, pt = muddy(3), "110"
        ann = And(at_least_one_muddy(cube_), nobody_knows_own_state(cube_))
        co = Coalition.of(*cube_.agents)
        ignorance = nobody_knows_own_state(cube_)
        knows = parse("(m_r -> Kw{r} m_r) & (m_g -> Kw{g} m_g) & (m_b -> Kw{b} m_b)")
        pm = PointedModel(cube_, pt)
        got = (
            check(pm, AnnGlobal(ann, co, ignorance), context=ctx),
            check(pm, AnnGlobal(ann, co, AnnGlobal(ann, co, knows)), context=ctx),
            check(pm, AnnGlobal(ann, co, AnnGlobal(ann, co, ignorance)), context=ctx),
        )
        return "(True, True, False)", str(got)

    add("nonvalidity.axiom-4-muddy-rounds", "nonvalidity", axiom_4)

    def axiom_b():
        moore = "(p & !K{a} p)"
        probe = parse(f"{moore} & !([p]{{a}} <p>{{a}} {moore})")
        result = sat_bounded(SatQuery(probe, max_worlds=4))
        if not result.satisfiable:
            return "counterexample within 4 worlds", result.status
        rechecks = check(result.witness, probe)
        return ("counterexample within 4 worlds",
                "counterexample within 4 worlds" if rechecks else "witness failed recheck")

    add("nonvalidity.axiom-b-fails", "nonvalidity", axiom_b)

    return checks


def run_suite(name_filter: str | None = None, seed: int = 2024, n_models: int = 150) -> list:
    results = []
    for name, group, thunk in build_checks(seed, n_models):
        if name_filter and name_filter not in name and name_filter != group:
            continue
        start = time.perf_counter()
        expected, actual = thunk()
        elapsed = time.perf_counter() - start
        results.append(CheckResult(name, group, expected, actual, expected == actual, elapsed))
    return results
