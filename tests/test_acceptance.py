"""Acceptance gate: one test per criterion, each printing a PASS line.

Criteria with randomized corpora use fixed seeds; the two timed criteria
assert their stated wall-clock budgets.
"""

import random
import time

from glal.bisim import distinguishing_formula_search, max_bisim, pointed_bisim
from glal.fuzz import (
    duplicate_worlds,
    random_coalition,
    random_formula,
    random_model,
    random_pointed,
)
from glal.model import PointedModel
from glal.sat import SatQuery, sat_bounded, valid_bounded
from glal.semantics import (
    EvalContext,
    check,
    check_pal_equiv,
    refine_global,
    refine_local,
)
from glal.scenarios import (
    at_least_one_muddy,
    bit_channel,
    muddy,
    nobody_knows_own_state,
)
from glal.suite import run_validity_corpus
from glal.syntax import (
    And,
    AnnGlobal,
    Atom,
    Coalition,
    Implies,
    KnowWhether,
    depth,
    parse,
)
from model_checks import assert_canonical, assert_refines
from uncached_context import UncachedContext

ALPHA = "(m_r | m_g | m_b)"


def report(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_01_example1_regression():
    start = time.perf_counter()
    ctx = EvalContext()
    cube = muddy(3)
    p = PointedModel(cube, "100")
    assert check(p, parse(f"[{ALPHA}]-{{r,g,b}} E{{r,g,b}} {ALPHA}"), context=ctx) is True
    assert check(p, parse(f"[{ALPHA}]-{{r,g,b}} K{{r}} m_r"), context=ctx) is True
    assert check(p, parse(f"[{ALPHA}]-{{r,g,b}} C{{r,g,b}} {ALPHA}"), context=ctx) is False
    assert check(p, parse(f"[{ALPHA}]-{{r,g,b}} M{{b}} M{{r}} M{{b}} !{ALPHA}"), context=ctx) is True
    assert check(p, parse(f"[{ALPHA}]+{{r,b}} C{{r,b}} {ALPHA}"), context=ctx) is True
    assert check(p, parse(f"[{ALPHA}]+{{r,b}} C{{r,g,b}} {ALPHA}"), context=ctx) is False
    no_common = parse(f"[{ALPHA}]-{{r,g,b}} C{{r,g,b}} {ALPHA}")
    for s in cube.worlds:
        if s != "000":
            assert check(PointedModel(cube, s), no_common, context=ctx) is False
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s"
    report(1, f"muddy-children regression, 13 exact booleans in {elapsed:.2f}s")


def test_criterion_02_example2_regression():
    start = time.perf_counter()
    ctx = EvalContext()
    pn = PointedModel(bit_channel("N"), "w1")
    pq = PointedModel(bit_channel("Nprime"), "w1")
    assert check(pn, parse("[bit0]{r} K{r} bit0"), context=ctx) is True
    assert check(pn, parse("[bit0]{r} (!Kw{e} bit0 & K{e} Kw{r} bit0)"), context=ctx) is True
    assert check(pq, parse("[bit0]{r} !K{e} Kw{r} bit0"), context=ctx) is True
    # joint knowledge of the bit's value separates the two channel models
    value_known = parse("[bit0]{r} K{e} (D{r,e} bit0 | D{r,e} !bit0)")
    assert check(pn, value_known, context=ctx) is True
    assert check(pq, value_known, context=ctx) is False
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"criterion 2 took {elapsed:.2f}s"
    report(2, f"bit-channel regression incl. joint-value separation in {elapsed:.2f}s")


def test_criterion_03_bisimulation_witnesses():
    n, np = bit_channel("N"), bit_channel("Nprime")
    assert ("w1", "w1") in max_bisim(n, np, "modal")
    assert ("w1", "w1") not in max_bisim(n, np, "plusminus")
    pn, pq = PointedModel(n, "w1"), PointedModel(np, "w1")
    assert pointed_bisim(pn, pq, "collective", total=True).related
    f = distinguishing_formula_search(pn, pq, 5)
    assert f is not None and depth(f) <= 5
    assert check(pn, f) and not check(pq, f)
    report(3, f"modal yes / exact-profile no / collective yes; distinguisher depth {depth(f)}")


def test_criterion_04_validity_corpus():
    start = time.perf_counter()
    failures, (bodies, kept) = run_validity_corpus(seed=11, n_models=500)
    assert sum(failures.values()) == 0, failures
    assert bodies >= 3 and kept == bodies, (bodies, kept)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"criterion 4 took {elapsed:.1f}s"
    report(4, f"{len(failures)} law schemas x 500 models, 0 counterexamples, "
              f"necessitation {kept}/{bodies}, {elapsed:.1f}s")


def test_criterion_05_nonvalidity_witnesses():
    # axiom T: a single world with the announcement false suffices
    t_result = valid_bounded(parse("[p]{a} q -> q"), 2)
    assert t_result.status == "counterexample"
    cex = t_result.counterexample
    assert check(cex, parse("[p]{a} q")) and not check(cex, parse("q"))

    # axiom 4 via the no-stepping rounds at (1,1,0): the announcement carries
    # the father's fact, round 1 leaves everyone ignorant, round 2 resolves it
    ctx = EvalContext()
    cube = muddy(3)
    p = PointedModel(cube, "110")
    ignorance = nobody_knows_own_state(cube)
    announced = And(at_least_one_muddy(cube), ignorance)
    co = Coalition.of(*cube.agents)
    muddy_know = parse("(m_r -> Kw{r} m_r) & (m_g -> Kw{g} m_g) & (m_b -> Kw{b} m_b)")
    box = lambda body: AnnGlobal(announced, co, body)
    assert check(p, box(ignorance), context=ctx) is True
    assert check(p, box(box(muddy_know)), context=ctx) is True
    assert check(p, box(box(ignorance)), context=ctx) is False

    # axiom B via the Moore sentence, counterexample within four worlds
    moore = "(p & !K{a} p)"
    probe = parse(f"{moore} & !([p]{{a}} <p>{{a}} {moore})")
    b_result = sat_bounded(SatQuery(probe, max_worlds=4))
    assert b_result.satisfiable
    assert len(b_result.witness.model.worlds) <= 4
    assert check(b_result.witness, probe)
    report(5, "axiom T (1 world), axiom 4 (no-stepping rounds), "
              f"axiom B ({len(b_result.witness.model.worlds)}-world Moore model)")


def test_criterion_06_refinements_stay_equivalences():
    rng = random.Random(66)
    ctx = EvalContext()
    count = 0
    while count < 10_000:
        m = random_model(rng, rng.randint(2, 5),
                         ["a", "b", "c"][: rng.randint(1, 3)], ["p", "q"])
        for _ in range(4):
            w = rng.choice(m.worlds)
            psi = random_formula(rng, 3, ["p", "q"], list(m.agents))
            co = random_coalition(rng, list(m.agents), allow_empty=True)
            for refine in (refine_local, refine_global):
                refined = refine(m, w, psi, co, context=ctx)
                assert_canonical(refined)
                assert_refines(refined, m)
                count += 1
    report(6, f"{count} fuzzed refinements: all validate, all relation-shrinking")


def test_criterion_07_pal_embedding():
    rng = random.Random(77)
    ctx = EvalContext()
    mismatches = 0
    for _ in range(500):
        m = random_model(rng, rng.randint(2, 5), ["a", "b"], ["p", "q"], connected=True)
        f = random_formula(rng, 4, ["p", "q"], ["a", "b"], fragment="pal")
        p = random_pointed(rng, m)
        native, translated = check_pal_equiv(p, f, context=ctx)
        if native != translated:
            mismatches += 1
    assert mismatches == 0
    report(7, "500 public-announcement formulas: native == translated evaluation")


def test_criterion_08_exact_profile_preservation():
    rng = random.Random(88)
    ctx = EvalContext()
    mismatches = 0
    for _ in range(200):
        m = random_model(rng, rng.randint(2, 4),
                         ["a", "b", "c"][: rng.randint(1, 3)], ["p", "q"])
        ext, twins = duplicate_worlds(rng, m, copies=rng.randint(1, 2))
        w = rng.choice(m.worlds)
        w2 = twins.get(w, w) if rng.random() < 0.5 else w
        p, q = PointedModel(m, w), PointedModel(ext, w2)
        assert pointed_bisim(p, q, "plusminus").related
        for _ in range(50):
            f = random_formula(rng, 4, ["p", "q"], list(m.agents))
            if check(p, f, context=ctx) != check(q, f, context=ctx):
                mismatches += 1
        theta = random_formula(rng, 3, ["p", "q"], list(m.agents))
        co = random_coalition(rng, list(m.agents))
        for refine in (refine_local, refine_global):
            rp = refine(m, w, theta, co, context=ctx)
            rq = refine(ext, w2, theta, co, context=ctx)
            assert pointed_bisim(PointedModel(rp, w), PointedModel(rq, w2),
                                 "plusminus").related
    assert mismatches == 0
    report(8, "200 exact-profile pairs x 50 formulas agree; refined pairs stay related")


def _deep_announcement(model):
    coalition = Coalition.of(*model.agents)
    alpha = at_least_one_muddy(model)
    ignorance = nobody_knows_own_state(model)
    resolved = None
    for a in model.agents:
        clause = Implies(Atom(f"m_{a}"), KnowWhether(a, Atom(f"m_{a}")))
        resolved = clause if resolved is None else And(resolved, clause)
    return AnnGlobal(alpha, coalition,
                     AnnGlobal(ignorance, coalition,
                               AnnGlobal(ignorance, coalition, resolved)))


def test_criterion_09_scaling_and_cache_soundness():
    m8 = muddy(8)
    deep = _deep_announcement(m8)
    point = "11" + "0" * 6
    start = time.perf_counter()
    result = check(PointedModel(m8, point), deep, context=EvalContext())
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"muddy(8) deep check took {elapsed:.2f}s"

    m5 = muddy(5)
    deep5 = _deep_announcement(m5)
    for w in ("11000", "10101", "00000"):
        on = check(PointedModel(m5, w), deep5, context=EvalContext())
        off = check(PointedModel(m5, w), deep5, context=UncachedContext())
        assert on == off
    report(9, f"muddy(8) 3-deep announcement in {elapsed:.2f}s (result {result}); "
              "cache on == off on muddy(5)")


def test_criterion_10_oracle_coherence():
    rng = random.Random(100)
    sat_count = 0
    for _ in range(200):
        agents = ("a", "b")[: rng.randint(1, 2)]
        atoms = ("p", "q")[: rng.randint(1, 2)]
        f = random_formula(rng, 3, atoms, agents)
        result = sat_bounded(SatQuery(f, max_worlds=3, agents=agents, atoms=atoms))
        if result.satisfiable:
            sat_count += 1
            assert check(result.witness, f), f
    assert sat_count > 50  # the corpus must genuinely exercise witnesses
    report(10, f"{sat_count}/200 queries satisfiable, every witness rechecks true")
