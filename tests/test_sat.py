import random
import weakref
from itertools import permutations, product

import pytest

from glal import sat as sat_module
from glal.errors import BoundExceeded
from glal.fuzz import random_formula
from glal.model import KripkeModel, PointedModel
from glal.sat import (
    SatQuery,
    bell_number,
    estimated_candidates,
    sat_bounded,
    valid_bounded,
)
from glal.semantics import EvalContext, check
from glal.syntax import parse
from uncached_context import UncachedContext


def sat_unpruned(query):
    """The enumeration oracle: sat_bounded evaluating every candidate, as if
    no relabeling of the worlds could map one candidate onto another and
    every frame were connected."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sat_module, "_relabelings", lambda n: ())
        patch.setattr(sat_module, "_connected", lambda *args: True)
        return sat_bounded(query)


def restricted_growth_strings(n: int):
    """All partition codes of length n: a[0]=0, a[i] <= max(a[:i]) + 1, in
    lexicographic order."""
    if n == 0:
        yield ()
        return
    code = [0] * n
    while True:
        yield tuple(code)
        i = n - 1
        while i > 0:
            if code[i] <= max(code[:i]):
                code[i] += 1
                for j in range(i + 1, n):
                    code[j] = 0
                break
            code[i] = 0
            i -= 1
        else:
            return


def partitions_as_cells(n: int):
    """The partitions of range(n) as world-index cells, in the order of their
    restricted growth strings: the order oracle for ``sat._partitions``."""
    for code in restricted_growth_strings(n):
        cells = {}
        for i, c in enumerate(code):
            cells.setdefault(c, []).append(i)
        yield tuple(tuple(cells[c]) for c in sorted(cells))


def test_restricted_growth_counts_match_bell_numbers():
    for n in range(1, 7):
        assert len(list(restricted_growth_strings(n))) == bell_number(n)


def test_partitions_as_cells_distinct():
    parts = list(partitions_as_cells(4))
    assert len(parts) == 15
    assert len(set(parts)) == 15
    for cells in parts:
        members = sorted(i for cell in cells for i in cell)
        assert members == [0, 1, 2, 3]


def test_partitions_are_the_oracle_as_class_masks_in_order():
    for n in range(1, 7):
        expected = tuple(
            tuple(sum(1 << i for i in cell) for cell in cells)
            for cells in partitions_as_cells(n)
        )
        assert sat_module._partitions(n) == expected


def test_moore_formula_satisfiable():
    result = sat_bounded(SatQuery(parse("p & !K{a} p"), max_worlds=4))
    assert result.satisfiable
    assert len(result.witness.model.worlds) == 2
    assert check(result.witness, parse("p & !K{a} p"))


def test_contradiction_unsat_at_every_bound():
    for bound in (1, 2, 3):
        result = sat_bounded(SatQuery(parse("p & !p"), max_worlds=bound))
        assert result.status == "unsat-up-to-bound"


def test_vacuous_announcement_satisfiable():
    result = sat_bounded(SatQuery(parse("[p]{a} K{a} p & !p"), max_worlds=3))
    assert result.satisfiable
    assert check(result.witness, parse("[p]{a} K{a} p & !p"))


def test_reduction_law_valid():
    result = valid_bounded(parse("[p]-{a,b} q <-> (p -> q)"), 4)
    assert result.valid


def test_axiom_t_counterexample_within_two_worlds():
    result = valid_bounded(parse("[p]{a} q -> q"), 2)
    assert result.status == "counterexample"
    cex = result.counterexample
    assert check(cex, parse("[p]{a} q")) and not check(cex, parse("q"))


def test_tautology_valid():
    assert valid_bounded(parse("true"), 2).valid


def test_axiom_b_counterexample():
    moore = "(p & !K{a} p)"
    probe = parse(f"{moore} & !([p]{{a}} <p>{{a}} {moore})")
    result = sat_bounded(SatQuery(probe, max_worlds=4))
    assert result.satisfiable
    assert len(result.witness.model.worlds) <= 4
    assert check(result.witness, probe)


def test_witness_is_deterministic():
    q = SatQuery(parse("p & !K{a} p"), max_worlds=3)
    first = sat_bounded(q)
    second = sat_bounded(q)
    assert first.witness == second.witness
    assert first.models_examined == second.models_examined


def test_max_worlds_cap():
    SatQuery(parse("p"), max_worlds=6)
    with pytest.raises(BoundExceeded):
        SatQuery(parse("p"), max_worlds=7)


def test_budget_estimate_guard():
    with pytest.raises(BoundExceeded):  # 203 ** 3 * 2 ** 12 at six worlds alone
        SatQuery(parse("p & K{a} K{b} K{c} q"), max_worlds=6)
    assert estimated_candidates(3, 2, 2) == 1 * 4 + 4 * 16 + 25 * 64


def test_no_candidate_outlives_its_evaluation(monkeypatch):
    refs = []
    real_build = sat_module._build

    def recording_build(*args):
        # Only the candidate the loop evaluated last may still be alive.
        assert sum(ref() is not None for ref in refs) <= 1
        model = real_build(*args)
        refs.append(weakref.ref(model))
        return model

    monkeypatch.setattr(sat_module, "_build", recording_build)
    result = sat_bounded(SatQuery(parse("p & !p"), 4, agents=("a",), atoms=("p",)))
    assert result.status == "unsat-up-to-bound"
    assert len(refs) > 1
    assert all(ref() is None for ref in refs)


def test_no_refinement_outlives_its_candidate_when_candidates_share_a_frame_memo(monkeypatch):
    groups = []  # per candidate: weakrefs to it and to the models refined from it
    real_build = sat_module._build
    real_refined = EvalContext.refined

    def recording_build(*args):
        # Only the candidate evaluated last, and its refinements, may be alive.
        assert all(ref() is None for group in groups[:-1] for ref in group)
        model = real_build(*args)
        groups.append([weakref.ref(model)])
        return model

    def recording_refined(self, model, splits, psi):
        refined = real_refined(self, model, splits, psi)
        groups[-1].append(weakref.ref(refined))
        return refined

    monkeypatch.setattr(sat_module, "_build", recording_build)
    monkeypatch.setattr(EvalContext, "refined", recording_refined)
    f = parse("[p]-{a,b} C{a,b} q & <q>+{a} (C{a,b} !p & [!p]-{b} K{b} q) & !p & !q")
    result = sat_bounded(SatQuery(f, 3, agents=("a", "b"), atoms=("p", "q")))
    assert result.status == "unsat-up-to-bound"
    assert len(groups) > 1
    assert all(ref() is None for group in groups for ref in group)


def sat_enumerated(query):
    """The enumeration oracle: every frame and valuation in order, with no
    pruning, each candidate built from world names and evaluated in a fresh
    ``UncachedContext``.  Returns (status, models examined, witness)."""
    agents, atoms = query.vocabulary()
    examined = 0
    for n in range(1, query.max_worlds + 1):
        worlds = [f"s{i:0{len(str(n - 1))}}" for i in range(n)]
        for frame in product(list(partitions_as_cells(n)), repeat=len(agents)):
            relations = {
                a: [[worlds[i] for i in cell] for cell in cells] for a, cells in zip(agents, frame)
            }
            for vals in product(range(2 ** n), repeat=len(atoms)):
                examined += 1
                valuation = {
                    p: [w for i, w in enumerate(worlds) if bits >> i & 1]
                    for p, bits in zip(atoms, vals)
                }
                model = KripkeModel.from_partitions(worlds, agents, relations, valuation)
                found = UncachedContext().mask(model, query.formula, model._full)
                if found:
                    point = model.worlds[(found & -found).bit_length() - 1]
                    return "sat", examined, PointedModel(model, point)
    return "unsat-up-to-bound", examined, None


def test_sat_agrees_with_an_uncached_enumeration():
    rng = random.Random(1818)

    def literals(atoms):
        return " & ".join(rng.choice(("", "!")) + p for p in atoms)

    statuses = set()
    for i in range(150):
        # Pools in unsorted order: frames and valuations follow the pool.
        agents = ("b", "a")[: rng.randint(1, 2)]
        atoms = ("q", "p")[: rng.randint(1, 2)]
        f = random_formula(rng, rng.randint(2, 4), atoms, agents)
        coalition = ",".join(rng.sample(agents, rng.randint(1, len(agents))))
        psi, sign = literals(atoms), rng.choice("+-")
        text = [
            f"{f}",
            # Chains of possibilities need witnesses of several worlds.
            f"({f}) & {literals(atoms)} & M{{{rng.choice(agents)}}} "
            f"({literals(atoms)} & M{{{rng.choice(agents)}}} ({literals(atoms)}))",
            # Negated laws: every candidate of every frame is evaluated, and
            # both sides of a law meet refinements of one frame.
            f"!([{psi}]+{{{coalition}}} C{{{coalition}}} ({psi}))",
            f"!(([{psi}]{sign}{{{coalition}}} !({f})) <-> "
            f"(({psi}) -> ![{psi}]{sign}{{{coalition}}} ({f})))",
        ][i % 4]
        query = SatQuery(parse(text), rng.choice((2, 3, 3)), agents=agents, atoms=atoms)
        result = sat_bounded(query)
        status, examined, witness = sat_enumerated(query)
        assert result.status == status, text
        assert result.models_examined == examined, text
        assert result.witness == witness, text
        statuses.add((status, witness and len(witness.model.worlds)))
    assert statuses == {("sat", 1), ("sat", 2), ("sat", 3), ("unsat-up-to-bound", None)}


def test_sat_agrees_with_an_uncached_enumeration_on_multi_world_witnesses():
    # The enumeration oracle evaluates disconnected candidates too, so a
    # witness of several worlds shows that none of them comes first.
    rng = random.Random(2121)

    def literals(atoms):
        return " & ".join(rng.choice(("", "!")) + p for p in atoms)

    witnesses = []
    for i in range(60):
        kind = i % 6
        agents = ("b", "a")[: rng.randint(1, 2)]
        atoms = ("q", "p")[: rng.randint(1, 2)]
        if kind == 3:  # two agents, so that E{*} is not C{*}
            agents, atoms = rng.choice((("a", "b"), ("b", "a"))), atoms[:1]
        x, y = rng.choice(agents), rng.choice(agents)
        coalition = ",".join(rng.sample(agents, rng.randint(0, len(agents))))
        both = ",".join(rng.sample(agents, len(agents)))
        psi, sign = literals(atoms), rng.choice("+-")
        flip = ("!" + psi).replace("!!", "")  # psi with its first literal negated
        step = rng.choice([
            f"M{{{y}}}", f"!K{{{y}}} !", f"!D{{{coalition}}} !", f"!C{{{coalition}}} !",
            "!E{*} !", "!C{*} !", f"<{psi}>{sign}{{{coalition}}} M{{{y}}}", f"[{psi}] M{{{y}}}",
        ])
        text = [
            # Chains of possibilities need witnesses of several worlds.
            f"{literals(atoms)} & M{{{x}}} ({literals(atoms)} & {step} ({literals(atoms)}))",
            # Laws that fail: what an agent holds possible need not survive
            # an announcement to it, an announcement to no one teaches
            # nothing, a local announcement makes nothing common knowledge,
            # everybody's knowledge is not common knowledge, and a Moore
            # sentence is unsuccessful.
            f"!(M{{{x}}} ({flip}) -> [{psi}]{sign}{{{x}{coalition and ','}{coalition}}} "
            f"M{{{x}}} ({flip}))",
            f"!([{psi}]-{{{both}}} C{{{both}}} ({psi})) & {step} ({literals(atoms)})"
            if len(agents) == 2 else
            f"!([{psi}]{sign}{{}} K{{{x}}} ({psi})) & M{{{x}}} ({literals(atoms)})",
            f"!(E{{*}} ({psi}) -> C{{*}} ({psi})) & {step} ({literals(atoms)})",
            f"({psi}) & !K{{{x}}} ({psi}) & [({psi}) & !K{{{x}}} ({psi})] K{{{x}}} ({psi})",
            # A law, negated, with both signs and empty coalitions: unsat.
            f"!(([{psi}]{sign}{{{coalition}}} !{step} ({psi})) <-> "
            f"(({psi}) -> ![{psi}]{sign}{{{coalition}}} {step} ({psi})))",
        ][kind]
        # 4 worlds unless the oracle would build tens of thousands of models.
        small = kind != 5 and estimated_candidates(4, len(agents), len(atoms)) < 5000
        query = SatQuery(parse(text), 4 if small else 3, agents=agents, atoms=atoms)
        result = sat_bounded(query)
        status, examined, witness = sat_enumerated(query)
        assert result.status == status, text
        assert result.models_examined == examined, text
        assert result.witness == witness, text
        witnesses.append(witness and len(witness.model.worlds))
    assert sum(1 for k in witnesses if k and k >= 2) >= 30
    assert None in witnesses


def test_iso_pruning_soundness():
    rng = random.Random(123)
    agreements = 0
    for _ in range(200):
        n_agents = rng.randint(1, 2)
        agents = ("a", "b")[:n_agents]
        atoms = ("p", "q")[: rng.randint(1, 2)]
        f = random_formula(rng, 3, atoms, agents)
        pruned = sat_bounded(SatQuery(f, max_worlds=3, agents=agents, atoms=atoms))
        full = sat_unpruned(SatQuery(f, max_worlds=3, agents=agents, atoms=atoms))
        assert pruned.status == full.status
        assert pruned.models_examined == full.models_examined  # counts candidates
        agreements += 1
    assert agreements == 200


def test_bound_raise_keeps_status_stable_on_epistemic_fragment():
    rng = random.Random(321)
    for _ in range(40):
        f = random_formula(rng, 3, ["p"], ["a"], fragment="epistemic")
        low = sat_bounded(SatQuery(f, max_worlds=2))
        high = sat_bounded(SatQuery(f, max_worlds=3))
        if low.satisfiable:
            assert high.satisfiable


def test_vocabulary_defaults_from_formula():
    q = SatQuery(parse("K{a} (p | q)"), max_worlds=2)
    assert q.vocabulary() == (("a",), ("p", "q"))
    q2 = SatQuery(parse("true"), max_worlds=2)
    assert q2.vocabulary() == ((), ())
    assert sat_bounded(q2).satisfiable


def test_pruning_agrees_with_unpruned_enumeration():
    rng = random.Random(2025)

    def literals(atoms):
        return " & ".join(rng.choice(("", "!")) + p for p in atoms)

    for _ in range(40):
        agents = ("a", "b")[: rng.randint(1, 2)]
        atoms = ("p", "q")[: rng.randint(1, 2)]
        # Chains of possibilities need witnesses of several worlds, whose
        # frames have nontrivial automorphisms.
        chains = " & ".join(
            f"M{{{rng.choice(agents)}}} ({literals(atoms)} & M{{{rng.choice(agents)}}} "
            f"({literals(atoms)}))"
            for _ in range(2)
        )
        f = parse(f"({random_formula(rng, 3, atoms, agents)}) & {chains}")
        # 4 worlds unless the unpruned run would build tens of thousands of models.
        max_worlds = 4 if estimated_candidates(4, len(agents), len(atoms)) < 5000 else 3
        query = SatQuery(f, max_worlds, agents=agents, atoms=atoms)
        pruned = sat_bounded(query)
        full = sat_unpruned(query)
        assert pruned.status == full.status
        assert pruned.models_examined == full.models_examined
        assert pruned.witness == full.witness


def _canonical_form(n, combo, vals):
    """Least relabeling of a candidate over all of S_n, by brute force."""
    forms = []
    for perm in permutations(range(n)):
        cells = tuple(
            tuple(sorted(tuple(sorted(perm[i] for i in cell)) for cell in partition))
            for partition in combo
        )
        masks = tuple(sum(1 << perm[i] for i in range(n) if bits >> i & 1) for bits in vals)
        forms.append((cells, masks))
    return min(forms)


def _world_components(n, combo):
    """The all-agents components of a frame given as world-index cells, each
    a sorted tuple of worlds, by least world."""
    comps = []
    for i in range(n):
        if any(i in comp for comp in comps):
            continue
        comp, grown = {i}, True
        while grown:
            grown = False
            for cells in combo:
                for cell in cells:
                    if comp & set(cell) and not comp >= set(cell):
                        comp |= set(cell)
                        grown = True
        comps.append(tuple(sorted(comp)))
    return comps


def _restricted(combo, vals, comp):
    """The candidate on the worlds of the component ``comp``, renumbered
    from 0 in order, as (cells, valuation masks)."""
    index = {w: j for j, w in enumerate(comp)}
    cells = tuple(
        tuple(tuple(index[w] for w in cell) for cell in cells if cell[0] in index)
        for cells in combo
    )
    masks = tuple(sum(1 << index[w] for w in comp if bits >> w & 1) for bits in vals)
    return cells, masks


@pytest.mark.parametrize("agents, atoms", [(("a", "b"), ("p",)), (("a",), ("p", "q"))])
def test_pruning_builds_one_candidate_per_isomorphism_class(monkeypatch, agents, atoms):
    built = []
    real_build = sat_module._build

    def counting_build(*args):
        worlds, _, cells, _, vals = args
        n = len(worlds)
        combo = tuple(
            tuple(tuple(i for i in range(n) if cell >> i & 1) for cell in part)
            for part in cells
        )
        built.append(_canonical_form(n, combo, vals))
        return real_build(*args)

    monkeypatch.setattr(sat_module, "_build", counting_build)
    result = sat_bounded(SatQuery(parse("p & !p"), 4, agents=agents, atoms=atoms))
    assert result.status == "unsat-up-to-bound"
    # One class per connected candidate: a disconnected one is never evaluated.
    classes = set()
    for n in range(1, 5):
        partitions = list(partitions_as_cells(n))
        for combo in product(partitions, repeat=len(agents)):
            if len(_world_components(n, combo)) > 1:
                continue
            for vals in product(range(2 ** n), repeat=len(atoms)):
                classes.add(_canonical_form(n, combo, vals))
    assert len(built) == len(classes)
    assert set(built) == classes


@pytest.mark.parametrize("agents, atoms", [
    (("a",), ("p",)), (("a",), ("p", "q")), (("a", "b"), ("p",)), (("a", "b"), ("p", "q")),
])
def test_disconnected_candidates_are_unions_of_smaller_connected_classes(
        monkeypatch, agents, atoms):
    # Truth at a world depends only on its all-agents component, so a
    # disconnected candidate is satisfiable only if one of its components
    # is.  Each component is a connected class with fewer worlds, met by
    # the enumeration at its own world count.
    connected = set()  # canonical forms of the connected candidates so far
    canonical = {}  # (worlds, cells, masks) -> canonical form
    for n in range(1, 5):
        smaller = frozenset(connected)
        partitions = list(partitions_as_cells(n))
        for frame in product(range(len(partitions)), repeat=len(agents)):
            combo = tuple(partitions[k] for k in frame)
            comps = _world_components(n, combo)
            assert sat_module._connected(frame, sat_module._partitions(n), (1 << n) - 1) == (
                len(comps) == 1)
            for vals in product(range(2 ** n), repeat=len(atoms)):
                if len(comps) == 1:
                    if n < 4:
                        connected.add(_canonical_form(n, combo, vals))
                    continue
                for comp in comps:
                    key = (len(comp), *_restricted(combo, vals, comp))
                    if key not in canonical:
                        canonical[key] = _canonical_form(*key)
                    assert canonical[key] in smaller
    components = []
    real_build = sat_module._build

    def recording_build(*args):
        model = real_build(*args)
        components.append(len(model.components(tuple(range(len(agents))))))
        return model

    monkeypatch.setattr(sat_module, "_build", recording_build)
    result = sat_bounded(SatQuery(parse("p & !p"), 4, agents=agents, atoms=atoms))
    assert result.status == "unsat-up-to-bound"
    assert result.models_examined == estimated_candidates(4, len(agents), len(atoms))
    assert components and set(components) == {1}
