"""Test-side views of a model's masks: derived pair and name views, name-based
oracles for classes, closures and profiles, and the invariants every
constructed model must satisfy."""


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
