"""Test-side views of a model's masks: derived pair and name views and the
invariants every constructed model must satisfy."""


def class_names(model, cell) -> list:
    return [w for i, w in enumerate(model.worlds) if cell >> i & 1]


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
