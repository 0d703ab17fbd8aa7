import pytest

from glal.errors import BoundExceeded
from glal.model import PointedModel
from glal.semantics import check
from glal.scenarios import (
    at_least_one_muddy,
    bit_channel,
    muddy,
    muddy_round,
    nobody_knows_own_state,
)
from glal.syntax import parse, print_formula
from model_checks import assert_canonical, class_of, pairs_of, profile


def test_muddy_structure():
    m = muddy(3)
    assert len(m.worlds) == 8
    assert set(m.agents) == {"r", "g", "b"}
    assert_canonical(m)
    for agent in m.agents:
        cells = {class_of(m, agent, w) for w in m.worlds}
        assert len(cells) == 4
        assert all(len(c) == 2 for c in cells)


def test_muddy_edge_counts():
    for n in (1, 2, 3, 4):
        m = muddy(n)
        assert len(m.worlds) == 2 ** n
        undirected = sum(
            (len(rel) - len(m.worlds)) // 2 for rel in pairs_of(m).values()
        )
        assert undirected == n * 2 ** (n - 1)


def test_muddy_single_child():
    m = muddy(1)
    assert class_of(m, "r", "0") == {"0", "1"}


def test_muddy_specific_edge():
    m = muddy(3)
    assert "010" in class_of(m, "r", "110")


def test_muddy_bounds():
    with pytest.raises(BoundExceeded):
        muddy(11)
    with pytest.raises(ValueError):
        muddy(0)


def test_muddy_atoms():
    m = muddy(2)
    assert m.world_names(m.atom_mask("m_r")) == {"10", "11"}
    assert m.world_names(m.atom_mask("m_g")) == {"01", "11"}


def test_alpha_and_ignorance_builders():
    m = muddy(2)
    assert print_formula(at_least_one_muddy(m)) == "(m_g) | (m_r)"
    assert print_formula(nobody_knows_own_state(m)) == "(!(Kw{g} (m_g))) & (!(Kw{r} (m_r)))"


def test_channel_models_match_figures():
    n = bit_channel("N")
    assert n.worlds == ("w1", "w2")
    assert class_of(n, "s", "w1") == {"w1"}
    assert class_of(n, "r", "w1") == {"w1", "w2"}
    np = bit_channel("Nprime")
    assert np.worlds == ("v1", "v2", "w1", "w2")
    assert profile(np, "v1", "w1") == {"s", "e"}
    assert profile(np, "v1", "v2") == {"r", "e"}
    assert profile(np, "v1", "w2") == {"e"}  # closure edge of the eavesdropper
    assert np.world_names(np.atom_mask("bit0")) == {"v1", "w1"}
    with pytest.raises(ValueError):
        bit_channel("M")


def test_channel_announcement_examples():
    pn = PointedModel(bit_channel("N"), "w1")
    assert check(pn, parse("[bit0]{r} K{r} bit0"))
    assert check(pn, parse("[bit0]{r} (!Kw{e} bit0 & K{e} Kw{r} bit0)"))
    pq = PointedModel(bit_channel("Nprime"), "w1")
    assert check(pq, parse("[bit0]{r} !K{e} Kw{r} bit0"))


def test_father_local_then_red_knows():
    p = muddy_round(PointedModel(muddy(3), "100"), "father_local")
    assert check(p, parse("K{r} m_r"))


def test_father_global_coalition_argument():
    p = muddy_round(PointedModel(muddy(3), "100"), "father_global", coalition=["r", "b"])
    assert check(p, parse("C{r,b} (m_r | m_g | m_b)"))


def test_two_no_stepping_rounds_resolve_two_muddy():
    p = PointedModel(muddy(3), "110")
    p = muddy_round(p, "father_global")
    p = muddy_round(p, "no_stepping")
    p = muddy_round(p, "no_stepping")
    knows = parse("(m_r -> Kw{r} m_r) & (m_g -> Kw{g} m_g) & (m_b -> Kw{b} m_b)")
    assert check(p, knows)


def test_no_stepping_keeps_knowers_classes():
    # once every child knows her state, the ignorance announcement is a no-op
    p = PointedModel(muddy(1), "1")
    p = muddy_round(p, "father_global")
    assert check(p, parse("Kw{r} m_r"))
    again = muddy_round(p, "no_stepping")
    assert again.model == p.model


def test_unknown_round_kind():
    with pytest.raises(ValueError):
        muddy_round(PointedModel(muddy(1), "1"), "father_semiprivate")
