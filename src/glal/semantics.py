"""Satisfaction sets, pointed-model refinements, and checking.

Announcement clauses refine the model per evaluated world.  The split a
refinement performs depends on the world only through its scope class
(the per-agent classes for local announcements, the closure class for
global and semi-private ones), so refinements are cached under that
scope signature and refined models are structurally interned.  That
sharing is what keeps large nested-announcement queries tractable.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import syntax as sx
from .errors import EmptyResult, NotPalFragment, UnknownAgent
from .model import KripkeModel, PointedModel, lowest_bit, iter_bits


@dataclass(frozen=True)
class RefinementKey:
    """Identity of one refinement: what was announced, to whom, over what scope."""

    kind: str  # local | global | pal | semiprivate
    coalition: tuple
    announced: sx.Formula
    scope: tuple

    def to_obj(self) -> dict:
        if self.kind == "local":
            worlds = sorted({w for _, cell in self.scope for w in cell})
        else:
            worlds = sorted(self.scope)
        return {
            "kind": self.kind,
            "coalition": list(self.coalition),
            "announced": sx.print_formula(self.announced),
            "scope": worlds,
        }


@dataclass(frozen=True)
class TraceNode:
    key: RefinementKey
    model: KripkeModel
    children: tuple

    def to_obj(self) -> dict:
        return {
            "key": self.key.to_obj(),
            "model": self.model.to_obj(),
            "children": [c.to_obj() for c in self.children],
        }


@dataclass(frozen=True)
class EvalTrace:
    """The tree of refinements applied on the evaluation path through the point."""

    root: PointedModel
    result: bool
    steps: tuple

    def to_obj(self) -> dict:
        return {
            "root": {"model": self.root.model.to_obj(), "point": self.root.point},
            "result": self.result,
            "steps": [s.to_obj() for s in self.steps],
        }


class EvalContext:
    """Memo tables shared across evaluations.

    With ``cache=False`` every satisfaction set and refinement is
    recomputed; results must be identical either way.  Entries are keyed
    on ``id(model)``, so every model an entry is stored for stays
    referenced from ``_pinned``: its id cannot be reused by another model
    while the entry lives.
    """

    def __init__(self, cache: bool = True):
        self.cache = cache
        self._interned: dict = {}
        self._pinned: dict = {}
        self._sat: dict = {}
        self._refined: dict = {}
        self._components: dict = {}

    def intern(self, model: KripkeModel) -> KripkeModel:
        if not self.cache:
            return model
        return self._interned.setdefault(model, model)

    # -- satisfaction -------------------------------------------------------

    def mask(self, model: KripkeModel, f: sx.Formula) -> int:
        if self.cache:
            key = (id(model), f)
            hit = self._sat.get(key)
            if hit is not None:
                return hit
        out = self._eval(model, f)
        if self.cache:
            self._sat[key] = out
            self._pinned[id(model)] = model
        return out

    def _eval(self, model: KripkeModel, f: sx.Formula) -> int:
        full = model._full
        if isinstance(f, sx.Atom):
            return model._atom_mask.get(f.name, 0)
        if isinstance(f, sx.Top):
            return full
        if isinstance(f, sx.Bot):
            return 0
        if isinstance(f, sx.Not):
            return full & ~self.mask(model, f.sub)
        if isinstance(f, sx.And):
            return self.mask(model, f.left) & self.mask(model, f.right)
        if isinstance(f, sx.Or):
            return self.mask(model, f.left) | self.mask(model, f.right)
        if isinstance(f, sx.Implies):
            return (full & ~self.mask(model, f.left)) | self.mask(model, f.right)
        if isinstance(f, sx.Iff):
            return full & ~(self.mask(model, f.left) ^ self.mask(model, f.right))
        if isinstance(f, sx.Know):
            return self._know(model, f.agent, self.mask(model, f.sub))
        if isinstance(f, sx.KnowWhether):
            sub = self.mask(model, f.sub)
            return self._know(model, f.agent, sub) | self._know(
                model, f.agent, full & ~sub
            )
        if isinstance(f, sx.Dual):
            sub = self.mask(model, f.sub)
            k = model.agent_position(f.agent)
            out = 0
            for cell in model.cells[k]:
                if cell & sub:
                    out |= cell
            return out
        if isinstance(f, sx.Everybody):
            names = self._co(model, f.coalition)
            sub = self.mask(model, f.sub)
            out = full
            for a in names:
                out &= self._know(model, a, sub)
            return out
        if isinstance(f, sx.Common):
            names = self._co(model, f.coalition)
            sub = self.mask(model, f.sub)
            out = 0
            for comp in self._component_list(model, names):
                if comp & sub == comp:
                    out |= comp
            return out
        if isinstance(f, sx.Distributed):
            names = self._co(model, f.coalition)
            sub = self.mask(model, f.sub)
            if not names:
                return sub
            positions = [model.agent_position(a) for a in names]
            nbr = model._nbr
            out = 0
            for i in range(len(model.worlds)):
                inter = nbr[positions[0]][i]
                for k in positions[1:]:
                    inter &= nbr[k][i]
                if inter & sub == inter:
                    out |= 1 << i
            return out
        if isinstance(f, (sx.AnnLocal, sx.AnnGlobal)):
            kind = "local" if isinstance(f, sx.AnnLocal) else "global"
            psi, cont = self._announce(model, f.announced, f.coalition, f.sub, kind)
            return (full & ~psi) | cont
        if isinstance(f, (sx.DiaLocal, sx.DiaGlobal)):
            kind = "local" if isinstance(f, sx.DiaLocal) else "global"
            _, cont = self._announce(model, f.announced, f.coalition, f.sub, kind)
            return cont
        if isinstance(f, sx.PalAnn):
            psi, cont = self._announce_pal(model, f.announced, f.sub)
            return (full & ~psi) | cont
        raise TypeError(f"not a formula node: {f!r}")

    def _know(self, model: KripkeModel, agent: str, sub: int) -> int:
        k = model.agent_position(agent)
        out = 0
        for cell in model.cells[k]:
            if cell & sub == cell:
                out |= cell
        return out

    def _co(self, model: KripkeModel, coalition: sx.Coalition) -> tuple:
        names = coalition.resolve(model.agents)
        for a in names:
            if a not in model._agent_index:
                raise UnknownAgent(f"unknown agent {a!r}")
        return names

    # -- components ----------------------------------------------------------

    def _component_list(self, model: KripkeModel, names) -> list:
        key = (id(model), names)
        if self.cache:
            hit = self._components.get(key)
            if hit is not None:
                return hit
        cell_lists = [model.cells[model._agent_index[a]] for a in names]
        comps = []
        unassigned = model._full
        while unassigned:
            low = unassigned & -unassigned
            comp = low
            changed = True
            while changed:
                changed = False
                for cells in cell_lists:
                    for cell in cells:
                        if cell & comp and cell | comp != comp:
                            comp |= cell
                            changed = True
            comps.append(comp)
            unassigned &= ~comp
        if self.cache:
            self._components[key] = comps
            self._pinned[id(model)] = model
        return comps

    def _component_of(self, model: KripkeModel, names, world_idx: int) -> int:
        for comp in self._component_list(model, names):
            if comp >> world_idx & 1:
                return comp
        raise AssertionError("world not covered by component decomposition")

    # -- refinements ---------------------------------------------------------

    def _announce(self, model, announced, coalition, body, kind):
        names = self._co(model, coalition)
        psi = self.mask(model, announced)
        cont = 0
        for i in iter_bits(psi):
            refined = self.refined(model, i, announced, psi, names, kind)
            if self.mask(refined, body) >> i & 1:
                cont |= 1 << i
        return psi, cont

    def _announce_pal(self, model, announced, body):
        psi = self.mask(model, announced)
        if psi == 0:
            return 0, 0
        refined = self._pal_model(model, announced, psi)
        sub = self.mask(refined, body)
        cont = 0
        for i in iter_bits(psi):
            j = refined.world_index(model.worlds[i])
            if sub >> j & 1:
                cont |= 1 << i
        return psi, cont

    def refined(self, model, world_idx, announced, psi, names, kind) -> KripkeModel:
        if kind == "local":
            nbr, index = model._nbr, model._agent_index
            sig = tuple(nbr[index[a]][world_idx] for a in names)
        elif kind == "global":
            sig = self._component_of(model, names, world_idx)
        elif kind == "semiprivate":
            sig = self._component_of(model, tuple(model.agents), world_idx)
        else:
            raise ValueError(f"unknown refinement kind {kind!r}")
        key = (id(model), kind, names, announced, sig)
        if self.cache:
            hit = self._refined.get(key)
            if hit is not None:
                return hit
        if kind == "local":
            splits = dict(zip(names, sig))
        else:
            splits = {a: sig for a in names}
        refined = self.intern(_split_model(model, splits, psi))
        if self.cache:
            self._refined[key] = refined
            self._pinned[id(model)] = model
        return refined

    def _pal_model(self, model, announced, psi) -> KripkeModel:
        key = (id(model), "pal", (), announced, ())
        if self.cache:
            hit = self._refined.get(key)
            if hit is not None:
                return hit
        refined = self.intern(_restrict_model(model, psi))
        if self.cache:
            self._refined[key] = refined
            self._pinned[id(model)] = model
        return refined


def _split_model(model: KripkeModel, splits: dict, psi: int) -> KripkeModel:
    """Copy of the model where each agent's cells inside its scope mask (a
    union of that agent's cells) are split into the announced/complement
    parts.  Worlds and valuation are shared; with no cell split, the model
    itself is returned."""
    cells = list(model.cells)
    changed = False
    for agent, scope in splits.items():
        inside = scope & psi
        if not inside or inside == scope:
            continue  # no cell inside the scope is split
        k = model._agent_index[agent]
        parts = []
        for cell in cells[k]:
            if cell & scope:
                inside = cell & psi
                if inside and inside != cell:
                    parts.append(inside)
                    parts.append(cell ^ inside)
                    continue
            parts.append(cell)
        if len(parts) != len(cells[k]):
            cells[k] = tuple(sorted(parts, key=lowest_bit))
            changed = True
    if not changed:
        return model
    return KripkeModel._canonical(model.worlds, model.agents, tuple(cells), model.valuation)


def _restrict_model(model: KripkeModel, keep: int) -> KripkeModel:
    """Submodel on the kept worlds (relations and valuation restricted)."""
    kept = list(iter_bits(keep))
    moved = {1 << i: 1 << j for j, i in enumerate(kept)}
    cells = []
    for part in model.cells:
        squeezed = []
        for cell in part:
            cell &= keep
            if cell:
                m = 0
                while cell:
                    low = cell & -cell
                    m |= moved[low]
                    cell ^= low
                squeezed.append(m)
        cells.append(tuple(sorted(squeezed, key=lowest_bit)))
    worlds = tuple(model.worlds[i] for i in kept)
    kept_names = frozenset(worlds)
    valuation = tuple((atom, ws & kept_names) for atom, ws in model.valuation)
    return KripkeModel._canonical(worlds, model.agents, tuple(cells), valuation)


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def sat_set(model: KripkeModel, f: sx.Formula, *, context: EvalContext | None = None) -> frozenset:
    """The set of worlds satisfying ``f``."""
    ctx = context or EvalContext()
    return model.world_names(ctx.mask(ctx.intern(model), f))


def check(pointed: PointedModel, f: sx.Formula, *, context: EvalContext | None = None) -> bool:
    """Pointed model checking: does the designated world satisfy ``f``?"""
    ctx = context or EvalContext()
    model = ctx.intern(pointed.model)
    return bool(ctx.mask(model, f) >> model.world_index(pointed.point) & 1)


def check_traced(
    pointed: PointedModel, f: sx.Formula, *, context: EvalContext | None = None
) -> tuple:
    """Like check(), also returning the tree of refinements applied at the point."""
    ctx = context or EvalContext()
    model = ctx.intern(pointed.model)
    steps = _trace(ctx, model, pointed.point, f)
    result = bool(ctx.mask(model, f) >> model.world_index(pointed.point) & 1)
    return result, EvalTrace(pointed, result, tuple(steps))


def _trace(ctx: EvalContext, model: KripkeModel, point: str, f: sx.Formula) -> list:
    if isinstance(f, (sx.Atom, sx.Top, sx.Bot)):
        return []
    if isinstance(f, sx.Not):
        return _trace(ctx, model, point, f.sub)
    if isinstance(f, (sx.And, sx.Or, sx.Implies, sx.Iff)):
        return _trace(ctx, model, point, f.left) + _trace(ctx, model, point, f.right)
    if isinstance(f, (sx.Know, sx.KnowWhether, sx.Dual, sx.Common, sx.Everybody, sx.Distributed)):
        return []  # subformulas are evaluated at other worlds, off the point's path
    if isinstance(f, (sx.AnnLocal, sx.AnnGlobal, sx.DiaLocal, sx.DiaGlobal)):
        kind = "local" if isinstance(f, (sx.AnnLocal, sx.DiaLocal)) else "global"
        nodes = _trace(ctx, model, point, f.announced)
        names = ctx._co(model, f.coalition)
        psi = ctx.mask(model, f.announced)
        i = model.world_index(point)
        if psi >> i & 1:
            refined = ctx.refined(model, i, f.announced, psi, names, kind)
            key = _pretty_key(model, kind, names, f.announced, i, ctx)
            nodes.append(
                TraceNode(key, refined, tuple(_trace(ctx, refined, point, f.sub)))
            )
        return nodes
    if isinstance(f, sx.PalAnn):
        nodes = _trace(ctx, model, point, f.announced)
        psi = ctx.mask(model, f.announced)
        i = model.world_index(point)
        if psi >> i & 1:
            refined = ctx._pal_model(model, f.announced, psi)
            key = RefinementKey(
                "pal", (), f.announced, tuple(sorted(model.world_names(psi)))
            )
            nodes.append(
                TraceNode(key, refined, tuple(_trace(ctx, refined, point, f.sub)))
            )
        return nodes
    raise TypeError(f"not a formula node: {f!r}")


def _pretty_key(model, kind, names, announced, world_idx, ctx) -> RefinementKey:
    if kind == "local":
        scope = tuple(
            (a, tuple(sorted(model.world_names(model._nbr[model._agent_index[a]][world_idx]))))
            for a in names
        )
    elif kind == "global":
        scope = tuple(sorted(model.world_names(ctx._component_of(model, names, world_idx))))
    else:
        scope = tuple(
            sorted(model.world_names(ctx._component_of(model, tuple(model.agents), world_idx)))
        )
    return RefinementKey(kind, names, announced, scope)


# -- refinement constructors -------------------------------------------------


def refine_local(
    model: KripkeModel, world: str, announced: sx.Formula, coalition, *,
    context: EvalContext | None = None,
) -> KripkeModel:
    """Split each coalition member's class of ``world`` by the announced formula."""
    return _refine(model, world, announced, coalition, "local", context)


def refine_global(
    model: KripkeModel, world: str, announced: sx.Formula, coalition, *,
    context: EvalContext | None = None,
) -> KripkeModel:
    """Split every coalition member's class inside the coalition closure of ``world``."""
    return _refine(model, world, announced, coalition, "global", context)


def refine_semiprivate(
    model: KripkeModel, world: str, announced: sx.Formula, coalition, *,
    context: EvalContext | None = None,
) -> KripkeModel:
    """Split coalition members' classes inside the all-agents closure of ``world``."""
    return _refine(model, world, announced, coalition, "semiprivate", context)


def _refine(model, world, announced, coalition, kind, context) -> KripkeModel:
    ctx = context or EvalContext()
    model = ctx.intern(model)
    if not isinstance(coalition, sx.Coalition):
        coalition = sx.Coalition(frozenset(coalition))
    names = ctx._co(model, coalition)
    i = model.world_index(world)
    psi = ctx.mask(model, announced)
    return ctx.refined(model, i, announced, psi, names, kind)


def refine_pal(
    model: KripkeModel, announced: sx.Formula, *, context: EvalContext | None = None
) -> KripkeModel:
    """Restrict the model to the worlds satisfying the announced formula."""
    ctx = context or EvalContext()
    model = ctx.intern(model)
    psi = ctx.mask(model, announced)
    if psi == 0:
        raise EmptyResult(
            f"announcement {sx.print_formula(announced)} holds nowhere; restriction is empty"
        )
    return ctx._pal_model(model, announced, psi)


def check_pal_equiv(
    pointed: PointedModel, f: sx.Formula, *, context: EvalContext | None = None
) -> tuple:
    """Evaluate a public-announcement formula twice: natively (world-deleting
    restriction) and through its global-announcement translation.  The two
    booleans returned must agree."""
    _require_pal(f)
    ctx = context or EvalContext()
    native = check(pointed, f, context=ctx)
    translated = check(pointed, sx.translate_pal(f), context=ctx)
    return native, translated


def _require_pal(f: sx.Formula) -> None:
    if isinstance(f, (sx.AnnLocal, sx.AnnGlobal, sx.DiaLocal, sx.DiaGlobal)):
        raise NotPalFragment(
            f"not in the public-announcement fragment: {sx.print_formula(f)}"
        )
    for c in sx.children(f):
        _require_pal(c)
