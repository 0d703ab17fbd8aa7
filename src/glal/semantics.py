"""Satisfaction sets, pointed-model refinements, and checking.

Announcement clauses refine the model per evaluated world.  A refinement
depends only on the announced extension (a world mask) and on the scope
it splits for each coalition member: the member's own class for local
announcements, the closure class for global and semi-private ones.  So
refinements are memoized under those masks, announcements with equal
extensions share them, and refined models are structurally interned.
That sharing is what keeps large nested-announcement queries tractable.
Satisfaction sets, refinements and component decompositions are memoized
per model in the ``EvalContext`` that computed them, and freed with it.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import syntax as sx
from .errors import EmptyResult
from .model import KripkeModel, PointedModel, coalition_names, iter_bits, lowest_bit


@dataclass(frozen=True)
class RefinementKey:
    """What one traced refinement announced, to whom, and the worlds whose
    classes it could split (for ``pal``, the worlds it keeps)."""

    kind: str  # local | global | pal
    coalition: tuple
    announced: sx.Formula
    scope: frozenset

    def to_obj(self) -> dict:
        return {
            "kind": self.kind,
            "coalition": list(self.coalition),
            "announced": sx.print_formula(self.announced),
            "scope": sorted(self.scope),
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
    """Structural interning, and the memo of each interned model.

    Equal models reached by different routes are one object with one memo
    of satisfaction sets, refinements and components; the interning table
    keeps them alive, so the ids keying the memos are never reused.
    """

    def __init__(self):
        self._interned: dict = {}
        # id(interned model) -> its memo, whose keys are of four shapes:
        #   formula                   -> satisfaction set (mask)
        #   psi                       -> restriction to the worlds of mask psi
        #   (psi, ((k, scope), ...))  -> split of agent k's cells in scope by psi
        #   (agent name, ...)         -> component decomposition
        self._memos: dict = {}

    def intern(self, model: KripkeModel) -> KripkeModel:
        canon = self._interned.setdefault(model, model)
        self._memos.setdefault(id(canon), {})
        return canon

    # -- satisfaction -------------------------------------------------------

    def mask(self, model: KripkeModel, f: sx.Formula) -> int:
        try:
            memo = self._memos[id(model)]
        except KeyError:  # not interned here
            return self.mask(self.intern(model), f)
        out = memo.get(f)
        if out is None:
            out = memo[f] = self._eval(model, f)
        return out

    def _eval(self, model: KripkeModel, f: sx.Formula) -> int:
        full = model._full
        if isinstance(f, sx.Atom):
            return model.atom_mask(f.name)
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
            names = coalition_names(model, f.coalition)
            sub = self.mask(model, f.sub)
            out = full
            for a in names:
                out &= self._know(model, a, sub)
            return out
        if isinstance(f, sx.Common):
            names = coalition_names(model, f.coalition)
            sub = self.mask(model, f.sub)
            out = 0
            for comp in self._components(model, names):
                if comp & sub == comp:
                    out |= comp
            return out
        if isinstance(f, sx.Distributed):
            names = coalition_names(model, f.coalition)
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

    # -- refinements ---------------------------------------------------------

    def _announce(self, model, announced, coalition, body, kind):
        names = coalition_names(model, coalition)
        psi = self.mask(model, announced)
        cont = 0
        for i in iter_bits(psi):
            refined = self.refined(model, i, psi, names, kind)
            if self.mask(refined, body) >> i & 1:
                cont |= 1 << i
        return psi, cont

    def _announce_pal(self, model, announced, body):
        psi = self.mask(model, announced)
        if psi == 0:
            return 0, 0
        refined = self._pal_model(model, psi)
        sub = self.mask(refined, body)
        cont = 0
        # The restriction keeps world order: its j-th world is psi's j-th.
        for j, i in enumerate(iter_bits(psi)):
            if sub >> j & 1:
                cont |= 1 << i
        return psi, cont

    def refined(self, model, world_idx, psi, names, kind) -> KripkeModel:
        """The ``kind`` refinement by the announced mask ``psi`` at a world of
        ``model``, which must be interned here."""
        splits = self._scope(model, kind, names, world_idx)
        return self._memoized(model, (psi, splits), lambda: _split_model(model, splits, psi))

    def _scope(self, model, kind, names, world_idx) -> tuple:
        """What a ``kind`` refinement at the world splits: one (agent position,
        scope mask) pair per member, the scope being the member's own class
        (local) or one closure class (global, semi-private)."""
        index = model._agent_index
        if kind == "local":
            nbr = model._nbr
            return tuple([(index[a], nbr[index[a]][world_idx]) for a in names])
        if kind == "global":
            comp = self._component(model, names, world_idx)
        elif kind == "semiprivate":
            comp = self._component(model, model.agents, world_idx)
        else:
            raise ValueError(f"unknown refinement kind {kind!r}")
        return tuple([(index[a], comp) for a in names])

    def _pal_model(self, model, psi) -> KripkeModel:
        return self._memoized(model, psi, lambda: _restrict_model(model, psi))

    def _memoized(self, model, key, build) -> KripkeModel:
        """The interned model ``build()`` makes from ``model``, memoized in
        the memo of ``model`` (which must be interned here) under ``key``."""
        memo = self._memos[id(model)]
        hit = memo.get(key)
        if hit is None:
            hit = memo[key] = self.intern(build())
        return hit

    def _components(self, model, names) -> tuple:
        """``model.components(names)``, memoized under ``names``."""
        memo = self._memos[id(model)]
        comps = memo.get(names)
        if comps is None:
            comps = memo[names] = model.components(names)
        return comps

    def _component(self, model, names, world_idx) -> int:
        for comp in self._components(model, names):
            if comp >> world_idx & 1:
                return comp


def _split_model(model: KripkeModel, splits, psi: int) -> KripkeModel:
    """Copy of the model where, for each (agent position, scope mask) pair of
    ``splits``, the agent's cells inside the scope (a union of its cells) are
    split into the announced/complement parts.  Worlds and valuation are
    shared; with no cell split, the model itself is returned."""
    cells = list(model.cells)
    changed = False
    for k, scope in splits:
        inside = scope & psi
        if not inside or inside == scope:
            continue  # no cell inside the scope is split
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

    def squeeze(mask: int) -> int:
        """``mask & keep`` renumbered over the kept worlds."""
        mask &= keep
        out = 0
        while mask:
            low = mask & -mask
            out |= moved[low]
            mask ^= low
        return out

    cells = tuple(
        tuple(sorted((squeeze(cell) for cell in part if cell & keep), key=lowest_bit))
        for part in model.cells
    )
    worlds = tuple(model.worlds[i] for i in kept)
    valuation = tuple((atom, squeeze(mask)) for atom, mask in model.valuation)
    return KripkeModel._canonical(worlds, model.agents, cells, valuation)


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


_ANNOUNCEMENTS = sx.ANNOUNCE_OPS + (sx.PalAnn,)


def _trace(ctx: EvalContext, model: KripkeModel, point: str, f: sx.Formula) -> list:
    if isinstance(f, sx.AGENT_OPS + sx.COALITION_OPS):
        return []  # subformulas are evaluated at other worlds, off the point's path
    if not isinstance(f, _ANNOUNCEMENTS):
        return [node for sub in sx.children(f) for node in _trace(ctx, model, point, sub)]
    nodes = _trace(ctx, model, point, f.announced)
    i = model.world_index(point)
    psi = ctx.mask(model, f.announced)
    if psi >> i & 1:
        refined, key = _step(ctx, model, i, psi, f)
        nodes.append(TraceNode(key, refined, tuple(_trace(ctx, refined, point, f.sub))))
    return nodes


def _step(ctx: EvalContext, model: KripkeModel, i: int, psi: int, f: sx.Formula) -> tuple:
    """The model an announcement node refines to at world ``i``, where its
    announced mask ``psi`` holds, and the key describing that refinement."""
    if isinstance(f, sx.PalAnn):
        key = RefinementKey("pal", (), f.announced, model.world_names(psi))
        return ctx._pal_model(model, psi), key
    kind = "local" if isinstance(f, (sx.AnnLocal, sx.DiaLocal)) else "global"
    names = coalition_names(model, f.coalition)
    scope = 0 if kind == "local" else 1 << i  # a closure holds i, even for no agents
    for _, cls in ctx._scope(model, kind, names, i):
        scope |= cls
    key = RefinementKey(kind, names, f.announced, model.world_names(scope))
    return ctx.refined(model, i, psi, names, kind), key


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
    names = coalition_names(model, coalition)
    i = model.world_index(world)
    return ctx.refined(model, i, ctx.mask(model, announced), names, kind)


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
    return ctx._pal_model(model, psi)


def check_pal_equiv(
    pointed: PointedModel, f: sx.Formula, *, context: EvalContext | None = None
) -> tuple:
    """Evaluate a public-announcement formula twice: natively (world-deleting
    restriction) and through its global-announcement translation.  The two
    booleans returned must agree."""
    translated = sx.translate_pal(f)  # NotPalFragment outside the fragment
    ctx = context or EvalContext()
    return check(pointed, f, context=ctx), check(pointed, translated, context=ctx)
