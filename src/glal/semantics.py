"""Satisfaction sets, pointed-model refinements, and checking.

``EvalContext.mask(model, f, need)`` is the one evaluator.  It returns the
satisfaction set of ``f``, correct on the worlds of the mask ``need``, and
each clause asks for its subformulas only on the worlds its answer reads:
a knowledge operator on the classes that meet ``need``, common knowledge
on the components that do, an announcement on ``need`` and then on the
refinement scopes of the worlds where the announced formula holds, and
its body only at those worlds, in their refined models.  So a pointed
query (``check``, ``check_traced``) evaluates along the point's tree of
refined models, which is local model checking; ``sat_set`` and the other
whole-model callers pass every world.

Every refinement is planned by ``EvalContext._layers``: the announcement
clauses, ``_step`` (``glal tree``), the ``refine_*`` functions and the
probes of ``bisim._refinement_probes`` all read it.  It sorts the worlds
asked for into groups (``_groups``), each splitting one (agent position,
scope mask) pair per coalition member, the scope being the member's class
(local), the members' closure class (global) or the all-agents closure
class (semi-private); and it sorts the groups into layers.  Every scope a
refinement splits at a world lies inside the world's all-agents
component, so groups in different components split disjoint cells, and
truth at a world depends only on the submodel the world generates
(Blackburn, de Rijke & Venema, *Modal Logic*, 2001, §2.1).  Layer r
gathers the r-th group of each component: its refined model splits all
their scopes at once, and each of its worlds sees its own component
exactly as its group's refined model does.  On a model of many
components, such as the disjoint union the distinguishing search
evaluates on, that is one refined model per group of the busiest
component instead of one per group.  On one component, and at a single
world, each group is a layer of its own.

The layers depend only on the frame, the refinement kind, the
coalition's positions and the worlds asked for, and are memoized per
frame.  The refined models depend on those and the announced mask inside
the layers' scopes, never on the body: each is memoized per model under
its splits and that mask, and structurally interned, and the merged
(refined model, worlds) plan of two or more layers is memoized per model,
so ``[psi]co chi`` costs one body evaluation per refined model for every
further ``chi``.

Each of ``!``, ``&``, ``K``, ``Kw``, ``M``, ``E``, ``C`` and ``D`` is a
region and a combine.  The region of an epistemic node is the classes of
its partitions that meet the worlds asked for: the agent's cells, each
member's cells, the coalition's components, or the classes of the meet of
the members' partitions (``D``).  The combine (``EvalContext.operator``)
turns the subformulas' sets into the node's: a complement, an AND, or one
scan of the classes of each partition.  Announcements split the same
way: the clause evaluates the announced formula, and
``EvalContext.announcement`` refines by the announced set and asks for
the body.  The distinguishing search of ``bisim`` calls the combines and
``announcement`` on the signatures of its candidates, so it evaluates
through these clauses' code without building a node per candidate.

Coalitions, and the agent of each ``K``, ``Kw`` and ``M`` node, resolve to
agent positions once per agent tuple.

An ``EvalContext`` memoizes in two parts, and frees both with itself.  Per
model, it keeps what depends on the valuation: satisfaction sets (an int
mask once known on every world, a ``(known, set)`` pair before) and the
interned refined and restricted models.  Per frame (a world count and the
agents' cells), it keeps what depends on the cells alone: each agent's
row of classes by world, component decompositions, the meet classes of
each coalition, and the layers of each refinement asked for.  A frame
memo holds only ints and tuples, never a model, so models over one frame
can share it while each is freed with its own context: ``sat_bounded``
hands one frame memo to all the valuations of a frame.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import syntax as sx
from .errors import EmptyResult, UnknownAgent
from .model import KripkeModel, PointedModel, coalition_names, in_world_order, iter_bits


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
    """Structural interning, the memo of each interned model, and the memo
    of each frame.

    Equal models reached by different routes are one object with one memo
    of satisfaction sets and refinements; the interning table keeps them
    alive, so the ids keying the memos are never reused.  Models with equal
    world counts and cells share one frame memo.
    """

    def __init__(self):
        self._interned: dict = {}
        # id(interned model) -> its memo, whose keys are of five shapes:
        #   formula                   -> satisfaction set: an int mask once it
        #                                is known on every world, before that a
        #                                (known, set) pair of masks, the set
        #                                correct on known and empty off it
        #   psi                       -> restriction to the worlds of mask psi
        #   (psi, ((k, scope), ...))  -> split of agent k's cells in scope by
        #                                psi, cut to the union of the scopes
        #   (kind, positions, hold, psi)
        #                             -> plan of a kind announcement to the
        #                                agent positions, asked for on the
        #                                announced worlds hold, whose layers
        #                                are two or more, announcing psi (cut
        #                                to the layers' scopes): ((refined
        #                                model, worlds), ...), one entry per
        #                                distinct refined model
        #   None                      -> the memo of the model's frame
        self._memos: dict = {}
        # (all-worlds mask, cells) -> that frame's memo, whose keys are of
        # four shapes, each value built from ints and tuples only:
        #   None                      -> per agent position, per world
        #                                index, the mask of that world's class
        #   (agent position, ...)     -> component decomposition
        #   ("meet", positions)       -> the classes of the meet of those
        #                                agent positions' partitions
        #   (kind, positions, hold)   -> the layers of a kind refinement for
        #                                the agent positions at the worlds of
        #                                hold, and the union of their scopes
        self._frames: dict = {}
        # (agent tuple, coalition) -> the coalition's sorted agent positions
        self._coalitions: dict = {}

    def intern(self, model: KripkeModel) -> KripkeModel:
        canon = self._interned.setdefault(model, model)
        self._memos.setdefault(id(canon), {})
        return canon

    # -- satisfaction -------------------------------------------------------

    def mask(self, model: KripkeModel, f: sx.Formula, need: int) -> int:
        """The satisfaction set of ``f`` in ``model``, correct on the worlds
        of the mask ``need``; a bit outside ``need`` may be either value.
        ``need = model._full`` asks for the whole set."""
        try:
            memo = self._memos[id(model)]
        except KeyError:  # not interned here
            return self.mask(self.intern(model), f, need)
        entry = memo.get(f)
        if entry.__class__ is int:
            return entry
        if entry is None:
            if not need:
                return 0
            known = out = 0
        else:
            known, out = entry
            need &= ~known
            if not need:
                return out
        clause = _CLAUSES.get(f.__class__)
        if clause is None:
            raise TypeError(f"not a formula node: {f!r}")
        value = clause(self, model, f, need)
        full = model._full
        if need == full:
            memo[f] = value
            return value
        out |= value & need
        known |= need
        memo[f] = out if known == full else (known, out)
        return out

    # One clause per node class.  A clause asks for each subformula's set on
    # the worlds its own answer on ``need`` reads, and no further.

    def _atom(self, model, f, need):
        return model.atom_mask(f.name)

    def _top(self, model, f, need):
        return model._full

    def _bot(self, model, f, need):
        return 0

    def _not(self, model, f, need):
        return _negation(model._full, (), self.mask(model, f.sub, need))

    def _and(self, model, f, need):
        return _conjunction(model._full, (), self.mask(model, f.left, need),
                            self.mask(model, f.right, need))

    def _or(self, model, f, need):
        return self.mask(model, f.left, need) | self.mask(model, f.right, need)

    def _implies(self, model, f, need):
        return (model._full & ~self.mask(model, f.left, need)) | self.mask(model, f.right, need)

    def _iff(self, model, f, need):
        return model._full & ~(self.mask(model, f.left, need) ^ self.mask(model, f.right, need))

    def _static(self, model, f, need):
        """A ``K``, ``Kw``, ``M``, ``E``, ``C`` or ``D`` node: the region is
        the classes of its partitions that meet ``need``, and its combine
        reads the body's set there."""
        cls = f.__class__
        combine, parts = self.operator(model, cls, f.agent if cls in _AGENT_OPS else f.coalition)
        full = model._full
        if need != full:
            region = 0
            for part in parts:
                region |= _reach(part, need)
            need = region
        return combine(full, parts, self.mask(model, f.sub, need))

    def operator(self, model, cls, label) -> tuple:
        """(combine, partitions) of a ``!``, ``&``, ``K``, ``Kw``, ``M``,
        ``E``, ``C`` or ``D`` node of class ``cls`` in ``model``, ``label``
        being its agent or coalition (None for ``!`` and ``&``):
        ``combine(model._full, partitions, *subs)`` is the node's set on
        every world from its subformulas' sets ``subs``.  The partitions are
        the agent's cells (``K``, ``Kw``, ``M``), each member's cells
        (``E``), the coalition's components (``C``), the classes of the
        meet of the members' partitions (``D``), or none."""
        combine = _COMBINES[cls]
        if cls in _AGENT_OPS:
            return combine, (model.cells[self._members(model, (label,))[0]],)
        if label is None:
            return combine, ()
        members = self._members(model, label)
        if cls is sx.Everybody:
            return combine, tuple([model.cells[k] for k in members])
        if cls is sx.Common:
            return combine, (self._components(model, members),)
        return combine, (self._meet(model, members),)

    def _announce(self, model, f, need):
        """A local or global announcement, box or diamond: the announced
        set, asked for on ``need`` and then on the scopes of the layers of
        the worlds where it holds, is handed to ``announcement``."""
        kind, box = _ANNOUNCE_KINDS[type(f)]
        members = self._members(model, f.coalition)
        psi = self.mask(model, f.announced, need)
        hold = psi & need
        if hold and need != model._full:
            # Each refinement reads the announced set on the classes it splits.
            span = self._layers(model, kind, members, hold)[1]
            psi = self.mask(model, f.announced, need | span)
        return self.announcement(model, kind, box, members, psi, f.sub, need)

    def announcement(self, model, kind, box, members, psi, body, need) -> int:
        """The set, correct on ``need``, of a ``kind`` announcement (a box
        or a diamond) to the agent positions ``members`` with the formula
        node ``body``, the announced set being ``psi``, correct on ``need``
        and on the scopes of the layers of the worlds of ``need`` where it
        holds.  Those worlds fall into layers (``_layers``), each refined
        once, and the body is asked for once per refined model, on the
        worlds refined to it.  The plan of refined models of two or more
        layers is memoized in the model's memo; one layer's refined model
        is memoized by ``refined`` itself."""
        out = model._full & ~psi if box else 0
        hold = psi & need
        if not hold:
            return out
        layers, span = self._layers(model, kind, members, hold)
        if len(layers) == 1:
            splits, worlds = layers[0]
            return out | self.mask(self.refined(model, splits, psi), body, worlds) & worlds
        psi &= span
        plan = self._memoized(model, (kind, members, hold, psi),
                              lambda: self._plan(model, layers, psi))
        for refined, worlds in plan:
            out |= self.mask(refined, body, worlds) & worlds
        return out

    def _plan(self, model, layers, psi) -> tuple:
        """The refined models of ``layers`` by the announced mask ``psi``,
        each with the union of the worlds of the layers refined to it.
        Layers that split no cell differently share their refined model."""
        asked = {}  # id(refined model) -> (refined model, worlds refined to it)
        for splits, worlds in layers:
            refined = self.refined(model, splits, psi)
            seen = asked.get(id(refined))
            asked[id(refined)] = (refined, worlds if seen is None else seen[1] | worlds)
        return tuple(asked.values())

    def _layers(self, model, kind, members, hold) -> tuple:
        """What a ``kind`` refinement for the agent positions ``members``
        splits at the worlds of ``hold``: a tuple of (splits, worlds)
        layers, and the union of the layers' scopes, memoized in the frame
        memo.  ``_groups`` sorts the worlds into groups; layer r holds the
        r-th group of each all-agents component, splits the union of those
        groups' scopes for each agent position, and gathers their worlds.
        With one component, each group is a layer of its own."""
        frame = self._frame(model)
        key = (kind, members, hold)
        entry = frame.get(key)
        if entry is not None:
            return entry
        layers = groups = self._groups(model, kind, members, hold)
        comps = (self._components(model, tuple(range(len(model.agents))))
                 if len(groups) > 1 else ())
        if len(comps) > 1:
            layers = []  # [scope per member, worlds] per layer
            depth = dict.fromkeys(comps, 0)  # component -> its groups layered so far
            for splits, worlds in groups:
                for comp in comps:
                    if comp & worlds:
                        break
                r = depth[comp]
                depth[comp] = r + 1
                if r == len(layers):
                    layers.append([[0] * len(members), 0])
                scopes, _ = layer = layers[r]
                for j, (_, scope) in enumerate(splits):
                    scopes[j] |= scope
                layer[1] |= worlds
            layers = [(tuple(zip(members, scopes)), worlds) for scopes, worlds in layers]
        span = 0
        for splits, _ in layers:
            span |= _span(splits)
        entry = frame[key] = (tuple(layers), span)
        return entry

    def _groups(self, model, kind, members, hold) -> list:
        """The worlds of ``hold`` as (splits, worlds) pairs by lowest world:
        a ``kind`` refinement at any of the worlds splits, for each agent
        position of ``members``, the scope mask ``splits`` pairs it with."""
        if not members:
            return [((), hold)]
        groups = []
        if kind == "local":
            nbr = self._nbr(model)
            while hold:
                i = (hold & -hold).bit_length() - 1
                splits = tuple([(k, nbr[k][i]) for k in members])
                worlds = hold
                for _, cls in splits:
                    worlds &= cls
                groups.append((splits, worlds))
                hold &= ~worlds
            return groups
        if kind == "global":
            comps = self._components(model, members)
        elif kind == "semiprivate":
            comps = self._components(model, tuple(range(len(model.agents))))
        else:
            raise ValueError(f"unknown refinement kind {kind!r}")
        for comp in comps:
            if comp & hold:
                groups.append((tuple([(k, comp) for k in members]), comp & hold))
                hold &= ~comp
                if not hold:
                    break
        return groups

    def _pal(self, model, f, need):
        full = model._full
        psi = self.mask(model, f.announced, full)
        if not psi & need:
            return full & ~psi
        refined = self._pal_model(model, psi)
        # The restriction keeps world order: its j-th world is psi's j-th.
        if need == full:
            kept = refined._full
        else:
            kept = 0
            for j, i in enumerate(iter_bits(psi)):
                if need >> i & 1:
                    kept |= 1 << j
        sub = self.mask(refined, f.sub, kept)
        cont = 0
        for j, i in enumerate(iter_bits(psi)):
            if sub >> j & 1:
                cont |= 1 << i
        return (full & ~psi) | cont

    # -- refinements ---------------------------------------------------------

    def refined(self, model, splits, psi) -> KripkeModel:
        """The split of ``model`` (interned here) by the announced mask
        ``psi``, which need only be correct on the scopes of ``splits``."""
        psi &= _span(splits)
        return self._memoized(
            model, (psi, splits), lambda: self.intern(_split_model(model, splits, psi)))

    def _members(self, model, coalition) -> tuple:
        """``_positions(model, coalition)``, resolved once per agent tuple;
        a coalition with an unknown member raises on every call."""
        key = (model.agents, coalition)
        members = self._coalitions.get(key)
        if members is None:
            members = self._coalitions[key] = _positions(model, coalition)
        return members

    def _pal_model(self, model, psi) -> KripkeModel:
        return self._memoized(model, psi, lambda: self.intern(_restrict_model(model, psi)))

    def _memoized(self, model, key, build):
        """``build()``, memoized in the memo of ``model`` (which must be
        interned here) under ``key``."""
        memo = self._memos[id(model)]
        hit = memo.get(key)
        if hit is None:
            hit = memo[key] = build()
        return hit

    def _frame(self, model) -> dict:
        """The memo of the frame of ``model``, which must be interned here."""
        memo = self._memos[id(model)]
        frame = memo.get(None)
        if frame is None:
            frame = memo[None] = self._frames.setdefault((model._full, model.cells), {})
        return frame

    def _components(self, model, positions) -> tuple:
        """``model.components(positions)``, memoized in the frame memo."""
        frame = self._frame(model)
        comps = frame.get(positions)
        if comps is None:
            comps = frame[positions] = model.components(positions)
        return comps

    def _meet(self, model, members) -> tuple:
        """The classes of the meet of the partitions of the agent positions
        ``members`` (singletons for none), by lowest world, memoized in the
        frame memo."""
        frame = self._frame(model)
        key = ("meet", members)
        meet = frame.get(key)
        if meet is None:
            rows = [self._nbr(model)[k] for k in members]
            meet, rest = [], model._full
            while rest:
                low = rest & -rest
                cell = rest if rows else low
                for row in rows:
                    cell &= row[low.bit_length() - 1]
                meet.append(cell)
                rest &= ~cell
            meet = frame[key] = tuple(meet)
        return meet

    def _nbr(self, model) -> tuple:
        """Per agent position, per world index, the mask of that world's
        class, memoized in the frame memo."""
        frame = self._frame(model)
        nbr = frame.get(None)
        if nbr is None:
            rows = []
            for part in model.cells:
                row = [0] * len(model.worlds)
                for cell in part:
                    for i in iter_bits(cell):
                        row[i] = cell
                rows.append(tuple(row))
            nbr = frame[None] = tuple(rows)
        return nbr


# Node class -> its clause: clause(context, model, f, need) is f's set,
# correct on need.  EvalContext.mask dispatches through this table.
_CLAUSES = {
    sx.Atom: EvalContext._atom,
    sx.Top: EvalContext._top,
    sx.Bot: EvalContext._bot,
    sx.Not: EvalContext._not,
    sx.And: EvalContext._and,
    sx.Or: EvalContext._or,
    sx.Implies: EvalContext._implies,
    sx.Iff: EvalContext._iff,
    sx.Know: EvalContext._static,
    sx.KnowWhether: EvalContext._static,
    sx.Dual: EvalContext._static,
    sx.Everybody: EvalContext._static,
    sx.Common: EvalContext._static,
    sx.Distributed: EvalContext._static,
    sx.AnnLocal: EvalContext._announce,
    sx.AnnGlobal: EvalContext._announce,
    sx.DiaLocal: EvalContext._announce,
    sx.DiaGlobal: EvalContext._announce,
    sx.PalAnn: EvalContext._pal,
}

_AGENT_OPS = sx.AGENT_OPS

# Announcement node class -> (refinement kind, whether it is a box).
_ANNOUNCE_KINDS = {
    sx.AnnLocal: ("local", True),
    sx.AnnGlobal: ("global", True),
    sx.DiaLocal: ("local", False),
    sx.DiaGlobal: ("global", False),
}


# A static node's combine: combine(full, parts, *subs) is the node's set, on
# a model whose all-worlds mask is full, from the sets subs of its
# subformulas and the partitions parts that EvalContext.operator gives it.
# It is correct at each world where subs is correct on the world's class in
# every partition (for ``!`` and ``&``, at the world itself).


def _negation(full, parts, sub):
    return full & ~sub


def _conjunction(full, parts, left, right):
    return left & right


def _box(full, parts, sub):
    """``K``, ``C``, ``D``: the worlds whose class lies inside ``sub``."""
    return _inside(parts[0], sub)


def _every(full, parts, sub):
    """``E``: the worlds whose class in each partition lies inside ``sub``."""
    out = full
    for part in parts:
        out &= _inside(part, sub)
    return out


def _diamond(full, parts, sub):
    """``M``: the worlds whose class meets ``sub``, that is, is not inside
    its complement."""
    return full & ~_inside(parts[0], ~sub)


def _decided(full, parts, sub):
    """``Kw``: the worlds whose class lies inside ``sub`` or inside its
    complement."""
    out = 0
    for cell in parts[0]:
        inside = cell & sub
        if not inside or inside == cell:
            out |= cell
    return out


_COMBINES = {sx.Not: _negation, sx.And: _conjunction, sx.Know: _box, sx.KnowWhether: _decided,
             sx.Dual: _diamond, sx.Everybody: _every, sx.Common: _box, sx.Distributed: _box}


def _positions(model: KripkeModel, coalition) -> tuple:
    """The sorted agent positions of a Coalition or iterable of names."""
    index = model._agent_index
    return tuple([index[a] for a in coalition_names(model, coalition)])


def _span(splits) -> int:
    """The union of the scope masks of ``splits``."""
    out = 0
    for _, scope in splits:
        out |= scope
    return out


def _reach(parts, need: int) -> int:
    """The union of the ``parts`` (disjoint masks) that meet ``need``."""
    out = 0
    for part in parts:
        if part & need:
            out |= part
    return out


def _inside(parts, sub: int) -> int:
    """The union of the ``parts`` (disjoint masks) inside the mask ``sub``."""
    out = 0
    for part in parts:
        if part & sub == part:
            out |= part
    return out


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
        kept, moved = [], []
        for cell in cells[k]:
            if cell & scope:
                inside = cell & psi
                if inside and inside != cell:
                    # The part that holds the cell's lowest world (the bit
                    # ``-cell`` shares with ``cell``) keeps the cell's place.
                    stay = inside if inside & -cell else cell ^ inside
                    kept.append(stay)
                    moved.append(cell ^ stay)
                    continue
            kept.append(cell)
        if moved:
            cells[k] = in_world_order(kept, moved)
            changed = True
    if not changed:
        return model
    return KripkeModel._canonical(model.worlds, model.agents, tuple(cells), model.valuation)


def _restrict_model(model: KripkeModel, keep: int) -> KripkeModel:
    """Submodel on the kept worlds (relations and valuation restricted)."""
    indices = list(iter_bits(keep))
    renumbered = {1 << i: 1 << j for j, i in enumerate(indices)}

    def squeeze(mask: int) -> int:
        """``mask & keep`` renumbered over the kept worlds."""
        mask &= keep
        out = 0
        while mask:
            low = mask & -mask
            out |= renumbered[low]
            mask ^= low
        return out

    cells = []
    for part in model.cells:
        kept, moved = [], []
        for cell in part:
            if cell & -cell & keep:  # the cell's lowest world stays: so does its place
                kept.append(squeeze(cell))
            elif cell & keep:
                moved.append(squeeze(cell))
        cells.append(in_world_order(kept, moved))
    cells = tuple(cells)
    worlds = tuple(model.worlds[i] for i in indices)
    valuation = tuple((atom, squeeze(mask)) for atom, mask in model.valuation)
    return KripkeModel._canonical(worlds, model.agents, cells, valuation)


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def _check_agents(model: KripkeModel, f: sx.Formula) -> None:
    """Raise ``UnknownAgent`` for the least agent that ``f`` names and
    ``model`` lacks.  Checked before evaluating, since an agent under a
    vacuous announcement is never resolved."""
    missing = f._agents.difference(model.agents)
    if missing:
        raise UnknownAgent(f"unknown agent {min(missing)!r}")


def sat_set(model: KripkeModel, f: sx.Formula, *, context: EvalContext | None = None) -> frozenset:
    """The set of worlds satisfying ``f``."""
    _check_agents(model, f)
    ctx = context or EvalContext()
    model = ctx.intern(model)
    return model.world_names(ctx.mask(model, f, model._full))


def check(pointed: PointedModel, f: sx.Formula, *, context: EvalContext | None = None) -> bool:
    """Pointed model checking: does the designated world satisfy ``f``?"""
    _check_agents(pointed.model, f)
    ctx = context or EvalContext()
    model = ctx.intern(pointed.model)
    point = 1 << model.world_index(pointed.point)
    return bool(ctx.mask(model, f, point) & point)


def check_traced(
    pointed: PointedModel, f: sx.Formula, *, context: EvalContext | None = None
) -> tuple:
    """Like check(), also returning the tree of refinements applied at the point."""
    _check_agents(pointed.model, f)
    ctx = context or EvalContext()
    model = ctx.intern(pointed.model)
    steps = _trace(ctx, model, pointed.point, f)
    point = 1 << model.world_index(pointed.point)
    result = bool(ctx.mask(model, f, point) & point)
    return result, EvalTrace(pointed, result, tuple(steps))


_ANNOUNCEMENTS = sx.ANNOUNCE_OPS + (sx.PalAnn,)


def _trace(ctx: EvalContext, model: KripkeModel, point: str, f: sx.Formula) -> list:
    if isinstance(f, sx.AGENT_OPS + sx.COALITION_OPS):
        return []  # subformulas are evaluated at other worlds, off the point's path
    if not isinstance(f, _ANNOUNCEMENTS):
        return [node for sub in sx.children(f) for node in _trace(ctx, model, point, sub)]
    nodes = _trace(ctx, model, point, f.announced)
    i = model.world_index(point)
    if ctx.mask(model, f.announced, 1 << i) >> i & 1:
        refined, key = _step(ctx, model, i, f)
        nodes.append(TraceNode(key, refined, tuple(_trace(ctx, refined, point, f.sub))))
    return nodes


def _step(ctx: EvalContext, model: KripkeModel, i: int, f: sx.Formula) -> tuple:
    """The model an announcement node refines to at world ``i``, where its
    announced formula holds, and the key describing that refinement.  The
    announced set is asked for only where the refinement reads it."""
    if isinstance(f, sx.PalAnn):
        psi = ctx.mask(model, f.announced, model._full)
        key = RefinementKey("pal", (), f.announced, model.world_names(psi))
        return ctx._pal_model(model, psi), key
    kind = _ANNOUNCE_KINDS[type(f)][0]
    members = ctx._members(model, f.coalition)
    [(splits, _)], scope = ctx._layers(model, kind, members, 1 << i)
    if kind == "global":
        scope |= 1 << i  # a closure holds i, even for no agents
    psi = ctx.mask(model, f.announced, scope)
    names = tuple([model.agents[k] for k in members])
    key = RefinementKey(kind, names, f.announced, model.world_names(scope))
    return ctx.refined(model, splits, psi), key


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
    _check_agents(model, announced)
    ctx = context or EvalContext()
    model = ctx.intern(model)
    [(splits, _)], _ = ctx._layers(model, kind, _positions(model, coalition),
                                   1 << model.world_index(world))
    return ctx.refined(model, splits, ctx.mask(model, announced, model._full))


def refine_pal(
    model: KripkeModel, announced: sx.Formula, *, context: EvalContext | None = None
) -> KripkeModel:
    """Restrict the model to the worlds satisfying the announced formula."""
    _check_agents(model, announced)
    ctx = context or EvalContext()
    model = ctx.intern(model)
    psi = ctx.mask(model, announced, model._full)
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
