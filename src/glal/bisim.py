"""Bisimulation checking: modal, exact-profile, and collective variants.

The greatest candidate relation is computed by deletion: start from all
atom-agreeing pairs and repeatedly drop pairs violating Forth/Back (and,
for the exact-profile kind, Reach against the current candidate) until a
full pass deletes nothing.  Pairs are scanned in lexicographic order, so
deletions and failure reasons are reproducible.

The checks run on the models' own representation.  A pair is (left world
index, right world index); worlds are sorted, so index order is name order.
While a pass runs, the candidate relation is one mask of related worlds per
world on each side.  The agents linking world i to world j form a profile,
an int mask over the sorted union of both models' agents.  Each side keeps,
per world, its class for each agent and its exact-profile classes: the
worlds each profile links it to, the empty profile included.  The n-by-n
table of profiles is built only for Reach.

Forth and Back work on pre-images.  The pre-image of a mask E of right
worlds is the OR of the masks of left worlds related to the worlds of E.
The move from (w, w2) to a left world v is matched when v lies in the
pre-image of its target: w2's class for the moving agent (modal), the
intersection of w2's classes for the agents of v's profile (collective),
or w2's class for v's exact profile (exact-profile).  So one check is one
pre-image per agent, or per profile class of w, costing one OR per world
of its target, and one AND-NOT with the worlds that must be matched.  An
exact-profile check reads every right world once, since w2's classes
partition them.  Names appear only in ``FailReason``, in witnesses and in
``max_bisim``'s result.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import syntax as sx
from .model import KripkeModel, PointedModel, iter_bits
from .semantics import EvalContext

KINDS = ("modal", "plusminus", "collective")


@dataclass(frozen=True)
class FailReason:
    pair: tuple
    condition: str  # Atoms | Forth | Back | Reach
    detail: tuple = ()

    def to_obj(self) -> dict:
        return {"pair": list(self.pair), "condition": self.condition,
                "detail": list(self.detail)}


@dataclass(frozen=True)
class BisimResult:
    related: bool
    kind: str
    witness: frozenset | None = None
    fail_reason: FailReason | None = None

    def to_obj(self) -> dict:
        out = {"related": self.related, "kind": self.kind}
        if self.related:
            out["witness"] = sorted(map(list, self.witness))
        elif self.fail_reason is not None:
            out["fail_reason"] = self.fail_reason.to_obj()
        return out


class _Side:
    """One model's tables over the agents of both models.

    ``atoms[i]`` is world i's sorted atoms and ``classes[i][k]`` its class
    for agent k, 0 where the model lacks the agent.  ``profiles[i]`` maps
    each profile p linking world i to some world to its exact-profile
    class: the worlds that the agents of p, and no other, link to i.  The
    empty profile maps to the worlds no agent links to i.
    """

    __slots__ = ("atoms", "classes", "profiles", "_table")

    def __init__(self, model: KripkeModel, agents: tuple):
        n, full = len(model.worlds), model._full
        classes = [[0] * len(agents) for _ in range(n)]
        for agent, part in zip(model.agents, model.cells):
            k = agents.index(agent)
            for cell in part:
                for i in iter_bits(cell):
                    classes[i][k] = cell
        profiles = []
        for row in classes:
            linked = {}  # bit of a world linked to this one -> its profile
            bit = 1
            for cell in row:
                while cell:
                    low = cell & -cell
                    linked[low] = linked.get(low, 0) | bit
                    cell ^= low
                bit <<= 1
            split, rest = {}, full
            for low, p in linked.items():
                split[p] = split.get(p, 0) | low
                rest ^= low
            if rest:
                split[0] = rest
            profiles.append(split)
        self.atoms = [tuple(a for a, mask in model.valuation if mask >> i & 1) for i in range(n)]
        self.classes = classes
        self.profiles = profiles
        self._table = None

    def table(self) -> list:
        """``table[i][j]``: the profile linking world i to world j.  Only
        Reach reads it, so it is built on first use."""
        if self._table is None:
            n = len(self.profiles)
            self._table = [[0] * n for _ in range(n)]
            for row, split in zip(self._table, self.profiles):
                for p, group in split.items():
                    for j in iter_bits(group) if p else ():
                        row[j] = p
        return self._table


def _preimage(back, mask: int) -> int:
    """The worlds that ``back`` pairs with some world of ``mask``."""
    out = 0
    while mask:
        low = mask & -mask
        out |= back[low.bit_length() - 1]
        mask ^= low
    return out


def _forth_fails(side, other, w, w2, kind, back):
    """First unmatched move from (w, w2) out of ``side`` into ``other``, or None.

    ``back[v2]`` is the mask of ``side`` worlds the candidate pairs with
    world v2 of ``other``.  The move to v is matched when v lies in the
    pre-image of its target set: for a modal move by agent k, w2's class
    for k; for a collective move by profile p, the intersection of w2's
    classes for the agents of p; for an exact-profile move, w2's class for
    profile p, the empty profile included.  A failure is (v, agent mask)
    for the lowest unmatched v, the mask being its lowest unmatched agent
    (modal) or its profile.
    """
    best = None
    if kind == "modal":
        row2 = other.classes[w2]
        for k, cell in enumerate(side.classes[w]):
            bad = cell & ~_preimage(back, row2[k]) if cell else 0
            if bad and (best is None or bad & -bad < best[0]):
                best = (bad & -bad, 1 << k)
    else:
        exact = kind == "plusminus"
        row2, split2 = other.classes[w2], other.profiles[w2]
        for p, group in side.profiles[w].items():
            if exact:
                target = split2.get(p, 0)
            elif not p:
                continue
            else:
                target = -1
                for k in iter_bits(p):
                    target &= row2[k]
            bad = group & ~_preimage(back, target)
            if bad and (best is None or bad & -bad < best[0]):
                best = (bad & -bad, p)
    return None if best is None else (best[0].bit_length() - 1, best[1])


def _fail_reason(left, right, agents, kind, pair, condition, detail=()) -> FailReason:
    """Name an index-level failure: a Forth/Back detail is (world, agent
    mask) on the moving side, a Reach detail a conflicting pair."""
    w, w2 = pair
    if condition == "Reach" and detail:
        detail = (left.worlds[detail[0]], right.worlds[detail[1]])
    elif detail:
        v, mask = detail
        names = tuple(agents[k] for k in iter_bits(mask))
        detail = ((left if condition == "Forth" else right).worlds[v],
                  names[0] if kind == "modal" else names)
    return FailReason((left.worlds[w], right.worlds[w2]), condition, detail)


def _named(left, right, pairs) -> frozenset:
    return frozenset((left.worlds[w], right.worlds[w2]) for (w, w2) in pairs)


def max_bisim(left: KripkeModel, right: KripkeModel, kind: str):
    """All related pairs of the given kind.

    For the modal and collective kinds this is the coinductive greatest
    fixpoint (delete Forth/Back violators in lexicographic pair order until
    stable), itself a bisimulation.  The exact-profile kind adds Reach, a
    pairwise compatibility constraint between candidate pairs, under which
    bisimulations are not closed under union; there a pair is related iff
    some bisimulation contains it, decided per pair by backtracking inside
    the Forth/Back fixpoint (see _resolve), and the returned set is the
    union of the per-pair verdicts.
    """
    _, lp, rp, fixpoint, _ = _prepare(left, right, kind)
    if kind != "plusminus":
        return _named(left, right, fixpoint)
    related = set()
    for pair in sorted(fixpoint):
        if pair in related:
            continue  # a found bisimulation vouches for all its pairs
        witness = _resolve(lp, rp, fixpoint, frozenset([pair]))
        if witness is not None:
            related |= witness
    return _named(left, right, related)


def _prepare(left, right, kind):
    if kind not in KINDS:
        raise ValueError(f"unknown bisimulation kind {kind!r}")
    agents = tuple(sorted(set(left.agents) | set(right.agents)))
    lp, rp = _Side(left, agents), _Side(right, agents)
    reasons = {}  # pairs failing on atoms have none
    alike = {}  # atoms -> the right worlds that have them
    for w2, atoms in enumerate(rp.atoms):
        alike.setdefault(atoms, []).append(w2)
    current = {(w, w2) for w, atoms in enumerate(lp.atoms) for w2 in alike.get(atoms, ())}
    current = _forthback_fixpoint(lp, rp, kind, current, reasons)
    return agents, lp, rp, frozenset(current), reasons


def _forthback_fixpoint(lp, rp, kind, current, reasons):
    """Delete Forth/Back violators to fixpoint (monotone, hence sound)."""
    while True:
        deleted = False
        fwd, bwd = [0] * len(lp.atoms), [0] * len(rp.atoms)
        for (v, v2) in current:
            fwd[v] |= 1 << v2
            bwd[v2] |= 1 << v
        for pair in sorted(current):
            w, w2 = pair
            bad = _forth_fails(lp, rp, w, w2, kind, bwd)
            if bad is not None:
                reasons[pair] = ("Forth", bad)
            else:
                bad = _forth_fails(rp, lp, w2, w, kind, fwd)
                if bad is not None:
                    reasons[pair] = ("Back", bad)
            if bad is not None:
                current.discard(pair)
                fwd[w] &= ~(1 << w2)
                bwd[w2] &= ~(1 << w)
                deleted = True
        if not deleted:
            return current


def _conflict(lt, rt, x, y) -> bool:
    """Reach incompatibility: the two pairs cannot coexist in one relation.
    ``lt`` and ``rt`` are the sides' profile tables."""
    (w, w2), (v, v2) = x, y
    return lt[w][v] != rt[w2][v2]


def _first_conflict_with(lp, rp, pair, candidate):
    lt, rt = lp.table(), rp.table()
    for other in sorted(candidate):
        if _conflict(lt, rt, pair, other):
            return other
    return None


def _resolve(lp, rp, candidate, pinned):
    """Largest-found conflict-free Forth/Back-closed subset keeping ``pinned``.

    Pairs conflicting with a pinned pair are deleted outright; remaining
    conflicts branch on which side to drop (lexicographically smaller side
    first).  Returns None when no subset can keep every pinned pair.
    """
    if not pinned <= candidate:
        return None
    lt, rt = lp.table(), rp.table()
    for a in sorted(pinned):
        for b in sorted(pinned):
            if _conflict(lt, rt, a, b):
                return None
    while True:
        forced = {
            other
            for p in pinned
            for other in candidate
            if other not in pinned and _conflict(lt, rt, p, other)
        }
        if forced:
            trimmed = _forthback_fixpoint(lp, rp, "plusminus", set(candidate - forced), {})
            if not pinned <= trimmed:
                return None
            candidate = frozenset(trimmed)
            continue
        ordered = sorted(candidate)
        conflict = None
        for i, x in enumerate(ordered):
            for y in ordered[i + 1:]:
                if _conflict(lt, rt, x, y):
                    conflict = (x, y)
                    break
            if conflict:
                break
        if conflict is None:
            return candidate
        for drop in conflict:
            trimmed = _forthback_fixpoint(lp, rp, "plusminus", set(candidate) - {drop}, {})
            result = _resolve(lp, rp, frozenset(trimmed), pinned)
            if result is not None:
                return result
        return None


def verify_bisim(left: KripkeModel, right: KripkeModel, relation, kind: str) -> list:
    """All condition violations of a claimed witness relation."""
    agents = tuple(sorted(set(left.agents) | set(right.agents)))
    lp, rp = _Side(left, agents), _Side(right, agents)
    pairs = sorted({(left.world_index(w), right.world_index(w2)) for (w, w2) in relation})
    fwd, bwd = [0] * len(lp.atoms), [0] * len(rp.atoms)
    for (v, v2) in pairs:
        fwd[v] |= 1 << v2
        bwd[v2] |= 1 << v
    out = []
    for pair in pairs:
        w, w2 = pair
        found = [] if lp.atoms[w] == rp.atoms[w2] else [("Atoms",)]
        bad = _forth_fails(lp, rp, w, w2, kind, bwd)
        if bad is not None:
            found.append(("Forth", bad))
        bad = _forth_fails(rp, lp, w2, w, kind, fwd)
        if bad is not None:
            found.append(("Back", bad))
        if kind == "plusminus":
            bad = _first_conflict_with(lp, rp, pair, pairs)
            if bad is not None:
                found.append(("Reach", bad))
        out.extend(_fail_reason(left, right, agents, kind, pair, *f) for f in found)
    return out


def pointed_bisim(
    p: PointedModel, q: PointedModel, kind: str, total: bool = False
) -> BisimResult:
    """Is there a bisimulation of the given kind relating the two points?

    With ``total=True`` the model-level conditions are also required: every
    world on either side must be related to some world on the other.
    """
    left, right = p.model, q.model
    pair = (left.world_index(p.point), right.world_index(q.point))
    agents, lp, rp, fixpoint, reasons = _prepare(left, right, kind)
    if pair not in fixpoint:
        reason = _fail_reason(left, right, agents, kind, pair, *reasons.get(pair, ("Atoms",)))
        return BisimResult(False, kind, fail_reason=reason)
    if kind == "plusminus":
        witness = _resolve(lp, rp, fixpoint, frozenset([pair]))
        if witness is None:
            conflict = _first_conflict_with(lp, rp, pair, fixpoint)
            reason = _fail_reason(left, right, agents, kind, pair, "Reach", conflict or ())
            return BisimResult(False, kind, fail_reason=reason)
    else:
        witness = fixpoint
    if total:
        for k, model, condition in ((0, left, "Forth"), (1, right, "Back")):
            unmatched = set(range(len(model.worlds))) - {x[k] for x in witness}
            if unmatched:
                w = model.worlds[min(unmatched)]
                pair = (w, None) if k == 0 else (None, w)
                reason = FailReason(pair, condition, ("unmatched",))
                return BisimResult(False, kind, fail_reason=reason)
    return BisimResult(True, kind, witness=_named(left, right, witness))


# ---------------------------------------------------------------------------
# Distinguishing-formula search
# ---------------------------------------------------------------------------

def distinguishing_formula_search(
    p: PointedModel, q: PointedModel, depth: int, operators: str = "all"
):
    """First enumerated formula true at ``p`` and false at ``q``, if any.

    Enumeration is layered by AST depth, atoms first, then operator
    applications in a fixed order.  Candidates are deduplicated by their
    satisfaction sets; for the epistemic operator set that signature is
    computed on the two models under comparison and the search is complete
    up to the depth bound.  Announcement operators are not compositional in
    those two satsets, so with announcements enabled the signature also
    spans every one-step refinement of the base models by (negated) atoms;
    formulas only distinguishable after deeper refinement sequences may be
    pruned.  A level that adds no representative ends the search: every
    deeper level would apply the same operators to the same
    representatives.  Whatever is returned has been evaluated again on the
    two points in their own models.

    The signature is one satisfaction set on the disjoint union of those
    models (the probes), block k holding probe k's worlds.  GLAL truth at a
    world depends only on the submodel the world generates (Blackburn, de
    Rijke & Venema 2001, §2.1), and a refinement or restriction of the
    union is the union of those of its blocks, so block k of the union's
    set is the set on probe k: one evaluation per candidate stands for one
    per probe.

    A candidate's signature is computed from its children's, which are
    representatives, and a formula node is built only for a candidate whose
    signature is new or separates the points.  For ``!``, ``&``, ``K``,
    ``Kw``, ``M``, ``E``, ``C`` and ``D`` the signature is a function of the
    children's signatures and the union's partitions: the complement, the
    AND, and the scan of the agent's cells, of each member's cells, of the
    coalition's components or of the meet of the members' partitions that
    the evaluator's combine makes (``EvalContext.operator``).  An
    announcement's satisfaction set is not a function of its children's
    sets on the union, but it is a function of the announced signature and
    of the body's sets in the unions refined by it: the evaluator's
    ``EvalContext.announcement`` takes the announced representative's
    signature and the body's node, and asks for the body in the refined
    unions through ``mask``.

    Candidates that provably repeat the signature of a candidate generated
    before them are never generated, so the representatives, the saturation
    stop and the returned formula are those of the full enumeration:

    - an application to representatives that were all known a level
      earlier: it was generated, and kept or dropped, at that level;
    - ``E``, ``C`` and ``D`` over one agent: each is ``K`` of that agent,
      whose class is its own closure class and meet cell;
    - ``f & g`` with ``g`` before ``f`` among the representatives, and
      ``f & f``: conjunction is commutative and idempotent;
    - a global announcement to one agent: its closure class is the agent's
      class, which the local announcement generated just before splits.

    Related points are answered at once: exact-profile bisimilarity
    preserves every GLAL formula, and collective bisimilarity every
    epistemic one (modal bisimilarity does not preserve D).
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if operators not in ("all", "epistemic"):
        raise ValueError(f"unknown operator set {operators!r}")
    if depth == 0:
        return None  # atoms and constants have depth 1
    announcements = operators == "all"
    if pointed_bisim(p, q, "plusminus" if announcements else "collective").related:
        return None
    ctx = EvalContext()
    pm = ctx.intern(p.model)
    qm = ctx.intern(q.model)
    pi = pm.world_index(p.point)
    qi = qm.world_index(q.point)
    agents = tuple(sorted(set(pm.agents) & set(qm.agents)))
    atoms = sorted(set(pm.atom_names()) | set(qm.atom_names()))
    coalitions = [sx.Coalition.of(*combo) for combo in _nonempty_subsets(agents)]

    probes = [pm, qm]
    if announcements:
        probes.extend(_refinement_probes(ctx, (pm, qm), atoms, coalitions))
    union = ctx.intern(_disjoint_union(probes))
    full, q_bit = union._full, len(pm.worlds) + qi

    seen = set()
    reps, sigs = [], []  # one formula per signature, in generation order, and its signature
    layer = [(sx.Atom, (name,)) for name in atoms] + [(sx.Top, ()), (sx.Bot, ())]
    layer = [(cls, fields, ctx.mask(union, cls(*fields), full)) for cls, fields in layer]
    for _ in range(depth):
        fresh = len(reps)
        for cls, fields, sig in layer:
            if sig >> pi & 1 and not sig >> q_bit & 1:
                f = cls(*fields)
                if ctx.mask(pm, f, 1 << pi) >> pi & 1 and not ctx.mask(qm, f, 1 << qi) >> qi & 1:
                    return f
                raise RuntimeError(f"{sx.print_formula(f)} does not distinguish the points")
            if sig not in seen:
                seen.add(sig)
                reps.append(cls(*fields))
                sigs.append(sig)
        if len(reps) == fresh:
            break  # saturated
        layer = _applications(list(reps), list(sigs), fresh, ctx, union,
                              agents, coalitions, announcements)
    return None


def _applications(base, sigs, fresh, ctx, union, agents, coalitions, announcements):
    """Every operator applied to the representatives ``base``, whose
    signatures on ``union`` are ``sigs``, as (node class, fields, signature)
    triples in search order, but for the provable repeats that
    distinguishing_formula_search lists; ``base[fresh:]`` are the
    representatives new at the level before.  Each signature is computed
    from the children's by the evaluator's combine or announcement code."""
    full = union._full
    groups = [co for co in coalitions if len(co.members) > 1]
    labels = [(sx.Not, None)] + [(cls, a) for cls in sx.AGENT_OPS for a in agents]
    labels += [(cls, co) for cls in sx.COALITION_OPS for co in groups]
    unary = [(cls, () if label is None else (label,), *ctx.operator(union, cls, label))
             for cls, label in labels]
    for f, sig in zip(base[fresh:], sigs[fresh:]):
        for cls, prefix, combine, parts in unary:
            yield cls, (*prefix, f), combine(full, parts, sig)
    combine, parts = ctx.operator(union, sx.And, None)
    for i, f in enumerate(base):
        for j in range(max(i + 1, fresh), len(base)):
            yield sx.And, (f, base[j]), combine(full, parts, sigs[i], sigs[j])
    if announcements:
        resolved = [(co, ctx._members(union, co)) for co in coalitions]
        for i, psi in enumerate(sigs):
            for j in range(0 if i >= fresh else fresh, len(base)):
                chi = base[j]
                for co, members in resolved:
                    yield sx.AnnLocal, (base[i], co, chi), ctx.announcement(
                        union, "local", True, members, psi, chi, full)
                    if len(members) > 1:
                        yield sx.AnnGlobal, (base[i], co, chi), ctx.announcement(
                            union, "global", True, members, psi, chi, full)


def _disjoint_union(models) -> KripkeModel:
    """The models side by side, over the union of their agents and atoms.

    Block k holds model k's worlds, shifted past the earlier blocks and
    named ``<k>.<world>`` with k zero-padded, so that names sort in index
    order.  A block gets singleton cells for an agent its model lacks, and
    no world for an atom its model lacks.
    """
    agents = sorted({a for m in models for a in m.agents})
    valuation = dict.fromkeys(sorted({a for m in models for a in m.atom_names()}), 0)
    width = len(str(len(models) - 1))
    worlds, cells, shift = [], [[] for _ in agents], 0
    for k, m in enumerate(models):
        worlds += [f"{k:0{width}}.{w}" for w in m.worlds]
        for agent, part in zip(agents, cells):
            if agent in m.agents:
                part += [cell << shift for cell in m.cells[m.agent_position(agent)]]
            else:
                part += [1 << i for i in range(shift, shift + len(m.worlds))]
        for atom, mask in m.valuation:
            valuation[atom] |= mask << shift
        shift += len(m.worlds)
    return KripkeModel(tuple(worlds), tuple(agents), tuple(map(tuple, cells)), valuation)


def _refinement_probes(ctx: EvalContext, models, atoms, coalitions) -> list:
    """The distinct one-step local and global refinements of ``models`` by
    each atom and negated atom, one per layer of groups
    (``EvalContext._layers``).  A layer refines one group in each all-agents
    component, and each component of its refined model is that group's
    refinement, so the layers carry every per-group refinement."""
    out = []
    seen = {id(m) for m in models}
    for m in models:
        extensions = [m.atom_mask(a) for a in atoms]
        extensions += [m._full & ~psi for psi in extensions]  # the negated atoms
        for psi in extensions:
            for co in coalitions:
                members = ctx._members(m, co)
                for kind in ("local", "global"):
                    for splits, _ in ctx._layers(m, kind, members, m._full)[0]:
                        refined = ctx.refined(m, splits, psi)
                        if id(refined) not in seen:
                            seen.add(id(refined))
                            out.append(refined)
    return out


def _nonempty_subsets(items):
    n = len(items)
    for mask in range(1, 1 << n):
        yield tuple(items[i] for i in range(n) if mask >> i & 1)
