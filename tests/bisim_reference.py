"""The name-based bisimulation engine, kept as the reference for glal.bisim.

Pairs are pairs of world names and every agent profile is a frozenset of
agent names in an n-by-n dict, exactly as the engine computed them before it
moved to world indices and agent masks.  It runs the same deletion order,
Reach backtracking and failure reasons, so tests require equal results.

It also keeps the distinguishing-formula search that evaluates every
candidate on each probe model in turn and generates every candidate, with
one refinement probe per group of worlds rather than per layer of groups.
"""

from glal import syntax as sx
from glal.bisim import KINDS, BisimResult, FailReason, _nonempty_subsets
from glal.model import KripkeModel, PointedModel
from glal.semantics import EvalContext


class _Side:
    """Per-model tables used by the condition checks."""

    def __init__(self, model: KripkeModel):
        self.model = model
        self.worlds = model.worlds
        self.profile = {}
        for i, w in enumerate(self.worlds):
            for j, v in enumerate(self.worlds):
                self.profile[(w, v)] = frozenset(
                    a for a, part in zip(model.agents, model.cells)
                    if any(cell >> i & 1 and cell >> j & 1 for cell in part)
                )

    def val(self, w: str) -> frozenset:
        i = self.model._index[w]
        return frozenset(atom for atom, mask in self.model.valuation if mask >> i & 1)


def _atoms_agree(left: _Side, right: _Side, w: str, w2: str) -> bool:
    return left.val(w) == right.val(w2)


def _forth_fails(left: _Side, right: _Side, w, w2, kind, related_fwd):
    """First unmatched move from (w, w2) left-to-right, or None.

    related_fwd maps a left world to the right worlds the candidate pairs it
    with.  Modal moves are per agent, in sorted order; plusminus matches
    exact profiles (including the empty one); collective inclusive ones.
    """
    if kind == "modal":
        for v in left.worlds:
            prof = left.profile[(w, v)]
            for a in sorted(prof):
                if not any(
                    a in right.profile[(w2, v2)] for v2 in related_fwd.get(v, ())
                ):
                    return (v, a)
        return None
    for v in left.worlds:
        prof = left.profile[(w, v)]
        if kind == "collective" and not prof:
            continue
        ok = False
        for v2 in related_fwd.get(v, ()):
            prof2 = right.profile[(w2, v2)]
            if prof2 == prof if kind == "plusminus" else prof <= prof2:
                ok = True
                break
        if not ok:
            return (v, tuple(sorted(prof)))
    return None


def _reach_fails(left: _Side, right: _Side, w, w2, pairs):
    for (v, v2) in pairs:
        if left.profile[(w, v)] != right.profile[(w2, v2)]:
            return (v, v2)
    return None


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
    ls, rs, fixpoint, reasons = _prepare(left, right, kind)
    if kind != "plusminus":
        return frozenset(fixpoint)
    related = set()
    for pair in sorted(fixpoint):
        if pair in related:
            continue  # a found bisimulation vouches for all its pairs
        witness = _resolve(ls, rs, frozenset(fixpoint), frozenset([pair]))
        if witness is not None:
            related |= witness
    return frozenset(related)


def _prepare(left, right, kind):
    if kind not in KINDS:
        raise ValueError(f"unknown bisimulation kind {kind!r}")
    ls, rs = _Side(left), _Side(right)
    reasons = {}
    current = set()
    for w in left.worlds:
        for w2 in right.worlds:
            if _atoms_agree(ls, rs, w, w2):
                current.add((w, w2))
            else:
                reasons[(w, w2)] = FailReason((w, w2), "Atoms")
    current = _forthback_fixpoint(ls, rs, kind, current, reasons)
    return ls, rs, frozenset(current), reasons


def _forthback_fixpoint(ls, rs, kind, current, reasons):
    """Delete Forth/Back violators to fixpoint (monotone, hence sound)."""
    while True:
        deleted = False
        fwd, bwd = {}, {}
        for (v, v2) in current:
            fwd.setdefault(v, set()).add(v2)
            bwd.setdefault(v2, set()).add(v)
        for pair in sorted(current):
            w, w2 = pair
            bad = _forth_fails(ls, rs, w, w2, kind, fwd)
            if bad is not None:
                reasons.setdefault(pair, FailReason(pair, "Forth", bad))
            else:
                bad = _forth_fails(rs, ls, w2, w, kind, bwd)
                if bad is not None:
                    reasons.setdefault(pair, FailReason(pair, "Back", bad))
            if pair in reasons and pair in current:
                current.discard(pair)
                fwd.get(w, set()).discard(w2)
                bwd.get(w2, set()).discard(w)
                deleted = True
        if not deleted:
            return current


def _conflict(ls, rs, x, y) -> bool:
    """Reach incompatibility: the two pairs cannot coexist in one relation."""
    (w, w2), (v, v2) = x, y
    return ls.profile[(w, v)] != rs.profile[(w2, v2)]


def _first_conflict_with(ls, rs, pair, candidate):
    for other in sorted(candidate):
        if _conflict(ls, rs, pair, other):
            return other
    return None


def _resolve(ls, rs, candidate, pinned):
    """Largest-found conflict-free Forth/Back-closed subset keeping ``pinned``.

    Pairs conflicting with a pinned pair are deleted outright; remaining
    conflicts branch on which side to drop (lexicographically smaller side
    first).  Returns None when no subset can keep every pinned pair.
    """
    if not pinned <= candidate:
        return None
    for a in sorted(pinned):
        for b in sorted(pinned):
            if _conflict(ls, rs, a, b):
                return None
    while True:
        forced = {
            other
            for p in pinned
            for other in candidate
            if other not in pinned and _conflict(ls, rs, p, other)
        }
        if forced:
            trimmed = _forthback_fixpoint(ls, rs, "plusminus", set(candidate - forced), {})
            if not pinned <= trimmed:
                return None
            candidate = frozenset(trimmed)
            continue
        ordered = sorted(candidate)
        conflict = None
        for i, x in enumerate(ordered):
            for y in ordered[i + 1:]:
                if _conflict(ls, rs, x, y):
                    conflict = (x, y)
                    break
            if conflict:
                break
        if conflict is None:
            return candidate
        for drop in conflict:
            trimmed = _forthback_fixpoint(ls, rs, "plusminus", set(candidate) - {drop}, {})
            result = _resolve(ls, rs, frozenset(trimmed), pinned)
            if result is not None:
                return result
        return None


def verify_bisim(left: KripkeModel, right: KripkeModel, relation, kind: str) -> list:
    """All condition violations of a claimed witness relation."""
    ls, rs = _Side(left), _Side(right)
    relation = set(relation)
    fwd, bwd = {}, {}
    for (v, v2) in relation:
        fwd.setdefault(v, set()).add(v2)
        bwd.setdefault(v2, set()).add(v)
    out = []
    for pair in sorted(relation):
        w, w2 = pair
        if not _atoms_agree(ls, rs, w, w2):
            out.append(FailReason(pair, "Atoms"))
        bad = _forth_fails(ls, rs, w, w2, kind, fwd)
        if bad is not None:
            out.append(FailReason(pair, "Forth", bad))
        bad = _forth_fails(rs, ls, w2, w, kind, bwd)
        if bad is not None:
            out.append(FailReason(pair, "Back", bad))
        if kind == "plusminus":
            bad = _reach_fails(ls, rs, w, w2, sorted(relation))
            if bad is not None:
                out.append(FailReason(pair, "Reach", bad))
    return out


def pointed_bisim(
    p: PointedModel, q: PointedModel, kind: str, total: bool = False
) -> BisimResult:
    """Is there a bisimulation of the given kind relating the two points?

    With ``total=True`` the model-level conditions are also required: every
    world on either side must be related to some world on the other.
    """
    pair = (p.point, q.point)
    ls, rs, fixpoint, reasons = _prepare(p.model, q.model, kind)
    if pair not in fixpoint:
        reason = reasons.get(pair, FailReason(pair, "Atoms"))
        return BisimResult(False, kind, fail_reason=reason)
    if kind == "plusminus":
        witness = _resolve(ls, rs, fixpoint, frozenset([pair]))
        if witness is None:
            conflict = _first_conflict_with(ls, rs, pair, fixpoint)
            return BisimResult(
                False, kind, fail_reason=FailReason(pair, "Reach", conflict or ())
            )
    else:
        witness = fixpoint
    if total:
        matched_left = {w for (w, _) in witness}
        matched_right = {w2 for (_, w2) in witness}
        for w in p.model.worlds:
            if w not in matched_left:
                return BisimResult(
                    False, kind, fail_reason=FailReason((w, None), "Forth", ("unmatched",))
                )
        for w2 in q.model.worlds:
            if w2 not in matched_right:
                return BisimResult(
                    False, kind, fail_reason=FailReason((None, w2), "Back", ("unmatched",))
                )
    return BisimResult(True, kind, witness=witness)


def distinguishing_formula_search(p: PointedModel, q: PointedModel, depth: int,
                                  operators: str = "all"):
    """The search as it was before it evaluated candidates on one disjoint
    union: a candidate's signature is the tuple of its satisfaction sets,
    one per probe, and every operator application is generated, the
    provable repeats included."""
    if depth == 0:
        return None
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
    seen = set()
    reps = []
    layer = [sx.Atom(name) for name in atoms] + [sx.TOP, sx.BOT]
    for _ in range(depth):
        known = len(reps)
        for f in layer:
            sig = tuple(ctx.mask(m, f, m._full) for m in probes)
            if sig[0] >> pi & 1 and not sig[1] >> qi & 1:
                return f
            if sig not in seen:
                seen.add(sig)
                reps.append(f)
        if len(reps) == known:
            break
        layer = _applications(list(reps), agents, coalitions, announcements)
    return None


def _refinement_probes(ctx, models, atoms, coalitions) -> list:
    """The distinct one-step local and global refinements of ``models`` by
    each atom and negated atom, one per group of worlds that split the same
    classes (``EvalContext._groups``)."""
    out = []
    seen = {id(m) for m in models}
    for m in models:
        extensions = [m.atom_mask(a) for a in atoms]
        extensions += [m._full & ~psi for psi in extensions]
        for psi in extensions:
            for co in coalitions:
                members = ctx._members(m, co)
                for kind in ("local", "global"):
                    for splits, _ in ctx._groups(m, kind, members, m._full):
                        refined = ctx.refined(m, splits, psi)
                        if id(refined) not in seen:
                            seen.add(id(refined))
                            out.append(refined)
    return out


def _applications(base, agents, coalitions, announcements):
    """Every operator applied to the formulas of ``base``, in search order."""
    for f in base:
        yield sx.Not(f)
        for cls in sx.AGENT_OPS:
            for a in agents:
                yield cls(a, f)
        for cls in sx.COALITION_OPS:
            for co in coalitions:
                yield cls(co, f)
    for f in base:
        for g in base:
            yield sx.And(f, g)
    if announcements:
        for psi in base:
            for chi in base:
                for co in coalitions:
                    for cls in (sx.AnnLocal, sx.AnnGlobal):
                        yield cls(psi, co, chi)
