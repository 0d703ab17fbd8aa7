"""Desk-scale satisfiability and validity by bounded model enumeration.

Models are enumerated by world count, then frames (per-agent indices
into ``_partitions``, the set partitions as class masks in
restricted-growth-string order, lexicographically), then valuation tuples
(one world mask per atom, lexicographically); the first satisfying
pointed model in that order is the witness.

Each candidate is evaluated in an ``EvalContext`` of its own, dropped with
it, so no candidate or refinement outlives its answer.  What depends on
the cells alone (class rows, component decompositions, refinement
layers) is the same for every valuation of a frame, so each kept
frame gets one frame memo, which all its candidates' contexts read and
fill and which is dropped when the frame ends.  It holds only ints and
tuples.  Coalition positions depend only on the agents and are resolved
once per query.

Isomorphic candidates are pruned by orbit-minimum tests (isomorph
rejection in the style of Read's orderly generation): a frame that some
permutation of the worlds maps to a lexicographically smaller frame is
skipped whole, and a valuation tuple is skipped when an automorphism of
its frame maps it to a smaller tuple.  The frames of one world count meet
few distinct automorphism groups, so the orbit-minimal valuation tuples,
each with its position in the frame's valuation order, are tabled once per
group and query rather than tested per frame.  So exactly the least
candidate of each isomorphism class is evaluated.  Satisfiability is
invariant under isomorphism, so the first satisfying candidate is the
least of its class: pruning changes neither the witness nor
``models_examined``, which counts every candidate up to the witness,
skipped ones included.  Status is reported as unsat-up-to-bound, never as
plain unsat.

Only connected frames are evaluated.  Truth at a world depends only on the
world's all-agents component, its generated submodel (Blackburn, de Rijke
& Venema, *Modal Logic*, 2001, §2.1): announcements only cut relations, so
no refinement reaches outside the component.  A disconnected candidate of
n worlds is the disjoint union of its components, each isomorphic to a
candidate of fewer worlds that the enumeration has already evaluated.  So
no disconnected candidate can be the first witness, and a frame whose
classes do not link world 0 to every world is skipped whole, before its
automorphisms are sought; ``models_examined`` counts its candidates too.

``SatQuery`` checks a query whole when it is made: world count within
``MAX_WORLDS``, estimated candidates within ``BUDGET``, its names, and
that its agent and atom pools cover the formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import islice, permutations, product

from . import syntax as sx
from .errors import BoundExceeded, FormatError, UnknownAgent
from .model import KripkeModel, PointedModel, closure, lowest_bit
from .semantics import EvalContext

MAX_WORLDS = 6
BUDGET = 10_000_000  # estimated candidate models


def bell_number(n: int) -> int:
    """Number of set partitions of n items."""
    table = [1]
    for _ in range(n):
        row = [table[-1]]
        for value in table:
            row.append(row[-1] + value)
        table = row
    return table[0] if n else 1


@dataclass(frozen=True)
class SatQuery:
    """A bounded query, checked whole on construction."""

    formula: sx.Formula
    max_worlds: int = 4
    agents: tuple | None = None
    atoms: tuple | None = None

    def __post_init__(self):
        if self.max_worlds < 1:
            raise ValueError("max_worlds must be at least 1")
        if self.max_worlds > MAX_WORLDS:
            raise BoundExceeded(
                f"max_worlds {self.max_worlds} exceeds the cap of {MAX_WORLDS}"
            )
        agents, atoms = self.vocabulary()
        estimate = estimated_candidates(self.max_worlds, len(agents), len(atoms))
        if estimate > BUDGET:
            raise BoundExceeded(f"estimated {estimate} candidate models exceeds budget {BUDGET}")
        for what, names in (("agent", agents), ("atom", atoms)):
            # A name outside the identifier syntax is one no formula can mention.
            for name in names:
                if not sx.is_name(name):
                    raise FormatError(f"{what} name {name!r} is not an identifier")
            if len(set(names)) != len(names):
                raise FormatError(f"duplicate {what} names")
        # Checked up front: an agent the pool leaves out may sit where the
        # evaluation of a candidate never looks, say under a vacuous announcement.
        if self.agents is not None:
            missing = sx.agents(self.formula) - set(agents)
            if missing:
                raise UnknownAgent(f"unknown agent {min(missing)!r}")
        # An atom the pool leaves out would be false in every candidate, so
        # the verdict could be wrong.
        if self.atoms is not None:
            missing = sx.atoms(self.formula) - set(atoms)
            if missing:
                raise FormatError(f"atom {min(missing)!r} of the formula is not in the atom pool")

    def vocabulary(self) -> tuple:
        agents = self.agents if self.agents is not None else tuple(
            sorted(sx.agents(self.formula))
        )
        atoms = self.atoms if self.atoms is not None else tuple(
            sorted(sx.atoms(self.formula))
        )
        return tuple(agents), tuple(atoms)


@dataclass(frozen=True)
class SatResult:
    status: str  # "sat" | "unsat-up-to-bound"
    witness: PointedModel | None
    models_examined: int

    @property
    def satisfiable(self) -> bool:
        return self.status == "sat"


@dataclass(frozen=True)
class ValidResult:
    status: str  # "valid-up-to-bound" | "counterexample"
    counterexample: PointedModel | None
    models_examined: int

    @property
    def valid(self) -> bool:
        return self.status == "valid-up-to-bound"


def estimated_candidates(max_worlds: int, n_agents: int, n_atoms: int) -> int:
    total = 0
    for n in range(1, max_worlds + 1):
        total += bell_number(n) ** n_agents * 2 ** (n * n_atoms)
    return total


def sat_bounded(query: SatQuery) -> SatResult:
    """First pointed model (in enumeration order) satisfying the formula."""
    agents, atoms = query.vocabulary()
    order = sorted(range(len(agents)), key=agents.__getitem__)
    model_agents = tuple(agents[k] for k in order)
    coalitions = {}  # coalition positions, shared by every candidate
    examined = 0
    for n in range(1, query.max_worlds + 1):
        # Zero-padded, so the names sort in index order: enumerated masks are
        # model masks, and cells listed by least member are canonical.
        worlds = tuple(f"s{i:0{len(str(n - 1))}}" for i in range(n))
        partitions = _partitions(n)
        relabelings = _relabelings(n)
        per_frame = 2 ** (n * len(atoms))
        orbits = {}  # automorphism tables -> their orbit-minimal valuations
        full = (1 << n) - 1
        for frame in product(range(len(partitions)), repeat=len(agents)):
            if not _connected(frame, partitions, full):
                examined += per_frame
                continue
            automorphisms = _frame_automorphisms(frame, relabelings)
            if automorphisms is None:
                examined += per_frame
                continue
            valuations = orbits.get(automorphisms)
            if valuations is None:
                valuations = orbits[automorphisms] = _orbit_minimal(
                    automorphisms, n, len(atoms))
            cells = tuple(partitions[frame[k]] for k in order)
            frame_memos = {}  # of this frame and of its refinements
            for position, vals in valuations:
                # A context of its own, so the candidate and its refinements
                # are freed once it is answered; what depends only on the
                # frame is computed once for all the frame's candidates.
                ctx = EvalContext()
                ctx._frames, ctx._coalitions = frame_memos, coalitions
                model = ctx.intern(_build(worlds, model_agents, cells, atoms, vals))
                mask = ctx.mask(model, query.formula, model._full)
                if mask:
                    point = model.worlds[lowest_bit(mask).bit_length() - 1]
                    return SatResult("sat", PointedModel(model, point),
                                     examined + position + 1)
            examined += per_frame
    return SatResult("unsat-up-to-bound", None, examined)


def valid_bounded(formula: sx.Formula, max_worlds: int, **kwargs) -> ValidResult:
    """Dual of sat_bounded on the negated formula.

    The vocabulary is taken from the formula itself unless supplied, so
    validity is relative to models over exactly its agents and atoms.
    """
    query = SatQuery(sx.Not(formula), max_worlds, **kwargs)
    result = sat_bounded(query)
    if result.satisfiable:
        return ValidResult("counterexample", result.witness, result.models_examined)
    return ValidResult("valid-up-to-bound", None, result.models_examined)


def _build(worlds, agents, cells, atoms, masks) -> KripkeModel:
    """One candidate over the sorted ``worlds``: ``cells`` are the frame's
    classes in canonical form, ``masks`` one world mask per atom."""
    valuation = tuple(sorted(dict(zip(atoms, masks)).items()))
    return KripkeModel._canonical(worlds, agents, cells, valuation)


@lru_cache(maxsize=None)
def _partitions(n: int) -> tuple:
    """Every set partition of range(n), as its class masks by lowest world, in
    the lexicographic order of restricted growth strings: world n - 1 joins
    each class of a partition of the others in turn, then opens its own."""
    if n == 0:
        return ((),)
    bit = 1 << n - 1
    out = []
    for classes in _partitions(n - 1):
        for j in range(len(classes)):
            out.append(classes[:j] + (classes[j] | bit,) + classes[j + 1:])
        out.append(classes + (bit,))
    return tuple(out)


@lru_cache(maxsize=None)
def _relabelings(n: int) -> tuple:
    """For every permutation of range(n) other than the identity, its action
    on the indices of ``_partitions(n)`` and on valuation masks."""
    partitions = _partitions(n)
    index = {classes: k for k, classes in enumerate(partitions)}
    perms = []
    for perm in islice(permutations(range(n)), 1, None):
        on_masks = tuple(
            sum(1 << perm[i] for i in range(n) if bits >> i & 1) for bits in range(2 ** n)
        )
        on_partitions = tuple(
            index[tuple(sorted((on_masks[c] for c in classes), key=lowest_bit))]
            for classes in partitions
        )
        perms.append((on_partitions, on_masks))
    return tuple(perms)


def _connected(frame: tuple, partitions: tuple, full: int) -> bool:
    """Whether world 0 reaches all the worlds of ``full`` through the classes
    of the frame's partitions (indices into ``partitions``)."""
    return closure([partitions[k] for k in frame], 1) == full


def _frame_automorphisms(frame: tuple, relabelings) -> tuple | None:
    """None if some relabeling maps the frame to a lexicographically smaller
    one; otherwise the valuation-mask tables of the relabelings fixing it."""
    automorphisms = []
    for on_partitions, on_masks in relabelings:
        image = tuple(on_partitions[k] for k in frame)
        if image < frame:
            return None
        if image == frame:
            automorphisms.append(on_masks)
    return tuple(automorphisms)


def _orbit_minimal(automorphisms, n: int, n_atoms: int) -> tuple:
    """The valuation tuples (one mask over n worlds per atom) that no table of
    ``automorphisms`` maps to a lexicographically smaller tuple, each with
    its position in ``product`` order."""
    return tuple(
        (position, vals)
        for position, vals in enumerate(product(range(2 ** n), repeat=n_atoms))
        if not any(tuple([on_masks[v] for v in vals]) < vals for on_masks in automorphisms)
    )
