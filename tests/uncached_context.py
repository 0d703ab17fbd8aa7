"""An evaluator that interns and memoizes nothing: the reference that the
memoizing ``EvalContext`` must agree with."""

from glal.model import coalition_names
from glal.semantics import _CLAUSES, EvalContext


class UncachedContext(EvalContext):
    """Re-derives every satisfaction set, refinement, announcement plan,
    frame-level result (class rows, component decompositions, refinement
    layers) and coalition, and keeps no model.  It evaluates every node on every world, whatever a
    caller needs, so it is also the reference for requests that need only
    some worlds."""

    def intern(self, model):
        return model

    def mask(self, model, f, need):
        return _CLAUSES[type(f)](self, model, f, model._full)

    def _memoized(self, model, key, build):
        return build()

    def _frame(self, model):
        return {}

    def _members(self, model, coalition):
        return tuple(model.agent_position(a) for a in coalition_names(model, coalition))
