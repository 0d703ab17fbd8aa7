"""An evaluator that interns and memoizes nothing: the reference that the
memoizing ``EvalContext`` must agree with."""

from glal.semantics import EvalContext


class UncachedContext(EvalContext):
    """Re-derives every satisfaction set, refinement and component
    decomposition, and keeps no model."""

    def intern(self, model):
        return model

    def mask(self, model, f):
        return self._eval(model, f)

    def _memoized(self, model, key, build):
        return build()

    def _components(self, model, names):
        return model.components(names)
