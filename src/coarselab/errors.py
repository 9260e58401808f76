"""Exception hierarchy for coarselab.

Every precondition failure raises a subclass of CoarselabError whose message
names the violated precondition and the module it belongs to.
"""


class CoarselabError(Exception):
    """Base class for all coarselab errors."""


class WindowError(CoarselabError):
    """Unsupported window kind, parameter out of range, or memory budget hit."""


class PointNotInWindowError(CoarselabError):
    """A point id or coordinate does not belong to the window."""


class MarginError(CoarselabError):
    """An operation needs a larger boundary margin than the window provides."""


class DegreeError(CoarselabError):
    """Degree/arity mismatch between chains, cochains or tensors."""


class PreconditionError(CoarselabError):
    """A quantitative precondition (norm bound, idempotency, ...) is violated."""


class FillError(CoarselabError):
    """The simplicial filler does not support the requested input."""
