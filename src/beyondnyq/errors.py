"""Exception types shared across the package."""

from __future__ import annotations


class NumericalError(RuntimeError):
    """A matrix factorization or solve failed.

    ``diagnostics`` holds condition-number estimates or other context useful
    for debugging the offending problem instance.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = dict(diagnostics or {})


class InvalidStartError(ValueError):
    """Hyperparameter search started at a point with a non-finite objective.

    The search scores a point whose regularized Gram cannot be factorized as
    ``+inf``; when that is why the start failed, ``__cause__`` is the
    :class:`NumericalError`, with its ``diagnostics``.
    """
