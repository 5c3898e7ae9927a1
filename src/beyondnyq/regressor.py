"""Multirate regressor construction, least squares, and identifiability checks.

The regressor matrix ``Phi`` (M x P) maps FIR coefficients ``theta`` to the
decimated model output: row ``m`` holds the input samples
``u(m*F), u(m*F - 1), ..., u(m*F - P + 1)`` with zeros before time 0, so that
``Phi @ theta`` equals the convolution of ``u`` with ``theta`` kept at every
``F``-th sample.

A unique unregularized fit needs ``Phi`` to have full column rank, which fails
whenever the model order reaches the number of output samples (``P >= M``) and
for zero-order-hold inputs with ``P > 2`` (repeated columns).
:func:`identifiability_check` reports both from the singular values of
``Phi``.  :func:`least_squares_fir` applies the same rank rule to the
triangular factor of the one QR decomposition it solves with (``Phi`` and
``R`` have the same singular values), and at ``P >= M`` it solves nothing.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import NonUniqueModelError
from .signals import FastSignal, FirModel, SlowSignal

__all__ = [
    "RegressorMatrix",
    "IdentifiabilityReport",
    "NonUniqueReason",
    "build_regressor",
    "least_squares_fir",
    "identifiability_check",
]


class NonUniqueReason(str, enum.Enum):
    OK = "ok"
    ORDER_EXCEEDS_OUTPUT_LENGTH = "order_exceeds_output_length"
    RANK_DEFICIENT_INPUT = "rank_deficient_input"


@dataclass(frozen=True)
class RegressorMatrix:
    """M x P matrix with ``entries[m, i] = u(m*F - i)`` (zero for ``m*F < i``)."""

    entries: np.ndarray
    factor: int
    order: int

    def __post_init__(self):
        entries = np.array(self.entries, dtype=float)
        if entries.ndim != 2 or entries.shape[0] < 1:
            raise ValueError(f"entries must be a non-empty 2-D matrix, got shape {entries.shape}")
        if entries.shape[1] != self.order:
            raise ValueError(f"entries have {entries.shape[1]} columns, expected order {self.order}")
        entries.flags.writeable = False
        object.__setattr__(self, "entries", entries)

    @property
    def output_length(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class IdentifiabilityReport:
    """Whether the supplied input can distinguish all ``P`` FIR coefficients.

    ``rank`` is the numerical rank of ``Phi``; ``null_dimension = P - rank``.
    ``unique`` additionally requires ``P < M``: with ``P >= M`` the slow-rate
    data cannot pin down a fast-rate model even when the matrix happens to be
    numerically invertible at the square boundary.  The verdict is always
    relative to the specific input the matrix was built from.
    """

    rank: int
    null_dimension: int
    unique: bool
    reason: NonUniqueReason


def build_regressor(
    u: FastSignal,
    factor: int,
    order: int,
    output_length: int | None = None,
) -> RegressorMatrix:
    """Build the regressor matrix from fast-rate input ``u``.

    ``output_length`` defaults to ``floor((N - 1) / F) + 1``, the number of
    slow-rate samples obtained by decimating an ``N``-sample fast signal.
    """
    n = len(u)
    if int(factor) != factor or factor < 1:
        raise ValueError(f"factor must be a positive integer, got {factor}")
    factor = int(factor)
    if not (1 <= order <= n):
        raise ValueError(f"order must be within [1, {n}], got {order}")
    if output_length is None:
        output_length = (n - 1) // factor + 1
    if output_length < 1:
        raise ValueError(f"output_length must be >= 1, got {output_length}")
    if (output_length - 1) * factor > n - 1:
        raise ValueError(
            f"output_length {output_length} needs input sample "
            f"{(output_length - 1) * factor}, but only {n} samples are available"
        )
    lags = np.arange(output_length)[:, None] * factor - np.arange(order)[None, :]
    entries = np.where(lags >= 0, u.samples[np.clip(lags, 0, n - 1)], 0.0)
    return RegressorMatrix(entries=entries, factor=factor, order=order)


def _rank_report(singular_values: np.ndarray, m: int, p: int) -> IdentifiabilityReport:
    """The verdict for an M x P ``Phi`` with these singular values.

    Rank uses the singular-value tolerance ``max(M, P) * eps * sigma_max``.
    """
    sigma_max = singular_values[0] if singular_values.size else 0.0
    tol = max(m, p) * np.finfo(float).eps * sigma_max
    rank = int(np.count_nonzero(singular_values > tol))
    null_dimension = p - rank
    if p >= m:
        reason = NonUniqueReason.ORDER_EXCEEDS_OUTPUT_LENGTH
    elif null_dimension > 0:
        reason = NonUniqueReason.RANK_DEFICIENT_INPUT
    else:
        reason = NonUniqueReason.OK
    return IdentifiabilityReport(
        rank=rank,
        null_dimension=null_dimension,
        unique=reason is NonUniqueReason.OK,
        reason=reason,
    )


def identifiability_check(phi: RegressorMatrix) -> IdentifiabilityReport:
    """Numerical-rank report for ``Phi`` with the order/length rule applied.

    Rank uses the singular-value tolerance ``max(M, P) * eps * sigma_max``.
    """
    m, p = phi.entries.shape
    return _rank_report(scipy.linalg.svdvals(phi.entries), m, p)


def least_squares_fir(phi: RegressorMatrix, y_l: SlowSignal) -> FirModel:
    """Unique minimizer of ``||y_l - Phi theta||^2``, solved by one QR decomposition.

    Raises :class:`NonUniqueModelError` (with the identifiability report)
    whenever the minimizer is not unique, including every ``P >= M`` instance.
    For ``P < M`` one Householder QR, which never forms ``Q``, gives ``R``
    and ``Q'y``: the rank test of :func:`identifiability_check` runs on the
    singular values of ``R``, and ``theta`` solves ``R theta = Q'y``.
    """
    if len(y_l) != phi.output_length:
        raise ValueError(
            f"output has {len(y_l)} samples but the regressor expects {phi.output_length}"
        )
    if y_l.factor != phi.factor:
        raise ValueError(
            f"output downsampling factor {y_l.factor} does not match the regressor's {phi.factor}"
        )
    m, p = phi.entries.shape
    if p >= m:
        report = identifiability_check(phi)
    else:
        qty, r = scipy.linalg.qr_multiply(phi.entries, y_l.samples, mode="right")
        report = _rank_report(scipy.linalg.svdvals(r), m, p)
    if not report.unique:
        raise NonUniqueModelError(
            f"no unique FIR model of order {phi.order} from {phi.output_length} "
            f"output samples ({report.reason.value})",
            report,
        )
    theta = scipy.linalg.solve_triangular(r, qty)
    return FirModel(theta=theta, period=y_l.fast_period)
