"""Multirate regressor construction and least squares.

The regressor matrix ``Phi`` (M x P) maps FIR coefficients ``theta`` to the
decimated model output: row ``m`` holds the input samples
``u(m*F), u(m*F - 1), ..., u(m*F - P + 1)`` with zeros before time 0, so that
``Phi @ theta`` equals the convolution of ``u`` with ``theta`` kept at every
``F``-th sample.

A unique unregularized fit needs ``Phi`` to have full column rank, which fails
whenever the model order reaches the number of output samples (``P >= M``) and
for zero-order-hold inputs with ``P > 2`` (repeated columns).
:func:`least_squares_fir` returns ``None`` in both cases: at ``P >= M`` it runs
no decomposition, and below it tests the rank of the triangular factor of the
one QR decomposition it solves with (``Phi`` and ``R`` have the same singular
values).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.linalg.lapack

from .signals import FastSignal, FirModel, SlowSignal, _integer

__all__ = ["RegressorMatrix", "build_regressor", "least_squares_fir"]


@dataclass(frozen=True)
class RegressorMatrix:
    """M x P matrix with ``entries[m, i] = u(m*F - i)`` (zero for ``m*F < i``).

    The fits and tuner calls on this matrix share the kernel arrays that
    ``beyondnyq.estimator._cached`` keeps in it; ``entries`` are read-only.
    """

    entries: np.ndarray
    factor: int
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "factor", _integer("factor", self.factor))
        entries = np.array(self.entries, dtype=float)
        if entries.ndim != 2 or entries.shape[0] < 1:
            raise ValueError(f"entries must be a non-empty 2-D matrix, got shape {entries.shape}")
        entries.flags.writeable = False
        object.__setattr__(self, "entries", entries)

    @property
    def output_length(self) -> int:
        return self.entries.shape[0]

    @property
    def order(self) -> int:
        return self.entries.shape[1]

    def check_output(self, y_l: SlowSignal) -> None:
        """Raise ``ValueError`` unless ``y_l`` is this matrix's output: ``M``
        samples at factor ``F``."""
        if len(y_l) != self.output_length:
            raise ValueError(f"output has {len(y_l)} samples but the regressor expects {self.output_length}")
        if y_l.factor != self.factor:
            raise ValueError(f"output downsampling factor {y_l.factor} does not match the regressor's {self.factor}")


def build_regressor(
    u: FastSignal,
    factor: int,
    order: int,
    output_length: int | None = None,
) -> RegressorMatrix:
    """Build the regressor matrix from fast-rate input ``u``.

    ``output_length`` defaults to ``floor((N - 1) / F) + 1``, the number of
    slow-rate samples obtained by decimating an ``N``-sample fast signal.
    Row ``m`` is the reversed ``P``-sample window of ``u`` padded with
    ``P - 1`` leading zeros that ends at ``u(m*F)``: every ``F``-th window of a
    strided view, so the M x P matrix is the one copy made.
    """
    n = len(u)
    factor, order = _integer("factor", factor), _integer("order", order)
    if order > n:
        raise ValueError(f"order must be within [1, {n}], got {order}")
    if output_length is None:
        output_length = (n - 1) // factor + 1
    output_length = _integer("output_length", output_length)
    if (output_length - 1) * factor > n - 1:
        raise ValueError(
            f"output_length {output_length} needs input sample "
            f"{(output_length - 1) * factor}, but only {n} samples are available"
        )
    padded = np.concatenate((np.zeros(order - 1), u.samples))
    windows = np.lib.stride_tricks.sliding_window_view(padded, order)
    return RegressorMatrix(entries=windows[: output_length * factor : factor, ::-1], factor=factor)


# Safety factor c of the full-rank certificate in _triangular_full_rank.  For
# the inverse X of a P x P triangular R, trtri's methods have a residual
# bound ||X R - I||_F <= c_P u ||X||_F ||R||_F with c_P = O(P) (Higham,
# Accuracy and Stability of Numerical Algorithms, 2nd ed., section 14.2);
# take c_P <= 4 P and u = eps / 2.  With k = max(M, P) >= P, the certificate
# ||X||_F ||R||_F < 1 / (c k eps) makes that residual phi <= 2 / c = 1/8, so
# sigma_min(R) >= (1 - phi) / ||X||_2 >= (7/8) / ||X||_F > 14 k eps ||R||_F
# >= 14 k eps sigma_max(R).  A backward-stable SVD moves each singular value
# by at most a small multiple of u sigma_max, far inside the remaining
# margin, so svdvals(R) then counts every singular value above its
# tolerance k eps sigma_max: the SVD rule's verdict, full rank.  The norms'
# own rounding (relative P u) fits in the same margin.
_CERTIFICATE_FACTOR = 16.0


def _triangular_full_rank(r: np.ndarray, m: int) -> bool:
    """Whether the P x P triangular factor ``r`` of an M x P ``Phi`` with
    P < M has full numerical rank: all P singular values above the
    tolerance ``max(M, P) * eps * sigma_max``.

    Full rank is certified from the inverse (``sigma_min >= 1/||R^{-1}||_F``
    and ``sigma_max <= ||R||_F``), O(P^3 / 3), so a well-conditioned ``r``
    needs no SVD; where the certificate does not hold, or trtri reports a
    zero pivot or a non-finite inverse, the singular values of ``r`` are
    counted against that tolerance, O(P^3) with a larger constant.
    """
    p = r.shape[0]
    inverse, info = scipy.linalg.lapack.dtrtri(r, lower=0)
    if info == 0:
        inverse_norm = float(np.linalg.norm(inverse))
        bound = _CERTIFICATE_FACTOR * max(m, p) * np.finfo(float).eps * float(np.linalg.norm(r))
        if math.isfinite(inverse_norm) and 1.0 / inverse_norm > bound:
            return True
    singular_values = scipy.linalg.svdvals(r)
    tol = max(m, p) * np.finfo(float).eps * singular_values[0]
    return int(np.count_nonzero(singular_values > tol)) == p


def least_squares_fir(phi: RegressorMatrix, y_l: SlowSignal) -> FirModel | None:
    """Unique minimizer of ``||y_l - Phi theta||^2``, solved by one QR
    decomposition, or ``None`` where the minimizer is not unique.

    * ``P >= M``: never unique, whatever the rank (the slow-rate data cannot
      pin down a fast-rate model even where the matrix happens to be
      numerically invertible at the square boundary); returns ``None``
      without any decomposition.
    * ``P < M``: one Householder QR, which never forms ``Q``, gives ``R``
      and ``Q'y`` in O(M P^2).  ``None`` unless ``R`` has full numerical
      rank (``Phi`` and ``R`` have the same singular values), which fails
      for a zero-order-hold input at ``P > 2``: full rank is certified from
      ``R^{-1}`` (trtri, O(P^3 / 3)), and only where that certificate fails
      do the singular values of ``R`` decide.
      ``theta`` solves ``R theta = Q'y`` in O(P^2).
    """
    phi.check_output(y_l)
    m, p = phi.entries.shape
    if p >= m:
        return None
    qty, r = scipy.linalg.qr_multiply(phi.entries, y_l.samples, mode="right")
    if not _triangular_full_rank(r, m):
        return None
    # qr_multiply has already rejected non-finite entries of Phi and y_l
    theta = scipy.linalg.solve_triangular(r, qty, check_finite=False)
    return FirModel(theta=theta, period=y_l.fast_period)
