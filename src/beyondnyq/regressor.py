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

    Built from the input samples ``u(0), ..., u((M-1) F)`` that its rows
    window, the factor ``F`` and the order ``P``: ``M = floor((N - 1) / F) +
    1`` for N samples, and ``entries`` is the one M x P copy.  Kernel terms
    whose factor is a first-order recursion compute ``Phi L`` from the
    samples (:meth:`filtered`).  The fits and tuner calls on this matrix
    share the kernel arrays that ``beyondnyq.estimator._cached`` keeps in it;
    ``samples`` and ``entries`` are read-only.
    """

    samples: np.ndarray = field(repr=False)
    factor: int
    order: int
    entries: np.ndarray = field(init=False, repr=False, compare=False)
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "factor", _integer("factor", self.factor))
        object.__setattr__(self, "order", _integer("order", self.order))
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 1 or not samples.size:
            raise ValueError(f"samples must be a non-empty 1-D array, got shape {samples.shape}")
        if samples.flags.writeable or samples.base is not None:
            samples = samples.copy()
            samples.flags.writeable = False
        rows = (len(samples) - 1) // self.factor + 1
        entries = np.ascontiguousarray(_windows(samples, self.factor, self.order, rows))
        entries.flags.writeable = False
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "entries", entries)

    @property
    def output_length(self) -> int:
        return self.entries.shape[0]

    def leading(self, order: int) -> RegressorMatrix:
        """The regressor of the same outputs at a lower ``order``: the first
        ``order`` columns (column i is ``u(mF - i)`` at every order), with
        the same samples and a cache of its own."""
        if _integer("order", order) > self.order:
            raise ValueError(f"order must be within [1, {self.order}], got {order}")
        return RegressorMatrix(self.samples, self.factor, order)

    def filtered(self, pole) -> tuple[np.ndarray, np.ndarray]:
        """``(w, cut)`` for the samples filtered by ``w(t) = u(t) + pole
        w(t-1)`` (``w(-1) = 0``), so that for every row m and column j

            ``sum_{i=j}^{P-1} pole^(i-j) u(mF - i) = w(mF - j) - pole^(P-j) w(mF - P)``

        (``w`` is zero before time 0).  ``cut`` holds ``w(mF - P)`` for the
        last ``len(cut)`` rows, whose window the order cuts (``mF >= P``); on
        the others that term is 0.

        ``pole`` is a real or complex ``np.longdouble``.  The recursion runs
        once over the samples at the pole rounded to double
        (:func:`_first_order`, O(N)).  A second solve adds the first-order
        effect of that rounding, ``pole - rounded`` where the long double is
        wider than a double: without it the powers of the pole drift by up to
        ``k eps`` at lag ``k``, ``P eps`` across a window.
        """
        real = not np.iscomplexobj(pole)
        rounded = float(pole) if real else complex(pole)
        low = float(pole - rounded) if real else complex(pole - rounded)
        w = _first_order(rounded, self.samples.astype(type(rounded)))
        if low:
            # (L - low S)^{-1} u = w + low L^{-1} S w to first order, S the delay
            delayed = np.zeros_like(w)
            delayed[1:] = w[:-1]
            w += low * _first_order(rounded, delayed)
        rows, order = self.entries.shape
        first = -(-order // self.factor)  # the first row with mF >= P
        return w, w[first * self.factor - order :: self.factor][: max(rows - first, 0)]

    def check_output(self, y_l: SlowSignal) -> None:
        """Raise ``ValueError`` unless ``y_l`` is this matrix's output: ``M``
        samples at factor ``F``."""
        if len(y_l) != self.output_length:
            raise ValueError(f"output has {len(y_l)} samples but the regressor expects {self.output_length}")
        if y_l.factor != self.factor:
            raise ValueError(f"output downsampling factor {y_l.factor} does not match the regressor's {self.factor}")


def _windows(x: np.ndarray, factor: int, order: int, rows: int) -> np.ndarray:
    """The read-only ``rows x order`` view ``x(mF - i)`` (zero for ``mF < i``):
    row m is the reversed ``order``-sample window that ends at ``x(mF)``,
    every F-th window of a strided view of ``x`` padded with ``order - 1``
    leading zeros."""
    padded = np.concatenate((np.zeros(order - 1, dtype=x.dtype), x))
    return np.lib.stride_tricks.sliding_window_view(padded, order)[: rows * factor : factor, ::-1]


def _first_order(pole, x: np.ndarray, uplo: str = "L") -> np.ndarray:
    """``w(t) = x(t) + pole w(t-1)`` along the first axis of ``x``, or with
    ``uplo="U"`` the backward ``w(t) = x(t) + pole w(t+1)``: one unit
    bidiagonal solve (LAPACK ``dtbtrs``, ``ztbtrs`` for a complex ``pole``),
    O(len(x)) per column, which may overwrite ``x``."""
    solve = scipy.linalg.lapack.ztbtrs if isinstance(pole, complex) else scipy.linalg.lapack.dtbtrs
    # the band's off-diagonal is -pole; its unit diagonal is not read
    band = np.full((2, len(x)), -pole, order="F")
    return solve(band, x, uplo=uplo, diag="U", overwrite_b=True)[0]


def build_regressor(
    u: FastSignal,
    factor: int,
    order: int,
    output_length: int | None = None,
) -> RegressorMatrix:
    """The regressor matrix of fast-rate input ``u``, built from the samples
    ``u(0), ..., u((M-1) F)`` that it windows.

    ``output_length`` defaults to ``floor((N - 1) / F) + 1``, the number of
    slow-rate samples obtained by decimating an ``N``-sample fast signal.
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
    return RegressorMatrix(u.samples[: (output_length - 1) * factor + 1], factor, order)


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
