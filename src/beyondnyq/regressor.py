"""Multirate regressor construction and least squares.

The regressor matrix ``Phi`` (M x P) maps FIR coefficients ``theta`` to the
decimated model output: row ``m`` holds the input samples
``u(m*F), u(m*F - 1), ..., u(m*F - P + 1)`` with zeros before time 0, so that
``Phi @ theta`` equals the convolution of ``u`` with ``theta`` kept at every
``F``-th sample.

A unique unregularized fit needs ``Phi`` to have full column rank, which fails
whenever the model order reaches the number of output samples (``P >= M``) and
for zero-order-hold inputs with ``P > 2`` (repeated columns).
:func:`least_squares_fir` returns ``None`` in both cases.  At ``P >= M`` it runs
no decomposition.  Below it, the Gram ``Phi'Phi`` comes from the regressor's
shift structure in O(F M P + P^2) (:func:`_gram`), and one Cholesky factor
``R`` with ``R^{-1}`` (O(P^3 / 3) each) certifies full rank despite the Gram's
rounding and gives ``theta`` by corrected semi-normal equations, O(F M P +
P^3 / 3) in all.  Where that certificate fails (zero-order-hold inputs, and
band-limited or low-passed ones, whose ``Phi'Phi`` squares a large condition
number), one SVD-based solve of ``Phi`` itself decides the rank and gives
``theta``, in O(M P^2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.linalg.lapack

from .signals import FastSignal, FirModel, SlowSignal, _integer

__all__ = ["RegressorMatrix", "build_regressor", "least_squares_fir"]


@dataclass(frozen=True, eq=False)
class RegressorMatrix:
    """M x P matrix with ``entries[m, i] = u(m*F - i)`` (zero for ``m*F < i``).

    Built from the input samples ``u(0), ..., u((M-1) F)`` that its rows
    window, the factor ``F`` and the order ``P``: ``M = floor((N - 1) / F) +
    1`` for N samples, and ``entries`` is the one M x P copy.  Kernel terms
    whose factor is a first-order recursion compute ``Phi L`` from the
    samples (:meth:`filtered`).  The fits and tuner calls on this matrix
    share the kernel arrays that ``beyondnyq.estimator._cached`` keeps in it;
    ``samples`` and ``entries`` are read-only.  Two regressors compare equal
    only if they are the same object, since each owns its cache; a pickled
    one is rebuilt from ``(samples, factor, order)``, read-only and with an
    empty cache.
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

    def __reduce__(self):
        return RegressorMatrix, (self.samples, self.factor, self.order)

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


def _gram(phi: RegressorMatrix) -> np.ndarray:
    """The upper triangle of ``Phi'Phi`` (P x P, Fortran order; the strict
    lower triangle is left zero where it is not computed), in
    O(F M P + P^2).

    Shifting a row of ``Phi`` by F lags gives the row before it, and the
    first row shifted in is zero, so ``G[i+F, j+F] = G[i, j] - a_i a_j``
    with ``a = Phi[M-1]``, the one row that leaves the sum.  The first
    ``min(F, P)`` rows are ``Phi[:, :F]' Phi``; each later block of F rows
    is the block above it, one column block to the left, minus one outer
    product.
    """
    entries, f = phi.entries, phi.factor
    p = entries.shape[1]
    gram = np.zeros((p, p), order="F")
    gram[:f] = entries[:, :f].T @ entries
    last = entries[-1]
    for start in range(f, p, f):
        stop = min(start + f, p)
        rows, cols = slice(start - f, stop - f), slice(start - f, p - f)
        gram[start:stop, start:] = gram[rows, cols] - np.outer(last[rows], last[cols])
    return gram


# Constant c of the full-rank certificate ||X||_F^2 tau < (7/8)^2 / (c k eps)
# in _certified_factor.  Phi is M x P with P < M, k = max(M, P) = M and u =
# eps / 2; G is Phi'Phi, G^ its computed value from _gram, R the computed
# Cholesky factor of G^ and X the computed R^{-1}.  Let Psi be Phi with its
# rows continued to every window that overlaps the record, so that column i
# holds every sample u(n) with n = -i mod F; tau = ||Psi||_F^2 is the sum
# over columns i of G^[i mod F, i mod F], and ||Phi||_F^2 <= tau.
# * Gram rounding: an entry of G^ is a dot product of length M followed by at
#   most P / F subtractions of a rounded product, each bounded by the sum of
#   the absolute products of the entry's first-block dot product, a part of
#   (|Psi|'|Psi|)_ij.  So |G^ - G| <= (M + 2P) u |Psi|'|Psi| + O(u^2) and
#   ||G^ - G||_2 <= 3 k u tau (1 + O(k u)).
# * Cholesky's backward error (Higham, Accuracy and Stability of Numerical
#   Algorithms, 2nd ed., Thm 10.3, for any order of the inner products):
#   R'R = G^ + D with |D| <= gamma_{P+1} |R'||R|, so ||D||_2 <= gamma_{P+1}
#   ||R||_F^2 = gamma_{P+1} trace(G^ + D) <= k u tau (1 + O(k u)), as P < k.
#   Hence R'R = G + E with ||E||_2 <= 4 k u tau (1 + O(k u)) <= 3 k eps tau.
# * trtri's residual (section 14.2) is ||X R - I||_F <= 4 P u ||X||_F ||R||_F,
#   at most 2 P eps (7/8) / sqrt(c k eps) < 1/8 under the certificate, so
#   sigma_min(R) >= (7/8) / ||X||_F and sigma_min(R)^2 > c k eps tau.
# * So sigma_min(Phi)^2 >= sigma_min(R)^2 - ||E||_2 > (c - 3) k eps tau >=
#   61 k eps sigma_max(Phi)^2 with c = 64: sigma_min(Phi) exceeds
#   sqrt(61 k eps) sigma_max(Phi), far above the SVD rule's tolerance
#   k eps sigma_max, and a backward-stable SVD moves each singular value by
#   a small multiple of u sigma_max, far inside that margin: the rule's
#   verdict is full rank.  The norms' own rounding (relative P u) fits in the
#   same margin.
# * theta: the solve with R'R and each correction with the residual taken
#   from Phi map the error e = theta - theta_LS to (R'R)^{-1} E e, where
#   theta_0 = (R'R)^{-1} G theta_LS starts at e = -(R'R)^{-1} E theta_LS.
#   So after s corrections ||e|| <= rho^(s+1) ||theta_LS||, with rho =
#   ||(R'R)^{-1} E||_2 <= 3 k eps tau ||X||_F^2 / (7/8)^2 = 3 q / c, q < 1
#   the certificate's ratio of left to right side: rho < 3/64.  The rounding
#   of the residual and of Phi'r adds the terms of order kappa eps (1 +
#   kappa ||r|| / (||Phi|| ||theta||)) that bound a QR solve too (Bjorck,
#   BIT 27, 1987).  _solve corrects until rho^(s+1) <= eps, so the factor's
#   part stays below them: two corrections at q = 7e-5 (a full-band
#   multisine, M = 2000, P = 1000), at most 11 as q nears 1.
_CERTIFICATE_FACTOR = 64.0


def _certified_factor(phi: RegressorMatrix) -> tuple[np.ndarray, float] | None:
    """``(R, rho)``: the upper Cholesky factor ``R`` of ``Phi'Phi`` for an
    M x P ``Phi`` with P < M and the bound ``rho < 3/64`` on the error that
    ``R'R`` leaves per solve; or ``None`` unless ``R^{-1}`` certifies that
    ``Phi`` has full numerical rank: all P singular values above ``max(M, P)
    * eps * sigma_max``.  One Cholesky and one triangular inverse (trtri),
    each O(P^3 / 3), after :func:`_gram`; ``None`` also where the Cholesky
    meets a non-positive pivot or trtri a zero one."""
    m, p = phi.entries.shape
    gram = _gram(phi)
    tau = float(gram.diagonal()[np.arange(p) % phi.factor].sum())
    r, info = scipy.linalg.lapack.dpotrf(gram, overwrite_a=True)
    if info != 0:
        return None
    inverse, info = scipy.linalg.lapack.dtrtri(r, lower=0)
    if info != 0:
        return None
    ratio = np.linalg.norm(inverse) ** 2 * tau * _CERTIFICATE_FACTOR * m * np.finfo(float).eps / (7 / 8) ** 2
    # written so that a nan norm fails the test
    if ratio < 1.0:
        return r, 3.0 * ratio / _CERTIFICATE_FACTOR
    return None


def _solve(r: np.ndarray, rho: float, entries: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``theta`` from ``R'R theta = Phi'y``, corrected with the residual taken
    from ``Phi`` until the bound ``rho^(s+1)`` on the factor's part of the
    error is at most eps (corrected semi-normal equations), O(M P + P^2)
    per correction."""
    theta = scipy.linalg.lapack.dpotrs(r, entries.T @ y)[0]
    error = rho
    while True:
        theta += scipy.linalg.lapack.dpotrs(r, entries.T @ (y - entries @ theta))[0]
        error *= rho
        if error <= np.finfo(float).eps:
            return theta


def least_squares_fir(phi: RegressorMatrix, y_l: SlowSignal) -> FirModel | None:
    """Unique minimizer of ``||y_l - Phi theta||^2``, or ``None`` where the
    minimizer is not unique.

    * ``P >= M``: never unique, whatever the rank (the slow-rate data cannot
      pin down a fast-rate model even where the matrix happens to be
      numerically invertible at the square boundary); returns ``None``
      without any decomposition.
    * ``P < M``: the Gram ``Phi'Phi`` from the regressor's shift structure
      (:func:`_gram`, O(F M P + P^2)), its Cholesky factor ``R`` and
      ``R^{-1}``, which certifies full numerical rank (O(P^3 / 3) each):
      ``theta`` solves ``R'R theta = Phi'y`` and is corrected with the
      residual taken from ``Phi`` (:func:`_solve`, O(M P) per correction).
      Where the Cholesky or the certificate fails, one SVD-based solve of
      ``Phi`` (LAPACK gelsd, O(M P^2)) decides: ``None`` unless all P
      singular values exceed ``M * eps * sigma_max``.  The certificate
      needs about ``kappa(Phi)^2 * 64 M eps * tau / sigma_max^2 < 1``, so a
      zero-order-hold input at ``P > 2`` and band-limited or low-passed
      inputs take that solve, which costs about three times a QR of
      ``Phi`` (``kappa`` past about 4e3 at M = 2000, P = 1000, on a
      low-passed white noise).
    """
    phi.check_output(y_l)
    entries, y = phi.entries, y_l.samples
    m, p = entries.shape
    if p >= m:
        return None
    certified = _certified_factor(phi)
    if certified is None:
        # lstsq rejects a non-finite Phi, whose nan Gram fails the certificate
        theta, _, rank, _ = scipy.linalg.lstsq(entries, y, cond=m * np.finfo(float).eps, lapack_driver="gelsd")
        if rank < p:
            return None
    else:
        theta = _solve(*certified, entries, y)
    return FirModel(theta=theta, period=y_l.fast_period)
