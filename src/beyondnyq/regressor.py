"""Multirate regressor construction and least squares.

The regressor matrix ``Phi`` (M x P, :class:`RegressorMatrix`, the one owner
of its row layout) maps FIR coefficients ``theta`` to the decimated model
output.

A unique unregularized fit needs ``Phi`` to have full column rank, which fails
whenever the model order reaches the number of output samples (``P >= M``) and
for zero-order-hold inputs with ``P > 2`` (repeated columns).
:func:`least_squares_fir` returns ``None`` in both cases.  At ``P >= M`` it runs
no decomposition.  Below it, the Gram ``Phi'Phi`` comes from the regressor's
shift structure in O(F M P + P^2) (:func:`_gram`), kept on the regressor
for the kernel fits (:func:`_full_gram`), and one Cholesky factor
``R`` with ``R^{-1}`` (O(P^3 / 3) each) certifies full rank despite the Gram's
rounding and gives ``theta`` by corrected semi-normal equations, O(F M P +
P^3 / 3) in all.  Where that certificate fails (zero-order-hold inputs, and
band-limited or low-passed ones, whose ``Phi'Phi`` squares a large condition
number), one SVD-based solve of ``Phi`` itself decides the rank and gives
``theta``, in O(M P^2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.linalg
import scipy.linalg.blas
import scipy.linalg.lapack

from .signals import FastSignal, FirModel, SlowSignal, _integer

__all__ = ["RegressorMatrix", "build_regressor", "least_squares_fir"]


@dataclass(frozen=True, eq=False)
class RegressorMatrix:
    """M x P matrix with ``entries[m, i] = u(m*F - i)`` (zero for ``m*F < i``).

    Row m holds ``u(mF), u(mF - 1), ..., u(mF - P + 1)``, with zeros before
    time 0, so ``Phi @ theta`` is the fast FIR's output as the slow sampler
    sees it: the convolution of ``u`` with ``theta`` kept at every F-th
    sample.  A row with ``mF >= P`` is cut: its window stops before time 0.
    Only this module knows that layout; kernels and commands use
    :attr:`entries` and :meth:`filtered`.

    Built from the finite input samples ``u(0), ..., u((M-1) F)`` that its rows
    window, the factor ``F`` and the order ``P``: ``M = floor((N - 1) / F) +
    1`` for N samples, and ``entries`` is the one M x P copy (a
    :meth:`leading` regressor's is a view of its parent's).  Kernel terms
    whose factor is a first-order recursion compute ``Phi L`` from the
    samples (:meth:`filtered`).  Least squares, the fits and the tuner calls
    on this matrix share the arrays that :func:`_cached` keeps in it;
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
        bad = np.flatnonzero(~np.isfinite(samples))
        if bad.size:
            raise ValueError(f"samples must be finite, got {samples[bad[0]]} at index {bad[0]} ({bad.size} in all)")
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
        """The regressor of the same outputs at a lower ``order``: a read-only
        view of the first ``order`` columns (column i is ``u(mF - i)`` at
        every order), with the same samples and a cache of its own."""
        if _integer("order", order) > self.order:
            raise ValueError(f"order must be within [1, {self.order}], got {order}")
        lower = object.__new__(RegressorMatrix)
        for name, value in (("samples", self.samples), ("factor", self.factor), ("order", order),
                            ("entries", self.entries[:, :order]), ("_cache", {})):
            object.__setattr__(lower, name, value)
        return lower

    def filtered(self, pole, weights) -> np.ndarray:
        """The M x len(weights) array with entry ``(m, j)``

            ``weights[j] sum_{i=j}^{P-1} pole^(i-j) u(mF - i)``

        (``u`` zero before time 0): ``Phi L`` for a factor ``L`` whose
        columns are a first-order recursion over the lag.  ``pole`` is a
        real or complex ``np.longdouble``, and the result is complex for a
        complex one.

        The samples filtered by ``w(t) = u(t) + pole w(t-1)`` (``w(-1) = 0``)
        give every entry as ``w(mF - j) - pole^(P-j) w(mF - P)``, where the
        second term is 0 on the rows that are not cut (``mF < P``).  The
        recursion runs once over the N samples at the pole rounded to double
        (:func:`_first_order`, O(N)).  A second solve adds the first-order
        effect of that rounding, ``pole - rounded`` where the long double is
        wider than a double: without it the powers of the pole drift by up to
        ``k eps`` at lag ``k``, ``P eps`` across a window.  The windows of
        ``w``, scaled by ``weights``, are gathered into the result, O(M
        len(weights)), and the cut rows subtract ``weights[j] pole^(P-j) w(mF
        - P)`` by one rank-1 BLAS ``ger`` in place (``zgeru`` for a complex
        pole), with the powers running products of the long double pole.
        """
        real = not isinstance(pole, (complex, np.complexfloating))
        rounded = float(pole) if real else complex(pole)
        low = float(pole - rounded) if real else complex(pole - rounded)
        w = _first_order(rounded, self.samples.astype(type(rounded)))
        if low:
            # (L - low S)^{-1} u = w + low S L^{-1} w to first order, S the delay
            w[1:] += low * _first_order(rounded, w.copy())[:-1]
        (rows, order), width = self.entries.shape, len(weights)
        result = np.multiply(_windows(w, self.factor, width, rows), weights, order="C")
        first = -(-order // self.factor)  # the first cut row
        if first < rows:
            # pole^(P-j) for j < width, running products from pole^(P-width+1)
            powers = np.full(width, pole)
            powers[0] **= order - width + 1
            powers = (np.multiply.accumulate(powers, out=powers)[::-1] * weights).astype(w.dtype)
            cut = w[first * self.factor - order :: self.factor][: rows - first]  # w(mF - P)
            ger = scipy.linalg.blas.dger if real else scipy.linalg.blas.zgeru
            # the cut rows transposed to Fortran order, so ger updates them in place
            ger(-1.0, powers, cut, a=result[first:].T, overwrite_a=True)
        return result

    def check_output(self, y_l: SlowSignal) -> None:
        """Raise ``ValueError`` unless ``y_l`` is this matrix's output: ``M``
        samples at factor ``F``."""
        if len(y_l) != self.output_length:
            raise ValueError(f"output has {len(y_l)} samples but the regressor expects {self.output_length}")
        if y_l.factor != self.factor:
            raise ValueError(f"output downsampling factor {y_l.factor} does not match the regressor's {self.factor}")


def _windows(x: np.ndarray, factor: int, width: int, rows: int) -> np.ndarray:
    """The read-only ``rows x width`` view ``x(mF - i)`` (zero for ``mF < i``)
    of the contiguous 1-D ``x``: row m is the reversed ``width``-sample window
    that ends at ``x(mF)``, a strided view of ``x`` padded with ``width - 1``
    leading zeros (none at width 1)."""
    if width > 1:
        x = np.concatenate((np.zeros(width - 1, dtype=x.dtype), x))
    view = np.ndarray((rows, width), x.dtype, x, (width - 1) * x.itemsize, (factor * x.itemsize, -x.itemsize))
    view.flags.writeable = False
    return view


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


# the arrays a slot of _cached keeps, and the bytes they may take together
_HISTORY = 16
_HISTORY_BYTES = 32 << 20


def _cached(phi: RegressorMatrix, slot, key: tuple, compute: Callable[[], np.ndarray]) -> np.ndarray:
    """The array in ``slot`` of ``phi._cache`` under the hashable ``key``,
    else ``compute()`` stored there read-only; the one reuse-or-compute rule
    for every slot.

    * ``"gram"``: the symmetric ``G = Phi'Phi`` (:func:`_full_gram`), which
      least squares and the feature-space blocks share.
    * ``t``, a term index: term t's dual unit Gram ``Phi K_t Phi'`` keyed by
      the unit term.
    * ``(s, t)``, ``s <= t``: the feature-space unit block ``(Phi L_s)'(Phi
      L_t) = L_s' G L_t`` keyed by both unit terms.
    * ``"lead"``: the lower Cholesky factor of the first term's shifted
      feature-space block, keyed by its unit term, scale and ``gamma``;
      written only by :func:`~beyondnyq.estimator._shifted_factor`.

    A slot is a dict from key to array in the order of last use, and holds
    the latest 16 keys where 16 of its arrays fit in 32 MiB (an M x M Gram
    up to M = 512), else only the latest: one tuner sweep of a coordinate
    (a scan, its bracket and golden steps, and the accepted point) revisits
    its keys in the next sweep, but a P x P block at P = 1000 is held once.
    The oldest array is dropped before its successor is computed.  A slot's
    dict is never changed once stored, only replaced, so threads sharing a
    regressor never see one change under them.
    """
    held = phi._cache.get(slot, {})
    array = held.get(key)
    if array is not None:
        if next(reversed(held)) != key:
            phi._cache[slot] = {**{k: a for k, a in held.items() if k != key}, key: array}
        return array
    phi._cache[slot] = _latest(held, max((a.nbytes for a in held.values()), default=0))
    # the dropped arrays are freed here, before their successor exists
    del held
    array = compute()
    array.flags.writeable = False
    phi._cache[slot] = {**_latest(phi._cache.get(slot, {}), array.nbytes), key: array}
    return array


def _latest(held: dict, nbytes: int) -> dict:
    """The entries of ``held`` that stay beside one more array in a slot of
    arrays of ``nbytes`` each: its latest 15, or none where 16 would not fit."""
    keep = _HISTORY - 1 if _HISTORY * nbytes <= _HISTORY_BYTES else 0
    return dict(list(held.items())[-keep:]) if keep else {}


def _mirror(a: np.ndarray) -> np.ndarray:
    """``a`` with its upper triangle copied onto its lower one, in place, in
    strips of 128 columns (a whole-matrix triangle mask costs four times as
    much); the result is bitwise symmetric."""
    for start in range(0, len(a), 128):
        stop = start + 128
        a[stop:, start:stop] = a[start:stop, stop:].T
        strip = a[start:stop, start:stop]
        strip[...] = np.triu(strip) + np.triu(strip, 1).T
    return a


def _full_gram(phi: RegressorMatrix) -> np.ndarray:
    """``G = Phi'Phi`` (P x P, symmetric, read-only) from :func:`_gram`,
    built once per regressor in its ``"gram"`` slot."""
    return _cached(phi, "gram", (), lambda: _gram(phi))


def _gram(phi: RegressorMatrix) -> np.ndarray:
    """``Phi'Phi`` (P x P, bitwise symmetric), in O(F M P + P^2).

    Shifting a row of ``Phi`` by F lags gives the row before it, and the
    first row shifted in is zero, so ``G[i+F, j+F] = G[i, j] - a_i a_j``
    with ``a = Phi[M-1]``, the one row that leaves the sum.  The first
    ``min(F, P)`` rows are ``Phi[:, :F]' Phi`` with their leading block
    mirrored, and the first F columns their transpose; each later block of
    F rows is the block above it, one column block to the left, minus one
    outer product.  Every step maps a symmetric pair of entries to a
    symmetric pair, so the result is symmetric bit for bit.
    """
    entries, f = phi.entries, phi.factor
    p = entries.shape[1]
    gram = np.empty((p, p), order="F")
    # filled through its transpose, whose rows are contiguous: G is symmetric
    g = gram.T
    g[:f] = entries[:, :f].T @ entries
    _mirror(g[:f, :f])
    g[f:, :f] = g[:f, f:].T
    last = entries[-1]
    for start in range(f, p, f):
        rows = slice(start - f, min(start, p - f))
        g[start : start + f, f:] = g[rows, : p - f] - np.outer(last[rows], last[: p - f])
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
# * The solves: the bound needs only backward-stable solves with R' and R.
#   Each pair perturbs R'R by at most 2 gamma_P ||R||_F^2 <= 2 k u tau (1 +
#   O(k u)) (Higham, Thm 8.5), which the 3 k eps tau bound on E covers
#   together with the 4 k u tau above.  So potrs's pair and the two BLAS
#   trsv calls of _solve carry the same rho; trsv is faster for one
#   right-hand side, where OpenBLAS runs potrs's trsm slowly: 0.31 against
#   0.68 ms at P = 1000 and 12 against 15 us at P = 150, on one thread.
_CERTIFICATE_FACTOR = 64.0


def _certified_factor(phi: RegressorMatrix) -> tuple[np.ndarray, float] | None:
    """``(R, rho)``: the upper Cholesky factor ``R`` of ``Phi'Phi`` for an
    M x P ``Phi`` with P < M and the bound ``rho < 3/64`` on the error that
    ``R'R`` leaves per solve; or ``None`` unless ``R^{-1}`` certifies that
    ``Phi`` has full numerical rank: all P singular values above ``max(M, P)
    * eps * sigma_max``.  One Cholesky and one triangular inverse (trtri),
    each O(P^3 / 3), of a copy of the regressor's cached ``G``
    (:func:`_full_gram`); ``None`` also where the Cholesky meets a
    non-positive pivot or trtri a zero one."""
    m, p = phi.entries.shape
    gram = _full_gram(phi)
    tau = float(gram.diagonal()[np.arange(p) % phi.factor].sum())
    r, info = scipy.linalg.lapack.dpotrf(gram)
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

    def solve(rhs: np.ndarray) -> np.ndarray:
        return scipy.linalg.blas.dtrsv(r, scipy.linalg.blas.dtrsv(r, rhs, trans=1))

    theta = solve(entries.T @ y)
    error = rho
    while True:
        theta += solve(entries.T @ (y - entries @ theta))
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
      (:func:`_gram`, O(F M P + P^2)), kept on the regressor for the kernel
      fits that follow (:func:`_full_gram`); the Cholesky factor ``R`` of a
      copy and ``R^{-1}``, which certifies full numerical rank (O(P^3 / 3)
      each): ``theta`` solves ``R'R theta = Phi'y`` and is corrected with the
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
        theta, _, rank, _ = scipy.linalg.lstsq(entries, y, cond=m * np.finfo(float).eps, lapack_driver="gelsd")
        if rank < p:
            return None
    else:
        theta = _solve(*certified, entries, y)
    return FirModel(theta=theta, period=y_l.fast_period)
