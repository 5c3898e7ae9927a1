"""Kernel-regularized FIR estimation from slow-rate output measurements.

The regularized cost ``||y_l - Phi theta||^2 + gamma * theta' K^{-1} theta``
has minimizer ``theta = K Phi' (Phi K Phi' + gamma I)^{-1} y_l``.  The M x M
matrix being inverted is positive definite for any ``gamma > 0`` and any
positive semidefinite ``K``, so a model of any order ``1 <= P <= N`` exists
and is unique -- including ``P >= M``, where the unregularized least-squares
problem has no unique answer.  ``K`` itself is never inverted, so
rank-deficient kernels (e.g. resonant-pole priors) are fine, and it is never
formed either: every term enters through its factor ``K_t = L_t L_t'``, which
the kernel classes of :mod:`beyondnyq.kernels` own; this module sums the
terms and solves.

A fit solves in the smaller of two spaces, chosen from the shapes alone.
``X = [Phi L_t]`` has n columns: P per DC or Tikhonov term, 2P per stable
spline and 2 per resonant pole.

* feature space iff ``n < M``: the n x n ``X'X + gamma I`` gives ``w``, the
  model ``theta = sum_t L_t w_t`` and the evidence (through the push-through
  and Sylvester determinant identities).  Every block of ``X'X`` is ``L_s' G
  L_t`` from the regressor's ``G = Phi'Phi``, at a cost that does not grow
  with M once ``G`` is built, and its Cholesky factor borders the first
  term's, which the regressor keeps for later fits and probes.  A kernel of
  resonant poles alone may solve here at P >= M, where ``G`` is P x P;
* output space (dual) otherwise: the M x M ``Phi K Phi' + gamma I``.

Both give the same model and evidence up to rounding; ``X'X + gamma I`` is
never worse conditioned than the dual's Gram.

Hyperparameters are scored by the Gaussian-evidence objective
``y' (Phi K Phi' + gamma I)^{-1} y + log det(Phi K Phi' + gamma I)`` and tuned
with a budgeted, derivative-free coordinate search that never returns a worse
objective than its starting point.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Callable, Generator, Mapping, NamedTuple

import numpy as np
import scipy.linalg
import scipy.linalg.blas
import scipy.linalg.lapack

from .errors import InvalidStartError, NumericalError
from .kernels import KernelSpec, KernelSum, ResonantPole, _terms
from .regressor import RegressorMatrix, _cached, _full_gram, _mirror
from .signals import FastSignal, FirModel, SlowSignal, _integer, _known_keys, _number, _positive, _write_json

__all__ = [
    "RegularizedProblem",
    "HyperparameterVector",
    "fit_with_evidence",
    "regularized_fir",
    "marginal_likelihood",
    "optimize_hyperparameters",
    "apply_hyperparameters",
    "kernel_and_gamma",
    "default_bounds",
    "tuning_start",
    "tuning_budget",
    "goodness_of_fit",
    "predict_fast_output",
    "save_model",
    "load_model",
]


@dataclass(frozen=True)
class RegularizedProblem:
    """One regularized estimation instance: data, prior, and weight ``gamma > 0``."""

    phi: RegressorMatrix
    y_l: SlowSignal
    kernel: KernelSpec
    gamma: float

    def __post_init__(self):
        object.__setattr__(self, "gamma", _positive("gamma", self.gamma))
        self.phi.check_output(self.y_l)


def _in_feature_space(terms: tuple, m: int, order: int) -> bool:
    """Whether a fit solves with the n x n ``X'X`` rather than the M x M
    ``Phi K Phi'``: the terms' factors have ``n < M`` columns in all."""
    return sum(term.width(order) for term in terms) < m


def _unit_piece(phi: RegressorMatrix, unit: KernelSpec) -> np.ndarray:
    factored = unit.regressor_factor(phi)
    return factored @ factored.T


def _output_gram(phi: RegressorMatrix, spec: KernelSpec, skip: int | None = None) -> np.ndarray:
    """``Phi K Phi'`` summed over the terms of ``spec`` but ``skip``, in
    term order, from the unit Grams in the term slots of ``phi._cache``; a
    new array, zero where every term is skipped.  An entry that overflows is
    inf, which the factorization reports (:func:`_lower_cholesky`)."""
    gram = None
    with np.errstate(over="ignore"):
        for index, term in enumerate(_terms(spec)):
            if index == skip:
                continue
            unit, scale = term.unit()
            piece = _cached(phi, index, unit, lambda: _unit_piece(phi, unit))
            if gram is None:
                gram = np.multiply(piece, scale)
            elif scale == 1.0:
                # 1.0 * piece is piece exactly: the sum's bits with no temporary
                gram += piece
            else:
                gram += scale * piece
    return np.zeros((phi.output_length, phi.output_length)) if gram is None else gram


def _block(phi: RegressorMatrix, unit_s: KernelSpec, unit_t: KernelSpec, diagonal: bool) -> np.ndarray:
    """The unit block ``(Phi L_s)'(Phi L_t) = L_s' G L_t`` from the
    regressor's ``G = Phi'Phi``: term t's ``factor`` applied to the rows of
    ``G``, then term s's to the rows of ``(G L_t)'``, O(P^2) per DC term and
    per resonant pole.  A diagonal block keeps its upper triangle, mirrored,
    so it is bitwise symmetric."""
    # G L_t copied in transposed order, so that factor's recursion runs in
    # place on it and no third P x P array is held
    block = unit_s.factor(np.ascontiguousarray(unit_t.factor(_full_gram(phi)).T)).T
    if not diagonal:
        return block
    # Tikhonov's factor returns its argument, here the read-only G
    return _mirror(block if block.flags.writeable else block.copy())


def _feature_gram(phi: RegressorMatrix, spec: KernelSpec) -> np.ndarray:
    """``A = X'X`` (n x n, a new array) for ``X = [sqrt(scale_t) Phi L_t]``.

    Block ``(s, t)`` of ``A`` is ``sqrt(scale_s scale_t)`` times the unit
    block in slot ``(s, t)`` of ``phi._cache`` (:func:`_block`), so ``X`` is
    never built: a new ``gamma`` or DC ``scale`` costs the O(n^2) assembly,
    and a new DC ``decay`` or resonant pole its O(P^2) blocks from ``G``.  An
    entry that overflows is inf, which the factorization reports
    (:func:`_lower_cholesky`).
    """
    terms = _terms(spec)
    units = [term.unit() for term in terms]
    edges = np.cumsum([0] + [term.width(phi.order) for term in terms])
    gram = np.empty((edges[-1], edges[-1]))
    with np.errstate(over="ignore"):
        for s, (unit_s, scale_s) in enumerate(units):
            for t in range(s, len(units)):
                unit_t, scale_t = units[t]
                block = _cached(phi, (s, t), (unit_s, unit_t), lambda: _block(phi, unit_s, unit_t, s == t))
                rows, cols = slice(edges[s], edges[s + 1]), slice(edges[t], edges[t + 1])
                # a diagonal block gets its scale exactly, and a unit scale
                # (1.0) copies the block's bits
                weight = scale_s if s == t else math.sqrt(scale_s) * math.sqrt(scale_t)
                np.multiply(block, weight, out=gram[rows, cols])
                if s != t:
                    gram[cols, rows] = gram[rows, cols].T
    return gram


def _factor_rows(spec: KernelSpec, v: np.ndarray) -> np.ndarray:
    """``X'``-style products ``[sqrt(scale_t) L_t' v]`` over the terms, each
    from the term's unit ``factor`` of ``v'``."""
    return np.concatenate(
        [unit.factor(v[None, :])[0] * math.sqrt(scale) for unit, scale in (t.unit() for t in _terms(spec))]
    )


def _kernel_times(spec: KernelSpec, v: np.ndarray) -> np.ndarray:
    """``K v = sum_t L_t (L_t' v)``: the feature space's model formula."""
    return _feature_theta(spec, _factor_rows(spec, v), len(v))


def _failure_diagnostics(shifted: np.ndarray, gamma: float) -> dict[str, float]:
    """Context for a failed factorization; building it never raises."""
    nonfinite = int(np.count_nonzero(~np.isfinite(shifted)))
    diagnostics = {"gamma": gamma, "nonfinite_entries": nonfinite}
    if nonfinite == 0:
        # norms and condition numbers are undefined for non-finite matrices
        diagnostics["max_entry"] = float(np.max(np.abs(shifted)))
        try:
            diagnostics["condition_estimate"] = float(np.linalg.cond(shifted))
        except np.linalg.LinAlgError:  # the SVD did not converge
            pass
    return diagnostics


def _lower_cholesky(a: np.ndarray, shifted: np.ndarray, gamma: float) -> np.ndarray:
    """Lower Cholesky factor of ``a`` by LAPACK's potrf, a new array whose
    lower triangle alone is meaningful; ``a`` is ``shifted``, the Gram plus
    ``gamma I``, or a block of it.  The one place where a factorization
    fails: raises :class:`NumericalError` with the diagnostics of
    ``shifted`` where ``a`` is not positive definite in floating point or
    holds non-finite entries."""
    # skipping the finite scan matters because hyperparameter search
    # factorizes thousands of these; potrf factors inf/NaN entries without
    # complaint, so non-finite input is caught on the factor's diagonal,
    # which any non-finite lower-triangle entry reaches
    lower, info = scipy.linalg.lapack.dpotrf(a, lower=1, clean=0)
    if info > 0 or not np.all(np.isfinite(np.diagonal(lower))):
        n = shifted.shape[0]
        reason = f"leading minor {info} is not positive definite" if info > 0 else "its factor is not finite"
        raise NumericalError(
            f"Cholesky factorization of the {n}x{n} regularized Gram matrix failed: {reason}",
            diagnostics=_failure_diagnostics(shifted, gamma),
        )
    return lower


class _Factor(NamedTuple):
    """The lower Cholesky factor ``[[lead, 0], [border, corner]]`` of a
    shifted Gram ``S``, and ``log det S``: ``lead`` (k x k) factors its
    leading block and ``corner`` the Schur complement of the other n - k
    columns.  The dual's factor, and a feature-space one of a single term,
    have no border (n = k).  Only the lower triangles of ``lead`` and
    ``corner`` are read."""

    lead: np.ndarray
    border: np.ndarray  # (n - k) x k
    corner: np.ndarray  # (n - k) x (n - k)
    logdet: float

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """``S^{-1} rhs`` by forward and back substitution, one pair of BLAS
        trsv calls per diagonal block: faster than LAPACK's potrs for one
        right-hand side, whose trsm OpenBLAS runs slowly, and without
        ``solve_triangular``'s checks (the same bits)."""
        trsv, k = scipy.linalg.blas.dtrsv, len(self.lead)
        top = trsv(self.lead, rhs[:k], lower=1)
        if not len(self.corner):
            return trsv(self.lead, top, lower=1, trans=1)
        bottom = trsv(self.corner, trsv(self.corner, rhs[k:] - self.border @ top, lower=1), lower=1, trans=1)
        return np.concatenate((trsv(self.lead, top - self.border.T @ bottom, lower=1, trans=1), bottom))


def _shifted_factor(
    gram: np.ndarray, gamma: float, phi: RegressorMatrix | None = None, first: KernelSpec | None = None
) -> _Factor:
    """The factor of ``S = gram + gamma I``; the one place where a Gram is
    shifted and factored.  Adds ``gamma`` to the diagonal of ``gram`` in
    place, so callers pass a Gram they own.

    Without ``first`` the whole of ``S`` is factored, O(n^3): the dual's M x
    M ``Phi K Phi' + gamma I``, or its tuner's rest (:func:`_dual`).  Given
    ``first``, the first term of the feature-space ``X'X`` on ``phi``, its k
    x k shifted block is factored once per unit term, scale and ``gamma``,
    in the ``"lead"`` slot of ``phi._cache``, O(k^3 / 3), so pk after dc,
    and a tuner probe that leaves the first term alone, skip it.  The other
    n - k columns border it: one triangular solve, O(k^2 (n - k)), and the
    factor of their Schur complement, O((n - k)^3).  Raises
    :class:`NumericalError` with the diagnostics of the whole of ``S``
    where a step fails.
    """
    gram.flat[:: len(gram) + 1] += gamma
    if first is None:
        k, lead = len(gram), _lower_cholesky(gram, gram, gamma)
    else:
        k, (unit, scale) = first.width(phi.order), first.unit()
        lead = _cached(phi, "lead", (unit, scale, gamma), lambda: _lower_cholesky(gram[:k, :k], gram, gamma))
    if k == len(gram):
        border, corner = np.empty((0, k)), np.empty((0, 0))
    else:
        border = scipy.linalg.solve_triangular(lead, gram[:k, k:], lower=True, check_finite=False).T
        corner = _lower_cholesky(gram[k:, k:] - border @ border.T, gram, gamma)
    diagonal = np.concatenate((np.diagonal(lead), np.diagonal(corner)))
    return _Factor(lead, border, corner, 2.0 * float(np.sum(np.log(diagonal))))


class _Dual(NamedTuple):
    """The dual's M x M ``S = gamma I`` plus the Grams of a kernel's terms
    (all of them, or all but one: the tuner's rest), factored, with what the
    evidence and the rank-2 update read off the factor."""

    shifted: np.ndarray  # S
    factor: _Factor  # its Cholesky factor, with no border
    alpha: np.ndarray  # L^{-1} y, L = factor.lead
    energy: float  # alpha'alpha = y'S^{-1}y
    bound: float  # the largest diagonal entry of S - gamma I


def _dual(phi: RegressorMatrix, y: np.ndarray, spec: KernelSpec, gamma: float, skip: int | None = None) -> _Dual:
    """The factored dual of ``spec`` at ``gamma`` without term ``skip``: the
    other terms' Grams from ``phi._cache`` summed, O(M^2) each, shifted and
    factored, O(M^3); the one place where a dual Gram is summed and factored.
    Raises :class:`NumericalError` where it cannot be factorized."""
    gram = _output_gram(phi, spec, skip)
    # the pieces are Grams, so |entry (i, j)| <= (entry (i, i) + entry (j, j)) / 2
    # for each: no partial sum of the full Gram exceeds this plus 2 max|W|^2
    bound = float(np.max(np.diagonal(gram)))
    factor = _shifted_factor(gram, gamma)
    alpha = scipy.linalg.solve_triangular(factor.lead, y, lower=True, check_finite=False)
    return _Dual(gram, factor, alpha, float(alpha @ alpha), bound)


class _Solution(NamedTuple):
    """A factored fit: its evidence, and its coefficients on request."""

    evidence: float
    theta: Callable[[], np.ndarray]


def _refined_solve(shifted: np.ndarray, solve: Callable[[np.ndarray], np.ndarray], rhs: np.ndarray) -> np.ndarray:
    """``shifted^{-1} rhs`` by ``solve``, its Cholesky factor's solve,
    refined up to three times to recover accuracy lost to the O(1/gamma)
    conditioning."""
    z = solve(rhs)
    rhs_norm = float(np.linalg.norm(rhs))
    for _ in range(3):
        residual = rhs - shifted @ z
        if np.linalg.norm(residual) <= 1e-13 * rhs_norm:
            break
        z = z + solve(residual)
    return z


def _solve(phi: RegressorMatrix, y: np.ndarray, spec: KernelSpec, gamma: float) -> _Solution:
    """The regularized fit and its evidence from one Gram and one Cholesky factor.

    The space comes from the shapes (:func:`_in_feature_space`).  In the output space
    (dual) ``S = Phi K Phi' + gamma I`` gives the evidence ``a'a + log det S``
    with ``a = L^{-1} y`` and the model ``K Phi' S^{-1} y`` (:func:`_dual`).
    In the feature space ``X = [Phi L_t]`` has n < M columns and ``A = X'X +
    gamma I`` gives ``w = A^{-1} X'y`` with ``X'y = [L_t'(Phi'y)]`` and the
    model ``theta = sum_t L_t w_t``; the push-through and Sylvester
    determinant identities turn the dual evidence into ``(||y - Phi
    theta||^2 + gamma ||w||^2) / gamma + (M - n) log gamma + log det A``.
    Its quadratic term comes from the residual, never as ``y'y - y'X w``, a
    difference that cancels.
    """
    terms = _terms(spec)
    if not _in_feature_space(terms, *phi.entries.shape):
        dual = _dual(phi, y, spec, gamma)
        return _Solution(
            dual.energy + dual.factor.logdet,
            lambda: _kernel_times(spec, phi.entries.T @ _refined_solve(dual.shifted, dual.factor.solve, y)),
        )
    gram = _feature_gram(phi, spec)
    factor = _shifted_factor(gram, gamma, phi, terms[0])
    w = _refined_solve(gram, factor.solve, _factor_rows(spec, phi.entries.T @ y))
    theta = _feature_theta(spec, w, phi.order)
    residual = y - phi.entries @ theta
    m, n = len(y), len(w)
    quadratic = (residual @ residual + gamma * (w @ w)) / gamma
    return _Solution(float(quadratic + (m - n) * math.log(gamma) + factor.logdet), lambda: theta)


def _feature_theta(spec: KernelSpec, w: np.ndarray, order: int) -> np.ndarray:
    """``theta = sum_t L_t w_t``, ``w_t`` the entries of ``w`` on term t's factor columns."""
    theta = np.zeros(order)
    start = 0
    for term in _terms(spec):
        width = term.width(order)
        theta += term.factor_times(w[start : start + width], order)
        start += width
    return theta


def fit_with_evidence(problem: RegularizedProblem) -> tuple[FirModel, float]:
    """The regularized model and its evidence from one Gram and one Cholesky factor.

    Returns what :func:`regularized_fir` and :func:`marginal_likelihood`
    return, bit for bit, for one factorization instead of two.  For M outputs,
    N input samples, order P and n kernel-factor columns (P per DC or
    Tikhonov term, 2P per stable spline, 2 per resonant pole):

    * feature space iff n < M: ``X = Phi L`` is never built.  ``X'X`` has one
      unit block ``(Phi L_s)'(Phi L_t) = L_s' G L_t`` per term pair, from
      ``G = Phi'Phi``, built once per regressor in O(F M P + P^2) and shared
      with least squares: two applications of the terms' factors, O(P^2)
      for a DC term or a resonant pole.  So a kernel of resonant poles
      alone, whose 2 columns per pole keep it in this space at any order,
      builds the P x P ``G`` even at P > M: O(F M P + P^2) time and 8 P^2
      bytes, where its M x 2 ``Phi L_t`` would take O(N + M).  ``X'y =
      [L_t'(Phi'y)]`` and the residual ``y - Phi theta`` cost O(M P).
    * output space (dual) otherwise: ``X`` costs O(N + M) per resonant pole
      and O(N + M P) per DC term, each one recursion over the input samples
      (``regressor_factor``), and O(M P) per other term; ``Phi K Phi' = X X'``
      costs O(M^2 n).

    Either way :func:`_shifted_factor` builds the Cholesky factor, which in
    the feature space borders the first term's kept one, and the solve is
    refined up to three times, O(n^2) or O(M^2) each.

    The arrays come from ``problem.phi._cache`` (see
    :func:`~beyondnyq.regressor._cached`), so the fits on that regressor
    share them: a sum kernel whose first term is another fit's DC kernel, at
    that fit's ``gamma``, reuses that fit's DC Gram (dual) or its P x P block
    and Cholesky factor (feature space), with the same bits as a fit of its
    own.
    """
    solution = _solve(problem.phi, problem.y_l.samples, problem.kernel, problem.gamma)
    return FirModel(theta=solution.theta(), period=problem.y_l.fast_period), solution.evidence


def regularized_fir(problem: RegularizedProblem) -> FirModel:
    """Solve ``theta = K Phi' (Phi K Phi' + gamma I)^{-1} y_l``.

    Defined for every order ``P`` in ``[1, N]`` and any input, including
    ``P >= M`` and zero-order-hold excitations.  The inner solve uses a
    Cholesky factorization plus iterative refinement so the linear-system
    residual stays near machine precision even for tiny ``gamma``.  The
    method, its cost and its shared kernel pieces are
    :func:`fit_with_evidence`'s, which also returns the evidence from the same
    factorization.
    """
    return fit_with_evidence(problem)[0]


def marginal_likelihood(
    phi: RegressorMatrix,
    y_l: SlowSignal,
    kernel: KernelSpec,
    gamma: float,
) -> float:
    """Evidence objective ``y'(Phi K Phi' + gamma I)^{-1} y + log det(Phi K Phi' + gamma I)``.

    Lower is better.  The ``gamma I`` shift is included inside the
    log-determinant so the objective stays finite for rank-deficient kernels.
    One Cholesky factor (:func:`_shifted_factor`) gives both terms, in the
    space :func:`fit_with_evidence` uses and with its value, bit for bit:

    * feature space iff n < M factor columns (P per DC or Tikhonov term, 2P
      per stable spline, 2 per resonant pole): the n x n ``X'X + gamma I``
      from the unit blocks ``L_s' G L_t`` in the ``(s, t)`` slots of
      ``phi._cache``, O(P^2) per DC or resonant block from ``G = Phi'Phi``
      (O(F M P + P^2) once per regressor, also for a kernel of resonant
      poles alone at P > M), its factor, plus the refined solve and the
      residual, O(M P + n^2).  A call that changes only a resonant term
      since the last one on ``phi`` reuses the first term's factor and so
      costs O(M P + P^2 + n^2) for a DC term of k = P columns and a few
      resonant ones; a new ``gamma`` or DC ``scale`` adds that factor,
      O(P^3);
    * output space (dual) otherwise: the M x M ``Phi K Phi' + gamma I``,
      O(M^2 n + M^3), with the quadratic form from one triangular solve.
    """
    problem = RegularizedProblem(phi=phi, y_l=y_l, kernel=kernel, gamma=gamma)
    return _solve(phi, y_l.samples, kernel, problem.gamma).evidence


def _rest(phi: RegressorMatrix, y: np.ndarray, spec: KernelSpec, gamma: float, index: int) -> _Dual | None:
    """The dual rest ``R`` of ``spec`` at ``gamma``, ``gamma I`` plus every
    term's Gram but term ``index``'s, as a :class:`_Dual`, or None where it
    cannot be factorized.  The tuner factors it once per sweep of that
    term's coordinates, so that their probes need no factorization
    (:func:`_rank2_evidence`).  The feature space has none: its probes are
    full scorings of the n x n ``X'X``, n < M."""
    try:
        return _dual(phi, y, spec, gamma, skip=index)
    except NumericalError:
        return None


# the rank-2 quadratic form is a difference alpha'alpha - beta'C^{-1}beta; a
# probe where it falls below this share of alpha'alpha is factorized instead
_CANCELLATION = 1e-6


def _rank2_evidence(rest: _Dual, w: np.ndarray) -> list[float]:
    """Evidence at the dual's ``R + W_k W_k'`` for each candidate k, whose M
    x 2 ``W_k`` are the column pairs of the M x 2K ``w``, from one triangular
    solve on the factor of the rest ``R`` (:func:`_rest`), O(M^2 K); a
    resonant pole's ``W = Phi L_t`` costs O(N + M) from the regressor's N
    input samples, so a dual probe is O(N + M^2).

    With ``V = L^{-1} W_k``, ``C = I + V'V`` and ``beta = V' alpha``,
    Woodbury and the determinant lemma give
    ``alpha'alpha - beta' C^{-1} beta + log det R + log det C``.  A
    candidate's value is NaN where an entry of its full Gram could overflow,
    an intermediate is not finite, or the difference cancels more than six
    digits; the caller then factorizes its full Gram instead.  The 2 x 2
    algebra runs on all K at once, and ``V'V`` and ``V' alpha`` are stacked
    products of each candidate's own columns, so a candidate gets the value
    of a call of its own wherever the solve treats its columns alone (as
    OpenBLAS's does: the same bits), so the tuner may score a scan grid, or
    a golden bracket's two points, in one call.
    """
    k = w.shape[1] // 2
    top = np.max(np.abs(w).reshape(len(w), k, 2), axis=(0, 2))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        fits = np.isfinite(rest.bound + 2.0 * top * top)
        # a candidate whose Gram could overflow is zeroed, so that no inf or
        # NaN enters the solve
        v = scipy.linalg.solve_triangular(
            rest.factor.lead, np.where(np.repeat(fits, 2), w, 0.0), lower=True, check_finite=False
        )
        pairs = v.T.reshape(k, 2, len(w))
        gram = pairs @ pairs.transpose(0, 2, 1)
        a, b, d = gram[:, 0, 0], gram[:, 0, 1], gram[:, 1, 1]
        beta1, beta2 = (pairs @ rest.alpha).T
        det = (1.0 + a) * (1.0 + d) - b * b
        quad = rest.energy - ((1.0 + d) * beta1 * beta1 - 2.0 * b * beta1 * beta2 + (1.0 + a) * beta2 * beta2) / det
    # det > 0 also rejects NaN; a quadratic form at or below the threshold
    # lost its digits to the difference, as a nearly singular rest does
    good = fits & (det > 0.0) & (quad > _CANCELLATION * rest.energy)
    logdet = rest.factor.logdet
    return [q + logdet + math.log(x) if ok else math.nan for q, x, ok in zip(quad.tolist(), det.tolist(), good)]


@dataclass(frozen=True)
class HyperparameterVector:
    """Named hyperparameter values with per-entry closed search intervals.

    Keys, at least one, are the paths of :func:`apply_hyperparameters` plus
    the optional ``"gamma"``; each field needs a tuning rule.
    Every value must lie inside its bounds, and bounds must be finite and stay
    inside the kernel's own parameter ranges.  An entry searched in log space
    (``gamma``, ``scale``, ``sigma1``, ``sigma2``) needs a positive lower bound.
    """

    values: Mapping[str, float]
    bounds: Mapping[str, tuple[float, float]]

    def __post_init__(self):
        values = dict(self.values)
        bounds = {k: (float(lo), float(hi)) for k, (lo, hi) in dict(self.bounds).items()}
        if not values:
            raise ValueError("HyperparameterVector is empty: it names no hyperparameter to tune")
        if set(values) != set(bounds):
            raise ValueError(
                f"values and bounds must name the same parameters, "
                f"got {sorted(values)} vs {sorted(bounds)}"
            )
        for name, value in values.items():
            lo, hi = bounds[name]
            log_space = _rule(name).log_space
            if not -math.inf < lo < hi < math.inf:
                raise ValueError(f"{name} needs finite bounds lo < hi, got [{lo}, {hi}]")
            if not (lo <= value <= hi):
                raise ValueError(f"{name}={value} is outside its bounds [{lo}, {hi}]")
            if not lo > 0.0 and log_space:
                raise ValueError(f"{name} is searched in log space, so its lower bound must be positive, got {lo}")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "bounds", bounds)


def _address(spec: KernelSpec, path: str) -> tuple[int, str]:
    """``(term index, field)`` of the kernel field that a path of
    :func:`apply_hyperparameters` names; the one reader of that format."""
    index, field = 0, path
    if isinstance(spec, KernelSum):
        parts = path.split(".")
        # one spelling per index: "1", not "01" or a full-width digit
        well_formed = (len(parts) == 3 and parts[0] == "terms" and parts[1].isdecimal()
                       and parts[1] == str(int(parts[1])))
        index, field = (int(parts[1]), parts[2]) if well_formed else (-1, "")
    terms = _terms(spec)
    if not (0 <= index < len(terms) and field in {f.name for f in fields(terms[index])}):
        form = "terms.<index>.<field>" if isinstance(spec, KernelSum) else "<field>"
        raise ValueError(f"hyperparameter path {path!r} names no field of this {type(spec).__name__} ({form})")
    return index, field


def apply_hyperparameters(spec: KernelSpec, values: Mapping[str, float]) -> KernelSpec:
    """Return ``spec`` with the fields that the paths of ``values`` name replaced.

    A path is a field name (``"decay"``) in a single kernel and
    ``terms.<index>.<field>`` (``"terms.1.frequency"``) in a
    :class:`~beyondnyq.kernels.KernelSum`.  Any other path raises ``ValueError``
    naming it, ``"gamma"`` too: :func:`kernel_and_gamma` strips it.
    """
    changes: dict[int, dict[str, float]] = {}
    for path, value in values.items():
        index, field = _address(spec, path)
        changes.setdefault(index, {})[field] = float(value)
    terms = list(_terms(spec))
    for index, named in changes.items():
        terms[index] = replace(terms[index], **named)
    return KernelSum(terms=tuple(terms)) if isinstance(spec, KernelSum) else terms[0]


def _moved(term, field: str, value: float):
    """``term`` with ``field`` set to ``value``, built without the class's
    range checks: a tuner probe's value lies between the coordinate's
    bounds, which :func:`optimize_hyperparameters` has checked, and each
    field's range is an interval."""
    moved = object.__new__(type(term))
    moved.__dict__.update(vars(term), **{field: value})
    return moved


def kernel_and_gamma(template: KernelSpec, values: Mapping[str, float], gamma: float) -> tuple[KernelSpec, float]:
    """The kernel and weight that hyperparameter ``values`` name: ``template``
    with every entry but ``"gamma"`` applied, and ``values.get("gamma", gamma)``."""
    spec = apply_hyperparameters(template, {k: v for k, v in values.items() if k != "gamma"})
    return spec, values.get("gamma", gamma)


class _FieldRule(NamedTuple):
    """How the tuner treats one field, the same in every kernel class."""

    log_space: bool  # searched over log(x), so its lower bound must be positive
    scan: int  # points of the uniform scan that opens each sweep
    sweeps: int  # sweeps that tuning_budget grants a vector holding the field
    bounds: Callable[[float, float], tuple[float, float]]  # (value, omega_max) -> default interval


def _rate_bounds(value: float, omega_max: float) -> tuple[float, float]:
    """``[v^2, v^(1/16)]`` for a start ``v`` in (0, 1), its bottom the
    smallest positive double where ``v^2`` underflows to 0 and its top capped
    at ``1 - 1e-9`` but never below ``v``; a negative start (a correlation)
    gets the mirror of its magnitude's interval, and a start of 0 the
    interval ``[0, 1e-9^(1/16)]``."""
    magnitude = abs(value)
    if magnitude == 0.0:
        return 0.0, 1e-9**0.0625
    lo, hi = max(magnitude**2, math.ulp(0.0)), max(magnitude, min(magnitude**0.0625, 1.0 - 1e-9))
    return (lo, hi) if value > 0.0 else (-hi, -lo)


def _frequency_bounds(value: float, omega_max: float) -> tuple[float, float]:
    """``[0.7 v, 1.3 v]`` for a start ``v > 0``, its top capped at ``0.999
    omega_max`` but never below ``v``; a start of 0 gets ``[0, 0.3 omega_max]``."""
    if value == 0.0:
        return 0.0, 0.3 * omega_max
    return 0.7 * value, max(value, min(1.3 * value, 0.999 * omega_max))


_DECADES = _FieldRule(True, 7, 2, lambda value, omega_max: (value * 1e-2, value * 1e2))
_RATES = _FieldRule(False, 7, 2, _rate_bounds)
# resonance frequencies carve narrow evidence dips, so they get a dense scan and
# a third sweep; a resonant probe costs O(N + M^2) in the dual (rank-2 update),
# not O(M^3), and O(M P + P^2 + n^2) in the feature space (bordered factor)
_FIELD_RULES = {
    "gamma": _FieldRule(True, 7, 2, lambda value, omega_max: (min(1e-9, value), max(1e3, value))),
    "scale": _DECADES,
    "sigma1": _DECADES,
    "sigma2": _DECADES,
    "decay": _RATES,
    "correlation": _RATES,
    "frequency": _FieldRule(False, 25, 3, _frequency_bounds),
}


def _rule(name: str) -> _FieldRule:
    """The rule of the field a path ends in (``terms.2.frequency``: ``frequency``)."""
    field = name.rsplit(".", 1)[-1]
    if field not in _FIELD_RULES:
        raise ValueError(f"no tuning rule for hyperparameter {name!r}")
    return _FIELD_RULES[field]


def default_bounds(name: str, value: float, omega_max: float = 2.0 * math.pi) -> tuple[float, float]:
    """Reasonable search interval around an initial hyperparameter value.

    The regularization weight gets a wide absolute range that holds
    ``value`` (it must absorb any mismatch between the kernel's scale and
    the data's); other scale-type parameters get two decades each way; decay
    and correlation values in (0, 1) move between double and one sixteenth of
    the initial rate (priors that die too fast are far more harmful than
    slow ones), negative ones within the mirror of that interval, and a start
    of 0 up to ``1e-9^(1/16)``; frequencies get a +/-30% window, its top
    capped at ``0.999 omega_max`` but never below the start, and a start of 0
    the interval ``[0, 0.3 omega_max]``.
    """
    return _rule(name).bounds(value, omega_max)


def tuning_start(
    template: KernelSpec, gamma: float, factor: int, init: Mapping[str, float] | None = None,
    bounds: Mapping[str, tuple[float, float]] | None = None,
) -> HyperparameterVector:
    """The tuner's start: ``init``, by default ``gamma`` plus every kernel
    term's ``tunables`` by the paths :func:`apply_hyperparameters` reads, and
    ``bounds``, by default :func:`default_bounds` at ``omega_max = min(pi * factor, 2 pi)``.

    A value outside its kernel field's range (or a ``gamma`` that is not
    positive) raises the kernel's own ``ValueError`` before any bounds are built.
    """
    if init is None:
        prefix = "terms.{}." if isinstance(template, KernelSum) else ""
        init = {"gamma": gamma} | {
            prefix.format(index) + name: getattr(term, name)
            for index, term in enumerate(_terms(template))
            for name in term.tunables
        }
    values, given = dict(init), bounds or {}
    _positive("gamma", kernel_and_gamma(template, values, gamma)[1])
    omega_max = min(math.pi * factor, 2.0 * math.pi)
    defaults = {name: default_bounds(name, value, omega_max) for name, value in values.items() if name not in given}
    return HyperparameterVector(values=values, bounds={**defaults, **given})


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_STEPS = 6


def _line_search(a: float, b: float, scan: int) -> Generator[list[float], list[float], None]:
    """The probes of one coordinate sweep over ``[a, b]``, the one statement
    of the tuner's search pattern: a generator that yields batches of
    coordinate values and is sent each batch's objective values, in order.

    The batches are a uniform scan of ``scan`` points; the two points that
    split the scan's best point and its neighbours in golden ratio; then one
    point per golden-section step, ``_GOLDEN_STEPS`` of them: ``scan + 2 +
    _GOLDEN_STEPS`` probes per sweep.  The scan comes first because the
    objective can be multimodal in a coordinate (resonance frequencies
    especially), and golden-section alone would slide into whichever basin
    touches the start.
    """
    grid = [a + (b - a) * k / (scan - 1) for k in range(scan)]
    pick = int(np.argmin((yield grid)))
    ga, gb = grid[max(pick - 1, 0)], grid[min(pick + 1, scan - 1)]
    x1, x2 = gb - _GOLDEN * (gb - ga), ga + _GOLDEN * (gb - ga)
    f1, f2 = yield [x1, x2]
    for _ in range(_GOLDEN_STEPS):
        if f1 > f2:
            ga, x1, f1 = x1, x2, f2
            x2 = ga + _GOLDEN * (gb - ga)
            (f2,) = yield [x2]
        else:
            gb, x2, f2 = x2, x1, f1
            x1 = gb - _GOLDEN * (gb - ga)
            (f1,) = yield [x1]


def tuning_budget(eta0: HyperparameterVector, cap: int) -> int:
    """The Monte Carlo's tuner budget for the start ``eta0``: ``1 + sweeps *
    cost``, with three sweeps where ``eta0`` has a resonance frequency and
    two otherwise, capped by ``cap``.  ``cost`` is the budget share of one
    coordinate sweep: 31 evaluations per frequency, 13 per other coordinate.
    The optimizer spends :func:`_line_search`'s per-sweep count, 2 more per
    coordinate, so the last sweep is cut short: the benchmark pk kernel's
    538 evaluations stop inside ``terms.2.decay`` of the third sweep, and
    the dc kernel's 79 stop 3 probes into ``scale`` of the second.  A search
    that improves nothing in a sweep stops earlier.
    """
    sweeps = max(_rule(name).sweeps for name in eta0.values)
    cost = sum(_rule(name).scan + _GOLDEN_STEPS for name in eta0.values)
    return min(cap, sweeps * cost + 1)


def _probe(spec: KernelSpec, gamma: float, index: int | None, field: str, x: float) -> tuple[KernelSpec, float]:
    """The tuner's point ``(spec, gamma)`` with one coordinate at ``x``:
    ``gamma`` where ``index`` is None, else ``field`` of term ``index``, the
    one term that is rebuilt (:func:`_moved`)."""
    if index is None:
        return spec, x
    terms = _terms(spec)
    moved = terms[:index] + (_moved(terms[index], field, x),) + terms[index + 1 :]
    return (KernelSum(terms=moved) if isinstance(spec, KernelSum) else moved[0]), gamma


def _unobserved(values: dict[str, float], value: float) -> None:
    """The ``on_evaluation`` of a tune that nothing observes."""


def optimize_hyperparameters(
    phi: RegressorMatrix,
    y_l: SlowSignal,
    template: KernelSpec,
    eta0: HyperparameterVector,
    *,
    gamma: float,
    budget: int,
    on_evaluation: Callable[[dict[str, float], float], None] | None = None,
) -> HyperparameterVector:
    """Budgeted coordinate-wise golden-section search on the evidence objective.

    The contract:

    * the result is never worse than ``eta0``: a probe is accepted only when
      it improves the objective, and ``budget=1`` returns the start;
    * at most ``budget`` evaluations, the start's included;
    * a point whose shifted Gram cannot be factorized (singular or
      non-finite in floating point, a :class:`NumericalError` in
      :func:`marginal_likelihood`) scores ``+inf``: a probe there is never
      accepted and the search goes on.  If the start point's objective is
      not finite, :class:`InvalidStartError` is raised, chained
      (``__cause__``) to the factorization's :class:`NumericalError` when
      that was the reason;
    * every accepted objective value is the one :func:`marginal_likelihood`
      returns, bit for bit.

    Parameters are swept in a fixed order (sorted names), so the search is
    deterministic, until a sweep improves nothing or the budget is spent.
    Scale-type parameters (``gamma``, ``scale``, ``sigma1``, ``sigma2``) are
    searched in log space, the rest in their bounded linear space; each
    coordinate's probes are :func:`_line_search`'s.  A probe is scored as
    :func:`marginal_likelihood` scores it (:func:`_solve`, from the arrays
    that ``phi._cache`` keeps, see :func:`~beyondnyq.regressor._cached`),
    and a coordinate resolves the kernel term it moves once, so that a probe
    builds only that term.  The one exception is a resonant-pole field in
    the dual: a batch of its probes is scored by one rank-2 call
    (:func:`_rank2_evidence`) on the rest of that term (:func:`_rest`),
    factored once per resonant term per sweep, since the term's coordinates
    sort next to each other and leave it as it is.  Such a probe is scored
    by the full factorization instead where the rest cannot be factorized or
    the update gives NaN, so it scores ``+inf`` where
    :func:`marginal_likelihood` raises, and the coordinate's best probe is
    scored again by the full factorization before it is accepted.

    ``gamma`` is tuned only if present in ``eta0``; otherwise the fixed value
    passed as ``gamma`` is used throughout.  ``on_evaluation`` observes every
    objective evaluation (for trace files), including ``inf`` ones, and
    then the accepted point and its objective; the second scoring of a
    coordinate's best probe is not a new evaluation.
    """
    budget, gamma = _integer("budget", budget), _positive("gamma", gamma)
    phi.check_output(y_l)
    on_evaluation = _unobserved if on_evaluation is None else on_evaluation

    y = y_l.samples
    feature = _in_feature_space(_terms(template), *phi.entries.shape)
    # the latest factorization failure; a failed start chains it into InvalidStartError
    failure: NumericalError | None = None

    def factorized(point: tuple[KernelSpec, float]) -> float:
        """The evidence as :func:`marginal_likelihood` computes it, bit for bit."""
        nonlocal failure
        try:
            return _solve(phi, y, *point).evidence
        except NumericalError as exc:
            # the exact objective is +inf or beyond double range here; the
            # search must treat it as worse than anything, not abort
            failure = exc
            return math.inf

    names = sorted(eta0.values)
    # fail fast on bounds that violate kernel parameter ranges
    for name in names:
        for endpoint in eta0.bounds[name]:
            kernel_and_gamma(template, {name: endpoint}, gamma)

    # the accepted point, as values and as the kernel and weight they name
    best = dict(eta0.values)
    point = kernel_and_gamma(template, best, gamma)
    best_value = factorized(point)
    on_evaluation(dict(best), best_value)
    evaluations = 1
    if not math.isfinite(best_value):
        raise InvalidStartError(
            f"objective is {best_value} at the initial hyperparameters"
        ) from failure
    # the dual's factored rest and the term it leaves out: it holds while
    # only that term moves, so the coordinates of one resonant term share it
    rest, rest_term = None, None

    improved = True
    while improved:
        improved = False
        for name in names:
            if evaluations >= budget:
                break
            lo, hi = eta0.bounds[name]
            rule = _rule(name)
            # the term this coordinate moves, resolved once: a probe builds
            # only that term
            index, field = (None, "") if name == "gamma" else _address(point[0], name)
            resonant = not feature and index is not None and isinstance(_terms(point[0])[index], ResonantPole)
            if resonant and rest_term != index:
                rest, rest_term = _rest(phi, y, *point, index), index
            scorer = rest if resonant else None
            # the coordinate's best probe: its value, and its x with its point
            coord_best_f, coord_best = best_value, (best[name], point)
            a, b = (math.log(lo), math.log(hi)) if rule.log_space else (lo, hi)
            search = _line_search(a, b, rule.scan)
            batch = next(search)
            # one batch of probes per pass, cut to the budget left, scored and
            # reported in order; the coordinate ends where the budget does
            while True:
                xs = [min(max(math.exp(t) if rule.log_space else t, lo), hi) for t in batch[: budget - evaluations]]
                points = [_probe(*point, index, field, x) for x in xs]
                values = [math.nan] * len(xs)
                if scorer is not None:
                    w = np.hstack([_terms(p[0])[index].regressor_factor(phi) for p in points])
                    values = _rank2_evidence(scorer, w)
                scores = [value if math.isfinite(value) else factorized(p) for value, p in zip(values, points)]
                for x, p, f in zip(xs, points, scores):
                    on_evaluation({**best, name: x}, f)
                    if f < coord_best_f:
                        coord_best_f, coord_best = f, (x, p)
                evaluations += len(xs)
                if evaluations >= budget:
                    break
                try:
                    batch = search.send(scores)
                except StopIteration:
                    break
            if scorer is not None and coord_best_f < best_value:
                # accept on the value marginal_likelihood gives, not the
                # rank-2 one: they differ by rounding, and where the full
                # Gram is too ill-conditioned to factorize, by +inf
                coord_best_f = factorized(coord_best[1])
            if coord_best_f < best_value:
                improved |= coord_best_f < best_value - 1e-9 * abs(best_value)
                (best[name], point), best_value = coord_best, coord_best_f
                if index != rest_term:
                    rest = rest_term = None

    # terminal trace entry: the accepted point and its objective
    on_evaluation(dict(best), best_value)
    return HyperparameterVector(values=best, bounds=eta0.bounds)


def _as_samples(x) -> np.ndarray:
    if isinstance(x, (FastSignal, SlowSignal)):
        return x.samples
    return np.asarray(x, dtype=float)


def goodness_of_fit(y_true, y_pred) -> float:
    """``100 * (1 - sum((y - yhat)^2) / sum((y - mean(y))^2))``, at most 100."""
    true = _as_samples(y_true)
    pred = _as_samples(y_pred)
    if true.size != pred.size:
        raise ValueError(f"signals must have equal length, got {true.size} and {pred.size}")
    if true.size < 2:
        raise ValueError("need at least 2 samples")
    spread = float(np.sum((true - np.mean(true)) ** 2))
    if spread == 0.0:
        raise ValueError("reference signal is constant; goodness of fit is undefined")
    return 100.0 * (1.0 - float(np.sum((true - pred) ** 2)) / spread)


def predict_fast_output(model: FirModel, u: FastSignal) -> FastSignal:
    """Causal convolution of ``u`` with the FIR coefficients, zero initial state."""
    samples = np.convolve(u.samples, model.theta)[: len(u)]
    return FastSignal(samples=samples, period=u.period)


def save_model(model: FirModel, path: str | Path) -> None:
    """Write the model JSON ``{"period_s": ..., "theta": [...]}``."""
    _write_json(path, {"period_s": model.period, "theta": [float(v) for v in model.theta]})


def load_model(path: str | Path) -> FirModel:
    """Read a model that :func:`save_model` wrote; ``period_s`` and every
    ``theta`` entry must be JSON numbers, as everywhere in a config, and any
    other key is rejected."""
    try:
        payload = json.loads(Path(path).read_text())
        if not isinstance(payload, dict):
            raise ValueError(f"expected a JSON object, got {payload!r}")
        _known_keys("model keys", payload, ("period_s", "theta"))
        period = _positive("period_s", payload["period_s"])
        return FirModel(theta=[_number(f"theta[{i}]", v) for i, v in enumerate(payload["theta"])], period=period)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: not a valid model file ({exc})") from exc
