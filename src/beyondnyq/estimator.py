"""Kernel-regularized FIR estimation from slow-rate output measurements.

The regularized cost ``||y_l - Phi theta||^2 + gamma * theta' K^{-1} theta``
has minimizer ``theta = K Phi' (Phi K Phi' + gamma I)^{-1} y_l``.  The M x M
matrix being inverted is positive definite for any ``gamma > 0`` and any
positive semidefinite ``K``, so a model of any order ``1 <= P <= N`` exists
and is unique -- including ``P >= M``, where the unregularized least-squares
problem has no unique answer.  Estimation always goes through this dual form:
``K`` itself is never inverted, so rank-deficient kernels (e.g. resonant-pole
priors) are fine, and for DC and resonant-pole terms it is never formed either:
``Phi K Phi'`` and ``K v`` come from their factors ``K = L L'``.

Hyperparameters are scored by the Gaussian-evidence objective
``y' (Phi K Phi' + gamma I)^{-1} y + log det(Phi K Phi' + gamma I)`` and tuned
with a budgeted, derivative-free coordinate search that never returns a worse
objective than its starting point.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Mapping, NamedTuple

import numpy as np
import scipy.linalg

from .errors import InvalidStartError, NumericalError
from .kernels import DiagonalCorrelated, KernelSpec, KernelSum, ResonantPole, build_kernel_matrix
from .regressor import RegressorMatrix
from .signals import FastSignal, FirModel, SlowSignal

__all__ = [
    "RegularizedProblem",
    "HyperparameterVector",
    "FitReport",
    "fit_with_evidence",
    "regularized_fir",
    "marginal_likelihood",
    "optimize_hyperparameters",
    "apply_hyperparameters",
    "default_bounds",
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
        if not (np.isfinite(self.gamma) and self.gamma > 0):
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if len(self.y_l) != self.phi.output_length:
            raise ValueError(
                f"output has {len(self.y_l)} samples but the regressor expects "
                f"{self.phi.output_length}"
            )
        if self.y_l.factor != self.phi.factor:
            raise ValueError(
                f"output downsampling factor {self.y_l.factor} does not match "
                f"the regressor's {self.phi.factor}"
            )


# columns per block of the first-order recursion behind the DC factor
_AR1_BLOCK = 64


def _ar1_suffix_sums(a: np.ndarray, c: float) -> np.ndarray:
    """``g[:, j] = sum_{i >= j} c^(i-j) a[:, i]`` for a 2-D ``a``.

    This is the backward first-order recursion ``g[:, j] = a[:, j] + c g[:, j+1]``
    run over blocks of columns: inside a block it is one product with the
    triangular matrix of powers of ``c``, and the block's first column
    carries into the block before it as a rank-1 update.
    """
    order = a.shape[1]
    width = min(_AR1_BLOCK, order)
    powers = c ** np.arange(width + 1)
    gaps = np.subtract.outer(np.arange(width), np.arange(width))
    within = np.where(gaps >= 0, powers[np.abs(gaps)], 0.0)
    sums = np.empty(a.shape)
    carry = None
    for stop in range(order, 0, -width):
        start = max(stop - width, 0)
        block = a[:, start:stop] @ within[: stop - start, : stop - start]
        if carry is not None:
            block += np.outer(carry, powers[stop - start : 0 : -1])
        sums[:, start:stop] = block
        carry = block[:, 0]
    return sums


def _dc_diagonals(term: DiagonalCorrelated, order: int) -> tuple[np.ndarray, np.ndarray]:
    """``d`` and ``s`` of the DC factor ``K = scale (D U S)(D U S)'``.

    ``D = diag(d)`` with ``d_i = decay^(i/2)``, ``U[i, j] = c^(i-j)`` for
    ``i >= j`` (``c`` the correlation) and ``S = diag(s)`` with ``s_0 = 1``,
    ``s_j = sqrt(1 - c^2)``: ``U S S U'`` is the Toeplitz matrix ``c^|i-j|``.
    """
    half = term.decay ** (np.arange(order, dtype=float) / 2.0)
    weights = np.full(order, math.sqrt(1.0 - term.correlation**2))
    weights[0] = 1.0
    return half, weights


def _resonant_factor(term: ResonantPole, order: int) -> np.ndarray:
    """``L`` (``order`` x 2) with ``K = L L'``: ``k(i,j) = v1_i v1_j + v2_i v2_j``."""
    i = np.arange(order, dtype=float)
    envelope = term.decay ** (i / 2.0)
    return np.column_stack(
        (
            term.sigma1 * envelope * np.cos(term.frequency * i),
            term.sigma2 * envelope * np.sin(term.frequency * i),
        )
    )


def _terms(spec: KernelSpec) -> tuple:
    return spec.terms if isinstance(spec, KernelSum) else (spec,)


def _term_gram(phi: np.ndarray, term: KernelSpec) -> np.ndarray:
    """``Phi K_term Phi'`` for one kernel term (``Phi`` is M x P).

    No P x P kernel matrix is formed for terms with a structured factor
    ``K = L L'``; the Gram is then ``(Phi L)(Phi L)'``:

    * DC: ``Phi D U`` is a first-order recursion over the columns of
      ``Phi D`` (:func:`_ar1_suffix_sums`), O(M P), so the Gram costs one
      O(M^2 P) product.  It is ``scale`` times the unit-scale Gram, which the
      tuner caches.
    * Resonant pole: ``L`` has two columns, so the Gram costs O(M P + M^2).
    * Tikhonov and stable spline: the dense kernel matrix, O(M P^2 + M^2 P).
    """
    order = phi.shape[1]
    if isinstance(term, DiagonalCorrelated):
        half, weights = _dc_diagonals(term, order)
        factored = _ar1_suffix_sums(phi * half, term.correlation)
        factored *= weights
        return term.scale * (factored @ factored.T)
    if isinstance(term, ResonantPole):
        factored = phi @ _resonant_factor(term, order)
        return factored @ factored.T
    return phi @ (build_kernel_matrix(term, order).entries @ phi.T)


def _output_gram(phi: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """``Phi K Phi'`` accumulated over the terms of ``spec`` in order; a new array."""
    terms = _terms(spec)
    gram = _term_gram(phi, terms[0])
    for term in terms[1:]:
        gram += _term_gram(phi, term)
    return gram


def _kernel_times(spec: KernelSpec, v: np.ndarray) -> np.ndarray:
    """``K v`` from the same factors as :func:`_term_gram`.

    For a DC term ``L' D v`` is the recursion of :func:`_term_gram` and
    ``L x`` the same recursion run forward (on the reversed vector).
    """
    order = v.shape[0]
    total = np.zeros(order)
    for term in _terms(spec):
        if isinstance(term, DiagonalCorrelated):
            half, weights = _dc_diagonals(term, order)
            x = weights * _ar1_suffix_sums((half * v)[None, :], term.correlation)[0]
            lx = _ar1_suffix_sums((weights * x)[None, ::-1], term.correlation)[0, ::-1]
            total += term.scale * half * lx
        elif isinstance(term, ResonantPole):
            factor = _resonant_factor(term, order)
            total += factor @ (factor.T @ v)
        else:
            total += build_kernel_matrix(term, order).entries @ v
    return total


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


def _shifted_cholesky(gram: np.ndarray, gamma: float) -> np.ndarray:
    """Lower Cholesky factor of ``gram + gamma I``.

    Adds ``gamma`` to the diagonal of ``gram`` in place, so callers pass a
    Gram they own.  Only the lower triangle of the returned factor is
    meaningful.  Raises :class:`NumericalError` with diagnostics when the
    shifted Gram is not positive definite in floating point or holds
    non-finite entries.
    """
    gram[np.diag_indices_from(gram)] += gamma
    try:
        # skipping the finite scan matters because hyperparameter search
        # factorizes thousands of these; LAPACK factors inf/NaN entries
        # without complaint, so non-finite input is caught on the factor's
        # diagonal below, which any non-finite lower-triangle entry reaches
        lower, _ = scipy.linalg.cho_factor(gram, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise NumericalError(
            f"Cholesky factorization of the {gram.shape[0]}x{gram.shape[0]} "
            f"regularized Gram matrix failed: {exc}",
            diagnostics=_failure_diagnostics(gram, gamma),
        ) from exc
    if not np.all(np.isfinite(np.diagonal(lower))):
        raise NumericalError(
            f"Cholesky factor of the {gram.shape[0]}x{gram.shape[0]} "
            f"regularized Gram matrix is not finite",
            diagnostics=_failure_diagnostics(gram, gamma),
        )
    return lower


def fit_with_evidence(problem: RegularizedProblem) -> tuple[FirModel, float]:
    """The regularized model and its evidence from one Gram and one Cholesky factor.

    Returns what :func:`regularized_fir` and :func:`marginal_likelihood`
    return, bit for bit, for one factorization instead of two: the evidence
    reuses the factor of ``Phi K Phi' + gamma I`` that the solve needs.
    """
    phi = problem.phi.entries
    y = problem.y_l.samples
    shifted = _output_gram(phi, problem.kernel)
    lower = _shifted_cholesky(shifted, problem.gamma)
    factor = (lower, True)
    z = scipy.linalg.cho_solve(factor, y)
    # refinement recovers accuracy lost to the O(1/gamma) conditioning
    y_norm = float(np.linalg.norm(y))
    for _ in range(3):
        residual = y - shifted @ z
        if np.linalg.norm(residual) <= 1e-13 * y_norm:
            break
        z = z + scipy.linalg.cho_solve(factor, residual)
    theta = _kernel_times(problem.kernel, phi.T @ z)
    return FirModel(theta=theta, period=problem.y_l.fast_period), _evidence_from_factor(lower, y)


def regularized_fir(problem: RegularizedProblem) -> FirModel:
    """Solve ``theta = K Phi' (Phi K Phi' + gamma I)^{-1} y_l``.

    Defined for every order ``P`` in ``[1, N]`` and any input, including
    ``P >= M`` and zero-order-hold excitations.  The inner solve uses a
    Cholesky factorization plus iterative refinement so the linear-system
    residual stays near machine precision even for tiny ``gamma``.  The Gram
    and ``K Phi' z`` come from the kernel terms' factors (:func:`_term_gram`).
    A caller that also needs the evidence gets both from one factorization
    with :func:`fit_with_evidence`.
    """
    return fit_with_evidence(problem)[0]


def marginal_likelihood(
    phi: RegressorMatrix,
    y_l: SlowSignal,
    kernel: KernelSpec,
    gamma: float,
) -> float:
    """Evidence objective ``y'(Phi K Phi' + gamma I)^{-1} y + log det(Phi K Phi' + gamma I)``.

    Lower is better.  A single Cholesky factorization provides both terms: the
    quadratic form via a triangular solve and the log-determinant as twice the
    sum of the log-diagonal.  The ``gamma I`` shift is included inside the
    log-determinant so the objective stays finite for rank-deficient kernels.
    A caller that also needs the model gets both from one factorization with
    :func:`fit_with_evidence`.
    """
    if not (np.isfinite(gamma) and gamma > 0):
        raise ValueError(f"gamma must be positive, got {gamma}")
    return _evidence_from_gram(_output_gram(phi.entries, kernel), y_l.samples, gamma)


def _evidence_from_gram(gram: np.ndarray, y: np.ndarray, gamma: float) -> float:
    """Evidence at ``gram + gamma I``; shifts ``gram`` in place."""
    return _evidence_from_factor(_shifted_cholesky(gram, gamma), y)


def _evidence_from_factor(lower: np.ndarray, y: np.ndarray) -> float:
    """``w'w + 2 sum log diag L`` with ``w = L^{-1} y``, for the lower factor ``L``."""
    w = scipy.linalg.solve_triangular(lower, y, lower=True, check_finite=False)
    return float(w @ w + 2.0 * np.sum(np.log(np.diagonal(lower))))


def _scale_free(term: KernelSpec) -> tuple[KernelSpec, float]:
    """``(unit, scale)`` with ``Phi K_term Phi' = scale * Phi K_unit Phi'``.

    A DC Gram is linear in the DC scale (:func:`_term_gram` computes it as
    ``scale`` times the unit-scale Gram, so both give the same bits).
    """
    if isinstance(term, DiagonalCorrelated):
        return replace(term, scale=1.0), term.scale
    return term, 1.0


class _Rest(NamedTuple):
    """``R = gamma I`` plus every kernel term's Gram but one, factored once
    per coordinate so that probes of that one term need no factorization."""

    index: int  # the term left out
    lower: np.ndarray  # Cholesky factor of R (lower triangle)
    alpha: np.ndarray  # lower^{-1} y
    energy: float  # alpha'alpha
    logdet: float  # log det R
    bound: float  # the largest diagonal entry of R - gamma I


# the rank-2 quadratic form is a difference alpha'alpha - beta'C^{-1}beta; a
# probe where it falls below this share of alpha'alpha is factorized instead
_CANCELLATION = 1e-6


def _rank2_evidence(rest: _Rest, w: np.ndarray) -> float:
    """Evidence at ``R + W W'`` for an M x 2 ``W``, in O(M^2).

    With ``V = lower^{-1} W``, ``C = I + V'V`` and ``beta = V' alpha``,
    Woodbury and the determinant lemma give
    ``alpha'alpha - beta' C^{-1} beta + log det R + log det C``.  Returns NaN
    where an entry of the full Gram could overflow, an intermediate is not
    finite, or the difference cancels more than six digits; the caller then
    factorizes the full Gram instead.
    """
    top = float(np.max(np.abs(w)))
    if not math.isfinite(rest.bound + 2.0 * top * top):
        return math.nan
    v = scipy.linalg.solve_triangular(rest.lower, w, lower=True, check_finite=False)
    (a, b), (_, d) = (v.T @ v).tolist()
    beta1, beta2 = (v.T @ rest.alpha).tolist()
    det = (1.0 + a) * (1.0 + d) - b * b
    if not det > 0.0:  # also NaN
        return math.nan
    quad = rest.energy - ((1.0 + d) * beta1 * beta1 - 2.0 * b * beta1 * beta2 + (1.0 + a) * beta2 * beta2) / det
    if not quad > _CANCELLATION * rest.energy:
        # digits lost to the difference; a nearly singular rest does this
        return math.nan
    return quad + rest.logdet + math.log(det)


@dataclass(frozen=True)
class HyperparameterVector:
    """Named hyperparameter values with per-entry closed search intervals.

    Keys address kernel fields by path (``"decay"``, ``"terms.1.frequency"``,
    ...) plus the optional ``"gamma"``.  Every value must lie inside its
    bounds, and bounds must stay inside the kernel's own parameter ranges.
    """

    values: Mapping[str, float]
    bounds: Mapping[str, tuple[float, float]]

    def __post_init__(self):
        values = dict(self.values)
        bounds = {k: (float(lo), float(hi)) for k, (lo, hi) in dict(self.bounds).items()}
        if set(values) != set(bounds):
            raise ValueError(
                f"values and bounds must name the same parameters, "
                f"got {sorted(values)} vs {sorted(bounds)}"
            )
        for name, value in values.items():
            lo, hi = bounds[name]
            if not (lo <= value <= hi):
                raise ValueError(f"{name}={value} is outside its bounds [{lo}, {hi}]")
            if not lo < hi:
                raise ValueError(f"{name} has an empty interval [{lo}, {hi}]")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "bounds", bounds)


def apply_hyperparameters(spec: KernelSpec, values: Mapping[str, float]) -> KernelSpec:
    """Return ``spec`` with the named fields replaced.

    Paths are plain field names, or ``terms.<index>.<field>`` inside a
    :class:`~beyondnyq.kernels.KernelSum`.  ``"gamma"`` is not a kernel field
    and is rejected here; callers strip it first.
    """
    direct: dict[str, float] = {}
    nested: dict[int, dict[str, float]] = {}
    for path, value in values.items():
        parts = path.split(".")
        if len(parts) == 1:
            direct[path] = float(value)
        elif len(parts) == 3 and parts[0] == "terms":
            nested.setdefault(int(parts[1]), {})[parts[2]] = float(value)
        else:
            raise ValueError(f"malformed hyperparameter path {path!r}")
    if nested and not isinstance(spec, KernelSum):
        raise ValueError("terms.<i>.<field> paths need a kernel sum")
    if isinstance(spec, KernelSum):
        if direct:
            raise ValueError(f"a kernel sum has no direct fields, got {sorted(direct)}")
        terms = list(spec.terms)
        for index, fields in nested.items():
            if not 0 <= index < len(terms):
                raise ValueError(f"term index {index} out of range for {len(terms)} terms")
            terms[index] = replace(terms[index], **fields)
        return KernelSum(terms=tuple(terms))
    return replace(spec, **direct)


def default_bounds(name: str, value: float, omega_max: float = 2.0 * math.pi) -> tuple[float, float]:
    """Reasonable search interval around an initial hyperparameter value.

    The regularization weight gets a wide absolute range (it must absorb any
    mismatch between the kernel's scale and the data's); other scale-type
    parameters get two decades each way; decay values in (0, 1) move between
    double and one sixteenth of the initial rate (priors that die too fast
    are far more harmful than slow ones); frequencies get a +/-30% window
    clipped to ``[0, omega_max)``.
    """
    field = name.rsplit(".", 1)[-1]
    if field == "gamma":
        return (1e-9, 1e3)
    if field in ("scale", "sigma1", "sigma2"):
        return (value * 1e-2, value * 1e2)
    if field in ("decay", "correlation"):
        return (value**2, min(value**0.0625, 1.0 - 1e-9))
    if field == "frequency":
        return (0.7 * value, min(1.3 * value, 0.999 * omega_max))
    raise ValueError(f"no default bounds rule for hyperparameter {name!r}")


_LOG_SPACE_FIELDS = ("gamma", "scale", "sigma1", "sigma2")
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _to_search_space(name: str, x: float) -> float:
    return math.log(x) if name.rsplit(".", 1)[-1] in _LOG_SPACE_FIELDS else x


def _from_search_space(name: str, t: float) -> float:
    return math.exp(t) if name.rsplit(".", 1)[-1] in _LOG_SPACE_FIELDS else t


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

    Scale-type parameters (``gamma``, ``scale``) are searched in log-space, the
    rest in their bounded linear space.  Candidates are accepted only when they
    improve the objective, so the result is never worse than ``eta0``; with
    ``budget=1`` the start point is returned unchanged.  The sweep order is
    fixed (sorted parameter names), making the search deterministic.

    A point whose shifted Gram cannot be factorized (singular or non-finite
    in floating point, a :class:`NumericalError` in :func:`marginal_likelihood`)
    scores ``+inf``: a probe there is never accepted and the search goes on.
    If the start point's objective is not finite, :class:`InvalidStartError`
    is raised, chained (``__cause__``) to the factorization's
    :class:`NumericalError` when that was the reason.

    Cost per probe, for M outputs and order P: the other terms' Grams at the
    current best point are cached (a DC term's at unit scale), so a probe of
    ``gamma`` or of a DC ``scale`` is one O(M^3) factorization, and a DC
    ``decay`` probe adds its O(M^2 P) Gram.  A probe of a resonant-pole field
    costs O(M P + M^2): a rank-2 update (Woodbury and the determinant lemma)
    on a factorization of ``gamma I`` plus the other terms, made once per
    coordinate.  Such a probe is scored by the full factorization instead
    where that rest cannot be factorized, where the full Gram could overflow,
    or where the update's value is not finite or lost six digits to
    cancellation, so it scores ``+inf`` where a non-finite Gram makes
    :func:`marginal_likelihood` raise.  The best probe of a resonant
    coordinate is scored again by the full factorization before it is
    accepted: every accepted objective value is the one
    :func:`marginal_likelihood` returns.

    ``gamma`` is tuned only if present in ``eta0``; otherwise the fixed value
    passed as ``gamma`` is used throughout.  ``on_evaluation`` observes every
    objective evaluation (for trace files), including ``inf`` ones; the
    second scoring of a coordinate's best probe is not a new evaluation.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")

    entries, y = phi.entries, y_l.samples
    # Phi K_t Phi' per term index at the current best point, DC terms at unit
    # scale: every probe of a coordinate changes one term, so the others are
    # reused, and a DC scale probe is one multiply
    best_pieces: dict[int, tuple[KernelSpec, np.ndarray]] = {}
    # the latest factorization failure; a failed start chains it into InvalidStartError
    failure: NumericalError | None = None

    def point(vals: dict[str, float]) -> tuple[float, tuple]:
        spec = apply_hyperparameters(template, {k: v for k, v in vals.items() if k != "gamma"})
        return vals.get("gamma", gamma), _terms(spec)

    def remember_best() -> None:
        for index, term in enumerate(point(best)[1]):
            unit, _ = _scale_free(term)
            cached = best_pieces.get(index)
            if cached is None or cached[0] != unit:
                best_pieces[index] = (unit, _term_gram(entries, unit))

    def summed(terms: tuple, skip: int | None = None) -> np.ndarray:
        """``Phi K Phi'`` over ``terms`` but ``skip``, cached pieces where
        they match; summed in term order, so it has ``_output_gram``'s bits."""
        gram = np.zeros((len(y), len(y)))
        for index, term in enumerate(terms):
            if index != skip:
                unit, scale = _scale_free(term)
                cached = best_pieces.get(index)
                piece = cached[1] if cached is not None and cached[0] == unit else _term_gram(entries, unit)
                gram += scale * piece
        return gram

    def rest_for(name: str) -> _Rest | None:
        """The factored rest when coordinate ``name`` moves a resonant term;
        None for other coordinates and when the rest cannot be factorized."""
        if name == "gamma":
            return None
        index = int(name.split(".")[1]) if name.startswith("terms.") else 0
        g, terms = point(best)
        if not isinstance(terms[index], ResonantPole):
            return None
        rest = summed(terms, skip=index)
        # the pieces are Grams, so |entry (i, j)| <= (entry (i, i) + entry (j, j)) / 2
        # for each: no partial sum of the full Gram exceeds this plus 2 max|W|^2
        bound = float(np.max(np.diagonal(rest)))
        try:
            lower = _shifted_cholesky(rest, g)
        except NumericalError:
            return None
        alpha = scipy.linalg.solve_triangular(lower, y, lower=True, check_finite=False)
        logdet = 2.0 * float(np.sum(np.log(np.diagonal(lower))))
        return _Rest(index, lower, alpha, float(alpha @ alpha), logdet, bound)

    def factorized(vals: dict[str, float]) -> float:
        """The evidence as :func:`marginal_likelihood` computes it, bit for bit."""
        nonlocal failure
        g, terms = point(vals)
        try:
            return _evidence_from_gram(summed(terms), y, g)
        except NumericalError as exc:
            # the exact objective is +inf or beyond double range here; the
            # search must treat it as worse than anything, not abort
            failure = exc
            return math.inf

    def objective(vals: dict[str, float], rest: _Rest | None = None) -> float:
        value = math.nan
        if rest is not None:
            term = point(vals)[1][rest.index]
            value = _rank2_evidence(rest, entries @ _resonant_factor(term, entries.shape[1]))
        if not math.isfinite(value):
            value = factorized(vals)
        if on_evaluation is not None:
            on_evaluation(dict(vals), value)
        return value

    names = sorted(eta0.values)
    # fail fast on bounds that violate kernel parameter ranges
    for name in names:
        if name == "gamma":
            continue
        for endpoint in eta0.bounds[name]:
            apply_hyperparameters(template, {name: endpoint})

    best = dict(eta0.values)
    remember_best()
    best_value = objective(best)
    evaluations = 1
    if not math.isfinite(best_value):
        raise InvalidStartError(
            f"objective is {best_value} at the initial hyperparameters"
        ) from failure

    golden_steps = 6
    while evaluations < budget:
        improved = False
        for name in names:
            if evaluations >= budget:
                break
            lo, hi = eta0.bounds[name]
            a = _to_search_space(name, lo)
            b = _to_search_space(name, hi)
            remember_best()
            rest = rest_for(name)
            # resonance frequencies carve narrow evidence dips, so they get a
            # dense scan; a resonant probe costs O(M P + M^2) through the
            # rank-2 update on the rest's factor, against O(M^3) for a
            # factorization
            grid_points = 25 if name.rsplit(".", 1)[-1] == "frequency" else 7
            coord_best_x = best[name]
            coord_best_f = best_value

            def probe(t: float) -> float:
                nonlocal evaluations, coord_best_x, coord_best_f
                x = min(max(_from_search_space(name, t), lo), hi)
                f = objective({**best, name: x}, rest)
                evaluations += 1
                if f < coord_best_f:
                    coord_best_x, coord_best_f = x, f
                return f

            # coarse uniform scan first: the objective can be multimodal in a
            # coordinate (resonance frequencies especially), and pure
            # golden-section would slide into whichever basin touches the start
            grid = [a + (b - a) * k / (grid_points - 1) for k in range(grid_points)]
            values = []
            for t in grid:
                if evaluations >= budget:
                    break
                values.append(probe(t))
            if values:
                pick = int(np.argmin(values))
                ga = grid[max(pick - 1, 0)]
                gb = grid[min(pick + 1, len(values) - 1)]
                x1 = gb - _GOLDEN * (gb - ga)
                x2 = ga + _GOLDEN * (gb - ga)
                f1 = probe(x1) if evaluations < budget else math.inf
                f2 = probe(x2) if evaluations < budget else math.inf
                steps = 0
                while evaluations < budget and steps < golden_steps:
                    if f1 > f2:
                        ga, x1, f1 = x1, x2, f2
                        x2 = ga + _GOLDEN * (gb - ga)
                        f2 = probe(x2)
                    else:
                        gb, x2, f2 = x2, x1, f1
                        x1 = gb - _GOLDEN * (gb - ga)
                        f1 = probe(x1)
                    steps += 1
            if rest is not None and coord_best_f < best_value:
                # accept on the value marginal_likelihood gives, not the
                # rank-2 one: they differ by rounding, and where the full
                # Gram is too ill-conditioned to factorize, by +inf
                coord_best_f = factorized({**best, name: coord_best_x})
            if coord_best_f < best_value - 1e-9 * abs(best_value):
                best[name] = coord_best_x
                best_value = coord_best_f
                improved = True
            elif coord_best_f < best_value:
                best[name] = coord_best_x
                best_value = coord_best_f
        if not improved:
            break

    if on_evaluation is not None:
        # terminal trace entry: the accepted point and its objective
        on_evaluation(dict(best), best_value)
    return HyperparameterVector(values=best, bounds=eta0.bounds)


@dataclass(frozen=True)
class FitReport:
    """Summary of one fitted model against reference data."""

    model: FirModel
    gof: float
    rmse: float
    marginal_likelihood: float

    def __post_init__(self):
        if self.gof > 100.0:
            raise ValueError(f"goodness of fit cannot exceed 100, got {self.gof}")


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
    payload = {"period_s": model.period, "theta": [float(v) for v in model.theta]}
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def load_model(path: str | Path) -> FirModel:
    try:
        payload = json.loads(Path(path).read_text())
        return FirModel(theta=np.asarray(payload["theta"], dtype=float), period=float(payload["period_s"]))
    except (KeyError, TypeError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: not a valid model file ({exc})") from exc
