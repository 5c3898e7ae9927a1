"""Regularization kernels for FIR coefficient priors.

Each kernel spec describes the prior covariance ``K[i, j] = k(i, j)`` of the
impulse-response coefficients:

* :class:`Tikhonov` -- identity (plain ridge shrinkage).
* :class:`DiagonalCorrelated` -- ``scale * decay^((i+j)/2) * correlation^|i-j|``,
  exponentially decaying coefficients with neighbor correlation.
* :class:`StableSpline` -- ``scale * (decay^(i+j+max(i,j))/2 - decay^(3 max(i,j))/6)``,
  smooth exponentially decaying responses.
* :class:`ResonantPole` -- ``decay^((i+j)/2) * (g1 cos(w (i-j)) + g2 cos(w (i+j)))``
  with ``g1 = (sigma1^2 + sigma2^2)/2`` and ``g2 = (sigma1^2 - sigma2^2)/2``,
  encoding an oscillation at normalized frequency ``w`` (rad/sample).  This is
  the natural prior for lightly damped resonances, which purely decaying
  kernels like :class:`DiagonalCorrelated` cannot represent well.
* :class:`KernelSum` -- sum of the above, e.g. a decaying base plus one
  resonant term per expected pole pair.

Each kernel class writes its formula once, as the exact factor ``K = L L'``
with its scale inside (``width``, ``factor``, ``factor_times``): P columns per
DC or Tikhonov term, 2P per stable spline, 2 per resonant pole.  It also owns
its tunables and its JSON type tag.  A fit of M outputs solves in the feature
space iff these n columns number fewer than M.

Dual fits take ``Phi L`` from ``regressor_factor``: each term's Gram
``Phi K Phi'``, and a resonant probe's rank-2 update.  A DC term and a
resonant pole are first-order recursions over the lag, which the regressor
applies to its samples (:meth:`~beyondnyq.regressor.RegressorMatrix.filtered`):
O(N + M P) for a DC term and O(N + M) for a resonant pole.  The other terms
take ``factor`` of the regressor's entries.  The feature space never forms
``Phi L``: every block ``L_s' G L_t`` applies the terms' ``factor`` to ``G =
Phi'Phi``, O(P^2) for a DC term or a resonant pole, so a kernel of resonant
poles alone builds the P x P ``G`` even at P > M.

Sums of these kernels stay positive semidefinite; resonant-pole kernels are
rank-2 Gram matrices and may be singular, which is why estimation never
inverts ``K`` (see :mod:`beyondnyq.estimator`).

Decay-type hyperparameters are stored as the evaluated value in (0, 1); the
JSON layer also accepts ``{"rate": c, "period_s": T}`` meaning ``exp(-c*T)``,
and frequencies accept ``{"freq_hz": f, "period_s": T}`` meaning ``2*pi*f*T``.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields, replace
from typing import ClassVar, Union

import numpy as np

from .regressor import _first_order
from .signals import _integer, _known_keys, _number

__all__ = [
    "Tikhonov",
    "DiagonalCorrelated",
    "StableSpline",
    "ResonantPole",
    "KernelSum",
    "KernelSpec",
    "build_kernel_matrix",
    "kernel_spec_to_json",
    "kernel_spec_from_json",
]


def _check_range(kernel, name: str, lo: float, hi: float, *, lo_open=False, hi_open=True) -> None:
    """Store ``kernel.name`` as a float in the interval, else raise ``ValueError`` naming it."""
    value = _number(name, getattr(kernel, name))
    ok_lo = value > lo if lo_open else value >= lo
    ok_hi = value < hi if hi_open else value <= hi
    if not (math.isfinite(value) and ok_lo and ok_hi):
        lo_b = "(" if lo_open else "["
        hi_b = ")" if hi_open else "]"
        raise ValueError(f"{name} must be in {lo_b}{lo}, {hi}{hi_b}, got {value}")
    object.__setattr__(kernel, name, value)


class _Kernel:
    """Defaults for a kernel term: a P-column factor, no separable scale, no
    tunables, and its dataclass fields as JSON."""

    tunables: ClassVar[tuple[str, ...]] = ()

    def width(self, order: int) -> int:
        """Columns of the structured factor ``L`` of ``K = L L'``."""
        return order

    def unit(self) -> tuple[_Kernel, float]:
        """``(unit, scale)`` with ``K = scale * K_unit``."""
        return self, 1.0

    def regressor_factor(self, phi) -> np.ndarray:
        """``Phi L`` for a :class:`~beyondnyq.regressor.RegressorMatrix`
        ``phi``: :meth:`factor` of its entries.  DC and resonant terms
        compute it from the regressor's samples instead."""
        return self.factor(phi.entries)

    def to_json(self) -> dict:
        return {"type": self.type, **{f.name: getattr(self, f.name) for f in fields(self)}}


@dataclass(frozen=True)
class Tikhonov(_Kernel):
    """Identity kernel: ``k(i, j) = 1`` if ``i == j`` else 0, so ``L = I``."""

    type: ClassVar[str] = "tikhonov"

    def factor(self, phi: np.ndarray) -> np.ndarray:
        return phi

    def factor_times(self, w: np.ndarray, order: int) -> np.ndarray:
        return w


@dataclass(frozen=True)
class DiagonalCorrelated(_Kernel):
    scale: float = 1.0
    decay: float = 0.9
    correlation: float = 0.5
    type: ClassVar[str] = "dc"
    tunables: ClassVar[tuple[str, ...]] = ("scale", "decay")

    def __post_init__(self):
        _check_range(self, "scale", 0.0, math.inf, lo_open=True)
        _check_range(self, "decay", 0.0, 1.0)
        _check_range(self, "correlation", -1.0, 1.0, lo_open=True)

    def unit(self) -> tuple[DiagonalCorrelated, float]:
        """The factor is ``sqrt(scale)`` times the unit-scale factor."""
        return replace(self, scale=1.0), self.scale

    def _diagonals(self, order: int) -> tuple[np.ndarray, np.ndarray]:
        """``d`` and ``s`` of the factor ``K = (D U S)(D U S)'``.

        ``D = diag(d)`` with ``d_i = sqrt(scale) decay^(i/2)``, ``U[i, j] =
        c^(i-j)`` for ``i >= j`` (``c`` the correlation) and ``S = diag(s)``
        with ``s_0 = 1``, ``s_j = sqrt(1 - c^2)``: ``U S S U'`` is the
        Toeplitz matrix ``c^|i-j|``.
        """
        half = math.sqrt(self.scale) * self.decay ** (np.arange(order, dtype=float) / 2.0)
        weights = np.full(order, math.sqrt(1.0 - self.correlation**2))
        weights[0] = 1.0
        return half, weights

    def factor(self, phi: np.ndarray) -> np.ndarray:
        """``Phi D U S``: the backward first-order recursion ``g_j = x_j + c
        g_(j+1)`` over the columns of ``x = Phi D``, one solve for every row,
        O(M P)."""
        half, weights = self._diagonals(phi.shape[1])
        factored = _first_order(self.correlation, (phi * half).T, uplo="U").T
        factored *= weights
        return factored

    def regressor_factor(self, phi) -> np.ndarray:
        """``Phi D U S`` from the regressor's samples, O(N + M P): entry ``(m,
        j)`` is ``d_j s_j sum_{i >= j} rho^(i-j) u(mF - i)`` with the pole ``rho
        = c sqrt(decay)`` (:meth:`RegressorMatrix.filtered`)."""
        half, weights = self._diagonals(phi.order)
        pole = np.longdouble(self.correlation) * np.sqrt(np.longdouble(self.decay))
        return phi.filtered(pole, half * weights)

    def factor_times(self, w: np.ndarray, order: int) -> np.ndarray:
        """``D U S w``: ``U x`` is the forward recursion ``x_i + c (U x)_(i-1)``."""
        half, weights = self._diagonals(order)
        return half * _first_order(self.correlation, weights * w)


@dataclass(frozen=True)
class StableSpline(_Kernel):
    scale: float = 1.0
    decay: float = 0.9
    type: ClassVar[str] = "ss"

    def __post_init__(self):
        _check_range(self, "scale", 0.0, math.inf, lo_open=True)
        _check_range(self, "decay", 0.0, 1.0, lo_open=True)

    def width(self, order: int) -> int:
        return 2 * order

    def _gaps(self, order: int) -> tuple[np.ndarray, ...]:
        """``d_l = s_l - s_{l+1}`` for the times ``s_l = decay^l`` (``d_{P-1} = s_{P-1}``),
        and ``sqrt(scale)`` times ``sqrt(d_l)``, ``d_l^(3/2) / 2`` and ``d_l^(3/2) / sqrt(12)``."""
        times = self.decay ** np.arange(order, dtype=float)
        gaps = times.copy()
        gaps[:-1] -= times[1:]
        root = math.sqrt(self.scale) * np.sqrt(gaps)
        return gaps, root, root * gaps / 2.0, root * gaps / math.sqrt(12.0)

    def factor(self, phi: np.ndarray) -> np.ndarray:
        """``Phi L`` for ``K = L L'`` with 2P columns, every entry of ``L`` ``>= 0``.

        ``k(i, j)`` is the covariance of integrated Brownian motion at the
        times ``s_i`` and ``s_j``.  Split at the ``s_l``, gap ``l`` adds on the
        rows ``i <= l`` the columns ``l`` and ``P + l``:
        ``sqrt(d_l) (s_i - s_l) + d_l^(3/2) / 2`` and ``d_l^(3/2) / sqrt(12)``.
        So ``Phi L`` is two prefix sums, O(M P), with no difference of large
        terms: ``S_l = sum_{i <= l} Phi_i`` and
        ``R_l = sum_{i <= l} Phi_i (s_i - s_l) = R_{l-1} + d_{l-1} S_{l-1}``.
        """
        gaps, root, half, twelfth = self._gaps(phi.shape[1])
        sums = np.cumsum(phi, axis=1)
        ramps = np.zeros(phi.shape)
        np.cumsum(sums[:, :-1] * gaps[:-1], axis=1, out=ramps[:, 1:])
        return np.hstack((root * ramps + half * sums, twelfth * sums))

    def factor_times(self, w: np.ndarray, order: int) -> np.ndarray:
        """``L w``: :meth:`factor`'s prefix sums run backward."""
        gaps, root, half, twelfth = self._gaps(order)
        slopes = np.cumsum((root * w[:order])[::-1])[::-1]
        total = np.cumsum((half * w[:order] + twelfth * w[order:])[::-1])[::-1]
        # with a = root * w[:P]: sum_{l >= i} (s_i - s_l) a_l = sum_{k >= i} d_k sum_{l > k} a_l
        total[:-1] += np.cumsum((gaps[:-1] * slopes[1:])[::-1])[::-1]
        return total


@dataclass(frozen=True)
class ResonantPole(_Kernel):
    decay: float
    frequency: float
    sigma1: float = 1.0
    sigma2: float = 1.0
    type: ClassVar[str] = "pk"
    tunables: ClassVar[tuple[str, ...]] = ("frequency", "decay", "sigma1", "sigma2")

    def __post_init__(self):
        _check_range(self, "decay", 0.0, 1.0, lo_open=True)
        _check_range(self, "frequency", 0.0, 2.0 * math.pi)
        _check_range(self, "sigma1", 0.0, math.inf)
        _check_range(self, "sigma2", 0.0, math.inf)

    def width(self, order: int) -> int:
        return 2

    def _columns(self, order: int) -> np.ndarray:
        """``L`` (``order`` x 2) with ``K = L L'``: ``k(i,j) = v1_i v1_j + v2_i v2_j``."""
        i = np.arange(order, dtype=float)
        envelope = self.decay ** (i / 2.0)
        return np.column_stack(
            (
                self.sigma1 * envelope * np.cos(self.frequency * i),
                self.sigma2 * envelope * np.sin(self.frequency * i),
            )
        )

    def factor(self, phi: np.ndarray) -> np.ndarray:
        return phi @ self._columns(phi.shape[1])

    def regressor_factor(self, phi) -> np.ndarray:
        """``Phi L`` from the regressor's samples, O(N + M): row m is ``sigma1
        Re s_m`` and ``sigma2 Im s_m`` for ``s_m = sum_{i < P} rho^i u(mF - i)``
        with the complex pole ``rho = sqrt(decay) e^(j w)``
        (:meth:`RegressorMatrix.filtered`)."""
        radius, angle = np.sqrt(np.longdouble(self.decay)), np.longdouble(self.frequency)
        sums = phi.filtered(radius * (np.cos(angle) + 1j * np.sin(angle)), (1.0,))
        # each complex sum viewed as the pair (Re, Im)
        return np.multiply(sums.view(float), (self.sigma1, self.sigma2))

    def factor_times(self, w: np.ndarray, order: int) -> np.ndarray:
        return self._columns(order) @ w


@dataclass(frozen=True)
class KernelSum:
    terms: tuple
    type: ClassVar[str] = "sum"

    def __post_init__(self):
        flat = []
        for term in self.terms:
            if isinstance(term, KernelSum):
                flat.extend(term.terms)
            else:
                flat.append(term)
        if not flat:
            raise ValueError("a kernel sum needs at least one term")
        object.__setattr__(self, "terms", tuple(flat))

    def to_json(self) -> dict:
        return {"type": self.type, "terms": [term.to_json() for term in self.terms]}


def _terms(spec: KernelSpec) -> tuple:
    return spec.terms if isinstance(spec, KernelSum) else (spec,)


KernelSpec = Union[Tikhonov, DiagonalCorrelated, StableSpline, ResonantPole, KernelSum]

_TYPES = {cls.type: cls for cls in (Tikhonov, DiagonalCorrelated, StableSpline, ResonantPole, KernelSum)}


def build_kernel_matrix(spec: KernelSpec, order: int) -> np.ndarray:
    """The dense ``order x order`` kernel matrix ``K = X X'``, with ``X`` the
    terms' factors ``L_t`` side by side; bitwise symmetric, since numpy forms
    ``X X'`` as one triangle (BLAS ``syrk``) and mirrors it.  No fit, evidence
    or tuner path calls this."""
    identity = np.eye(_integer("order", order))
    x = np.hstack([term.factor(identity) for term in _terms(spec)])
    return x @ x.T


def _field(obj: dict, key: str, context: str):
    if key not in obj:
        raise ValueError(f"{context} needs {key!r}, got {obj!r}")
    return obj[key]


def _per_period(key: str, formula):
    """Parser of a number, or of ``{key: x, "period_s": T}`` meaning ``formula(x, T)``."""

    def parse(name: str, value) -> float:
        if isinstance(value, dict):
            x = _number(f"{name}.{key}", _field(value, key, name))
            return formula(x, _number(f"{name}.period_s", _field(value, "period_s", name)))
        return _number(name, value)

    return parse


def _terms_from_json(name: str, value) -> tuple:
    if not isinstance(value, list):
        raise ValueError(f"kernel type 'sum' needs {name!r} as a list of kernel specs, got {value!r}")
    return tuple(kernel_spec_from_json(term) for term in value)


_decay_from_json = _per_period("rate", lambda rate, period: math.exp(-rate * period))
# how a JSON value becomes a field value; fields not named here are plain numbers
_FIELD_PARSERS = {
    "decay": _decay_from_json,
    "correlation": _decay_from_json,
    "frequency": _per_period("freq_hz", lambda hertz, period: 2.0 * math.pi * hertz * period),
    "terms": _terms_from_json,
}


def kernel_spec_from_json(obj: dict) -> KernelSpec:
    """Parse the kernel JSON schema: ``{"type": ..., <parameters>}``.

    The parameters are the type's class fields; those with a default may be
    left out.  Raises :class:`ValueError` naming the field for an unknown
    type, an unknown or missing parameter, or a parameter of the wrong shape.
    """
    if not isinstance(obj, dict) or "type" not in obj:
        raise ValueError(f"kernel spec must be an object with a 'type' key, got {obj!r}")
    kind = obj["type"]
    if not (isinstance(kind, str) and kind in _TYPES):
        raise ValueError(f"unknown kernel type {kind!r}; expected one of {sorted(_TYPES)}")
    cls = _TYPES[kind]
    params = fields(cls)
    _known_keys(f"parameters for kernel type {kind!r}", obj, {f.name for f in params} | {"type"})
    values = {}
    for param in params:
        if param.name in obj:
            values[param.name] = _FIELD_PARSERS.get(param.name, _number)(param.name, obj[param.name])
        elif param.default is MISSING:
            raise ValueError(f"kernel type {kind!r} needs {param.name!r}, got {obj!r}")
    return cls(**values)


def kernel_spec_to_json(spec: KernelSpec) -> dict:
    return spec.to_json()
