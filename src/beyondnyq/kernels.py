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

Sums of these kernels stay positive semidefinite; resonant-pole kernels are
rank-2 Gram matrices and may be singular, which is why estimation never
inverts ``K`` (see :mod:`beyondnyq.estimator`).

Decay-type hyperparameters are stored as the evaluated value in (0, 1); the
JSON layer also accepts ``{"rate": c, "period_s": T}`` meaning ``exp(-c*T)``,
and frequencies accept ``{"freq_hz": f, "period_s": T}`` meaning ``2*pi*f*T``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "Tikhonov",
    "DiagonalCorrelated",
    "StableSpline",
    "ResonantPole",
    "KernelSum",
    "KernelSpec",
    "KernelMatrix",
    "PsdReport",
    "kernel_entry",
    "build_kernel_matrix",
    "validate_psd",
    "kernel_spec_to_json",
    "kernel_spec_from_json",
]


def _check_range(name: str, value: float, lo: float, hi: float, *, lo_open=False, hi_open=True):
    ok_lo = value > lo if lo_open else value >= lo
    ok_hi = value < hi if hi_open else value <= hi
    if not (np.isfinite(value) and ok_lo and ok_hi):
        lo_b = "(" if lo_open else "["
        hi_b = ")" if hi_open else "]"
        raise ValueError(f"{name} must be in {lo_b}{lo}, {hi}{hi_b}, got {value}")


@dataclass(frozen=True)
class Tikhonov:
    """Identity kernel: ``k(i, j) = 1`` if ``i == j`` else 0."""


@dataclass(frozen=True)
class DiagonalCorrelated:
    scale: float = 1.0
    decay: float = 0.9
    correlation: float = 0.5

    def __post_init__(self):
        if not (np.isfinite(self.scale) and self.scale > 0):
            raise ValueError(f"scale must be positive, got {self.scale}")
        _check_range("decay", self.decay, 0.0, 1.0)
        _check_range("correlation", self.correlation, -1.0, 1.0, lo_open=True)


@dataclass(frozen=True)
class StableSpline:
    scale: float = 1.0
    decay: float = 0.9

    def __post_init__(self):
        if not (np.isfinite(self.scale) and self.scale > 0):
            raise ValueError(f"scale must be positive, got {self.scale}")
        _check_range("decay", self.decay, 0.0, 1.0, lo_open=True)


@dataclass(frozen=True)
class ResonantPole:
    decay: float
    frequency: float
    sigma1: float = 1.0
    sigma2: float = 1.0

    def __post_init__(self):
        _check_range("decay", self.decay, 0.0, 1.0, lo_open=True)
        _check_range("frequency", self.frequency, 0.0, 2.0 * math.pi)
        if not (np.isfinite(self.sigma1) and self.sigma1 >= 0):
            raise ValueError(f"sigma1 must be nonnegative, got {self.sigma1}")
        if not (np.isfinite(self.sigma2) and self.sigma2 >= 0):
            raise ValueError(f"sigma2 must be nonnegative, got {self.sigma2}")


@dataclass(frozen=True)
class KernelSum:
    terms: tuple

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


KernelSpec = Union[Tikhonov, DiagonalCorrelated, StableSpline, ResonantPole, KernelSum]


def _evaluate(spec: KernelSpec, i, j):
    """Kernel function on (broadcastable) nonnegative indices.

    The formulas are factored so every power has a single index in its
    exponent (e.g. ``decay^((i+j)/2)`` as ``decay^(i/2) * decay^(j/2)``);
    :func:`_kernel_values` exploits this to evaluate whole matrices from
    per-index vectors with bitwise-identical results.
    """
    if isinstance(spec, Tikhonov):
        return np.where(i == j, 1.0, 0.0)
    if isinstance(spec, DiagonalCorrelated):
        half = spec.decay ** (i / 2.0) * spec.decay ** (j / 2.0)
        return spec.scale * half * spec.correlation ** np.abs(j - i)
    if isinstance(spec, StableSpline):
        m = np.maximum(i, j)
        cube = spec.decay**i * spec.decay**j * spec.decay**m
        return spec.scale * (cube / 2.0 - spec.decay ** (3.0 * m) / 6.0)
    if isinstance(spec, ResonantPole):
        g1 = (spec.sigma1**2 + spec.sigma2**2) / 2.0
        g2 = (spec.sigma1**2 - spec.sigma2**2) / 2.0
        envelope = spec.decay ** (i / 2.0) * spec.decay ** (j / 2.0)
        return envelope * (
            g1 * np.cos(spec.frequency * (i - j)) + g2 * np.cos(spec.frequency * (i + j))
        )
    if isinstance(spec, KernelSum):
        return sum(_evaluate(term, i, j) for term in spec.terms)
    raise TypeError(f"not a kernel spec: {spec!r}")


def _kernel_values(spec: KernelSpec, order: int) -> np.ndarray:
    """Dense kernel matrix equal to ``_evaluate`` on the index grid.

    Powers are taken per index (length-P vectors) and spread by outer
    products or difference/maximum indexing, which keeps construction cheap
    for large P.  All sub-expressions are symmetric functions of (i, j), so
    the result is bitwise symmetric.
    """
    idx = np.arange(order, dtype=float)
    if isinstance(spec, Tikhonov):
        return np.eye(order)
    if isinstance(spec, DiagonalCorrelated):
        half = spec.decay ** (idx / 2.0)
        gaps = np.abs(np.arange(order)[:, None] - np.arange(order)[None, :])
        return spec.scale * (half[:, None] * half[None, :]) * (spec.correlation**idx)[gaps]
    if isinstance(spec, StableSpline):
        single = spec.decay**idx
        triple = spec.decay ** (3.0 * idx)
        peak = np.maximum(np.arange(order)[:, None], np.arange(order)[None, :])
        cube = (single[:, None] * single[None, :]) * single[peak]
        return spec.scale * (cube / 2.0 - triple[peak] / 6.0)
    if isinstance(spec, ResonantPole):
        g1 = (spec.sigma1**2 + spec.sigma2**2) / 2.0
        g2 = (spec.sigma1**2 - spec.sigma2**2) / 2.0
        half = spec.decay ** (idx / 2.0)
        i = idx[:, None]
        j = idx[None, :]
        return (half[:, None] * half[None, :]) * (
            g1 * np.cos(spec.frequency * (i - j)) + g2 * np.cos(spec.frequency * (i + j))
        )
    if isinstance(spec, KernelSum):
        total = _kernel_values(spec.terms[0], order).copy()
        for term in spec.terms[1:]:
            total += _kernel_values(term, order)
        return total
    raise TypeError(f"not a kernel spec: {spec!r}")


def kernel_entry(spec: KernelSpec, i: int, j: int) -> float:
    """Single kernel value ``k(i, j)`` for nonnegative integer indices."""
    if i < 0 or j < 0:
        raise ValueError(f"indices must be nonnegative, got ({i}, {j})")
    return float(_evaluate(spec, float(i), float(j)))


@dataclass(frozen=True)
class KernelMatrix:
    """Symmetric P x P kernel matrix; PSD for every in-range spec."""

    entries: np.ndarray

    def __post_init__(self):
        entries = np.array(self.entries, dtype=float)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1] or entries.shape[0] < 1:
            raise ValueError(f"kernel matrix must be square and non-empty, got {entries.shape}")
        scale = np.max(np.abs(entries)) or 1.0
        if np.max(np.abs(entries - entries.T)) > 1e-12 * scale:
            raise ValueError("kernel matrix is not symmetric")
        entries.flags.writeable = False
        object.__setattr__(self, "entries", entries)

    @property
    def order(self) -> int:
        return self.entries.shape[0]


def build_kernel_matrix(spec: KernelSpec, order: int) -> KernelMatrix:
    """Evaluate ``k`` on the index grid ``0..order-1``, exactly symmetric."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    return KernelMatrix(entries=_kernel_values(spec, order))


@dataclass(frozen=True)
class PsdReport:
    min_eigenvalue: float
    max_eigenvalue: float
    is_psd: bool


def validate_psd(k: KernelMatrix, relative_tolerance: float = 1e-9) -> PsdReport:
    """Smallest eigenvalue of ``K`` and the PSD verdict at a relative tolerance."""
    eigs = np.linalg.eigvalsh(k.entries)
    low, high = float(eigs[0]), float(eigs[-1])
    return PsdReport(
        min_eigenvalue=low,
        max_eigenvalue=high,
        is_psd=low >= -relative_tolerance * max(high, 0.0),
    )


def _field(obj: dict, key: str, context: str):
    if key not in obj:
        raise ValueError(f"{context} needs {key!r}, got {obj!r}")
    return obj[key]


def _number(value, name: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} must be a number, got {value!r}") from exc


def _decay_from_json(value, name: str) -> float:
    if isinstance(value, dict):
        rate = _number(_field(value, "rate", name), f"{name}.rate")
        return math.exp(-rate * _number(_field(value, "period_s", name), f"{name}.period_s"))
    if isinstance(value, (int, float)):
        return float(value)
    raise ValueError(f"{name} must be a number or {{'rate': c, 'period_s': T}}, got {value!r}")


def _frequency_from_json(value) -> float:
    if isinstance(value, dict):
        hertz = _number(_field(value, "freq_hz", "frequency"), "frequency.freq_hz")
        return 2.0 * math.pi * hertz * _number(_field(value, "period_s", "frequency"), "frequency.period_s")
    if isinstance(value, (int, float)):
        return float(value)
    raise ValueError(f"frequency must be a number or {{'freq_hz': f, 'period_s': T}}, got {value!r}")


def kernel_spec_from_json(obj: dict) -> KernelSpec:
    """Parse the kernel JSON schema: ``{"type": ..., <parameters>}``.

    Raises :class:`ValueError` naming the field for an unknown type, an
    unknown or missing parameter, or a parameter of the wrong shape.
    """
    if not isinstance(obj, dict) or "type" not in obj:
        raise ValueError(f"kernel spec must be an object with a 'type' key, got {obj!r}")
    kind = obj["type"]
    known = {
        "tikhonov": (),
        "dc": ("scale", "decay", "correlation"),
        "ss": ("scale", "decay"),
        "pk": ("decay", "frequency", "sigma1", "sigma2"),
        "sum": ("terms",),
    }
    if kind not in known:
        raise ValueError(f"unknown kernel type {kind!r}; expected one of {sorted(known)}")
    extra = set(obj) - set(known[kind]) - {"type"}
    if extra:
        raise ValueError(f"unknown parameters {sorted(extra)} for kernel type {kind!r}")
    context = f"kernel type {kind!r}"
    if kind == "tikhonov":
        return Tikhonov()
    if kind == "dc":
        return DiagonalCorrelated(
            scale=_number(obj.get("scale", 1.0), "scale"),
            decay=_decay_from_json(obj.get("decay", 0.9), "decay"),
            correlation=_decay_from_json(obj.get("correlation", 0.5), "correlation"),
        )
    if kind == "ss":
        return StableSpline(
            scale=_number(obj.get("scale", 1.0), "scale"),
            decay=_decay_from_json(obj.get("decay", 0.9), "decay"),
        )
    if kind == "pk":
        return ResonantPole(
            decay=_decay_from_json(_field(obj, "decay", context), "decay"),
            frequency=_frequency_from_json(_field(obj, "frequency", context)),
            sigma1=_number(obj.get("sigma1", 1.0), "sigma1"),
            sigma2=_number(obj.get("sigma2", 1.0), "sigma2"),
        )
    terms = _field(obj, "terms", context)
    if not isinstance(terms, list):
        raise ValueError(f"{context} needs 'terms' as a list of kernel specs, got {terms!r}")
    return KernelSum(terms=tuple(kernel_spec_from_json(term) for term in terms))


def kernel_spec_to_json(spec: KernelSpec) -> dict:
    if isinstance(spec, Tikhonov):
        return {"type": "tikhonov"}
    if isinstance(spec, DiagonalCorrelated):
        return {
            "type": "dc",
            "scale": spec.scale,
            "decay": spec.decay,
            "correlation": spec.correlation,
        }
    if isinstance(spec, StableSpline):
        return {"type": "ss", "scale": spec.scale, "decay": spec.decay}
    if isinstance(spec, ResonantPole):
        return {
            "type": "pk",
            "decay": spec.decay,
            "frequency": spec.frequency,
            "sigma1": spec.sigma1,
            "sigma2": spec.sigma2,
        }
    if isinstance(spec, KernelSum):
        return {"type": "sum", "terms": [kernel_spec_to_json(term) for term in spec.terms]}
    raise TypeError(f"not a kernel spec: {spec!r}")
