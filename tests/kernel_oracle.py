"""Test oracles for kernels: the kernel formulas and a PSD check.

``_evaluate`` writes each kernel's formula ``k(i, j)`` with its own
``isinstance`` chain, independent of the kernel classes' factors that the
tests check against it: ``kernel_entry`` evaluates it at one index pair and
``dense_kernel`` on the whole index grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from beyondnyq.kernels import (
    DiagonalCorrelated,
    KernelSum,
    ResonantPole,
    StableSpline,
    Tikhonov,
)


def _evaluate(spec, i, j):
    """``k(i, j)`` for float indices, scalars or arrays that broadcast."""
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
        return envelope * (g1 * np.cos(spec.frequency * (i - j)) + g2 * np.cos(spec.frequency * (i + j)))
    if isinstance(spec, KernelSum):
        return sum(_evaluate(term, i, j) for term in spec.terms)
    raise TypeError(f"not a kernel spec: {spec!r}")


def kernel_entry(spec, i: int, j: int) -> float:
    """Single kernel value ``k(i, j)`` for nonnegative integer indices."""
    if i < 0 or j < 0:
        raise ValueError(f"indices must be nonnegative, got ({i}, {j})")
    return float(_evaluate(spec, float(i), float(j)))


def dense_kernel(spec, order: int) -> np.ndarray:
    """The ``order x order`` matrix ``k(i, j)``: the formulas on the index
    grid, a column of ``i`` against a row of ``j``."""
    i = np.arange(order, dtype=float)[:, None]
    return _evaluate(spec, i, i.T)


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


@dataclass(frozen=True)
class PsdReport:
    min_eigenvalue: float
    max_eigenvalue: float
    is_psd: bool


def validate_psd(k: np.ndarray, relative_tolerance: float = 1e-9) -> PsdReport:
    """Smallest eigenvalue of the symmetric ``k`` and the PSD verdict at a
    relative tolerance."""
    eigs = np.linalg.eigvalsh(KernelMatrix(k).entries)
    low, high = float(eigs[0]), float(eigs[-1])
    return PsdReport(
        min_eigenvalue=low,
        max_eigenvalue=high,
        is_psd=low >= -relative_tolerance * max(high, 0.0),
    )
