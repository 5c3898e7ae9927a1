"""Test oracles for kernels: entrywise formulas and a PSD check.

``kernel_entry`` evaluates each kernel's formula at one index pair with its
own ``isinstance`` chain, independent of the kernel classes' ``matrix`` and
factor methods that the tests check against it.
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


def _evaluate(spec, i: float, j: float) -> float:
    if isinstance(spec, Tikhonov):
        return 1.0 if i == j else 0.0
    if isinstance(spec, DiagonalCorrelated):
        half = spec.decay ** (i / 2.0) * spec.decay ** (j / 2.0)
        return spec.scale * half * spec.correlation ** abs(j - i)
    if isinstance(spec, StableSpline):
        m = max(i, j)
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
