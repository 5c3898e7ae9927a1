"""Time-series containers, excitation signals, and spectral evaluation.

The identification problem pairs a fast-rate input (period ``T_h``) with a
slow-rate output (period ``T_l = F * T_h``), so two container types carry the
sampling metadata around: :class:`FastSignal` and :class:`SlowSignal`.  All
values are immutable after construction and safe to share across threads.

Frequencies are angular (rad/s) throughout.  The DFT follows the unnormalized
convention ``X(k) = sum_t x(t) exp(-j 2 pi k t / N)``.  Every output file of
the program is written by :func:`_write_csv` or :func:`_write_json`.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

__all__ = [
    "FastSignal",
    "SlowSignal",
    "FirModel",
    "downsample",
    "random_multisine",
    "random_noise",
    "fir_frf",
    "full_band",
    "read_signal_csv",
    "write_signal_csv",
]


def _integer(name: str, value, minimum: int = 1) -> int:
    """``value`` as an ``int``; bools and non-integral numbers are rejected."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def _number(name: str, value) -> float:
    """``value`` as a ``float``; bools and non-numbers, strings included, are rejected."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def _positive(name: str, value) -> float:
    """:func:`_number` in ``(0, inf)``."""
    value = _number(name, value)
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be a positive number, got {value}")
    return value


def _known_keys(what: str, obj: dict, known) -> None:
    """Raise ``ValueError`` naming the keys of ``obj`` outside ``known``."""
    extra = set(obj) - set(known)
    if extra:
        raise ValueError(f"unknown {what}: {sorted(extra)}")


def _pair(name: str, value, item) -> tuple:
    """``value``, a list or tuple of two, as the tuple of ``item(name, v)``."""
    if not (isinstance(value, (tuple, list)) and len(value) == 2):
        raise ValueError(f"{name} must be a pair, got {value!r}")
    return tuple(item(name, v) for v in value)


def _frozen_array(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError(f"{name} must be a non-empty 1-D sequence")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class FastSignal:
    """Uniformly sampled real signal at the fast period ``T_h``.

    Attributes:
        samples: signal values, length ``N >= 1``, all finite.
        period: sampling period in seconds, strictly positive.
    """

    samples: np.ndarray
    period: float

    def __post_init__(self):
        object.__setattr__(self, "samples", _frozen_array(self.samples, "samples"))
        object.__setattr__(self, "period", _positive("period", self.period))

    def __len__(self) -> int:
        return self.samples.size


@dataclass(frozen=True)
class SlowSignal:
    """Uniformly sampled real signal at the slow period ``T_l = factor * T_h``.

    Attributes:
        samples: signal values, length ``M >= 1``, all finite.
        period: slow sampling period ``T_l`` in seconds.
        factor: integer downsampling factor ``F >= 1`` relative to the fast rate.
    """

    samples: np.ndarray
    period: float
    factor: int

    def __post_init__(self):
        object.__setattr__(self, "samples", _frozen_array(self.samples, "samples"))
        object.__setattr__(self, "period", _positive("period", self.period))
        object.__setattr__(self, "factor", _integer("factor", self.factor))

    def __len__(self) -> int:
        return self.samples.size

    @property
    def fast_period(self) -> float:
        """The underlying fast-rate period ``T_l / F``."""
        return self.period / self.factor


@dataclass(frozen=True)
class FirModel:
    """Finite impulse response model: ``P`` coefficients at the fast period."""

    theta: np.ndarray
    period: float

    def __post_init__(self):
        object.__setattr__(self, "theta", _frozen_array(self.theta, "theta"))
        object.__setattr__(self, "period", _positive("period", self.period))

    @property
    def order(self) -> int:
        return self.theta.size


def downsample(x: FastSignal | SlowSignal, factor: int) -> SlowSignal:
    """Keep every ``factor``-th sample of ``x`` (an ideal decimator).

    Sample ``m`` of the output equals sample ``m * factor`` of the input, so the
    output has ``floor((N - 1) / factor) + 1`` samples and sample 0 is always
    retained.  Downsampling a :class:`SlowSignal` compounds the factors.
    """
    factor = _integer("downsampling factor", factor)
    base_factor = x.factor if isinstance(x, SlowSignal) else 1
    return SlowSignal(
        samples=x.samples[::factor],
        period=x.period * factor,
        factor=base_factor * factor,
    )


def full_band(n_samples: int) -> tuple[int, int]:
    """Default excitation band: every DFT bin strictly below Nyquist.

    For even ``N`` the Nyquist bin ``N/2`` is excluded because a random-phase
    cosine there does not keep a flat amplitude spectrum.
    """
    hi = (n_samples - 1) // 2
    if hi < 1:
        raise ValueError(f"need at least 3 samples for a non-empty band, got {n_samples}")
    return (1, hi)


def random_multisine(
    n_samples: int,
    period: float,
    band: tuple[int, int] | None = None,
    rms: float = 1.0,
    seed: int = 0,
) -> FastSignal:
    """Random-phase multisine with a flat amplitude spectrum on ``band``.

    The signal is a sum of equal-amplitude cosines on the DFT bins
    ``band[0] .. band[1]`` (inclusive, integers), each with an independent
    uniform phase in ``[0, 2 pi)``, rescaled so the sample RMS equals ``rms``
    exactly.  Bin ``k`` sits at angular frequency ``2 pi k / (N * period)``.

    If the band includes the Nyquist bin ``N/2`` (even ``N``), that component
    gets a random sign instead of a continuous phase, since only the cosine
    part survives sampling there.

    The sum is one inverse real DFT of the spectrum ``(N/2) e^{j phi_k}`` on
    the band (``+-N`` at the Nyquist bin), O(N log N) time and O(N) memory
    (Pintelon & Schoukens, *System Identification: A Frequency Domain
    Approach*, 2nd ed., 2012).
    """
    n_samples, rms = _integer("n_samples", n_samples), _positive("rms", rms)
    if band is None:
        band = full_band(n_samples)
    lo, hi = _pair("band", band, _integer)
    if lo > hi:
        raise ValueError(f"empty excitation band {band}")
    if hi > n_samples // 2:
        raise ValueError(f"band {band} outside the admissible range [1, {n_samples // 2}]")

    rng = np.random.Generator(np.random.PCG64(seed))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=hi - lo + 1)
    spectrum = np.zeros(n_samples // 2 + 1, dtype=complex)
    spectrum[lo : hi + 1] = (n_samples / 2.0) * np.exp(1j * phases)
    if n_samples % 2 == 0 and hi == n_samples // 2:
        spectrum[hi] = n_samples if rng.random() < 0.5 else -n_samples
    x = np.fft.irfft(spectrum, n_samples)
    x *= rms / np.sqrt(np.mean(x**2))
    return FastSignal(samples=x, period=period)


def random_noise(n_samples: int, period: float, rms: float, seed: int = 0) -> FastSignal:
    """I.i.d. zero-mean Gaussian samples with standard deviation ``rms``."""
    n_samples, rms = _integer("n_samples", n_samples), _positive("rms", rms)
    rng = np.random.Generator(np.random.PCG64(seed))
    return FastSignal(samples=rng.normal(0.0, rms, size=n_samples), period=period)


def fir_frf(model: FirModel, omegas: Sequence[float]) -> np.ndarray:
    """Frequency response ``sum_i theta_i exp(-j w T_h i)`` at each ``w``, as a
    complex array aligned with ``omegas``.

    Valid at any real frequency, including above the Nyquist frequency of a
    slow-rate output sampler; the response is ``2 pi / T_h``-periodic.

    Horner's rule in ``z = exp(-j w T_h)`` over all ``K`` frequencies at once:
    O(K P) time and O(K) memory for ``P`` coefficients.
    """
    w = np.asarray(omegas, dtype=float)
    z = np.exp(-1j * w * model.period)
    values = np.full(w.shape, model.theta[-1], dtype=complex)
    for coefficient in model.theta[-2::-1]:
        values *= z
        values += coefficient
    return values


def _cell(value) -> str:
    """One CSV cell: a float to 17 significant digits, ``None`` empty,
    anything else through ``str``."""
    if value is None:
        return ""
    return f"{value:.17g}" if isinstance(value, float) else str(value)


def _write_csv(path: str | Path, header: Sequence[str], rows) -> None:
    """Write the ``header`` line, then one line of :func:`_cell` per row."""
    lines = [",".join(header)]
    lines += [",".join(map(_cell, row)) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def _write_json(path: str | Path, obj) -> None:
    """Write ``obj`` as JSON with sorted keys, an indent of 2 and a trailing newline."""
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def write_signal_csv(x: FastSignal | SlowSignal, path: str | Path) -> None:
    """Write samples as ``index,value`` rows, the format that ``identify``
    and ``tune`` read from ``data.input_csv`` and ``data.output_csv``; the
    period travels in the config."""
    _write_csv(path, ("index", "value"), enumerate(x.samples.tolist()))


def read_signal_csv(path: str | Path) -> np.ndarray:
    """Read a ``index,value`` CSV written by :func:`write_signal_csv`.

    Row ``i`` (0-based, after the header) must have index ``i`` and a finite
    value; an error names the offending ``path:line``.
    """
    text = Path(path).read_text().strip().splitlines()
    if not text or text[0].strip() != "index,value":
        raise ValueError(f"{path}: expected header 'index,value'")
    values = []
    for row, line in enumerate(text[1:]):
        parts = line.split(",")
        if len(parts) != 2:
            raise ValueError(f"{path}:{row + 2}: expected two columns, got {line!r}")
        if parts[0].strip() != str(row):
            raise ValueError(f"{path}:{row + 2}: expected index {row}, got {parts[0].strip()!r}")
        try:
            value = float(parts[1])
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise ValueError(f"{path}:{row + 2}: expected a finite value, got {parts[1].strip()!r}")
        values.append(value)
    if not values:
        raise ValueError(f"{path}: no samples")
    return np.asarray(values)
