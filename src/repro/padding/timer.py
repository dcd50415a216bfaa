"""Padding-timer interval generators.

The only tunable parameter of the paper's padding mechanism is the time
between consecutive timer interrupts, ``T`` in equation (8):

* **CIT** — constant interval timer: ``T = tau`` exactly
  (``sigma_T = 0``); this is the common link-padding configuration.
* **VIT** — variable interval timer: ``T`` is a random variable with mean
  ``tau`` and standard deviation ``sigma_T > 0``.  The paper models ``T`` as
  normal; uniform, exponential and log-normal variants are provided for the
  distribution-family ablation (the theory only depends on the variance
  contributed by the timer, not the family).

All generators guarantee strictly positive intervals — a draw at or below the
floor is clipped, which slightly truncates extreme VIT settings but keeps the
simulation physically meaningful.  The exact (untruncated) ``sigma_T`` remains
available through :attr:`IntervalGenerator.std` for the analytical model.

RNG-stream contract (relied on by the vectorized simulation kernel)
-------------------------------------------------------------------
Every generator draws **at most one** variate per :meth:`IntervalGenerator.
sample` call, always from the ``rng`` it is handed, and never consults any
other source of randomness or mutable state.  Because a ``numpy``
``Generator`` fills array requests value-by-value from the same bit stream as
repeated scalar calls, :meth:`IntervalGenerator.sample_batch` is guaranteed to
return byte-identical values to ``size`` consecutive ``sample`` calls on the
same stream — that equivalence is what lets
:mod:`repro.sim.kernel` precompute whole firing-time arrays per epoch
(:func:`firing_times`) instead of rescheduling timer events one at a time,
without perturbing a single draw.  ``ConstantInterval`` consumes **zero**
draws per sample; any refactor that makes a family consume a different number
of draws per interval breaks cached results and fingerprint stability tests.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.exceptions import PaddingError
from repro.units import PAPER_TIMER_INTERVAL_S

#: Smallest interval any generator will return (1 microsecond).  Protects the
#: event loop from zero-length timer periods when ``sigma_T`` is comparable to
#: ``tau``.
MIN_INTERVAL_S = 1e-6


class IntervalGenerator:
    """Interface for padding-timer interval distributions.

    Attributes
    ----------
    mean:
        Design mean interval ``tau`` in seconds.
    std:
        Design standard deviation ``sigma_T`` in seconds (0 for CIT).
    """

    #: Human-readable family name used in reports ("constant", "normal", ...).
    family: str = "abstract"

    def __init__(self, mean: float, std: float) -> None:
        if mean <= 0.0:
            raise PaddingError(f"timer mean interval must be > 0, got {mean!r}")
        if std < 0.0:
            raise PaddingError(f"timer interval std must be >= 0, got {std!r}")
        self.mean = float(mean)
        self.std = float(std)

    @property
    def variance(self) -> float:
        """Design variance ``sigma_T^2`` of the timer interval."""
        return self.std**2

    @property
    def is_constant(self) -> bool:
        """Whether this is a CIT timer (no interval randomness)."""
        return self.std == 0.0

    def sample(self, rng: np.random.Generator) -> float:
        """Draw the next timer interval (seconds, strictly positive)."""
        raise NotImplementedError

    def sample_batch(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` consecutive intervals as one array.

        Byte-identical to ``size`` successive :meth:`sample` calls on the same
        ``rng`` (see the module docstring for why the built-in families can
        vectorize this).  The base-class fallback literally loops ``sample``
        so that custom subclasses inherit the identity guarantee for free;
        built-in families override it with a single numpy array draw.
        """
        if size < 0:
            raise PaddingError(f"sample_batch size must be >= 0, got {size!r}")
        return np.array([self.sample(rng) for _ in range(size)], dtype=float)

    def _clip(self, value: float) -> float:
        return max(float(value), MIN_INTERVAL_S)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"{type(self).__name__}(mean={self.mean!r}, std={self.std!r})"


class ConstantInterval(IntervalGenerator):
    """CIT: every interval equals the design mean ``tau``."""

    family = "constant"

    def __init__(self, mean: float = PAPER_TIMER_INTERVAL_S) -> None:
        super().__init__(mean, 0.0)

    def sample(self, rng: np.random.Generator) -> float:
        return self.mean

    def sample_batch(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if size < 0:
            raise PaddingError(f"sample_batch size must be >= 0, got {size!r}")
        return np.full(size, self.mean, dtype=float)


class NormalInterval(IntervalGenerator):
    """VIT with normally distributed intervals (the paper's VIT model)."""

    family = "normal"

    def __init__(self, mean: float = PAPER_TIMER_INTERVAL_S, std: float = 0.0) -> None:
        super().__init__(mean, std)

    def sample(self, rng: np.random.Generator) -> float:
        if self.std == 0.0:
            return self.mean
        return self._clip(rng.normal(self.mean, self.std))

    def sample_batch(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if size < 0:
            raise PaddingError(f"sample_batch size must be >= 0, got {size!r}")
        if self.std == 0.0:
            return np.full(size, self.mean, dtype=float)
        return np.maximum(rng.normal(self.mean, self.std, size=size), MIN_INTERVAL_S)


class UniformInterval(IntervalGenerator):
    """VIT with intervals uniform on ``[mean - w, mean + w]``.

    The half-width ``w`` is derived from the requested standard deviation
    (``w = std * sqrt(3)``), so generators of different families with the
    same ``(mean, std)`` are directly comparable in the VIT-family ablation.
    """

    family = "uniform"

    def __init__(self, mean: float = PAPER_TIMER_INTERVAL_S, std: float = 0.0) -> None:
        super().__init__(mean, std)
        self.half_width = self.std * math.sqrt(3.0)
        if self.half_width > self.mean:
            raise PaddingError(
                "uniform VIT half-width exceeds the mean interval; intervals "
                f"would be negative (mean={mean!r}, std={std!r})"
            )

    def sample(self, rng: np.random.Generator) -> float:
        if self.std == 0.0:
            return self.mean
        return self._clip(rng.uniform(self.mean - self.half_width, self.mean + self.half_width))

    def sample_batch(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if size < 0:
            raise PaddingError(f"sample_batch size must be >= 0, got {size!r}")
        if self.std == 0.0:
            return np.full(size, self.mean, dtype=float)
        draws = rng.uniform(self.mean - self.half_width, self.mean + self.half_width, size=size)
        return np.maximum(draws, MIN_INTERVAL_S)


class ExponentialInterval(IntervalGenerator):
    """VIT with shifted-exponential intervals.

    The interval is ``offset + Exp(scale)`` where ``scale`` equals the
    requested ``std`` and ``offset = mean - std`` (an exponential's standard
    deviation equals its mean).  Requires ``std <= mean`` so the offset stays
    non-negative.
    """

    family = "exponential"

    def __init__(self, mean: float = PAPER_TIMER_INTERVAL_S, std: float = 0.0) -> None:
        super().__init__(mean, std)
        if std > mean:
            raise PaddingError(
                f"exponential VIT requires std <= mean (got std={std!r}, mean={mean!r})"
            )
        self.offset = self.mean - self.std

    def sample(self, rng: np.random.Generator) -> float:
        if self.std == 0.0:
            return self.mean
        return self._clip(self.offset + rng.exponential(self.std))

    def sample_batch(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if size < 0:
            raise PaddingError(f"sample_batch size must be >= 0, got {size!r}")
        if self.std == 0.0:
            return np.full(size, self.mean, dtype=float)
        return np.maximum(self.offset + rng.exponential(self.std, size=size), MIN_INTERVAL_S)


class LognormalInterval(IntervalGenerator):
    """VIT with log-normally distributed intervals.

    Parameterised so the *linear-scale* mean and standard deviation match the
    requested values; always strictly positive, so no truncation bias.
    """

    family = "lognormal"

    def __init__(self, mean: float = PAPER_TIMER_INTERVAL_S, std: float = 0.0) -> None:
        super().__init__(mean, std)
        if std == 0.0:
            self._mu = math.log(mean)
            self._sigma = 0.0
        else:
            variance_ratio = (std / mean) ** 2
            self._sigma = math.sqrt(math.log1p(variance_ratio))
            self._mu = math.log(mean) - 0.5 * self._sigma**2

    def sample(self, rng: np.random.Generator) -> float:
        if self.std == 0.0:
            return self.mean
        return self._clip(rng.lognormal(self._mu, self._sigma))

    def sample_batch(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if size < 0:
            raise PaddingError(f"sample_batch size must be >= 0, got {size!r}")
        if self.std == 0.0:
            return np.full(size, self.mean, dtype=float)
        return np.maximum(rng.lognormal(self._mu, self._sigma, size=size), MIN_INTERVAL_S)


_FAMILIES = {
    "constant": ConstantInterval,
    "cit": ConstantInterval,
    "normal": NormalInterval,
    "gaussian": NormalInterval,
    "uniform": UniformInterval,
    "exponential": ExponentialInterval,
    "lognormal": LognormalInterval,
}


def make_interval_generator(
    family: str,
    mean: float = PAPER_TIMER_INTERVAL_S,
    std: Optional[float] = None,
) -> IntervalGenerator:
    """Create an interval generator by family name.

    Parameters
    ----------
    family:
        One of ``constant``/``cit``, ``normal``/``gaussian``, ``uniform``,
        ``exponential``, ``lognormal`` (case-insensitive).
    mean:
        Mean interval ``tau``; defaults to the paper's 10 ms.
    std:
        Standard deviation ``sigma_T``.  Must be omitted or 0 for the
        constant family and must be provided (possibly 0) otherwise.
    """
    key = family.strip().lower()
    if key not in _FAMILIES:
        raise PaddingError(
            f"unknown timer family {family!r}; choose from {sorted(set(_FAMILIES))}"
        )
    cls = _FAMILIES[key]
    if cls is ConstantInterval:
        if std not in (None, 0, 0.0):
            raise PaddingError("a constant (CIT) timer cannot have a non-zero std")
        return ConstantInterval(mean)
    return cls(mean, 0.0 if std is None else float(std))


__all__ = [
    "MIN_INTERVAL_S",
    "IntervalGenerator",
    "ConstantInterval",
    "NormalInterval",
    "UniformInterval",
    "ExponentialInterval",
    "LognormalInterval",
    "make_interval_generator",
]
