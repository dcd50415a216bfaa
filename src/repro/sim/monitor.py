"""Measurement probes attached to simulation entities.

Monitors never influence the simulation; they only record.  Two flavours
cover everything the experiments need:

* :class:`CounterMonitor` — named integer counters (packets sent, dummies
  injected, drops, ...).
* :class:`TimeSeriesMonitor` — ``(time, value)`` observations, e.g. queue
  length over time, with summary statistics.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np


class CounterMonitor:
    """A bag of named monotone counters."""

    def __init__(self) -> None:
        self._counts: Dict[str, int] = {}

    def increment(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` (default 1) to counter ``name``."""
        if amount < 0:
            raise ValueError("counters are monotone; amount must be >= 0")
        self._counts[name] = self._counts.get(name, 0) + int(amount)

    def get(self, name: str) -> int:
        """Current value of counter ``name`` (0 if never incremented)."""
        return self._counts.get(name, 0)

    def as_dict(self) -> Dict[str, int]:
        """Snapshot of all counters."""
        return dict(self._counts)

    def reset(self) -> None:
        """Zero every counter."""
        self._counts.clear()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"CounterMonitor({self._counts!r})"


class TimeSeriesMonitor:
    """Records ``(time, value)`` observations.

    Parameters
    ----------
    name:
        Label used in reports.
    """

    def __init__(self, name: str = "series") -> None:
        self.name = name
        self._times: List[float] = []
        self._values: List[float] = []

    def record(self, time: float, value: float) -> None:
        """Append one observation.  Times must be non-decreasing."""
        if self._times and time < self._times[-1]:
            raise ValueError(
                f"observations must be recorded in time order "
                f"({time!r} < {self._times[-1]!r})"
            )
        self._times.append(float(time))
        self._values.append(float(value))

    def __len__(self) -> int:
        return len(self._times)

    @property
    def times(self) -> np.ndarray:
        """Observation times as an array."""
        return np.asarray(self._times, dtype=float)

    @property
    def values(self) -> np.ndarray:
        """Observation values as an array."""
        return np.asarray(self._values, dtype=float)

    def mean(self) -> float:
        """Unweighted mean of the recorded values."""
        if not self._values:
            raise ValueError(f"monitor {self.name!r} has no observations")
        return float(np.mean(self._values))

    def time_average(self, until: Optional[float] = None) -> float:
        """Time-weighted average assuming the value holds until the next sample.

        ``until`` extends the last observation to the given time; when omitted
        the last observation gets zero weight (pure step-function average over
        the observed span).
        """
        if not self._values:
            raise ValueError(f"monitor {self.name!r} has no observations")
        times = self.times
        values = self.values
        if until is None:
            until = times[-1]
        if until < times[-1]:
            raise ValueError("'until' must not precede the last observation")
        edges = np.append(times, until)
        widths = np.diff(edges)
        total = float(np.sum(widths))
        if total == 0.0:
            return float(values[-1])
        return float(np.sum(widths * values) / total)

    def maximum(self) -> float:
        """Largest recorded value."""
        if not self._values:
            raise ValueError(f"monitor {self.name!r} has no observations")
        return float(np.max(self._values))

    def reset(self) -> None:
        """Discard all observations."""
        self._times.clear()
        self._values.clear()


__all__ = ["CounterMonitor", "TimeSeriesMonitor"]
