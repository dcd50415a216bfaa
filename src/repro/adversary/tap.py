"""Passive network tap.

The paper's adversary dumps padded traffic with a hardware network analyser
(an Agilent J6841A).  Here the tap is an observer attached either directly to
the sender gateway's output (the adversary's best case — Figures 4 and 5) or
to a hop egress of the unprotected path (Figure 6 and the campus/WAN runs of
Figure 8).  It records only what a passive observer could see: the time at
which each packet passes the observation point.  It never reads packet kinds
or flow identifiers — those fields exist only for simulation bookkeeping, and
keeping the tap blind to them is part of the threat model.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.exceptions import AnalysisError
from repro.sim.engine import Simulator
from repro.sim.random import derived_rng
from repro.traffic.packet import Packet


class Tap:
    """Records the observation times of packets passing one point on the wire.

    Parameters
    ----------
    simulator:
        Event engine; timestamps are read from its clock at the moment the
        packet passes the tap.
    capture_jitter_std:
        Optional standard deviation (seconds) of measurement noise added to
        every timestamp, modelling an imperfect capture card.  The paper's
        hardware analyser has sub-microsecond accuracy, so the default is 0.
    rng:
        Random stream used when ``capture_jitter_std > 0``.
    name:
        Label used in reports.
    """

    def __init__(
        self,
        simulator: Simulator,
        capture_jitter_std: float = 0.0,
        rng: Optional[np.random.Generator] = None,
        name: str = "tap",
    ) -> None:
        if capture_jitter_std < 0.0:
            raise AnalysisError("capture_jitter_std must be >= 0")
        self.simulator = simulator
        self.capture_jitter_std = float(capture_jitter_std)
        self.rng = rng if rng is not None else derived_rng(f"tap-{name}")
        self.name = name
        self._timestamps: List[float] = []

    # ------------------------------------------------------------------ I/O
    def observe(self, packet: Packet) -> None:
        """Record the passage of one packet (the packet content is ignored)."""
        timestamp = self.simulator.now
        if self.capture_jitter_std > 0.0:
            timestamp += float(self.rng.normal(0.0, self.capture_jitter_std))
        self._timestamps.append(timestamp)

    __call__ = observe

    def __len__(self) -> int:
        return len(self._timestamps)

    def reset(self) -> None:
        """Discard everything captured so far."""
        self._timestamps.clear()

    # ------------------------------------------------------------ extraction
    @property
    def timestamps(self) -> np.ndarray:
        """Capture timestamps in observation order."""
        return np.asarray(self._timestamps, dtype=float)

    def intervals(self, since: Optional[float] = None) -> np.ndarray:
        """Packet inter-arrival times of the captured stream.

        Parameters
        ----------
        since:
            When given, only packets observed at or after this time are used —
            the standard way to discard a warm-up period.
        """
        stamps = self.timestamps
        if since is not None:
            stamps = stamps[stamps >= since]
        if stamps.size < 2:
            return np.empty(0, dtype=float)
        # Capture jitter can occasionally reorder two near-simultaneous
        # observations; a real analyser would still report non-negative
        # inter-arrival times, so sort before differencing.
        if self.capture_jitter_std > 0.0:
            stamps = np.sort(stamps)
        return np.diff(stamps)

    def observed_rate_pps(self) -> float:
        """Average packet rate seen at the tap (sanity check: the padded rate)."""
        stamps = self.timestamps
        if stamps.size < 2:
            raise AnalysisError("need at least two observations to estimate a rate")
        span = float(stamps[-1] - stamps[0])
        if span <= 0.0:
            raise AnalysisError("all observations share one timestamp")
        return (stamps.size - 1) / span


__all__ = ["Tap"]
