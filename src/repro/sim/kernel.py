"""Vectorized fast path for gateway captures, zero-hop and routed.

The event engine (:mod:`repro.sim.engine`) replays a gateway capture one
Python callback at a time: every timer interrupt, payload arrival,
cross-traffic packet and router service completion is a heap operation plus
a handful of attribute lookups.  This module computes the *same* capture in
closed form with a bounded number of numpy array operations, reproducing the
event path byte-for-byte.

Why the gateway stage agrees exactly
------------------------------------
The gateway capture has a special structure that makes it replayable
without a scheduler:

1. **Timer due times** are a pure cumulative sum.  The gateway reschedules
   each interrupt relative to its *due* time (no drift), so
   ``due_k = I_0 + ... + I_k`` where the ``I_k`` are successive draws from
   the interval generator's dedicated stream.  An interrupt fires iff
   ``due_k <= horizon``.
2. **Payload arrivals** are an independent cumulative sum of exponential
   gaps on the source's dedicated stream; the gateway never influences the
   source.
3. **Interrupt blocking counts** depend only on how many arrivals fall in
   ``[due_k - window, due_k]`` and after ``due_{k-1}`` — a pair of
   ``searchsorted`` calls.
4. **Disturbance draws** live on their own dedicated streams (scheduling
   jitter, blocking delays), so each stream carries one homogeneous draw
   sequence.  A numpy ``Generator`` fills array requests value-by-value from
   the same bit stream as repeated scalar calls, hence one array draw equals
   the event path's per-interrupt scalar draws.
5. **Transmission times** are ``due_k + delay_k`` passed through the
   gateway's monotonic minimum-spacing clamp, which is a running maximum.

Why the routed stages agree exactly
-----------------------------------
On a routed path (:class:`repro.network.path.UnprotectedPath`) every router
is a FIFO queue with one constant service time ``S`` (padded and cross
packets have the same size), and cross traffic leaves the path after the one
hop it was injected at.  Each hop is therefore an independent stage whose
input is the padded stream's departures from the previous hop (plus the
propagation delay) merged with that hop's own Poisson cross arrivals:

6. **Departures** follow ``D_n = max(A_n, D_{n-1}) + S`` in arrival order —
   the router adds ``S`` to the simulator clock, which reads ``A_n`` when
   the port is idle and ``D_{n-1}`` when the packet waited.  An exact tie
   ``A_n == D_{n-1}`` gives the same value on either branch.
   :func:`fifo_departures` guesses the busy periods from the real-arithmetic
   Lindley closed form, fills each one with the same chained ``+ S``
   additions the event loop performs, checks every start/continue decision
   against the exact values and finishes sequentially from the first wrong
   guess.
7. **Cross arrivals** come from the hop's dedicated ``cross-...-hop{h}``
   stream with the same one-draw-per-gap discipline as the payload.

The equivalence additionally relies on the engine's deterministic
tie-breaking (see :mod:`repro.sim.engine`) and on
:class:`repro.sim.process.PeriodicProcess` drawing exactly one interval per
activation.  The only event-path behaviour *not* reproduced is the ordering
of two events landing at *exactly* the same time at double precision — a
payload arrival at a timer due time, or a padded and a cross packet reaching
a router together — measure-zero ties that cannot occur with continuous
draws on independent streams.

The entry points are :func:`simulate_padded_capture` (the gateway) and
:func:`tandem_fifo_exit_times` (the routers); the routing decision (which
captures may take this path) lives with the experiment code in
:mod:`repro.experiments.base`.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from repro.exceptions import SimulationError

#: Mirrors ``repro.padding.gateway._MIN_TX_SPACING_S`` — duplicated rather
#: than imported to keep this module free of upward imports; the kernel
#: equivalence test pins the two values against each other.
MIN_TX_SPACING_S = 1e-9

#: Mirrors the floor in ``repro.traffic.sources.PoissonSource._next_interval``.
MIN_PAYLOAD_GAP_S = 1e-12


def _event_times_until(
    draw_chunk: Callable[[int], np.ndarray],
    horizon: float,
    expected_count: int,
) -> np.ndarray:
    """Cumulative-sum event times for draws generated chunk-by-chunk.

    Returns every event time ``<= horizon``.  ``draw_chunk`` must return a
    new array of non-negative draws, which this function overwrites.  The
    cumulative sum runs once over the concatenated draws, so the additions
    happen in exactly the sequential order of the event path (``np.cumsum``
    is a sequential accumulation), and the sorted times are cut with one
    binary search.
    """
    if horizon < 0.0:
        raise SimulationError(f"horizon must be >= 0, got {horizon!r}")
    chunk = max(256, int(expected_count * 1.05) + 16)
    chunks = [draw_chunk(chunk)]
    approx_total = float(np.sum(chunks[-1]))
    while approx_total <= horizon:
        chunks.append(draw_chunk(chunk))
        approx_total += float(np.sum(chunks[-1]))
    times = np.concatenate(chunks) if len(chunks) > 1 else chunks[0]
    np.cumsum(times, out=times)
    # The per-chunk guard total is a pairwise sum and can differ from the
    # sequential cumsum in the last bits; top up in the (astronomically rare)
    # case the exact final time still lies inside the horizon.  Accumulating
    # [last time, new draws...] continues the same sequential sum.
    while times.size and times[-1] <= horizon:
        more = np.concatenate((times[-1:], draw_chunk(chunk)))
        np.cumsum(more, out=more)
        times = np.concatenate((times, more[1:]))
    return times[: np.searchsorted(times, horizon, side="right")]


def timer_due_times(
    interval_generator,
    rng: np.random.Generator,
    horizon: float,
) -> np.ndarray:
    """Due times of every timer interrupt that fires by ``horizon``.

    Byte-identical to the event path: the gateway draws its first interval at
    start (time 0) and every subsequent interval at the preceding interrupt,
    rescheduling relative to the due time, so due times are the cumulative
    sum of successive :meth:`sample` draws.
    """
    mean = float(getattr(interval_generator, "mean", 0.0))
    if mean <= 0.0:
        raise SimulationError("interval generator must have a positive mean")
    expected = int(horizon / mean) + 1
    return _event_times_until(
        # A copy: a custom generator may hand back an array it still holds.
        lambda size: np.array(interval_generator.sample_batch(rng, size), dtype=float),
        horizon,
        expected,
    )


def poisson_arrival_times(
    rng: np.random.Generator,
    rate_pps: float,
    horizon: float,
) -> np.ndarray:
    """Arrival times of a Poisson source up to ``horizon``.

    Matches :class:`repro.traffic.sources.PoissonSource` exactly: gaps are
    ``max(Exp(1/rate), MIN_PAYLOAD_GAP_S)`` and the first arrival is a full
    gap after time 0.
    """
    if rate_pps < 0.0:
        raise SimulationError(f"rate must be >= 0, got {rate_pps!r}")
    if rate_pps == 0.0:
        return np.empty(0, dtype=float)
    scale = 1.0 / rate_pps
    expected = int(horizon * rate_pps) + 1

    def gaps(size: int) -> np.ndarray:
        draws = rng.exponential(scale, size=size)
        return np.maximum(draws, MIN_PAYLOAD_GAP_S, out=draws)

    return _event_times_until(gaps, horizon, expected)


def blocking_counts(
    arrival_times: np.ndarray,
    due_times: np.ndarray,
    window: float,
) -> np.ndarray:
    """Per-interrupt count of arrivals inside the blocking window.

    For interrupt ``k`` this is ``#{t : t > due_{k-1},
    due_k - window <= t <= due_k}`` (with ``due_{-1} = -inf``), which is the
    set the gateway hands to the disturbance model: arrivals recorded since
    the previous interrupt, restricted to the window.
    """
    if due_times.size == 0:
        return np.zeros(0, dtype=np.int64)
    hi = np.searchsorted(arrival_times, due_times, side="right")
    lo_window = np.searchsorted(arrival_times, due_times - window, side="left")
    prev_hi = np.concatenate(([0], hi[:-1]))
    return hi - np.maximum(lo_window, prev_hi)


def _blocking_delay_sums(
    rng: np.random.Generator,
    counts: np.ndarray,
    delay_mean: float,
) -> np.ndarray:
    """Per-interrupt sums of exponential blocking delays.

    The event path draws ``rng.exponential(mean, size=b_k)`` once per
    interrupt with ``b_k > 0`` and sums it with ``np.sum``.  Consecutive
    array draws concatenate to one big draw, so a single draw of total size
    reproduces the stream; the per-group sums must then replicate
    ``np.sum``'s reduction order, which is plain left-to-right for fewer
    than 8 elements (``np.add.reduceat``'s order) and pairwise above that —
    hence the slice-summing fallback for large groups.
    """
    sums = np.zeros(counts.size, dtype=float)
    nonzero = counts > 0
    if not np.any(nonzero):
        return sums
    group_sizes = counts[nonzero]
    draws = rng.exponential(delay_mean, size=int(group_sizes.sum()))
    starts = np.concatenate(([0], np.cumsum(group_sizes)[:-1]))
    if int(group_sizes.max()) < 8:
        sums[nonzero] = np.add.reduceat(draws, starts)
    else:
        ends = starts + group_sizes
        sums[nonzero] = [float(np.sum(draws[s:e])) for s, e in zip(starts, ends)]
    return sums


def clamp_min_spacing(send_times: np.ndarray, spacing: float = MIN_TX_SPACING_S) -> np.ndarray:
    """Apply the gateway's monotonic minimum-spacing clamp.

    Sequential rule: ``t_0 = s_0``; ``t_k = max(s_k, t_{k-1} + spacing)``.
    When every consecutive pair already satisfies the spacing (the common
    case — timer intervals are milliseconds, delays microseconds) the input
    is returned untouched; otherwise the rare violating tail is fixed with
    an explicit sequential pass so the floating-point result matches the
    event path bit-for-bit.
    """
    if send_times.size < 2:
        return send_times
    floor = send_times[:-1] + spacing
    if bool(np.all(send_times[1:] >= floor)):
        return send_times
    clamped = send_times.copy()
    first = int(np.flatnonzero(clamped[1:] < floor)[0]) + 1
    last = clamped[first - 1]
    for k in range(first, clamped.size):
        earliest = last + spacing
        if clamped[k] < earliest:
            clamped[k] = earliest
        last = clamped[k]
    return clamped


def simulate_padded_capture(
    *,
    interval_generator,
    payload_rate_pps: float,
    duration: float,
    timer_rng: np.random.Generator,
    payload_rng: np.random.Generator,
    jitter_rng: Optional[np.random.Generator] = None,
    blocking_rng: Optional[np.random.Generator] = None,
    base_jitter_std: float = 0.0,
    blocking_window: float = 0.0,
    blocking_delay_mean: float = 0.0,
) -> np.ndarray:
    """Transmission timestamps of a no-network gateway capture, in closed form.

    Byte-identical to running :class:`repro.padding.gateway.SenderGateway`
    (with split ``jitter_rng``/``blocking_rng`` streams) fed by a
    :class:`repro.traffic.sources.PoissonSource` on the event engine for
    ``Simulator.run(until=duration)`` and reading the tap's timestamps.

    Parameters
    ----------
    interval_generator:
        Timer law; must honour the :meth:`sample_batch` identity contract of
        :mod:`repro.padding.timer`.
    payload_rate_pps:
        Poisson payload rate (0 disables payload, hence blocking).
    duration:
        Simulation horizon in seconds.
    timer_rng, payload_rng, jitter_rng, blocking_rng:
        The four dedicated streams.  ``jitter_rng``/``blocking_rng`` may be
        ``None`` when the corresponding mechanism is disabled.
    base_jitter_std, blocking_window, blocking_delay_mean:
        The :class:`repro.padding.disturbance.InterruptDisturbance`
        parameters (all 0 for a disturbance-free gateway).
    """
    if duration <= 0.0:
        raise SimulationError(f"duration must be > 0, got {duration!r}")
    due = timer_due_times(interval_generator, timer_rng, duration)
    n_fired = due.size
    if n_fired == 0:
        return np.empty(0, dtype=float)

    delay = np.zeros(n_fired, dtype=float)
    if base_jitter_std > 0.0:
        if jitter_rng is None:
            raise SimulationError("base_jitter_std > 0 requires a jitter_rng")
        delay += np.abs(jitter_rng.normal(0.0, base_jitter_std, size=n_fired))
    if blocking_delay_mean > 0.0 and blocking_window > 0.0 and payload_rate_pps > 0.0:
        if blocking_rng is None:
            raise SimulationError("interrupt blocking requires a blocking_rng")
        arrivals = poisson_arrival_times(payload_rng, payload_rate_pps, duration)
        counts = blocking_counts(arrivals, due, blocking_window)
        delay += _blocking_delay_sums(blocking_rng, counts, blocking_delay_mean)

    send_times = clamp_min_spacing(due + delay)
    return send_times[send_times <= duration]


def _sequential_departures(
    arrivals: np.ndarray, service: float, departures: np.ndarray, first: int
) -> None:
    """Overwrite ``departures[first:]`` with the scalar FIFO recursion.

    ``departures[:first]`` must already be exact.  Python floats are IEEE
    doubles, so ``max(a, last) + service`` is the event loop's arithmetic.
    """
    last = float(departures[first - 1]) if first > 0 else float("-inf")
    tail = []
    for arrival in arrivals[first:].tolist():
        last = (arrival if arrival > last else last) + service
        tail.append(last)
    departures[first:] = tail


def fifo_departures(arrivals: np.ndarray, service: float) -> np.ndarray:
    """Departure times of a FIFO queue with constant service time.

    Computes ``D_n = max(A_n, D_{n-1}) + service`` for sorted ``arrivals``,
    bit for bit.  The busy periods are guessed from the real-arithmetic
    closed form ``D_k = max_{j<=k}(A_j - jS) + (k+1)S``; each period is then
    filled with one vectorized ``+ service`` per position, so packet ``k`` of
    a period gets exactly the chained additions the router performs.  Every
    start/continue decision is checked against the exact values, and from the
    first wrong guess (a rounding-boundary tie) on the recursion runs
    sequentially, as :func:`clamp_min_spacing` does.
    """
    arrivals = np.asarray(arrivals, dtype=float)
    if service <= 0.0:
        raise SimulationError(f"service time must be > 0, got {service!r}")
    n = arrivals.size
    if n == 0:
        return np.empty(0, dtype=float)
    slack = arrivals - np.arange(n) * service
    opens = np.empty(n, dtype=bool)
    opens[0] = True
    opens[1:] = slack[1:] > np.maximum.accumulate(slack)[:-1]

    departures = np.empty(n, dtype=float)
    depth = np.flatnonzero(opens)
    departures[depth] = arrivals[depth] + service
    while depth.size:
        depth = depth[depth < n - 1] + 1
        depth = depth[~opens[depth]]
        departures[depth] = departures[depth - 1] + service

    wrong = np.flatnonzero(opens[1:] == (arrivals[1:] <= departures[:-1]))
    if wrong.size:
        _sequential_departures(arrivals, service, departures, int(wrong[0]) + 1)
    return departures


def tandem_fifo_exit_times(
    send_times: np.ndarray,
    *,
    cross_rngs: Sequence[np.random.Generator],
    cross_rate_pps: float,
    service_time: float,
    propagation_delay: float,
    horizon: float,
) -> np.ndarray:
    """Times the padded stream leaves a chain of shared FIFO routers.

    Byte-identical to feeding ``send_times`` into
    :class:`repro.network.path.UnprotectedPath` with one Poisson
    cross-traffic source per hop (``cross_rngs[h]`` at ``cross_rate_pps``)
    and reading the exit sink's timestamps after
    ``Simulator.run(until=horizon)``.  Hop ``h`` merges the padded arrivals
    with its cross arrivals, computes :func:`fifo_departures`, keeps the
    padded departures, adds the propagation delay and drops what would
    arrive after the horizon.
    """
    times = np.asarray(send_times, dtype=float)
    for rng in cross_rngs:
        cross = poisson_arrival_times(rng, cross_rate_pps, horizon)
        # Merge the two sorted streams; a padded packet ties ahead of a cross
        # packet (measure zero either way).
        padded_at = np.arange(times.size) + np.searchsorted(cross, times, side="left")
        is_cross = np.ones(times.size + cross.size, dtype=bool)
        is_cross[padded_at] = False
        merged = np.empty(is_cross.size, dtype=float)
        merged[padded_at] = times
        merged[is_cross] = cross
        times = fifo_departures(merged, service_time)[padded_at] + propagation_delay
        times = times[times <= horizon]
    return times


__all__ = [
    "MIN_TX_SPACING_S",
    "MIN_PAYLOAD_GAP_S",
    "timer_due_times",
    "poisson_arrival_times",
    "blocking_counts",
    "clamp_min_spacing",
    "simulate_padded_capture",
    "fifo_departures",
    "tandem_fifo_exit_times",
]
