"""Reproducible, independent random-number streams.

Every stochastic component in the simulation (payload source, VIT timer,
gateway disturbance, per-hop cross traffic, adversary capture jitter, ...)
draws from its *own* named stream.  Streams are spawned from a single master
``numpy.random.SeedSequence`` so that

* the whole experiment is reproducible from one integer seed,
* adding a new component (a new stream name) does not perturb the draws seen
  by existing components, and
* streams are statistically independent by construction
  (``SeedSequence.spawn`` guarantees this).

The performance-critical property this module leans on is that a numpy
``Generator`` consumes its bit stream value-by-value: ``rng.normal(m, s,
size=n)`` returns exactly the values of ``n`` successive scalar
``rng.normal(m, s)`` calls, and chunked array calls concatenate to one big
call.  :class:`ChunkedDraws` packages that guarantee so hot loops can keep
scalar call sites while paying numpy's per-call overhead once per chunk
instead of once per draw.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union, cast

import numpy as np
# By name, so numpy.random loads with this module (start-up), not on the first draw.
from numpy.random import SeedSequence, default_rng

#: The declared stream-name registry: every name passed to
#: :meth:`RandomStreams.get` anywhere in this package must match one of these
#: templates (``*`` stands for a formatted value such as a class label or a
#: seed-offset tag).  ``repro check`` (rule RNG004) verifies call sites
#: statically, so a typo in a stream name — which would silently derive a
#: *different* independent stream and change every number downstream — is a
#: lint error instead of a wrong figure.  Adding a component means adding its
#: template here in the same change that introduces the ``get`` call.
DECLARED_STREAMS: Tuple[str, ...] = (
    "analytic-*",  # analytic-mode interval draws: analytic-<offset>-<label>
    "cross-*",  # per-hop cross-traffic sources: cross-<label>-hop<n>
    "gateway-*",  # gateway padding timer: gateway-<label>
    "gateway-blocking-*",  # disturbance blocking-duration draws
    "gateway-jitter-*",  # disturbance jitter draws
    "net-noise-*",  # hybrid analytic network noise: net-noise-<tag>-<label>
    "payload",  # payload source (no class split)
    "payload-*",  # payload source: payload-<label>
    "population-*",  # population subsystem: AS-graph growth, flow placement, rate mix
)


def seeded_rng(seed: int) -> np.random.Generator:
    """The sanctioned constructor for an explicitly seeded generator.

    Thin wrapper over ``np.random.default_rng(seed)`` — bit-identical to
    calling it directly — that exists so determinism tooling can tell an
    *explicitly seeded* generator from an unseeded one: ``repro check``
    forbids ``default_rng`` calls outside this module (rule RNG001), and code
    that legitimately derives a generator from data (e.g. a grid point's
    digest) routes through here.
    """
    return default_rng(seed)


def derived_rng(component: str, seed: int = 0) -> np.random.Generator:
    """A deterministic per-component generator for unthreaded call sites.

    Components that accept an optional ``rng`` parameter (taps, gateways,
    payload sources, the bootstrap) historically fell back to an *unseeded*
    ``np.random.default_rng()`` — which made any run that forgot to thread a
    generator silently irreproducible.  This is the replacement fallback: the
    stream is derived from ``(seed, component)`` exactly like
    :meth:`RandomStreams.get` derives named streams, so

    * the same component falls back to the same stream in every run, and
    * different components fall back to *independent* streams even at the
      same ``seed``.

    Experiment paths still thread named streams explicitly; this fallback
    exists for interactive use and direct component construction.
    """
    if not isinstance(component, str) or not component:
        raise ValueError(f"component must be a non-empty string, got {component!r}")
    return default_rng(_named_child(seed, component))


def _named_child(entropy: Union[int, Sequence[int], None], name: str) -> SeedSequence:
    """The child ``SeedSequence`` of ``entropy`` keyed by the UTF-8 bytes of ``name``.

    The spawn key is one uint32 array of the bytes: numpy flattens it to the
    same words as a tuple of one int per byte, so the state is identical, and
    it skips converting every byte to a Python int.
    """
    digest = np.frombuffer(name.encode("utf-8"), dtype=np.uint8)
    spawn_key = cast("Sequence[int]", (digest.astype(np.uint32),))
    return SeedSequence(entropy=entropy, spawn_key=spawn_key)


class RandomStreams:
    """A registry of named, independent :class:`numpy.random.Generator` streams.

    Parameters
    ----------
    seed:
        Master seed.  ``None`` produces OS entropy (non-reproducible runs);
        experiments in this repository always pass an explicit integer.

    Examples
    --------
    >>> streams = RandomStreams(seed=7)
    >>> payload_rng = streams.get("payload")
    >>> jitter_rng = streams.get("gateway-jitter")
    >>> payload_rng is streams.get("payload")   # streams are cached by name
    True
    """

    def __init__(self, seed: Optional[int] = None) -> None:
        self._seed = seed
        self._root = SeedSequence(seed)
        self._generators: Dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> Optional[int]:
        """The master seed this registry was created with."""
        return self._seed

    def get(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it deterministically.

        The child seed is derived from the master seed and the stream name
        only, so the same ``(seed, name)`` pair always yields the same stream
        regardless of creation order.
        """
        if not isinstance(name, str) or not name:
            raise ValueError(f"stream name must be a non-empty string, got {name!r}")
        if name not in self._generators:
            # Derive the child from the master entropy plus the name's bytes.
            # Using the name (not the creation order) keeps streams stable
            # when new components are added to an experiment.
            self._generators[name] = default_rng(_named_child(self._root.entropy, name))
        return self._generators[name]

    def spawn(self, name: str, count: int) -> List[np.random.Generator]:
        """Create ``count`` independent sub-streams under ``name``.

        Useful for per-hop cross-traffic sources: ``spawn("cross", 15)``
        returns fifteen independent generators that are all reproducible from
        the master seed.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        return [self.get(f"{name}[{i}]") for i in range(count)]

    def names(self) -> List[str]:
        """Names of the streams created so far (sorted for determinism)."""
        return sorted(self._generators)

    def __contains__(self, name: str) -> bool:
        return name in self._generators

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"RandomStreams(seed={self._seed!r}, streams={len(self._generators)})"


class ChunkedDraws:
    """Scalar draws served from batched numpy calls, bit-identical to scalar use.

    Wraps one distribution method of one ``Generator`` and refills an internal
    buffer ``chunk`` values at a time.  Because numpy fills array requests
    from the same bit stream as repeated scalar calls, the sequence returned
    by :meth:`next` is byte-for-byte the sequence ``float(rng.<dist>(*args))``
    would have produced — only ~50x cheaper per draw.

    The wrapped generator must be used **exclusively** through this buffer:
    interleaving direct draws on the same ``rng`` would observe a stream that
    has already advanced past the buffered values.  That is why every consumer
    in this repository owns a dedicated named stream.

    Parameters
    ----------
    rng:
        The generator to draw from (takes exclusive ownership).
    distribution:
        Name of the ``Generator`` method to call (``"exponential"``,
        ``"normal"``, ...).
    args:
        Positional parameters of the distribution (e.g. the scale).
    chunk:
        Buffer size; any positive value yields the identical sequence.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        distribution: str,
        args: Tuple[float, ...],
        chunk: int = 1024,
    ) -> None:
        if chunk <= 0:
            raise ValueError(f"chunk must be positive, got {chunk!r}")
        method = getattr(rng, distribution, None)
        if not callable(method):
            raise ValueError(f"generator has no distribution method {distribution!r}")
        self._method = method
        self._args = tuple(args)
        self._chunk = int(chunk)
        self._buffer = np.empty(0, dtype=float)
        self._index = 0

    def next(self) -> float:
        """The next value of the stream (refilling the buffer when drained)."""
        if self._index >= self._buffer.size:
            self._buffer = self._method(*self._args, size=self._chunk)
            self._index = 0
        value = self._buffer[self._index]
        self._index += 1
        return float(value)

    __call__ = next


__all__ = [
    "DECLARED_STREAMS",
    "ChunkedDraws",
    "RandomStreams",
    "derived_rng",
    "seeded_rng",
]
