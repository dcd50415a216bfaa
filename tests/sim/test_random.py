"""Tests for named reproducible random streams."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim import RandomStreams
from repro.sim.random import derived_rng

#: Stream names as the experiments format them, plus non-ASCII ones whose
#: UTF-8 encoding has multi-byte characters.
NAMES = (
    "payload",
    "payload-high",
    "cross-low-hop3",
    "gateway-jitter-10.5",
    "analytic-train@seed=7-high",
    "net-noise-hour=23-low",
    "population-as-graph",
    "x",
    "é",
    "débit-élevé",
    "流量-高",
    "🚦-hop1",
)


def _tuple_form_child(entropy, name):
    """The original derivation: one Python int per UTF-8 byte of the name."""
    digest = np.frombuffer(name.encode("utf-8"), dtype=np.uint8)
    return np.random.SeedSequence(entropy=entropy, spawn_key=tuple(int(b) for b in digest))


class TestRandomStreams:
    def test_same_seed_same_name_same_draws(self):
        a = RandomStreams(seed=42).get("payload").random(10)
        b = RandomStreams(seed=42).get("payload").random(10)
        assert np.array_equal(a, b)

    def test_different_names_give_different_draws(self):
        streams = RandomStreams(seed=42)
        a = streams.get("payload").random(10)
        b = streams.get("cross").random(10)
        assert not np.array_equal(a, b)

    def test_different_seeds_give_different_draws(self):
        a = RandomStreams(seed=1).get("payload").random(10)
        b = RandomStreams(seed=2).get("payload").random(10)
        assert not np.array_equal(a, b)

    def test_stream_is_cached(self):
        streams = RandomStreams(seed=7)
        assert streams.get("x") is streams.get("x")

    def test_creation_order_does_not_matter(self):
        first = RandomStreams(seed=9)
        first.get("a")
        a_then_b = first.get("b").random(5)

        second = RandomStreams(seed=9)
        b_only = second.get("b").random(5)
        assert np.array_equal(a_then_b, b_only)

    def test_spawn_creates_independent_streams(self):
        streams = RandomStreams(seed=3)
        children = list(streams.spawn("cross", 4))
        assert len(children) == 4
        draws = [rng.random(5) for rng in children]
        for i in range(4):
            for j in range(i + 1, 4):
                assert not np.array_equal(draws[i], draws[j])

    def test_spawn_negative_count_rejected(self):
        with pytest.raises(ValueError):
            RandomStreams(seed=1).spawn("x", -1)

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            RandomStreams(seed=1).get("")

    def test_names_and_contains(self):
        streams = RandomStreams(seed=5)
        streams.get("b")
        streams.get("a")
        assert list(streams.names()) == ["a", "b"]
        assert "a" in streams
        assert "zzz" not in streams

    def test_seed_property(self):
        assert RandomStreams(seed=11).seed == 11
        assert RandomStreams().seed is None


class TestStreamDerivation:
    @pytest.mark.parametrize("seed", [0, 1, 7, 2003, 2**32 - 1, 2**32, 2**63 + 5, 12345678901234567890])
    def test_named_streams_match_the_tuple_form(self, seed):
        streams = RandomStreams(seed=seed)
        for name in NAMES:
            expected = _tuple_form_child(np.random.SeedSequence(seed).entropy, name)
            got = streams.get(name)
            assert np.array_equal(
                got.bit_generator.seed_seq.generate_state(8), expected.generate_state(8)
            )
            assert np.array_equal(got.random(16), np.random.default_rng(expected).random(16))

    @pytest.mark.parametrize("seed", [0, 3, 2003, 2**40 + 1])
    def test_derived_rng_matches_the_tuple_form(self, seed):
        for name in NAMES:
            expected = np.random.default_rng(_tuple_form_child(seed, name))
            assert np.array_equal(derived_rng(name, seed).normal(size=16), expected.normal(size=16))

    def test_many_seeds_keep_their_states(self):
        rng = np.random.default_rng(17)
        for seed in rng.integers(0, 2**62, 200).tolist():
            name = NAMES[seed % len(NAMES)]
            got = RandomStreams(seed=seed).get(name).bit_generator.seed_seq
            expected = _tuple_form_child(np.random.SeedSequence(seed).entropy, name)
            assert np.array_equal(got.generate_state(4), expected.generate_state(4))
