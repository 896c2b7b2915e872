"""Tests for the simplified working-zone encoding."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import (
    WorkingZoneDecoder,
    WorkingZoneEncoder,
    make_codec,
    verify_roundtrip,
)
from repro.core.word import EncodedWord, hamming
from repro.metrics import count_transitions

addresses = st.lists(
    st.integers(min_value=0, max_value=2**32 - 1), min_size=1, max_size=150
)


class TestWorkingZoneMechanics:
    def test_first_access_misses(self):
        encoder = WorkingZoneEncoder(32, zones=4, stride=4)
        word = encoder.encode(0x10010000)
        assert word.extras == (0,)
        assert word.bus == 0x10010000

    def test_hit_toggles_exactly_one_line(self):
        encoder = WorkingZoneEncoder(32, zones=4, stride=4)
        miss = encoder.encode(0x10010000)
        hit = encoder.encode(0x10010004)  # offset 1 within the new zone
        assert hit.extras == (1,)
        assert bin(hit.bus ^ miss.bus).count("1") == 1

    def test_hit_window_is_forward_only(self):
        encoder = WorkingZoneEncoder(32, zones=4, stride=4)
        encoder.encode(0x10010010)
        word = encoder.encode(0x1001000C)  # one stride *behind* the register
        assert word.extras == (0,)  # simplification: no negative offsets

    def test_unaligned_delta_misses(self):
        encoder = WorkingZoneEncoder(32, zones=4, stride=4)
        encoder.encode(0x10010000)
        word = encoder.encode(0x10010002)
        assert word.extras == (0,)

    def test_lru_replacement(self):
        encoder = WorkingZoneEncoder(32, zones=2, stride=4)
        encoder.encode(0x10000000)  # zone A
        encoder.encode(0x20000000)  # zone B
        encoder.encode(0x30000000)  # evicts A (LRU)
        word = encoder.encode(0x10000004)  # would hit A's window if retained
        assert word.extras == (0,)

    def test_too_many_zones_rejected(self):
        with pytest.raises(ValueError):
            WorkingZoneEncoder(8, zones=16, stride=4)

    def test_decoder_rejects_corrupt_hit(self):
        decoder = WorkingZoneDecoder(32, zones=4, stride=4)
        decoder.decode(EncodedWord(0x1000, (0,)))
        # A 'hit' whose bus toggles two lines is a protocol violation.
        with pytest.raises(ValueError):
            decoder.decode(EncodedWord(0x1000 ^ 0b11, (1,)))


class TestWorkingZoneBehaviour:
    @given(addresses)
    def test_roundtrip_random(self, stream):
        verify_roundtrip(make_codec("wze", 32), stream)

    def test_roundtrip_zone_heavy_stream(self):
        rng = random.Random(4)
        zones = [0x00400000, 0x10010000, 0x7FFFE000]
        stream = []
        cursors = dict.fromkeys(zones)
        for zone in zones:
            cursors[zone] = zone
        for _ in range(600):
            zone = rng.choice(zones)
            if rng.random() < 0.8:
                cursors[zone] += 4
            else:
                cursors[zone] = zone + 4 * rng.randrange(64)
            stream.append(cursors[zone])
        verify_roundtrip(make_codec("wze", 32, zones=4), stream)

    def test_hits_cost_at_most_two_transitions(self):
        encoder = WorkingZoneEncoder(32, zones=4, stride=4)
        stream = [0x10010000 + 4 * i for i in range(40)]
        words = encoder.encode_stream(stream)
        for prev, cur in zip(words, words[1:]):
            if cur.extras == (1,):
                assert hamming(prev.packed(32), cur.packed(32)) <= 2

    def test_beats_binary_on_interleaved_zones(self):
        """Round-robin between distant zones: binary pays the full region
        swing every cycle, WZE pays ~2 wires."""
        zones = [0x00400000, 0x10010000, 0x7FFFE000]
        cursors = {zone: zone for zone in zones}
        stream = []
        for i in range(300):
            zone = zones[i % 3]
            stream.append(cursors[zone])
            cursors[zone] += 4
        wze_words = make_codec("wze", 32, zones=4).make_encoder().encode_stream(stream)
        binary_words = make_codec("binary", 32).make_encoder().encode_stream(stream)
        wze_total = count_transitions(wze_words, width=32).total
        binary_total = count_transitions(binary_words, width=32).total
        assert wze_total < binary_total / 3
