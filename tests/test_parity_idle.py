"""Tests for parity protection and single-wire fault campaigns."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import available_codecs, make_codec, verify_roundtrip
from repro.metrics import count_transitions
from repro.reliability import (
    ParityError,
    error_propagation,
    parity_protected,
    run_fault_campaign,
)
from repro.tracegen import (
    get_profile,
    multiplexed_trace,
    sequential_stream,
)

TRAINING_FREE = [name for name in available_codecs() if name != "beach"]


class TestParityProtection:
    @pytest.mark.parametrize("name", TRAINING_FREE)
    def test_roundtrip_preserved(self, name):
        trace = multiplexed_trace(get_profile("gzip"), 300)
        codec = parity_protected(make_codec(name, 32))
        verify_roundtrip(codec, trace.addresses, trace.sels)

    def test_extra_line_appended(self):
        codec = parity_protected(make_codec("t0", 32))
        assert codec.extra_lines == ("INC", "PAR")
        assert codec.name == "t0+parity"

    def test_every_single_wire_fault_detected(self):
        """The headline property: any one flipped wire — address line,
        code line or the parity line itself — trips the check."""
        trace = multiplexed_trace(get_profile("gzip"), 300)
        for name in ("binary", "t0", "dualt0bi", "offset"):
            codec = parity_protected(make_codec(name, 32))
            campaign = run_fault_campaign(
                codec, trace.addresses, trace.sels, injections=50, seed=9
            )
            assert campaign.detected_fraction == 1.0
            assert campaign.silent_fraction == 0.0

    def test_detection_happens_at_fault_cycle(self):
        stream = list(sequential_stream(60).addresses)
        codec = parity_protected(make_codec("offset", 32))
        result = error_propagation(codec, stream, None, 30, 7)
        assert result.detected
        assert result.corrupted_cycles == 0  # nothing decoded wrong first

    def test_parity_overhead_is_small(self):
        """The PAR wire costs a few percent, not the code's savings."""
        trace = multiplexed_trace(get_profile("gzip"), 4000)
        plain = make_codec("t0", 32)
        protected = parity_protected(make_codec("t0", 32))
        plain_total = count_transitions(
            plain.make_encoder().encode_stream(trace.addresses, trace.sels),
            width=32,
        ).total
        protected_total = count_transitions(
            protected.make_encoder().encode_stream(trace.addresses, trace.sels),
            width=32,
        ).total
        assert protected_total >= plain_total  # one more wire, never free
        assert protected_total < plain_total * 1.15

    def test_decoder_requires_par_line(self):
        from repro.core.word import EncodedWord

        codec = parity_protected(make_codec("binary", 32))
        decoder = codec.make_decoder()
        with pytest.raises(ValueError):
            decoder.decode(EncodedWord(1))

    def test_parity_error_message(self):
        with pytest.raises(ParityError, match="parity mismatch"):
            raise ParityError()

    @given(
        st.lists(
            st.integers(min_value=0, max_value=2**32 - 1),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=20, deadline=None)
    def test_parity_roundtrip_property(self, stream):
        codec = parity_protected(make_codec("t0bi", 32))
        verify_roundtrip(codec, stream)
