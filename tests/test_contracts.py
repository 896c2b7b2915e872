"""Codec contract checker: clean registry, seeded violations, exploration."""

import pytest

from repro.analysis import (
    check_codec,
    explore_state_space,
    small_width_params,
)
from repro.analysis.contracts import (
    _fingerprint,
    replay_formal_counterexamples,
)
from repro.core.base import SEL_INSTRUCTION, BusDecoder, BusEncoder
from repro.core.registry import available_codecs
from repro.core.word import EncodedWord


def _rules(report):
    return [finding.rule for finding in report.findings]


class TestRegistryIsClean:
    """Every registered codec honours every contract at width 4."""

    @pytest.mark.parametrize("name", available_codecs())
    def test_codec_contracts(self, name):
        report = check_codec(name, width=4, max_states=4096)
        assert report.ok, report.render(verbose=True)
        assert not report.warnings, report.render(verbose=True)

    @pytest.mark.parametrize(
        "name",
        [n for n in available_codecs() if n != "wze"],
    )
    def test_exploration_is_exhaustive_at_width_4(self, name):
        """All but wze fit under the default state cap — full proof."""
        report = check_codec(name, width=4, max_states=4096)
        assert "CC000" in _rules(report), report.render(verbose=True)

    def test_wze_truncation_is_reported(self):
        report = check_codec("wze", width=4, max_states=128)
        assert report.ok
        assert "CC007" in _rules(report)


class TestSmallWidthParams:
    def test_mtf_impossible_below_3_bits(self):
        assert small_width_params("mtf", 1) is None
        assert small_width_params("mtf", 2) is None

    def test_mtf_reports_unconstructible(self):
        report = check_codec("mtf", width=2)
        assert not report.ok
        assert "CC001" in _rules(report)

    @pytest.mark.parametrize("name", available_codecs())
    @pytest.mark.parametrize("width", [4, 8])
    def test_params_make_codec_buildable(self, name, width):
        from repro.core.registry import make_codec

        params = small_width_params(name, width)
        assert params is not None
        codec = make_codec(name, width, **params)
        assert codec.make_encoder().width == width


class _IdentityEncoder(BusEncoder):
    def reset(self):
        pass

    def encode(self, address, sel=SEL_INSTRUCTION):
        return EncodedWord(bus=address, extras=())


class _LossyDecoder(BusDecoder):
    """Decodes everything except one codeword correctly."""

    def reset(self):
        pass

    def decode(self, word, sel=SEL_INSTRUCTION):
        return 0 if word.bus == 3 else word.bus


class _CountingEncoder(BusEncoder):
    """Stateful XOR-with-counter encoder; inverse decoder below."""

    def __init__(self, width):
        super().__init__(width)
        self.count = 0

    def reset(self):
        self.count = 0

    def encode(self, address, sel=SEL_INSTRUCTION):
        word = EncodedWord(bus=(address ^ self.count) & self._mask)
        self.count = (self.count + 1) & self._mask
        return word


class _CountingDecoder(BusDecoder):
    def __init__(self, width):
        super().__init__(width)
        self.count = 0

    def reset(self):
        self.count = 0

    def decode(self, word, sel=SEL_INSTRUCTION):
        address = (word.bus ^ self.count) & self._mask
        self.count = (self.count + 1) & self._mask
        return address


class TestExploration:
    def test_detects_roundtrip_violation(self):
        stats, violations = explore_state_space(
            _IdentityEncoder(3), _LossyDecoder(3), width=3
        )
        assert violations == [(3, 0, 0), (3, 1, 0)]

    def test_lossless_pair_is_clean(self):
        stats, violations = explore_state_space(
            _CountingEncoder(3), _CountingDecoder(3), width=3
        )
        assert violations == []
        assert stats.states == 8  # one joint state per counter value
        assert not stats.truncated
        assert stats.transitions == stats.states * (1 << 3) * 2

    def test_truncation_flagged(self):
        stats, _ = explore_state_space(
            _CountingEncoder(4), _CountingDecoder(4), width=4, max_states=5
        )
        assert stats.truncated
        assert stats.states == 5

    def test_stateless_pair_explores_one_state(self):
        class _Inverse(BusDecoder):
            def reset(self):
                pass

            def decode(self, word, sel=SEL_INSTRUCTION):
                return word.bus

        stats, violations = explore_state_space(
            _IdentityEncoder(2), _Inverse(2), width=2
        )
        assert violations == []
        assert stats.states == 1


class TestFingerprint:
    def test_distinguishes_state(self):
        a, b = _CountingEncoder(4), _CountingEncoder(4)
        assert _fingerprint(a) == _fingerprint(b)
        a.encode(0)
        assert _fingerprint(a) != _fingerprint(b)

    def test_handles_nested_containers(self):
        class _Nested:
            def __init__(self):
                self.table = {"a": [1, 2, (3, 4)], "b": {5, 6}}

        fp = _fingerprint(_Nested())
        assert isinstance(hash(fp), int)

    def test_registry_states_are_hashable(self):
        from repro.core.registry import make_codec

        for name in available_codecs():
            params = small_width_params(name, 4)
            codec = make_codec(name, 4, **params)
            encoder = codec.make_encoder()
            encoder.reset()
            encoder.encode(1)
            assert isinstance(hash(_fingerprint(encoder)), int), name


class TestSeededContractViolations:
    """check_codec flags a registry entry whose contract is broken."""

    @pytest.fixture
    def broken_registry_entry(self):
        from repro.core import registry

        @registry.register_codec("broken-lossy", _IdentityEncoder)
        def _broken(width):
            from repro.core.base import Codec

            return Codec(
                name="broken-lossy",
                width=width,
                encoder_factory=lambda: _IdentityEncoder(width),
                decoder_factory=lambda: _LossyDecoder(width),
            )

        yield "broken-lossy"
        del registry._REGISTRY["broken-lossy"]

    def test_cc004_fires_on_lossy_codec(self, broken_registry_entry):
        report = check_codec(broken_registry_entry, width=3)
        assert not report.ok
        assert "CC004" in _rules(report)

    @pytest.fixture
    def unresettable_registry_entry(self):
        from repro.core import registry
        from repro.core.base import Codec

        class _PhaseEncoder(_IdentityEncoder):
            """Period-3 phase that reset() fails to clear, so re-encoding
            the same stream after reset() produces different words."""

            def __init__(self, width):
                super().__init__(width)
                self.phase = 0

            def reset(self):
                pass  # deliberately keeps the phase

            def encode(self, address, sel=SEL_INSTRUCTION):
                value = address ^ (1 if self.phase == 0 else 0)
                self.phase = (self.phase + 1) % 3
                return EncodedWord(bus=value & self._mask)

        @registry.register_codec("broken-reset", _PhaseEncoder)
        def _broken(width):
            return Codec(
                name="broken-reset",
                width=width,
                encoder_factory=lambda: _PhaseEncoder(width),
                decoder_factory=lambda: _CountingDecoder(width),
            )

        yield "broken-reset"
        del registry._REGISTRY["broken-reset"]

    def test_cc003_fires_on_broken_reset(self, unresettable_registry_entry):
        report = check_codec(unresettable_registry_entry, width=3)
        assert not report.ok
        assert "CC003" in _rules(report)

    @pytest.fixture
    def lying_extras_registry_entry(self):
        from repro.core import registry
        from repro.core.base import Codec

        class _LyingEncoder(_IdentityEncoder):
            extra_lines = ("INV",)  # declared but never produced

        @registry.register_codec("broken-extras", _LyingEncoder)
        def _broken(width):
            return Codec(
                name="broken-extras",
                width=width,
                encoder_factory=lambda: _LyingEncoder(width),
                decoder_factory=lambda: _LossyDecoder(width),
            )

        yield "broken-extras"
        del registry._REGISTRY["broken-extras"]

    def test_cc002_fires_on_extras_mismatch(self, lying_extras_registry_entry):
        report = check_codec(lying_extras_registry_entry, width=3)
        assert not report.ok
        assert "CC002" in _rules(report)


class TestFormalCounterexampleReplay:
    """CC008/CC009: formal disproofs become behavioural regression vectors."""

    @staticmethod
    def _replay(codec="t0", addresses=(0, 4, 8, 11), width=4, sel=None):
        vectors = []
        for address in addresses:
            vector = [(address >> i) & 1 for i in range(width)]
            if sel is not None:
                vector.append(sel)
            vectors.append(vector)
        input_order = [f"b[{i}]" for i in range(width)]
        if sel is not None:
            input_order.append("SEL")
        return {"codec": codec, "input_order": input_order, "vectors": vectors}

    def test_cc009_on_clean_replay(self):
        report = replay_formal_counterexamples([self._replay()])
        assert report.ok
        assert _rules(report) == ["CC009"]
        assert "regression" in report.findings[0].message

    def test_cc009_on_sel_carrying_replay(self):
        report = replay_formal_counterexamples(
            [self._replay(codec="dualt0", sel=1)]
        )
        assert report.ok
        assert _rules(report) == ["CC009"]

    def test_cc009_on_addressless_replay(self):
        # Decoder-side or state-relative counterexamples carry no b[...]
        # stream; nothing to drive, but the skip must be visible.
        report = replay_formal_counterexamples(
            [{"codec": "t0", "input_order": ["B[0]", "B[1]"], "vectors": [[0, 1]]}]
        )
        assert report.ok
        assert _rules(report) == ["CC009"]
        assert "no address stream" in report.findings[0].message

    def test_cc008_on_unbuildable_codec(self):
        report = replay_formal_counterexamples([self._replay(codec="nonesuch")])
        assert not report.ok
        assert _rules(report) == ["CC008"]
        assert "cannot rebuild" in report.findings[0].message

    def test_cc008_on_protocol_level_defect(self):
        # A codec whose behavioural decoder is lossy reproduces the formal
        # counterexample directly against the models.
        from repro.core import registry
        from repro.core.base import Codec

        @registry.register_codec("lossy-for-replay", _IdentityEncoder)
        def _lossy(width):
            return Codec(
                name="lossy-for-replay",
                width=width,
                encoder_factory=lambda: _IdentityEncoder(width),
                decoder_factory=lambda: _LossyDecoder(width),
            )

        try:
            report = replay_formal_counterexamples(
                [self._replay(codec="lossy-for-replay", addresses=(1, 3, 7))]
            )
        finally:
            del registry._REGISTRY["lossy-for-replay"]
        assert not report.ok
        assert _rules(report) == ["CC008"]
        finding = report.findings[0]
        assert "reproduces" in finding.message
        assert finding.data is not None and "replay" in finding.data

    def test_replay_cap_respected(self):
        replays = [self._replay() for _ in range(40)]
        report = replay_formal_counterexamples(replays, max_replays=5)
        assert len(report.findings) == 5
