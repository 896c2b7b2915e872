"""Columnar numpy kernels: bit-identity with the per-cycle reference path.

The kernels (:mod:`repro.core.kernels`) encode a whole stream as one
packed uint64 vector.  These tests lock the contract the engine's fast
path depends on: for every codec with a kernel, every width and every
SEL pattern, the kernel's packed stream equals ``EncodedWord.packed`` of
the reference encoder's output word for word — including the validation
and decoder error messages — and codecs without a kernel fall back to
the reference path with identical payloads.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import available_codecs, make_codec
from repro.core import kernels
from repro.core.base import (
    SEL_DATA,
    SEL_INSTRUCTION,
    decode_stream,
    encode_stream,
)
from repro.core.word import EncodedWord
from repro.engine import (
    BatchEngine,
    ExecutionConfig,
    METRIC_CODEC,
    METRIC_POWER,
    comparison_cells,
    compute_cell,
    make_cell,
)
from repro.engine import cache as engine_cache
from repro.metrics import compare_codecs, count_transitions
from repro.metrics.fast import _as_u64, count_packed, pack_words
from repro.obs import metrics as obs_metrics

from tests.conftest import make_mixed_stream, oracle_row

#: Every codec with a columnar encode kernel.
KERNEL_CODECS = sorted(kernels._ENCODE_KERNELS)
DECODE_CODECS = sorted(kernels._DECODE_KERNELS)
#: Registered codecs that must fall back to the reference path.
FALLBACK_CODECS = ("beach", "mtf", "wze")

WIDTHS = (1, 8, 32)

SEL_PATTERNS = {
    "mixed": None,  # the stream's own instruction/data mix
    "all-instruction": SEL_INSTRUCTION,
    "all-data": SEL_DATA,
}


def _stream(pattern: str, width: int = 32, length: int = 300, seed: int = 5):
    addresses, sels = make_mixed_stream(length=length, seed=seed, width=width)
    fill = SEL_PATTERNS[pattern]
    if fill is not None:
        sels = [fill] * length
    return addresses, sels


def _kernel_codec(name: str, width: int = 32):
    """Build a codec at ``width``, adapting params that require a minimum
    width (pbi's default 4 partitions need at least 4 bus lines)."""
    params = {}
    if name == "pbi" and width < 4:
        params["partitions"] = 1
    return make_codec(name, width, **params)


def _reference_packed(codec, addresses, sels) -> np.ndarray:
    words = codec.make_encoder().encode_stream(addresses, sels)
    return pack_words(words, width=codec.width)


class TestKernelCoverage:
    def test_every_simple_codec_has_an_encode_kernel(self):
        assert set(KERNEL_CODECS) == set(available_codecs()) - set(
            FALLBACK_CODECS
        )

    @pytest.mark.parametrize("name", FALLBACK_CODECS)
    def test_fallback_codecs_have_no_kernel(self, name):
        if name == "beach":
            codec = make_codec(name, 32, training=list(range(0, 64, 4)))
        else:
            codec = make_codec(name, 32)
        assert not kernels.has_encode_kernel(codec)
        assert not kernels.has_decode_kernel(codec)
        with pytest.raises(KeyError, match=name):
            kernels.encode_stream_kernel(codec, [0, 4, 8])

    def test_incxor_encodes_but_does_not_decode(self):
        codec = make_codec("inc-xor", 32)
        assert kernels.has_encode_kernel(codec)
        assert not kernels.has_decode_kernel(codec)
        result = kernels.encode_stream_kernel(codec, [0, 4, 8])
        with pytest.raises(KeyError, match="inc-xor"):
            kernels.decode_stream_kernel(codec, result)

    def test_kernel_refuses_streams_wider_than_64_packed_lines(self):
        # bus-invert at width 64 packs 65 lines: no kernel, while the
        # extra-line-free binary code still qualifies.
        assert not kernels.has_encode_kernel(make_codec("bus-invert", 64))
        assert kernels.has_encode_kernel(make_codec("binary", 64))


class TestBitIdentity:
    @pytest.mark.parametrize("name", KERNEL_CODECS)
    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("pattern", sorted(SEL_PATTERNS))
    def test_kernel_matches_reference(self, name, width, pattern):
        addresses, sels = _stream(pattern, width=width)
        codec = _kernel_codec(name, width)
        result = kernels.encode_stream_kernel(codec, addresses, sels)
        assert np.array_equal(
            result.packed, _reference_packed(codec, addresses, sels)
        )
        assert result.cycles == len(addresses)
        assert result.extra_names == tuple(codec.extra_lines)

    @pytest.mark.parametrize("name", KERNEL_CODECS)
    @pytest.mark.parametrize("pattern", sorted(SEL_PATTERNS))
    def test_report_matches_fast_counter(self, name, pattern):
        """``KernelResult.report`` (the packed fold behind every fast
        counter) equals the scalar ``count_transitions`` oracle."""
        for width in WIDTHS:
            addresses, sels = _stream(pattern, width=width)
            codec = _kernel_codec(name, width)
            result = kernels.encode_stream_kernel(codec, addresses, sels)
            words = codec.make_encoder().encode_stream(addresses, sels)
            assert result.report() == count_transitions(words, width=width)

    @pytest.mark.parametrize("name", DECODE_CODECS)
    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("pattern", sorted(SEL_PATTERNS))
    def test_decode_roundtrips(self, name, width, pattern):
        addresses, sels = _stream(pattern, width=width)
        codec = _kernel_codec(name, width)
        result = kernels.encode_stream_kernel(codec, addresses, sels)
        decoded = kernels.decode_stream_kernel(codec, result, sels)
        assert decoded.tolist() == addresses

    def test_decode_accepts_raw_packed_array(self):
        addresses, sels = _stream("mixed")
        codec = make_codec("t0", 32)
        result = kernels.encode_stream_kernel(codec, addresses, sels)
        decoded = kernels.decode_stream_kernel(
            codec, result.packed.copy(), sels
        )
        assert decoded.tolist() == addresses

    @pytest.mark.parametrize("name", ("t0bi", "dualt0bi"))
    def test_to_words_matches_reference_words(self, name):
        addresses, sels = _stream("mixed")
        codec = make_codec(name, 32)
        result = kernels.encode_stream_kernel(codec, addresses, sels)
        reference = codec.make_encoder().encode_stream(addresses, sels)
        assert result.to_words() == reference

    @pytest.mark.parametrize("name", KERNEL_CODECS)
    def test_numpy_input_matches_list_input(self, name):
        addresses, sels = _stream("mixed")
        codec = _kernel_codec(name)
        from_list = kernels.encode_stream_kernel(codec, addresses, sels)
        from_array = kernels.encode_stream_kernel(
            codec,
            np.asarray(addresses, dtype=np.uint64),
            np.asarray(sels, dtype=np.uint8),
        )
        assert np.array_equal(from_list.packed, from_array.packed)

    @pytest.mark.parametrize("name", KERNEL_CODECS)
    def test_empty_stream(self, name):
        codec = _kernel_codec(name)
        result = kernels.encode_stream_kernel(codec, [], [])
        assert result.cycles == 0
        assert result.to_words() == []
        assert result.report().total == 0
        assert result.report().cycles == 0


def _pair_streams(width):
    return st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=(1 << width) - 1),
            st.integers(min_value=0, max_value=1),
        ),
        min_size=1,
        max_size=120,
    )


class TestKernelProperties:
    @pytest.mark.parametrize("name", KERNEL_CODECS)
    @given(pairs=_pair_streams(16))
    @settings(max_examples=25, deadline=None)
    def test_kernel_matches_reference_width16(self, name, pairs):
        addresses = [a for a, _ in pairs]
        sels = [s for _, s in pairs]
        codec = make_codec(name, 16)
        result = kernels.encode_stream_kernel(codec, addresses, sels)
        assert np.array_equal(
            result.packed, _reference_packed(codec, addresses, sels)
        )
        if kernels.has_decode_kernel(codec):
            decoded = kernels.decode_stream_kernel(codec, result, sels)
            assert decoded.tolist() == addresses

    @pytest.mark.parametrize("name", ("t0", "t0bi", "dualt0bi", "offset"))
    @given(pairs=_pair_streams(8))
    @settings(max_examples=25, deadline=None)
    def test_sequential_runs_width8(self, name, pairs):
        # Bias the adversarial stream toward in-sequence runs: the
        # T0-family freeze/thaw transitions are where the scans earn
        # their keep.
        addresses = []
        address = 0
        for a, _ in pairs:
            address = (address + 4) & 0xFF if a % 2 else a
            addresses.append(address)
        sels = [s for _, s in pairs]
        codec = make_codec(name, 8)
        result = kernels.encode_stream_kernel(codec, addresses, sels)
        assert np.array_equal(
            result.packed, _reference_packed(codec, addresses, sels)
        )


class TestValidationParity:
    """Kernel validation raises the reference encoders' exact messages."""

    def _messages(self, codec, addresses, sels=None):
        with pytest.raises(ValueError) as kernel_err:
            kernels.encode_stream_kernel(codec, addresses, sels)
        with pytest.raises(ValueError) as reference_err:
            codec.make_encoder().encode_stream(addresses, sels)
        return str(kernel_err.value), str(reference_err.value)

    def test_negative_address(self):
        kernel, reference = self._messages(make_codec("t0", 32), [0, 4, -3])
        assert kernel == reference == "address must be non-negative, got -3"

    def test_too_wide_address(self):
        kernel, reference = self._messages(make_codec("gray", 8), [0, 0x1FF])
        assert kernel == reference
        assert kernel == "address 0x1ff does not fit on a 8-bit bus"

    def test_sel_length_mismatch(self):
        kernel, reference = self._messages(
            make_codec("dualt0", 32), [0, 4, 8], sels=[1, 1]
        )
        assert kernel == reference == "addresses length 3 != sels length 2"

    @pytest.mark.parametrize("name", ("t0", "t0bi"))
    def test_inc_on_first_cycle_decode_error(self, name):
        codec = make_codec(name, 8)
        bad = [EncodedWord(0, (1,) * len(codec.extra_lines))]
        with pytest.raises(ValueError) as reference_err:
            codec.make_decoder().decode_stream(bad)
        with pytest.raises(ValueError) as kernel_err:
            kernels.decode_stream_kernel(codec, pack_words(bad, width=8))
        assert str(kernel_err.value) == str(reference_err.value)

    @pytest.mark.parametrize("name", ("dualt0", "dualt0bi"))
    def test_inc_before_any_instruction_decode_error(self, name):
        codec = make_codec(name, 8)
        extras = len(codec.extra_lines)
        # A data slot first, then INC/INCV asserted on the stream's very
        # first *instruction* slot — no reference address exists yet.
        bad = [EncodedWord(0, (0,) * extras), EncodedWord(0, (1,) * extras)]
        sels = [SEL_DATA, SEL_INSTRUCTION]
        with pytest.raises(ValueError) as reference_err:
            codec.make_decoder().decode_stream(bad, sels)
        with pytest.raises(ValueError) as kernel_err:
            kernels.decode_stream_kernel(
                codec, pack_words(bad, width=8), sels
            )
        assert str(kernel_err.value) == str(reference_err.value)

    def test_rejects_2d_addresses(self):
        with pytest.raises(ValueError, match="1-D"):
            kernels.encode_stream_kernel(
                make_codec("t0", 32), np.zeros((2, 2), dtype=np.uint64)
            )

    def test_rejects_2d_packed(self):
        with pytest.raises(ValueError, match="1-D"):
            kernels.decode_stream_kernel(
                make_codec("t0", 32), np.zeros((2, 2), dtype=np.uint64)
            )


class TestAsU64Validation:
    """The `_as_u64` bugfix: invalid addresses raise the scalar path's
    messages instead of wrapping silently or crashing inside numpy."""

    def test_negative_python_ints(self):
        with pytest.raises(ValueError, match="must be non-negative, got -7"):
            _as_u64([1, 2, -7, -9])

    def test_negative_numpy_ints(self):
        with pytest.raises(ValueError, match="must be non-negative, got -1"):
            _as_u64(np.array([3, -1], dtype=np.int64))

    def test_negative_floats(self):
        with pytest.raises(ValueError, match="must be non-negative, got -2"):
            _as_u64(np.array([0.0, -2.0]))

    def test_first_offender_in_stream_order(self):
        with pytest.raises(ValueError, match="got -5"):
            _as_u64([0, -5, -1])

    def test_oversized_python_int(self):
        with pytest.raises(
            ValueError, match="does not fit on a 64-bit bus"
        ):
            _as_u64([0, 1 << 64])

    def test_oversized_python_int_reports_bus_width(self):
        with pytest.raises(
            ValueError, match="does not fit on a 32-bit bus"
        ):
            _as_u64([0, 1 << 70], width=32)

    def test_too_wide_for_bus(self):
        with pytest.raises(
            ValueError, match="address 0x100 does not fit on a 8-bit bus"
        ):
            _as_u64([0xFF, 0x100], width=8)

    def test_valid_streams_pass_through(self):
        array = _as_u64([0, 0xFF], width=8)
        assert array.dtype == np.uint64
        assert array.tolist() == [0, 0xFF]

    def test_uint64_fast_path_still_width_checked(self):
        with pytest.raises(ValueError, match="8-bit bus"):
            _as_u64(np.array([0x100], dtype=np.uint64), width=8)

    def test_wide_python_ints_stay_exact(self):
        # np.asarray alone turns [1, 2**63 + 1] into float64 (2**63 + 1
        # rounds to 2**63).
        assert _as_u64([1, (1 << 63) + 1]).tolist() == [1, (1 << 63) + 1]

    def test_fold_rejects_more_than_64_lines(self):
        with pytest.raises(ValueError, match="65 lines"):
            count_packed(np.zeros(2, dtype=np.uint64), width=64, lines=65)


class TestStreamShims:
    """The module-level encode/decode shims accept generators (bugfix:
    they previously crashed on `len()` of an unsized iterable)."""

    def test_encode_stream_accepts_generators(self):
        addresses, sels = _stream("mixed")
        codec = make_codec("dualt0bi", 32)
        reference = encode_stream(codec, addresses, sels)
        words = encode_stream(
            codec, (a for a in addresses), (s for s in sels)
        )
        assert words == reference

    def test_decode_stream_accepts_generators(self):
        addresses, sels = _stream("mixed")
        codec = make_codec("dualt0bi", 32)
        words = encode_stream(codec, addresses, sels)
        decoded = decode_stream(
            codec, (w for w in words), (s for s in sels)
        )
        assert decoded == addresses


class TestEngineRouting:
    """Cells, rows and tables are payload-identical on either path."""

    @pytest.mark.parametrize("name", KERNEL_CODECS)
    def test_cell_payloads_match_reference_path(self, name):
        addresses, sels = _stream("mixed")
        codec = _kernel_codec(name)
        cell = make_cell(METRIC_CODEC, "b", addresses, sels, codec=codec)
        assert compute_cell(cell, use_kernels=True) == compute_cell(
            cell, use_kernels=False
        )

    @pytest.mark.parametrize("name", ("mtf", "wze"))
    def test_fallback_cells_are_unaffected_by_the_flag(self, name):
        addresses, sels = _stream("mixed")
        codec = make_codec(name, 32)
        cell = make_cell(METRIC_CODEC, "b", addresses, sels, codec=codec)
        assert compute_cell(cell, use_kernels=True) == compute_cell(
            cell, use_kernels=False
        )

    def test_trained_codec_falls_back(self):
        addresses, sels = _stream("mixed")
        beach = make_codec("beach", 32, training=addresses[:100])
        cell = make_cell(METRIC_CODEC, "b", addresses, sels, codec=beach)
        assert compute_cell(cell, codec=beach, use_kernels=True) == (
            compute_cell(cell, codec=beach, use_kernels=False)
        )

    def test_compare_codecs_rows_match(self):
        addresses, sels = _stream("mixed")
        codecs = [make_codec(name, 32) for name in ("t0", "gray", "wze")]
        expected = oracle_row(codecs, addresses, sels, benchmark="b")
        for config in (
            ExecutionConfig(),
            ExecutionConfig(kernels=False),
            ExecutionConfig(jobs=2),
        ):
            row = compare_codecs(
                codecs, addresses, sels, benchmark="b", config=config
            )
            assert row == expected

    @pytest.mark.parametrize("width", (1, 63, 64, 65, 80))
    def test_compare_codecs_matches_oracle_at_every_width(self, width):
        """Rows on 1..64 lines come from the packed fold, wider ones from
        the scalar oracle; both equal ``oracle_row``.  The width-64 stream
        wraps from 2**64 - 4 to 0 (not in sequence) and mixes addresses
        past 2**63 with small ones; the width-80 one crosses 2**64."""
        rng = random.Random(width)
        top = 1 << width
        addresses = []
        for _ in range(10):
            start = rng.randrange(top)
            addresses.extend((start + 4 * step) % top for step in range(5))
        if width == 64:
            addresses[10:14] = [top - 8, top - 4, 0, 5]
        if width == 80:
            assert any(address >= 1 << 64 for address in addresses)
        codecs = [make_codec(name, width) for name in ("t0", "bus-invert", "gray")]
        row = compare_codecs(codecs, addresses)
        assert row == oracle_row(codecs, addresses)

    def test_engine_payloads_match_across_flag(self):
        addresses, sels = _stream("mixed")
        codecs = [make_codec(name, 32) for name in ("t0", "bus-invert")]
        cells = comparison_cells(codecs, addresses, sels, benchmark="b")
        fast = BatchEngine(jobs=1, use_kernels=True).run(cells)
        slow = BatchEngine(jobs=1, use_kernels=False).run(cells)
        assert fast == slow

    def test_kernel_path_keeps_the_obs_contract(self):
        # The CI warm-cache smoke asserts on `core.encoded_words`; the
        # kernel path must feed the same counter the reference path does,
        # plus its own `core.kernel_words`.
        addresses, sels = _stream("mixed")
        before = obs_metrics.snapshot()
        compare_codecs(
            [make_codec("t0", 32)], addresses, sels, benchmark="b"
        )
        deltas = {
            (d["name"], d["labels"].get("codec")): d["value"]
            for d in obs_metrics.counter_deltas(
                before, obs_metrics.snapshot()
            )
        }
        assert deltas[("core.encoded_words", "t0")] == len(addresses)
        assert deltas[("core.kernel_words", "t0")] == len(addresses)


class TestCodeVersionRegression:
    """The cache-key bugfix: the codec module is part of the version tag
    for every metric, and a kernel edit invalidates codec cells."""

    def test_power_cells_distinguish_codecs(self):
        # Previously an elif dropped the codec module for power cells, so
        # editing core/t0.py silently kept stale power results.
        assert engine_cache.code_version(
            METRIC_POWER, codec_name="t0"
        ) != engine_cache.code_version(METRIC_POWER, codec_name="gray")

    def test_codec_name_resolves_like_a_live_codec(self):
        assert engine_cache.code_version(
            METRIC_CODEC, codec_name="t0"
        ) == engine_cache.code_version(METRIC_CODEC, make_codec("t0", 32))

    def test_unresolvable_codec_name_contributes_no_module(self):
        # The trained beach code cannot be rebuilt by name; its version
        # simply omits the codec module instead of crashing.
        version = engine_cache.code_version(METRIC_CODEC, codec_name="beach")
        assert len(version) == 64

    def test_kernel_edit_invalidates_codec_cells_only(self, monkeypatch):
        codec = make_codec("t0", 32)
        codec_before = engine_cache.code_version(METRIC_CODEC, codec)
        power_before = engine_cache.code_version(
            METRIC_POWER, codec_name="t0"
        )

        real = engine_cache._module_digest

        def edited(module_name):
            if module_name == "repro.core.kernels":
                return "0" * 64
            return real(module_name)

        monkeypatch.setattr(engine_cache, "_module_digest", edited)
        assert (
            engine_cache.code_version(METRIC_CODEC, codec) != codec_before
        )
        # Power cells never reach the kernels: their tag is unchanged.
        assert (
            engine_cache.code_version(METRIC_POWER, codec_name="t0")
            == power_before
        )
