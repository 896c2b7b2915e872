"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.core import make_codec
from repro.tracegen import layout


def make_mixed_stream(length: int = 400, seed: int = 0, width: int = 32):
    """A stream mixing sequential runs, local jumps and region changes —
    exercises every branch of every code."""
    rng = random.Random(seed)
    mask = (1 << width) - 1
    regions = [layout.TEXT_BASE, layout.DATA_BASE, layout.STACK_TOP - 0x4000]
    address = layout.TEXT_BASE
    addresses = []
    sels = []
    for _ in range(length):
        roll = rng.random()
        if roll < 0.5:
            address = (address + 4) & mask
        elif roll < 0.8:
            address = (address + 4 * rng.randrange(-64, 64)) & mask & ~3
        else:
            address = (rng.choice(regions) + 4 * rng.randrange(256)) & mask
        addresses.append(address)
        sels.append(1 if rng.random() < 0.7 else 0)
    return addresses, sels


def oracle_row(codecs, addresses, sels=None, stride=4, benchmark=""):
    """A comparison row built from the scalar reference functions alone
    (``encode_stream`` + ``count_transitions`` + ``in_sequence_fraction``),
    independent of the engine cells ``compare_codecs`` runs on."""
    from repro.core.base import encode_stream
    from repro.core.word import EncodedWord
    from repro.metrics import count_transitions, in_sequence_fraction
    from repro.metrics.report import CodecResult, ComparisonRow

    width = codecs[0].width
    binary = count_transitions([EncodedWord(a) for a in addresses], width=width)
    results = []
    for codec in codecs:
        report = count_transitions(
            encode_stream(codec, addresses, sels), width=width
        )
        savings = 1.0 - report.total / binary.total if binary.total else 0.0
        results.append(CodecResult(codec.name, report.total, savings, report))
    return ComparisonRow(
        benchmark=benchmark,
        length=len(addresses),
        in_sequence=in_sequence_fraction(addresses, stride),
        binary_transitions=binary.total,
        results=tuple(results),
    )


@pytest.fixture
def mixed_stream():
    return make_mixed_stream()


ALL_SIMPLE_CODECS = [
    "binary",
    "gray",
    "bus-invert",
    "t0",
    "t0bi",
    "dualt0",
    "dualt0bi",
    "offset",
    "inc-xor",
    "wze",
    "pbi",
]


@pytest.fixture(params=ALL_SIMPLE_CODECS)
def any_codec(request):
    """Every registered codec that needs no training data."""
    return make_codec(request.param, 32)
