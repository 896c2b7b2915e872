"""repro — reproduction of *Address Bus Encoding Techniques for System-Level
Power Optimization* (Benini, De Micheli, Macii, Sciuto, Silvano — DATE 1998).

The package implements:

* the paper's bus encodings (T0, bus-invert, T0_BI, dual T0, dual T0_BI) and
  the baselines it compares against (binary, Gray, Beach/working-zone style),
  in :mod:`repro.core`;
* switching-activity metrics and reporting in :mod:`repro.metrics`;
* analytical and capacitive bus power models in :mod:`repro.power`;
* a gate-level substrate (netlists, logic simulation, toggle/probabilistic
  power estimation, codec hardware, I/O pads) in :mod:`repro.rtl`;
* a MIPS-like trace substrate (ISA, assembler, CPU simulator, synthetic
  benchmark profiles, instruction/data multiplexing) in :mod:`repro.tracegen`;
* memory-side models (memory controller with in-place decoding, caches) in
  :mod:`repro.memory`;
* a Panda–Dutt style memory-mapping baseline in :mod:`repro.mapping`.

Quickstart
----------

>>> from repro import make_codec, count_transitions, encode_stream
>>> from repro.tracegen import synthetic_instruction_stream
>>> trace = synthetic_instruction_stream(length=1000, seed=1)
>>> codec = make_codec("t0", width=32, stride=4)
>>> words = encode_stream(codec, trace.addresses)
>>> count_transitions(words).total > 0
True
"""

from repro.core import (
    BusDecoder,
    BusEncoder,
    Codec,
    EncodedWord,
    available_codecs,
    decode_stream,
    encode_stream,
    make_codec,
    verify_roundtrip,
)
from repro.metrics import (
    TransitionReport,
    count_transitions,
    in_sequence_fraction,
    stream_statistics,
)
from repro.power import BusPowerModel, bus_energy, bus_power

__version__ = "1.0.0"

__all__ = [
    "BusDecoder",
    "BusEncoder",
    "BusPowerModel",
    "Codec",
    "EncodedWord",
    "TransitionReport",
    "available_codecs",
    "bus_energy",
    "bus_power",
    "count_transitions",
    "decode_stream",
    "encode_stream",
    "in_sequence_fraction",
    "make_codec",
    "stream_statistics",
    "verify_roundtrip",
    "__version__",
]
