"""Bus encoding codes — the paper's primary contribution.

Exports the encoder/decoder framework, the individual codes and the codec
registry.  See :mod:`repro.core.registry` for the list of code names.
"""

from repro.core.base import (
    SEL_DATA,
    SEL_INSTRUCTION,
    BusDecoder,
    BusEncoder,
    Codec,
    RoundTripError,
    decode_stream,
    encode_stream,
    verify_roundtrip,
)
from repro.core.beach import BeachCode, BeachDecoder, BeachEncoder, train_beach_code
from repro.core.binary import BinaryDecoder, BinaryEncoder
from repro.core.businvert import BusInvertDecoder, BusInvertEncoder
from repro.core.dualt0 import DualT0Decoder, DualT0Encoder
from repro.core.dualt0bi import DualT0BIDecoder, DualT0BIEncoder
from repro.core.gray import (
    GrayDecoder,
    GrayEncoder,
    binary_to_gray,
    gray_to_binary,
)
from repro.core.mtf import MtfDecoder, MtfEncoder
from repro.core.partitioned import (
    PartitionedBusInvertDecoder,
    PartitionedBusInvertEncoder,
    partition_bounds,
)
from repro.core.registry import (
    TRAINED_CODECS,
    available_codecs,
    make_codec,
    register_codec,
)
from repro.core.t0 import T0Decoder, T0Encoder
from repro.core.t0bi import T0BIDecoder, T0BIEncoder
from repro.core.word import EncodedWord, hamming, mask, popcount
from repro.core.wze import WorkingZoneDecoder, WorkingZoneEncoder
from repro.core.xor import (
    IncXorDecoder,
    IncXorEncoder,
    OffsetDecoder,
    OffsetEncoder,
)

__all__ = [
    "SEL_DATA",
    "SEL_INSTRUCTION",
    "BeachCode",
    "BeachDecoder",
    "BeachEncoder",
    "BinaryDecoder",
    "BinaryEncoder",
    "BusDecoder",
    "BusEncoder",
    "BusInvertDecoder",
    "BusInvertEncoder",
    "Codec",
    "DualT0BIDecoder",
    "DualT0BIEncoder",
    "DualT0Decoder",
    "DualT0Encoder",
    "EncodedWord",
    "GrayDecoder",
    "GrayEncoder",
    "IncXorDecoder",
    "IncXorEncoder",
    "MtfDecoder",
    "MtfEncoder",
    "OffsetDecoder",
    "OffsetEncoder",
    "PartitionedBusInvertDecoder",
    "PartitionedBusInvertEncoder",
    "RoundTripError",
    "partition_bounds",
    "T0BIDecoder",
    "T0BIEncoder",
    "T0Decoder",
    "T0Encoder",
    "WorkingZoneDecoder",
    "WorkingZoneEncoder",
    "TRAINED_CODECS",
    "available_codecs",
    "binary_to_gray",
    "decode_stream",
    "encode_stream",
    "gray_to_binary",
    "hamming",
    "make_codec",
    "mask",
    "popcount",
    "register_codec",
    "train_beach_code",
    "verify_roundtrip",
]
