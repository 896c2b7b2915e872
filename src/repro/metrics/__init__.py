"""Switching-activity metrics: transition counting, stream statistics,
codec comparisons and paper-style table rendering."""

from repro.metrics.report import (
    CodecResult,
    ComparisonRow,
    PaperTable,
    compare_codecs,
    render_table,
)
from repro.metrics.fast import (
    binary_reference_report,
    count_transitions_fast,
    hamming_matrix,
    in_sequence_fraction_fast,
    pack_words,
)
from repro.metrics.stats import (
    StreamStatistics,
    address_entropy,
    line_activity_profile,
    in_sequence_fraction,
    instruction_slot_sequence_fraction,
    mean_jump_hamming,
    per_type_in_sequence_fraction,
    run_length_histogram,
    stream_statistics,
)
from repro.metrics.transitions import (
    TransitionReport,
    binary_transitions,
    count_transitions,
    transition_profile,
)

__all__ = [
    "CodecResult",
    "ComparisonRow",
    "PaperTable",
    "StreamStatistics",
    "TransitionReport",
    "address_entropy",
    "binary_reference_report",
    "binary_transitions",
    "compare_codecs",
    "count_transitions_fast",
    "hamming_matrix",
    "pack_words",
    "in_sequence_fraction_fast",
    "line_activity_profile",
    "count_transitions",
    "in_sequence_fraction",
    "instruction_slot_sequence_fraction",
    "mean_jump_hamming",
    "per_type_in_sequence_fraction",
    "render_table",
    "run_length_histogram",
    "stream_statistics",
    "transition_profile",
]
