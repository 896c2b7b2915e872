"""Codec contract checker — rule catalog CC001…CC007.

The behavioural codecs in :mod:`repro.core` are *stateful protocols*: an
encoder/decoder pair must stay in lock-step from reset, declare its
redundant lines truthfully, and be a lossless channel from every reachable
state.  This pass verifies those contracts for every codec in the registry
by introspection plus exhaustive small-width state exploration:

========  ========  ======================================================
CC001     error     codec cannot be built, or encoder/decoder pairing is
                    broken (a factory raises)
CC002     error     ``extra_lines`` metadata does not match the arity of
                    the :class:`EncodedWord.extras` actually produced
CC003     error     ``reset()`` does not restore the encoder's power-up
                    behaviour (re-encoding a stream differs)
CC004     error     decode(encode(a)) != a for some reachable
                    (state, input) pair at the exploration width
CC005     error     ``reset()`` does not restore the decoder's power-up
                    behaviour
CC006     warning   encoder instance and :class:`Codec` metadata disagree
                    on the redundant-line names
CC007     info      state exploration truncated at the state cap (coverage
                    reported) — raise ``max_states`` for a full proof
CC008     error     a formally found counterexample (``repro-bus prove``)
                    also reproduces against the behavioural models — the
                    defect is in the shared protocol, not just the RTL
CC009     info      a formal counterexample replayed clean against the
                    behavioural models (RTL-only defect), or carried no
                    address stream to replay; kept as a regression vector
CC010     warning   registered codec has no :data:`CODEC_CONTRACTS` entry
                    (the static SA013 rule fails CI on the same gap)
========  ========  ======================================================

Exploration is a breadth-first search over the *joint* encoder+decoder
state: from every discovered state, every ``(address, sel)`` input is
applied to a deep copy of the pair, the roundtrip is checked, and the
successor state (a structural fingerprint of both objects) is enqueued if
new.  At width ≤ 4 the reachable joint space of every shipped codec is
small enough to enumerate completely.
"""

from __future__ import annotations

import copy
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analysis.report import AnalysisReport, Severity
from repro.core.base import BusDecoder, BusEncoder
from repro.core.registry import make_codec

#: Exploration width: small enough to enumerate, wide enough that every
#: code's special cases (majority votes, zone hits, sector moves) occur.
DEFAULT_EXPLORATION_WIDTH = 4
#: Joint-state cap; every shipped codec stays below it at width 4.
DEFAULT_MAX_STATES = 4096

#: One-line protocol contract per registered codec: what the redundant
#: lines mean and what the decoder may assume.  The static analyzer's
#: SA013 rule requires an entry for every ``register_codec`` registration,
#: and :func:`check_codec` warns (CC010) when one is missing at runtime.
CODEC_CONTRACTS: Dict[str, str] = {
    "binary": "no redundant lines; the bus carries the address verbatim",
    "gray": "no redundant lines; bus carries the Gray-mapped address, "
    "decoder inverts the mapping statelessly",
    "bus-invert": "one INV line; word is bitwise-inverted when that "
    "halves the Hamming distance to the previous word (majority vote)",
    "t0": "one INC line; INC=1 freezes the bus while the decoder's "
    "counter supplies consecutive addresses",
    "t0bi": "INC and INV lines; T0 freeze for sequential runs, "
    "bus-invert vote on the residual stream",
    "dualt0": "two INC lines; two interleaved T0 counters track a pair "
    "of alternating sequential streams",
    "dualt0bi": "two INC lines plus INV; dual-T0 freeze with bus-invert "
    "on the residual stream",
    "mtf": "no redundant lines; bus carries (sector index, offset) from "
    "a move-to-front sector cache kept in lock-step by both ends",
    "pbi": "one INV line per partition; bus-invert voted independently "
    "on each partition slice",
    "offset": "no redundant lines; bus carries the two's-complement "
    "difference from the previous address",
    "inc-xor": "no redundant lines; bus carries address XOR "
    "(previous address + 1), zero word for sequential access",
    "wze": "zone-hit extras; bus carries an offset relative to one of "
    "the tracked working-zone registers both ends update identically",
    "beach": "no redundant lines; bus carries the trained "
    "cluster-permutation mapping fixed at construction from the "
    "training trace",
}


def small_width_params(name: str, width: int) -> Optional[Dict[str, object]]:
    """Constructor params that make codec ``name`` buildable at ``width``.

    The registry defaults target 32-bit buses (``mtf`` carves 12 offset
    bits, ``pbi`` wants 4 partitions, ``wze`` 4 zones); at the small widths
    the contract checker and the roundtrip matrix sweep, those defaults are
    unsatisfiable and are scaled down here.  Returns ``None`` when the
    codec is structurally impossible at that width (``mtf`` below 3 bits).
    """
    if name == "beach":
        mask = (1 << width) - 1
        return {"training": [((i * 3) + 1) & mask for i in range(8)]}
    if name == "mtf":
        if width < 3:
            return None  # needs offset + index + sector bits
        if width < 8:
            return {"offset_bits": 1, "sectors": 2}
        if width < 16:
            return {"offset_bits": 4, "sectors": 4}
        return {}
    if name == "pbi":
        return {"partitions": min(4, width)}
    if name == "wze":
        if width >= 4:
            return {}
        return {"zones": min(2, width), "stride": 1}
    return {}


def _fingerprint(obj: object, _depth: int = 0) -> object:
    """Hashable structural fingerprint of a codec's mutable state."""
    if _depth > 8:
        return repr(obj)
    if obj is None or isinstance(obj, (bool, int, float, str, bytes)):
        return obj
    if isinstance(obj, (list, tuple)):
        return tuple(_fingerprint(item, _depth + 1) for item in obj)
    if isinstance(obj, (set, frozenset)):
        return frozenset(_fingerprint(item, _depth + 1) for item in obj)
    if isinstance(obj, dict):
        return tuple(
            sorted(
                (str(key), _fingerprint(value, _depth + 1))
                for key, value in obj.items()
            )
        )
    if hasattr(obj, "__dict__"):
        return (
            type(obj).__name__,
            _fingerprint(vars(obj), _depth + 1),
        )
    return repr(obj)


def _pair_fingerprint(encoder: BusEncoder, decoder: BusDecoder) -> object:
    return (_fingerprint(encoder), _fingerprint(decoder))


@dataclass
class ExplorationStats:
    """Coverage of one exhaustive state exploration."""

    states: int
    transitions: int
    truncated: bool


def _probe_stream(width: int) -> Tuple[List[int], List[int]]:
    """A short deterministic stream hitting sequential and random cases."""
    mask = (1 << width) - 1
    addresses = [(i * 4) & mask for i in range(6)]
    addresses += [(i * 7 + 3) & mask for i in range(6)]
    addresses += [0, mask, 0, mask]
    sels = [i % 2 for i in range(len(addresses))]
    return addresses, sels


def check_codec(
    name: str,
    width: int = DEFAULT_EXPLORATION_WIDTH,
    max_states: int = DEFAULT_MAX_STATES,
    params: Optional[Dict[str, object]] = None,
) -> AnalysisReport:
    """Run every contract rule against one registered codec."""
    report = AnalysisReport(target=f"{name}@{width}", pass_name="contracts")

    # ------------------------------------------------------------------
    # CC010 — every registered codec documents its line protocol.
    # ------------------------------------------------------------------
    contract = CODEC_CONTRACTS.get(name)
    if contract is None:
        report.add(
            "CC010",
            Severity.WARNING,
            f"codec {name!r} has no CODEC_CONTRACTS entry documenting its "
            "redundant-line protocol",
            subjects=(name,),
        )

    if params is None:
        params = small_width_params(name, width)
    if params is None:
        report.add(
            "CC001",
            Severity.ERROR,
            f"codec {name!r} is not constructible at width {width} "
            "(no parameterization fits)",
            subjects=(name,),
        )
        return report

    # ------------------------------------------------------------------
    # CC001 — pairing exists and both factories work.
    # ------------------------------------------------------------------
    try:
        codec = make_codec(name, width, **params)
        encoder = codec.make_encoder()
        decoder = codec.make_decoder()
    except Exception as exc:  # noqa: BLE001 - report, don't crash the pass
        report.add(
            "CC001",
            Severity.ERROR,
            f"building codec {name!r} at width {width} failed: "
            f"{type(exc).__name__}: {exc}",
            subjects=(name,),
        )
        return report

    # ------------------------------------------------------------------
    # CC006 — metadata consistency between Codec and encoder instance.
    # ------------------------------------------------------------------
    if tuple(codec.extra_lines) != tuple(encoder.extra_lines):
        report.add(
            "CC006",
            Severity.WARNING,
            f"Codec.extra_lines {tuple(codec.extra_lines)} disagrees with "
            f"the encoder instance {tuple(encoder.extra_lines)}",
            subjects=(name,),
        )

    # ------------------------------------------------------------------
    # CC002 — declared extra lines match produced extras arity.
    # ------------------------------------------------------------------
    addresses, sels = _probe_stream(width)
    encoder.reset()
    declared = len(encoder.extra_lines)
    for address, sel in zip(addresses, sels):
        word = encoder.encode(address, sel)
        if len(word.extras) != declared:
            report.add(
                "CC002",
                Severity.ERROR,
                f"encoder declares {declared} extra lines "
                f"{tuple(encoder.extra_lines)} but produced a word with "
                f"{len(word.extras)} extras for address {address:#x}",
                subjects=(name,),
            )
            break

    # ------------------------------------------------------------------
    # CC003 / CC005 — reset() restores power-up behaviour on both ends.
    # ------------------------------------------------------------------
    encoder.reset()
    first_words = [encoder.encode(a, s) for a, s in zip(addresses, sels)]
    encoder.reset()
    second_words = [encoder.encode(a, s) for a, s in zip(addresses, sels)]
    if first_words != second_words:
        index = next(
            i for i, (a, b) in enumerate(zip(first_words, second_words))
            if a != b
        )
        report.add(
            "CC003",
            Severity.ERROR,
            f"encoder reset() does not restore power-up state: re-encoding "
            f"the probe stream diverges at cycle {index}",
            subjects=(name,),
        )

    decoder.reset()
    first_decoded = [
        decoder.decode(w, s) for w, s in zip(first_words, sels)
    ]
    decoder.reset()
    second_decoded = [
        decoder.decode(w, s) for w, s in zip(first_words, sels)
    ]
    if first_decoded != second_decoded:
        report.add(
            "CC005",
            Severity.ERROR,
            "decoder reset() does not restore power-up state: re-decoding "
            "the probe stream diverges",
            subjects=(name,),
        )

    # ------------------------------------------------------------------
    # CC004 — exhaustive (state × input) roundtrip exploration.
    # ------------------------------------------------------------------
    stats, violations = explore_state_space(
        codec.make_encoder(), codec.make_decoder(), width, max_states
    )
    for address, sel, decoded in violations[:5]:
        report.add(
            "CC004",
            Severity.ERROR,
            f"roundtrip violated: encode({address:#x}, sel={sel}) decoded "
            f"to {decoded:#x} from a reachable state",
            subjects=(name,),
        )
    if stats.truncated:
        report.add(
            "CC007",
            Severity.INFO,
            f"state exploration truncated at {stats.states} states "
            f"({stats.transitions} transitions checked) — raise max_states "
            "for a full proof",
            subjects=(name,),
        )
    else:
        report.add(
            "CC000",
            Severity.INFO,
            f"exhaustive: {stats.states} reachable joint states × "
            f"{(1 << width) * 2} inputs = {stats.transitions} transitions, "
            "all lossless",
            subjects=(name,),
        )
    return report


def explore_state_space(
    encoder: BusEncoder,
    decoder: BusDecoder,
    width: int,
    max_states: int = DEFAULT_MAX_STATES,
) -> Tuple[ExplorationStats, List[Tuple[int, int, int]]]:
    """BFS over the joint encoder/decoder state space.

    Returns exploration statistics and the list of roundtrip violations as
    ``(address, sel, wrongly_decoded)`` triples (empty when the codec is a
    lossless channel from every reachable state).
    """
    encoder.reset()
    decoder.reset()
    seen = {_pair_fingerprint(encoder, decoder)}
    queue = deque([(encoder, decoder)])
    violations: List[Tuple[int, int, int]] = []
    transitions = 0
    truncated = False

    while queue:
        enc_state, dec_state = queue.popleft()
        for address in range(1 << width):
            for sel in (0, 1):
                enc, dec = copy.deepcopy((enc_state, dec_state))
                word = enc.encode(address, sel)
                decoded = dec.decode(word, sel)
                transitions += 1
                if decoded != address:
                    violations.append((address, sel, decoded))
                    continue  # do not explore beyond a broken transition
                fingerprint = _pair_fingerprint(enc, dec)
                if fingerprint not in seen:
                    if len(seen) >= max_states:
                        truncated = True
                        continue
                    seen.add(fingerprint)
                    queue.append((enc, dec))

    stats = ExplorationStats(
        states=len(seen), transitions=transitions, truncated=truncated
    )
    return stats, violations


def replay_formal_counterexamples(
    replays: List[Dict[str, object]],
    max_replays: int = 32,
) -> AnalysisReport:
    """Consume formal counterexamples as behavioural regression vectors.

    ``replays`` are the JSON replay payloads attached to ``repro-bus
    prove`` findings (see :func:`repro.analysis.formal.collect_replays`):
    each carries a codec name, the primary-input order and a per-cycle
    vector list.  Every replay whose inputs form an address stream is
    driven through a fresh behavioural encoder/decoder pair from reset; a
    roundtrip failure there (CC008) means the defect the formal engine
    found lives in the shared protocol semantics, not merely in the
    gate-level implementation (CC009).
    """
    report = AnalysisReport(
        target="formal-counterexamples", pass_name="contracts"
    )
    for replay in replays[:max_replays]:
        codec_name = replay.get("codec")
        input_order = list(replay.get("input_order") or ())
        vectors = [list(v) for v in (replay.get("vectors") or ())]
        position = {name: i for i, name in enumerate(input_order)}
        width = sum(1 for name in input_order if name.startswith("b["))
        if not isinstance(codec_name, str) or not width or not vectors:
            report.add(
                "CC009",
                Severity.INFO,
                "replay carries no address stream (decoder-side or "
                "state-relative counterexample) — nothing to drive through "
                "the behavioural models",
                subjects=(str(codec_name),),
            )
            continue
        addresses = [
            sum(vector[position[f"b[{i}]"]] << i for i in range(width))
            for vector in vectors
        ]
        sel_index = position.get("SEL")
        sels = [
            vector[sel_index] if sel_index is not None else 1
            for vector in vectors
        ]
        try:
            codec = make_codec(codec_name, width)
            encoder = codec.make_encoder()
            decoder = codec.make_decoder()
        except Exception as exc:  # noqa: BLE001 - report, don't crash
            report.add(
                "CC008",
                Severity.ERROR,
                f"cannot rebuild codec {codec_name!r} at width {width} to "
                f"replay a formal counterexample: "
                f"{type(exc).__name__}: {exc}",
                subjects=(codec_name,),
            )
            continue
        encoder.reset()
        decoder.reset()
        mismatch = None
        for cycle, (address, sel) in enumerate(zip(addresses, sels)):
            decoded = decoder.decode(encoder.encode(address, sel), sel)
            if decoded != address:
                mismatch = (cycle, address, decoded)
                break
        if mismatch is not None:
            cycle, address, decoded = mismatch
            report.add(
                "CC008",
                Severity.ERROR,
                f"formal counterexample reproduces against the behavioural "
                f"models: encode({address:#x}) decoded to {decoded:#x} at "
                f"cycle {cycle} — the defect is in the protocol itself",
                subjects=(codec_name,),
                data={"replay": replay},
            )
        else:
            report.add(
                "CC009",
                Severity.INFO,
                f"formal counterexample for {codec_name!r} replays clean "
                f"against the behavioural models over {len(addresses)} "
                "cycles — the defect is RTL-only; vector kept as a "
                "regression",
                subjects=(codec_name,),
            )
    return report


