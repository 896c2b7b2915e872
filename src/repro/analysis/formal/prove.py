"""Formal verification pass — rule catalog FV000…FV010.

For every codec with gate-level circuits in :mod:`repro.rtl.codecs`, run
the full battery and fold the outcomes into the shared
:class:`~repro.analysis.report.AnalysisReport` machinery:

========  ========  ======================================================
FV000     info      per-codec proof summary (functions proved, backends,
                    protocol coverage, wall time)
FV001     error     encoder netlist disagrees with the paper spec
                    (counterexample attached)
FV002     error     decoder netlist disagrees with the paper spec
FV003     error     BMC disproved ``decode(encode(a)) == a`` from reset —
                    a definite bug with a replayable trace
FV004     warning   k-induction inconclusive at the configured ``k``; the
                    roundtrip is only verified to the BMC horizon
FV005     error     a redundant-line protocol invariant is violated
                    (T0's ``INC`` must freeze the bus, bus-invert's
                    ``INV`` must mean exact complement, …)
FV006     error     encoder and decoder disagree on the reset value of a
                    mirrored register
FV007     info      sequential proof complete: ``decode(encode(a)) == a``
                    from every reachable state, by k-induction
FV008     info      the BDD backend blew its node budget and the SAT
                    backend finished the job
FV010     error     the word-level spec disagrees with the behavioural
                    model in :mod:`repro.core` on a concrete probe stream
                    (the spec itself is wrong — trust nothing else)
========  ========  ======================================================

The equivalence argument is deliberately two-legged: netlists are proved
equal to the word-level specs for *all* inputs and states (FV001/FV002),
and the specs are co-simulated against the behavioural models on probe
streams (FV010).  A bug in the shared spec transcription would have to
survive both an exhaustive symbolic check against one independent
implementation and a concrete check against another.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.analysis.contracts import _probe_stream
from repro.analysis.formal.bdd import DEFAULT_NODE_LIMIT
from repro.analysis.formal.equivalence import (
    BACKEND_AUTO,
    EquivalenceResult,
    check_equivalence,
)
from repro.analysis.formal.expr import Context
from repro.analysis.formal.induction import (
    DEFAULT_CUT_THRESHOLD,
    check_sequential,
)
from repro.analysis.formal.specs import DEFAULT_STRIDE, build_spec
from repro.analysis.report import AnalysisReport, Severity
from repro.core.registry import make_codec
from repro.obs.trace import span as obs_span
from repro.rtl.codecs import DECODER_BUILDERS, ENCODER_BUILDERS

#: Codecs with both a gate-level circuit and a formal spec.
FORMAL_CODECS = sorted(ENCODER_BUILDERS)


@dataclass
class ProveOptions:
    """Knobs of the formal pass (CLI flags map 1:1 onto these)."""

    width: int = 32
    stride: int = DEFAULT_STRIDE
    backend: str = BACKEND_AUTO
    bmc_depth: int = 3
    k_max: int = 2
    node_limit: int = DEFAULT_NODE_LIMIT
    cut_threshold: int = DEFAULT_CUT_THRESHOLD
    #: Co-simulate the specs against the behavioural models (FV010).
    crosscheck: bool = True


def crosscheck_spec(
    name: str,
    width: int,
    stride: int,
    encoder_extras: Sequence[str],
    init_state: Dict[str, Dict[str, int]],
    uses_sel: bool,
) -> List[str]:
    """Co-simulate the word-level specs against :mod:`repro.core`.

    Steps both spec state machines over the contract checker's probe
    stream by concrete evaluation and compares every encoded word and
    decoded address with the behavioural encoder/decoder.  Returns
    mismatch descriptions (empty when the spec transcription is faithful).
    """
    codec = make_codec(name, width)
    behavioural_encoder = codec.make_encoder()
    behavioural_decoder = codec.make_decoder()
    behavioural_encoder.reset()
    behavioural_decoder.reset()

    ctx = Context()
    addresses, sels = _probe_stream(width)
    mismatches: List[str] = []

    enc_state = dict(init_state["encoder"])
    dec_state = dict(init_state["decoder"])
    enc_inputs = {f"b[{i}]": ctx.var(f"b[{i}]") for i in range(width)}
    dec_inputs = {f"B[{i}]": ctx.var(f"B[{i}]") for i in range(width)}
    for line in encoder_extras:
        dec_inputs[line] = ctx.var(line)
    if uses_sel:
        enc_inputs["SEL"] = ctx.var("SEL")
        dec_inputs["SEL"] = ctx.var("SEL")
    enc_state_vars = {k: ctx.var(f"s.{k}") for k in enc_state}
    dec_state_vars = {k: ctx.var(f"d.{k}") for k in dec_state}

    enc_spec = build_spec(
        name, "encoder", ctx, enc_inputs, enc_state_vars, width, stride
    )
    dec_spec = build_spec(
        name, "decoder", ctx, dec_inputs, dec_state_vars, width, stride
    )
    enc_roots = list(enc_spec.outputs.values()) + list(
        enc_spec.next_state.values()
    )
    dec_roots = list(dec_spec.outputs.values()) + list(
        dec_spec.next_state.values()
    )

    for cycle, (address, sel) in enumerate(zip(addresses, sels)):
        word = behavioural_encoder.encode(address, sel)

        assignment = {
            f"b[{i}]": (address >> i) & 1 for i in range(width)
        }
        if uses_sel:
            assignment["SEL"] = sel
        assignment.update(
            {f"s.{k}": v for k, v in enc_state.items()}
        )
        values = ctx.evaluate_many(enc_roots, assignment)
        out_values = dict(zip(enc_spec.outputs, values))
        next_values = dict(
            zip(enc_spec.next_state, values[len(enc_spec.outputs):])
        )
        spec_bus = sum(
            out_values[f"B[{i}]"] << i for i in range(width)
        )
        spec_extras = tuple(out_values[line] for line in encoder_extras)
        if (spec_bus, spec_extras) != (word.bus, tuple(word.extras)):
            mismatches.append(
                f"encoder spec diverges from behavioural model at cycle "
                f"{cycle} (address {address:#x}, sel={sel}): spec sent "
                f"bus={spec_bus:#x} extras={spec_extras}, model sent "
                f"bus={word.bus:#x} extras={tuple(word.extras)}"
            )
            break
        enc_state = next_values

        decoded = behavioural_decoder.decode(word, sel)
        assignment = {
            f"B[{i}]": (word.bus >> i) & 1 for i in range(width)
        }
        for line, value in zip(encoder_extras, word.extras):
            assignment[line] = value
        if uses_sel:
            assignment["SEL"] = sel
        assignment.update(
            {f"d.{k}": v for k, v in dec_state.items()}
        )
        values = ctx.evaluate_many(dec_roots, assignment)
        out_values = dict(zip(dec_spec.outputs, values))
        next_values = dict(
            zip(dec_spec.next_state, values[len(dec_spec.outputs):])
        )
        spec_addr = sum(
            out_values[f"addr[{i}]"] << i for i in range(width)
        )
        if spec_addr != decoded:
            mismatches.append(
                f"decoder spec diverges from behavioural model at cycle "
                f"{cycle}: spec decoded {spec_addr:#x}, model decoded "
                f"{decoded:#x}"
            )
            break
        dec_state = next_values
    return mismatches


def _report_equivalence(
    report: AnalysisReport,
    codec: str,
    rule: str,
    role: str,
    result: EquivalenceResult,
    netlist_name: str,
) -> None:
    for cex in result.counterexamples:
        data = cex.to_dict()
        data["codec"] = codec
        replay_note = (
            "; replay attached" if cex.replay is not None
            else "; state may be unreachable (no replay)"
        )
        report.add(
            rule,
            Severity.ERROR,
            f"{role} netlist disagrees with the paper spec on "
            f"{cex.function}: implementation={cex.impl_value}, "
            f"spec={cex.spec_value}{replay_note}",
            subjects=(netlist_name, cex.function),
            data=data,
        )
    if result.fallbacks:
        report.add(
            "FV008",
            Severity.INFO,
            f"{role}: BDD node budget exceeded; SAT backend decided the "
            f"remaining functions",
            subjects=(netlist_name,),
        )


def prove_codec(
    name: str, options: Optional[ProveOptions] = None
) -> AnalysisReport:
    """Run the complete formal battery against one codec pair."""
    options = options or ProveOptions()
    report = AnalysisReport(
        target=f"{name}@{options.width}", pass_name="formal"
    )
    started = time.perf_counter()
    try:
        encoder = ENCODER_BUILDERS[name](width=options.width)
        decoder = DECODER_BUILDERS[name](width=options.width)
    except Exception as exc:  # noqa: BLE001 - report, don't crash the pass
        report.add(
            "FV001",
            Severity.ERROR,
            f"building codec {name!r} at width {options.width} failed: "
            f"{type(exc).__name__}: {exc}",
            subjects=(name,),
        )
        return report

    # --- spec vs behavioural model (FV010) ------------------------------
    if options.crosscheck:
        init_state = {
            "encoder": {
                encoder.netlist.net_name(q): init
                for _, q, init in encoder.netlist.flops
            },
            "decoder": {
                decoder.netlist.net_name(q): init
                for _, q, init in decoder.netlist.flops
            },
        }
        with obs_span("crosscheck", codec=name):
            mismatches = crosscheck_spec(
                name,
                options.width,
                options.stride,
                encoder.extra_lines,
                init_state,
                encoder.uses_sel,
            )
        for description in mismatches:
            report.add(
                "FV010", Severity.ERROR, description, subjects=(name,)
            )
        if not report.ok:
            return report  # a broken spec invalidates every proof below

    # --- combinational equivalence (FV001 / FV002) ----------------------
    backend_counts: Dict[str, int] = {}
    for role, circuit, rule in (
        ("encoder", encoder, "FV001"),
        ("decoder", decoder, "FV002"),
    ):
        with obs_span("equivalence", codec=name, role=role):
            result = check_equivalence(
                name,
                role,
                circuit.netlist,
                options.width,
                stride=options.stride,
                backend=options.backend,
                node_limit=options.node_limit,
            )
        _report_equivalence(
            report, name, rule, role, result, circuit.netlist.name
        )
        for backend in result.backends.values():
            backend_counts[backend] = backend_counts.get(backend, 0) + 1

    # --- sequential checks (FV003…FV007) --------------------------------
    with obs_span("sequential", codec=name):
        seq = check_sequential(
            name,
            encoder.netlist,
            decoder.netlist,
            options.width,
            stride=options.stride,
            bmc_depth=options.bmc_depth,
            k_max=options.k_max,
            node_limit=options.node_limit,
            cut_threshold=options.cut_threshold,
        )
    for flop in seq.reset_mismatches:
        report.add(
            "FV006",
            Severity.ERROR,
            f"mirrored register {flop!r} resets to different values in "
            "encoder and decoder — the pair starts desynchronized",
            subjects=(name, flop),
        )
    for failure in seq.protocol_failures:
        data = failure.to_dict()
        data["codec"] = name
        report.add(
            "FV005",
            Severity.ERROR,
            f"redundant-line protocol violated: {failure.description}",
            subjects=(name,),
            data=data,
        )
    if seq.bmc_violation is not None:
        cex = seq.bmc_violation
        data = cex.to_dict()
        data["replay"]["codec"] = name  # type: ignore[index]
        report.add(
            "FV003",
            Severity.ERROR,
            f"BMC disproved the {cex.property} guarantee at cycle "
            f"{cex.cycle} from reset; replay attached",
            subjects=(name,),
            data=data,
        )
    elif seq.induction_k is None:
        report.add(
            "FV004",
            Severity.WARNING,
            f"k-induction inconclusive up to k={seq.k_max}; the roundtrip "
            f"guarantee is verified only to BMC depth {seq.bmc_depth}",
            subjects=(name,),
        )
    if seq.proven:
        lemma = (
            f"lemma over {len(seq.lemma_flops)} mirrored registers"
            if seq.lemma_flops
            else "no lemma needed"
        )
        notes = []
        if seq.cuts_used:
            notes.append(f"{seq.cuts_used} cut points")
        if seq.sat_fallbacks:
            notes.append(f"{seq.sat_fallbacks} SAT fallbacks")
        report.add(
            "FV007",
            Severity.INFO,
            f"decode(encode(a)) == a proven from every reachable state by "
            f"{seq.induction_k}-induction ({lemma}"
            + (", " + ", ".join(notes) if notes else "")
            + ")",
            subjects=(name,),
        )

    # --- summary (FV000) ------------------------------------------------
    elapsed = time.perf_counter() - started
    backends = ", ".join(
        f"{backend}={count}"
        for backend, count in sorted(backend_counts.items())
    )
    report.add(
        "FV000",
        Severity.INFO,
        f"checked {sum(backend_counts.values())} combinational functions "
        f"({backends}) and {seq.protocol_checked} protocol invariants in "
        f"{elapsed:.1f}s",
        subjects=(name,),
    )
    return report


def collect_replays(
    reports: Sequence[AnalysisReport],
) -> List[Dict[str, object]]:
    """Extract the replayable counterexample vectors from prove reports.

    These feed :func:`repro.analysis.contracts.replay_formal_counterexamples`
    so that every formally found defect becomes a concrete regression
    vector against the behavioural models.
    """
    replays: List[Dict[str, object]] = []
    for report in reports:
        for finding in report.findings:
            if finding.data is None:
                continue
            replay = finding.data.get("replay")
            if replay is None:
                continue
            replay = dict(replay)  # type: ignore[arg-type]
            replay.setdefault("codec", finding.data.get("codec"))
            replay.setdefault("rule", finding.rule)
            replays.append(replay)
    return replays
