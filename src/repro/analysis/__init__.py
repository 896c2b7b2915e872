"""Static analysis passes: lint, activity, contracts, formal verification.

Four independent correctness tools over the package's two codec surfaces
(the gate-level circuits in :mod:`repro.rtl` and the behavioural codecs in
:mod:`repro.core`), exposed through ``repro-bus lint`` and ``repro-bus
prove``:

* :mod:`repro.analysis.netlint` — structural rules over
  :class:`~repro.rtl.netlist.Netlist` (undriven flops, dead gates,
  combinational loops, …), rule ids ``NL*``/``CK*``;
* :mod:`repro.analysis.activity` — probabilistic switching-activity
  estimation cross-checked against the cycle-based simulator, ``AC*``;
* :mod:`repro.analysis.contracts` — encoder/decoder contract checking with
  exhaustive small-width state exploration, ``CC*``;
* :mod:`repro.analysis.formal` — symbolic equivalence against word-level
  specs and k-induction proofs of ``decode(encode(a)) == a`` at full bus
  width (BDD engine with CDCL SAT fallback), ``FV*``.  Deliberately *not*
  re-exported here: ``repro-bus lint`` should not pay for the solver
  imports, and the formal surface lives behind
  ``from repro.analysis.formal import ...``.

The rule catalog is documented in ``docs/analysis.md``.
"""

from repro.analysis.activity import (
    AGREEMENT_TOLERANCES,
    ActivityAnalysis,
    AgreementReport,
    analyze_netlist,
    check_agreement,
    compare_with_simulation,
    input_statistics,
    measured_activities,
    random_vectors,
    tolerances_for,
)
from repro.analysis.contracts import (
    check_codec,
    explore_state_space,
    small_width_params,
)
from repro.analysis.netlint import lint_circuit, lint_netlist
from repro.analysis.report import (
    AnalysisReport,
    Finding,
    Severity,
    summarize,
)

__all__ = [
    "AGREEMENT_TOLERANCES",
    "ActivityAnalysis",
    "AgreementReport",
    "AnalysisReport",
    "Finding",
    "Severity",
    "analyze_netlist",
    "check_agreement",
    "check_codec",
    "compare_with_simulation",
    "explore_state_space",
    "input_statistics",
    "lint_circuit",
    "lint_netlist",
    "measured_activities",
    "random_vectors",
    "small_width_params",
    "summarize",
    "tolerances_for",
]
