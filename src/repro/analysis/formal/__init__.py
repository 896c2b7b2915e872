"""Symbolic verification of the gate-level codecs (rule family ``FV``).

A self-contained formal stack — hash-consed Boolean expressions
(:mod:`.expr`), a reduced ordered BDD engine (:mod:`.bdd`), a Tseitin
encoder and CDCL SAT solver (:mod:`.cnf`, :mod:`.sat`) — applied to the
netlists in :mod:`repro.rtl.codecs`:

* :mod:`.symbolic` lifts gate graphs into expressions;
* :mod:`.specs` transcribes the paper's encoder/decoder equations into
  word-level reference models;
* :mod:`.equivalence` proves netlist ≡ spec for every output and flop at
  full bus width;
* :mod:`.induction` proves ``decode(encode(a)) == a`` from every
  reachable state by BMC plus auto-strengthened k-induction, and the
  redundant-line protocols along the way;
* :mod:`.prove` orchestrates it all into ``repro-bus prove`` reports.
"""

from repro.analysis.formal.bdd import BDD, DEFAULT_NODE_LIMIT, BddBlowup
from repro.analysis.formal.cnf import Cnf, tseitin
from repro.analysis.formal.equivalence import (
    BACKEND_AUTO,
    BACKEND_BDD,
    BACKEND_SAT,
    Counterexample,
    EquivalenceResult,
    check_equivalence,
)
from repro.analysis.formal.expr import Context, ExprId
from repro.analysis.formal.induction import (
    DEFAULT_CUT_THRESHOLD,
    ProtocolFailure,
    SequentialCounterexample,
    SequentialResult,
    check_sequential,
)
from repro.analysis.formal.prove import (
    FORMAL_CODECS,
    ProveOptions,
    collect_replays,
    crosscheck_spec,
    prove_codec,
)
from repro.analysis.formal.sat import SatBudgetExceeded, SatSolver
from repro.analysis.formal.specs import (
    SPEC_BUILDERS,
    SpecIO,
    build_spec,
    protocol_properties,
)
from repro.analysis.formal.symbolic import (
    LiftedCircuit,
    interleaved_order,
    lift,
    lift_circuit,
)

__all__ = [
    "BACKEND_AUTO",
    "BACKEND_BDD",
    "BACKEND_SAT",
    "BDD",
    "BddBlowup",
    "Cnf",
    "Context",
    "Counterexample",
    "DEFAULT_CUT_THRESHOLD",
    "DEFAULT_NODE_LIMIT",
    "EquivalenceResult",
    "ExprId",
    "FORMAL_CODECS",
    "LiftedCircuit",
    "ProtocolFailure",
    "ProveOptions",
    "SatBudgetExceeded",
    "SatSolver",
    "SequentialCounterexample",
    "SequentialResult",
    "SpecIO",
    "SPEC_BUILDERS",
    "build_spec",
    "check_equivalence",
    "check_sequential",
    "collect_replays",
    "crosscheck_spec",
    "interleaved_order",
    "lift",
    "lift_circuit",
    "protocol_properties",
    "prove_codec",
    "tseitin",
]
