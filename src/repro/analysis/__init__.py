"""Static analysis for the optimizer and the codebase.

Three parts, all *beside* the engine rather than inside it (the
shaclAPI pattern):

* :mod:`.plan_verifier` / :mod:`.invariants` — a plan-invariant
  verifier that walks any emitted plan tree and asserts the paper's
  structural guarantees (cbd/cmd connectivity of Algorithms 2–3, Rules
  1–3 of TD-CMDP, partition-aware local queries, cost-model agreement)
  without executing the plan.
* :mod:`.lint` — an AST-based lint with repo-specific determinism and
  correctness rules (LINT001–LINT005), catching the bug class of
  hash-seed-ordered ``frozenset`` iteration.
* :mod:`.concurrency` — lock discipline, blocking or nested locking
  under a lock, and pickle / fork safety at the process boundary
  (LINT010–LINT013).
"""

from .invariants import (
    ChildCoverageGap,
    CostMismatch,
    DisconnectedDivision,
    InvariantViolation,
    KAryBroadcast,
    MalformedPlanNode,
    NonCoLocatedLocalQuery,
    OverlappingChildBitsets,
    VariableBindingViolation,
    VerificationReport,
)
from .plan_verifier import (
    PlanVerifier,
    VerificationContext,
    profile_for_algorithm,
    verify_result,
)

__all__ = [
    "InvariantViolation",
    "MalformedPlanNode",
    "DisconnectedDivision",
    "OverlappingChildBitsets",
    "ChildCoverageGap",
    "KAryBroadcast",
    "NonCoLocatedLocalQuery",
    "CostMismatch",
    "VariableBindingViolation",
    "VerificationReport",
    "PlanVerifier",
    "VerificationContext",
    "verify_result",
    "profile_for_algorithm",
]
