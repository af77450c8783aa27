"""The bind/release mix of the paper's §9.5.1 (Figure 10).

The schema, the object generator and the operation totals come from the
program's own spec, ``repro.bench.workload``, so the two cannot drift
apart.  This module adds only what the benchmark needs on top: how one
experiment's totals split over its operations and their transactions.
"""

from __future__ import annotations

from typing import Dict, List

from repro.bench.workload import (  # noqa: F401  (re-exported spec)
    FIGURE_10,
    INITIAL_OBJECTS,
    _spread,
    make_object,
    make_schema,
)

#: "The experiment consists of 10 consecutive bind or release operations."
OPS_PER_EXPERIMENT = 10
#: share of reads that go through an exact-match index lookup (the
#: program's spec hard-codes the same 0.15)
LOOKUP_SHARE = 0.15
#: first ident handed to objects added by experiments
FIRST_NEW_IDENT = 100_001


def index_fields(schema) -> List[str]:
    """Every object field some index of ``schema`` keys on."""
    return sorted({index.field for spec in schema for index in spec.indexes})


def operation_budgets(kind: str) -> List[List[Dict[str, int]]]:
    """Per operation of one experiment, per transaction: how many reads,
    updates, deletes and adds it performs."""
    mix = FIGURE_10[kind]
    commits = mix["commit"] // OPS_PER_EXPERIMENT
    per_op = {
        op: _spread(total, OPS_PER_EXPERIMENT)
        for op, total in mix.items()
        if op != "commit"
    }
    operations = []
    for index in range(OPS_PER_EXPERIMENT):
        per_tx = {op: _spread(per_op[op][index], commits) for op in per_op}
        operations.append(
            [{op: per_tx[op][phase] for op in per_tx} for phase in range(commits)]
        )
    return operations
