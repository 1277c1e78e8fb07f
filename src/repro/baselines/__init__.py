"""The comparison code generator.

:mod:`repro.baselines.sequential` is a conventional *phase-ordered*
code generator (select units, then insert transfers, then list-schedule,
then allocate).  This is the style of compiler the paper argues against;
the ablation benches measure the cost of decoupling the phases.

The paper's other comparison, its hand-coded optimal solutions ("the
hand-coded results are all optimal"), is the constraint solver's proven
minimum in :mod:`repro.optimal`.
"""

from repro.baselines.sequential import sequential_block_solution

__all__ = [
    "sequential_block_solution",
]
