"""Architecture exploration: the machine space as a workload.

``repro explore`` turns the serial :mod:`repro.eval.sweeps` helpers
into a parallel service: generate a seeded population of machine
variants (:mod:`repro.explore.population`), evaluate each against a
workload suite through the process pool and persistent block cache
(:mod:`repro.explore.evaluate`), rank by the schedule-quality axes,
and emit the deterministic Pareto-frontier artifact
(``repro/bench-explore/v1``, :mod:`repro.explore.service`).  See
``docs/exploration.md``.
"""

from repro.explore.evaluate import (
    corpus_workloads,
    default_workloads,
    evaluate_candidate,
    make_payloads,
    tighten_candidate,
)
from repro.explore.pareto import dominates, pareto_frontier
from repro.explore.population import (
    ExploreCandidate,
    MUTATION_OPERATORS,
    area_proxy,
    build_population,
    load_base_machines,
    mutate_machine,
    structure_fingerprint,
)
from repro.explore.service import (
    AXES,
    EXPLORE_SCHEMA,
    candidate_vector,
    format_explore_table,
    run_explore,
)

__all__ = [
    "AXES",
    "EXPLORE_SCHEMA",
    "ExploreCandidate",
    "MUTATION_OPERATORS",
    "area_proxy",
    "build_population",
    "candidate_vector",
    "corpus_workloads",
    "default_workloads",
    "dominates",
    "evaluate_candidate",
    "format_explore_table",
    "load_base_machines",
    "make_payloads",
    "mutate_machine",
    "pareto_frontier",
    "run_explore",
    "structure_fingerprint",
    "tighten_candidate",
]
