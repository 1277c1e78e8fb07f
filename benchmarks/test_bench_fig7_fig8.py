"""Figures 7 and 8 — the pairwise-parallelism relation and maximal-clique
generation.

Fig. 7's matrix is reproduced verbatim from the paper and Fig. 8's
algorithm must generate exactly the cliques the paper lists:
(C1: N2), (C2: N10, N9), (C3: N10, N14).  A second bench measures the
generator on realistic task graphs with and without the level-window
heuristic of Section IV-C.2 (the heuristic must not increase the clique
count).
"""

from __future__ import annotations

import pytest

from repro.covering import (
    HeuristicConfig,
    TaskGraph,
    explore_assignments,
    generate_maximal_clique_masks,
    parallelism_masks,
)
from repro.eval import workload
from repro.isdl import example_architecture
from repro.sndag import build_split_node_dag
from repro.utils.bitset import bits, mask_of

from conftest import write_result

#: Fig. 7 verbatim, rows/cols in order N2, N9, N10, N14.
FIG7_MATRIX = [
    [0, 1, 1, 1],
    [1, 0, 0, 1],
    [1, 0, 0, 0],
    [1, 1, 0, 0],
]
FIG7_NAMES = ["N2", "N9", "N10", "N14"]


def test_bench_fig7_fig8_paper_example(benchmark):
    # One bitmask row per node: the nodes it is parallel with (0 in the
    # matrix), itself excluded — a node never merges with itself.
    rows = {
        i: mask_of(j for j, cell in enumerate(row) if cell == 0 and j != i)
        for i, row in enumerate(FIG7_MATRIX)
    }
    cliques = benchmark(generate_maximal_clique_masks, rows)
    as_names = sorted(
        tuple(sorted(FIG7_NAMES[i] for i in bits(clique)))
        for clique in cliques
    )
    lines = ["Fig. 7 matrix (0 = parallel):"]
    header = "      " + "  ".join(f"{n:>3s}" for n in FIG7_NAMES)
    lines.append(header)
    for name, row in zip(FIG7_NAMES, FIG7_MATRIX):
        lines.append(f"  {name:>3s} " + "  ".join(f"{v:3d}" for v in row))
    lines.append("")
    lines.append("Fig. 8 maximal cliques (paper: C1=(N2) C2=(N10,N9) C3=(N10,N14)):")
    for clique in as_names:
        lines.append(f"  ({', '.join(clique)})")
    write_result("fig7_fig8_cliques.txt", "\n".join(lines))
    assert as_names == [("N10", "N14"), ("N2",), ("N10", "N9")] or as_names == sorted(
        [("N2",), ("N10", "N9"), ("N10", "N14")]
    )
    assert len(cliques) == 3


@pytest.mark.parametrize("level_window", [None, 2], ids=["no-window", "window-2"])
def test_bench_fig8_on_real_task_graphs(benchmark, level_window):
    """Clique generation over the Ex5 task graph — the paper calls this
    "the most time consuming portion of our algorithm" and reduces it
    with the level-window heuristic (IV-C.2)."""
    machine = example_architecture(4)
    dag = workload("Ex5").build()
    sn = build_split_node_dag(dag, machine)
    assignment = explore_assignments(sn, HeuristicConfig.default())[0]
    graph = TaskGraph(sn, assignment)
    rows = parallelism_masks(graph, level_window=level_window)

    cliques = benchmark(generate_maximal_clique_masks, rows)
    loose = generate_maximal_clique_masks(
        parallelism_masks(graph, level_window=None)
    )
    write_result(
        f"fig8_real_cliques_{level_window}.txt",
        f"Ex5 task graph: {len(graph)} tasks, level_window={level_window}: "
        f"{len(cliques)} maximal cliques (no window: {len(loose)})",
    )
    assert len(cliques) <= len(loose)
    covered = 0
    for clique in cliques:
        covered |= clique
    assert covered == mask_of(graph.task_ids())
