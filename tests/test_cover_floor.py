"""The covering loop's branch-and-bound floor (``cover._RemainingWork``).

A bounded cover gives up once the schedule so far plus the floor — the
cycles its uncovered tasks still need at the least — reaches the
incumbent's length.  Two properties are checked over one sweep: the
frozen fuzz corpus, every example × machine file, the paper workloads
on Architecture I with 4 and 2 registers, and the clique-heavy hot-path
workloads.

- **Differential:** with the floor forced to 0 — exactly the old rule,
  "stop when the schedule reaches the bound" — every block gets the
  same schedule, spills, reloads and winning assignment.  (It can
  differ elsewhere: stopping a ``consumer`` cover that would have
  failed later skips the engine's ``arrival`` retry, and two random
  fuzz programs get longer code that way.)
- **Soundness:** on covers without a bound, the floor never claims more
  than the schedule goes on to need, its incremental counts equal a
  full recount, and no spill lowers the uncovered XFER count.
"""

from __future__ import annotations

from pathlib import Path
from typing import List

import repro.covering.cover as cover
from repro.cli import resolve_machine
from repro.covering import HeuristicConfig, TaskGraph, generate_block_solution
from repro.covering.taskgraph import TaskKind
from repro.errors import ReproError
from repro.eval.workloads import WORKLOADS
from repro.frontend import compile_source
from repro.fuzz import load_case
from repro.ir.cfg import Branch
from repro.isdl import example_architecture

from test_cover_hotpath import HOTPATH_WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
DEFAULT = HeuristicConfig.default()


def _program_blocks(label, source, machine, config):
    function = compile_source(source)
    for block in function:
        pin = None
        if isinstance(block.terminator, Branch):
            pin = block.terminator.condition
        yield f"{label}/{block.name}", block.dag, machine, config, pin


def _sweep():
    """(label, dag, machine, config, pin value) for every block."""
    items = []
    for path in sorted((ROOT / "tests" / "corpus").glob("*.json")):
        case = load_case(path)
        items.extend(
            _program_blocks(
                path.stem, case.source, case.machine, case.heuristic_config()
            )
        )
    for example in sorted((ROOT / "examples").glob("*.minic")):
        for spec in sorted((ROOT / "machines").glob("*.isdl")):
            items.extend(
                _program_blocks(
                    f"{example.stem}@{spec.stem}",
                    example.read_text(),
                    resolve_machine(str(spec)),
                    DEFAULT,
                )
            )
    for registers in (4, 2):
        machine = example_architecture(registers)
        for load in WORKLOADS:
            items.append(
                (f"{load.name}@arch1:{registers}", load.build(), machine,
                 DEFAULT, None)
            )
    for param in HOTPATH_WORKLOADS:
        build, registers, overrides = param.values[:3]
        items.append(
            (param.id, build(), example_architecture(registers),
             HeuristicConfig(**overrides), None)
        )
    return items


def _solve_sweep(config_for=lambda config: config):
    """label -> (schedule, spills, reloads, winning assignment), or
    ("error", message) when the block cannot be covered."""
    outcome = {}
    for label, dag, machine, config, pin in _sweep():
        try:
            solution = generate_block_solution(
                dag, machine, config_for(config), pin_value=pin
            )
        except ReproError as error:
            outcome[label] = ("error", str(error))
            continue
        outcome[label] = (
            [sorted(word) for word in solution.schedule],
            solution.spill_count,
            solution.reload_count,
            solution.assignment.signature(),
        )
    return outcome


def test_floor_zero_gives_the_same_results(monkeypatch):
    """On the sweep the floor only cuts covers short; no winner
    changes."""
    with_floor = _solve_sweep()
    monkeypatch.setattr(cover._RemainingWork, "cycles", lambda self: 0)
    without_floor = _solve_sweep()
    assert with_floor.keys() == without_floor.keys()
    changed = sorted(
        label
        for label in with_floor
        if with_floor[label] != without_floor[label]
    )
    assert not changed, f"blocks whose result changed: {changed}"
    # The sweep covers real schedules, spills and uncoverable pairs.
    results = list(with_floor.values())
    assert sum(r[0] != "error" for r in results) > 100
    assert any(r[0] != "error" and r[1] for r in results)
    assert any(r[0] == "error" for r in results)


def _uncovered_work(graph: TaskGraph, covered):
    """(uncovered OP tasks per unit, uncovered XFER tasks)."""
    ops = {}
    xfers = 0
    for task_id, task in graph.tasks.items():
        if task_id in covered:
            continue
        if task.kind is TaskKind.OP:
            ops[task.resource] = ops.get(task.resource, 0) + 1
        else:
            xfers += 1
    return ops, xfers


def test_floor_is_sound_on_unbounded_covers(monkeypatch):
    """With branch-and-bound off every cover in the sweep runs to the
    end, so each floor the loop kept can be held against the schedule
    it went on to produce."""
    floors: List[cover._RemainingWork] = []
    #: per finished cover: (final length, [(len(schedule), floor) at
    #: the top of each loop iteration])
    observed = []
    #: uncovered-XFER growth of each spill
    spills = []
    base = cover._RemainingWork

    class Checked(base):
        """The production floor, held against a full recount."""

        def __init__(self, graph, uncovered):
            self.graph = graph
            self.left = set(uncovered)
            self.seen = []
            super().__init__(graph, uncovered)
            floors.append(self)

        def _check(self):
            fresh = base(self.graph, self.left)
            kept = {unit: n for unit, n in self.ops.items() if n}
            assert (kept, self.xfers) == (fresh.ops, fresh.xfers)

        def recount(self, graph, uncovered):
            super().recount(graph, uncovered)
            self.left = set(uncovered)

        def commit(self, graph, members):
            super().commit(graph, members)
            self.left.difference_update(members)
            self._check()

    ready_advance = cover._ReadyState.advance

    def advance(state, now):
        # Called once per cycle, right after the bound check, with
        # now == len(schedule).
        floors[-1].seen.append((now, floors[-1].cycles()))
        ready_advance(state, now)

    spill_delivery = TaskGraph.spill_delivery

    def checked_spill(graph, delivery_id, covered, ready=None):
        ops, xfers = _uncovered_work(graph, covered)
        result = spill_delivery(graph, delivery_id, covered, ready=ready)
        after_ops, after_xfers = _uncovered_work(graph, covered)
        assert after_ops == ops, "a spill changed the OP tasks"
        assert after_xfers >= xfers, "a spill lowered the XFER count"
        spills.append(after_xfers - xfers)
        return result

    production = cover._cover_loop_masks

    def checked_loop(graph, config, bound, stuck_strategy, stats):
        assert bound is None
        start = len(floors)
        result = production(graph, config, bound, stuck_strategy, stats)
        floor = floors[start]
        floor._check()
        observed.append((len(result.schedule), floor.seen))
        return result

    monkeypatch.setattr(cover, "_RemainingWork", Checked)
    monkeypatch.setattr(cover._ReadyState, "advance", advance)
    monkeypatch.setattr(TaskGraph, "spill_delivery", checked_spill)
    monkeypatch.setattr(cover, "_cover_loop_masks", checked_loop)
    _solve_sweep(lambda config: config.with_(branch_and_bound=False))

    assert len(observed) > 400 and spills
    for final, seen in observed:
        for now, floor in seen:
            assert now + floor <= final, (now, floor, final)
