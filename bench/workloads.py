"""The four workloads: their inputs, their requests and their sizes.

Every workload is a closed loop: one client in one generator process
sends its next request when the previous one returns.  A *round* of a
compile workload sends each of its requests once, in an order drawn
from the seed; a round of a batch workload sends one batch, the fixed
job mix.  All inputs are read from ``bench/inputs/`` (see its README for why each
was chosen), so edits to ``examples/``, ``machines/`` or
``repro.eval.workloads`` cannot move the benchmark.

The requests themselves live in :mod:`bench.requests`; this module
imports nothing from ``repro``.
"""

from __future__ import annotations

import hashlib
import os
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Sequence, Tuple

from bench import BENCH_DIR

INPUTS = BENCH_DIR / "inputs"


def pool_workers() -> int:
    """Batch pool width: two workers, or fewer on a smaller machine."""
    return min(2, len(os.sched_getaffinity(0)))


@dataclass(frozen=True)
class Item:
    """One distinct request: a program on a machine, with config overrides.

    ``program`` is a path under ``bench/inputs/``; ``machine`` names
    ``bench/inputs/machines/<machine>.isdl``.
    """

    program: str
    machine: str
    config: Tuple[Tuple[str, Any], ...] = ()
    tag: str = ""

    @property
    def label(self) -> str:
        stem = Path(self.program).stem
        suffix = f"/{self.tag}" if self.tag else ""
        return f"{stem}@{self.machine}{suffix}"

    def source(self) -> str:
        return (INPUTS / self.program).read_text()

    def machine_isdl(self) -> str:
        return (INPUTS / "machines" / f"{self.machine}.isdl").read_text()

    def discard(self) -> Tuple[str, ...]:
        """Stores a paper block drops before code generation (its
        unrolled induction variables), from its ``// discard:`` line."""
        for line in self.source().splitlines():
            if line.startswith("// discard:"):
                return tuple(line.split(":", 1)[1].split())
        return ()


@dataclass(frozen=True)
class Workload:
    name: str
    #: "block" (paper basic blocks), "program" (whole examples) or "batch".
    kind: str
    items: Tuple[Item, ...]
    smoke_items: Tuple[Item, ...]
    #: The request ``setup`` launches send once; the cheapest item.
    cheapest: Item
    #: Rounds of a full ``bench run`` timed pass and traced pass.
    rounds: int
    traced_rounds: int
    #: Why the workload exists: what it stresses and what it predicts.
    why: str
    warm: bool = False
    #: Batch workloads: the labels of one batch's jobs, in order.
    mix: Tuple[str, ...] = ()
    smoke_mix: Tuple[str, ...] = ()


def _items(programs: Sequence[str], machines: Sequence[str]) -> Tuple[Item, ...]:
    return tuple(Item(p, m) for p in programs for m in machines)


_BLOCKS = tuple(f"blocks/Ex{n}.minic" for n in range(1, 6))
_ALL_MACHINES = ("arch1", "arch2", "fig6", "dualbus", "mac", "single", "cf", "pipe")
_FIR4, _DOTPROD, _BRANCHY = (
    "programs/fir4.minic", "programs/dotprod.minic", "programs/branchy.minic",
)

#: The batch universe in zipf rank order, rank 1 (most popular) first:
#: ``repro.serve.bench.DEFAULT_UNIVERSE`` in its own order, then
#: fir4@dualbus, the heaviest job, least popular.  The level-window-off
#: config is the serve-bench's covering-heavy setting for dotprod@fig6.
_UNIVERSE = (
    Item(_FIR4, "fig6"),
    Item(_FIR4, "arch1"),
    Item(_FIR4, "mac"),
    Item(_DOTPROD, "fig6", (("level_window", None), ("num_assignments", 2)), "lw-off"),
    Item(_DOTPROD, "arch1"),
    Item(_DOTPROD, "dualbus"),
    Item(_BRANCHY, "cf"),
    Item(_FIR4, "single"),
    Item(_FIR4, "dualbus"),
)
_SMOKE_UNIVERSE = (
    Item(_DOTPROD, "arch1"),
    Item(_BRANCHY, "cf"),
    Item(_FIR4, "single"),
)

#: One batch: ``repro.serve.bench.zipfian_mix(universe, 24, seed=0)``
#: over the labels of ``_UNIVERSE`` (every job once, the rest drawn with
#: popularity ∝ 1/rank**1.2, then shuffled), kept here so that every
#: batch of every run, whatever its seed, sends the same jobs in the same
#: order.  With a mix drawn per seed, warm batch time followed how many
#: fir4 jobs the seed drew and cold batch time how the heaviest jobs fell
#: on the two workers.  Repeats such as the two leading fir4@arch1 jobs
#: race their first copies, as in the serve bench, so a cold batch
#: compiles some jobs twice (``serve.duplicate_compiles``).
_MIX = (
    "fir4@arch1", "fir4@arch1", "fir4@fig6", "fir4@fig6", "dotprod@fig6/lw-off",
    "fir4@arch1", "fir4@fig6", "fir4@single", "fir4@arch1", "fir4@fig6",
    "fir4@fig6", "branchy@cf", "dotprod@dualbus", "fir4@arch1", "fir4@mac",
    "dotprod@fig6/lw-off", "dotprod@fig6/lw-off", "fir4@mac", "dotprod@fig6/lw-off",
    "dotprod@arch1", "dotprod@arch1", "branchy@cf", "fir4@arch1", "fir4@dualbus",
)
#: ``zipfian_mix(smoke universe, 6, seed=0)``.
_SMOKE_MIX = (
    "dotprod@arch1", "dotprod@arch1", "branchy@cf", "fir4@single", "branchy@cf",
    "fir4@single",
)

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="paper-blocks",
            kind="block",
            items=_items(_BLOCKS, ("arch1", "arch1_r2", "arch2", "arch2_r2")),
            smoke_items=_items(_BLOCKS[:2], ("arch2",)),
            cheapest=Item(_BLOCKS[0], "arch2"),
            rounds=30,
            traced_rounds=5,
            why=(
                "the paper's Ex1-Ex5 blocks: small DAGs where fixed per-compile "
                "cost, sndag and assignment exploration outweigh clique covering"
            ),
        ),
        Workload(
            name="examples-cold",
            kind="program",
            items=(
                _items((_FIR4,), ("arch1", "arch2", "fig6", "single", "cf", "pipe"))
                + _items((_DOTPROD,), _ALL_MACHINES)
                + _items((_BRANCHY,), ("single", "cf"))
            ),
            smoke_items=_items((_DOTPROD,), ("arch1", "single")) + (
                Item(_BRANCHY, "cf"),
            ),
            cheapest=Item(_DOTPROD, "single"),
            rounds=7,
            traced_rounds=2,
            why=(
                "the repro compile path on whole example programs with no "
                "cache: covering-bound, so clique and spill work shows here"
            ),
        ),
        Workload(
            name="batch-cold",
            kind="batch",
            items=_UNIVERSE,
            smoke_items=_SMOKE_UNIVERSE,
            cheapest=Item(_BRANCHY, "cf"),
            rounds=6,
            traced_rounds=1,
            why=(
                "a zipf job mix through the batch pool, each batch on an empty "
                "cache: covering plus cache writes, slowest job sets batch time"
            ),
            mix=_MIX,
            smoke_mix=_SMOKE_MIX,
        ),
        Workload(
            name="batch-warm",
            kind="batch",
            items=_UNIVERSE,
            smoke_items=_SMOKE_UNIVERSE,
            cheapest=Item(_BRANCHY, "cf"),
            rounds=60,
            traced_rounds=10,
            warm=True,
            why=(
                "the same mix on a filled cache: covering is bypassed, so this "
                "is the control for covering changes"
            ),
            mix=_MIX,
            smoke_mix=_SMOKE_MIX,
        ),
    )
}


def rng(*parts: Any) -> random.Random:
    """A generator seeded from ``parts`` (stable across interpreters)."""
    return random.Random("/".join(str(part) for part in parts))


def digest(listing: str) -> str:
    return hashlib.sha256(listing.encode()).hexdigest()
