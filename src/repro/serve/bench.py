"""The zipfian compile-job mix: a small universe of (example program ×
machine × config) jobs sampled with popularity ∝ 1/rank^s, the
canonical shape of real compile traffic (a few hot translation units
dominate, a long tail trickles).

The batch workloads of the repo benchmark (``python -m bench``) draw
their job mix with :func:`zipfian_mix` over :data:`DEFAULT_UNIVERSE`;
the serve tests and CI's serve-smoke job drive ``run_batch`` with it.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.serve.service import CompileJob

#: (label, example file, machine spec, config overrides).  The
#: level-window-off configs push the covering search — the part a cache
#: hit skips — toward the profile the paper calls "the most time
#: consuming portion", which is exactly the regime a warm cache pays
#: off in.
DEFAULT_UNIVERSE: Tuple[Tuple[str, str, str, Dict[str, Any]], ...] = (
    ("fir4@fig6", "examples/fir4.minic", "fig6", {}),
    ("fir4@arch1", "examples/fir4.minic", "arch1", {}),
    ("fir4@mac", "examples/fir4.minic", "mac", {}),
    ("dotprod@fig6", "examples/dotprod.minic", "fig6",
     {"level_window": None, "num_assignments": 2}),
    ("dotprod@arch1", "examples/dotprod.minic", "arch1", {}),
    ("dotprod@dualbus", "examples/dotprod.minic", "dualbus", {}),
    ("branchy@cf", "examples/branchy.minic", "cf", {}),
    ("fir4@single", "examples/fir4.minic", "single", {}),
)


def zipfian_mix(
    universe: Sequence[CompileJob],
    draws: int,
    seed: int = 0,
    exponent: float = 1.2,
) -> List[CompileJob]:
    """``draws`` jobs sampled zipfian over ``universe`` (rank = position).

    Every universe member appears at least once (a mix that never
    touches the tail would overstate the hit rate), then the remaining
    draws follow popularity ∝ 1/(rank+1)^exponent under a seeded RNG.
    """
    if not universe:
        raise ValueError("job universe must not be empty")
    rng = random.Random(seed)
    weights = [1.0 / (rank + 1) ** exponent for rank in range(len(universe))]
    mix = list(universe[: draws])
    while len(mix) < draws:
        mix.append(rng.choices(universe, weights=weights, k=1)[0])
    rng.shuffle(mix)
    return mix


def build_universe(
    repo_root: Optional[Path] = None,
    universe: Sequence[Tuple[str, str, str, Dict[str, Any]]] = DEFAULT_UNIVERSE,
) -> List[CompileJob]:
    """Materialize the default job universe into self-contained jobs."""
    from repro.cli import resolve_machine
    from repro.isdl.writer import machine_to_isdl

    root = Path(repo_root) if repo_root is not None else Path.cwd()
    jobs: List[CompileJob] = []
    for label, example, machine_spec, config in universe:
        source = (root / example).read_text()
        machine_isdl = machine_to_isdl(resolve_machine(machine_spec))
        jobs.append(
            CompileJob(
                job_id=label,
                source=source,
                machine_isdl=machine_isdl,
                config=dict(config),
            )
        )
    return jobs
