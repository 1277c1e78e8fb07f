"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

Run from the root of a checkout::

    PYTHONPATH=src python -m bench run --seed 1
    python -m bench compare BASE-1.json BASE-2.json HEAD-1.json HEAD-2.json

See ``bench/README.md`` for the workloads, metrics, bounds and the
layer-to-metric map.  The package imports ``repro`` from the checkout's
own ``src/`` (never from an installed copy), so a benchmark run always
measures the code beside it.
"""

from __future__ import annotations

import sys
from pathlib import Path

#: This package's directory and the checkout root it measures.
BENCH_DIR = Path(__file__).resolve().parent
CHECKOUT = BENCH_DIR.parent
SRC = CHECKOUT / "src"
#: Everything a run writes: results, traces, scratch caches, temp files.
OUT = BENCH_DIR / "out"


class CheckoutError(RuntimeError):
    """The checkout has no importable ``src/repro`` to measure."""


def use_checkout_src() -> None:
    """Put the checkout's ``src/`` first on ``sys.path`` and import
    ``repro`` from it; raise :class:`CheckoutError` when that fails or
    resolves to a copy outside the checkout."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as error:
        raise CheckoutError(f"cannot import repro from {SRC}: {error}") from None
    origin = Path(repro.__file__).resolve()
    if SRC not in origin.parents:
        raise CheckoutError(
            f"repro resolved to {origin}, outside this checkout's {SRC}"
        )
