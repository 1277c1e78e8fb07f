"""CPU-time measurement.

The paper reports CPU seconds on a Sun Ultra-30/300; we report CPU
seconds on the host.  :class:`Stopwatch` uses ``time.process_time`` so
results are insensitive to wall-clock noise.  Telemetry spans build on
the same two clocks exposed here: :func:`wall_clock` for trace
timestamps (monotonic, high resolution) and :func:`cpu_clock` for the
paper-comparable CPU column.
"""

from __future__ import annotations

import time
from typing import Optional

#: Monotonic wall clock used for span timestamps and durations.
wall_clock = time.perf_counter

#: Process CPU clock used for the paper-comparable CPU-seconds column.
cpu_clock = time.process_time


class Stopwatch:
    """Accumulating process-CPU-time stopwatch.

    Usage::

        watch = Stopwatch()
        with watch:
            expensive_call()
        print(watch.elapsed)
    """

    def __init__(self) -> None:
        self._accumulated = 0.0
        self._started_at: Optional[float] = None

    def start(self) -> None:
        """Start timing (error if already running)."""
        if self._started_at is not None:
            raise RuntimeError("stopwatch already running")
        self._started_at = cpu_clock()

    def stop(self) -> float:
        """Stop and return the total accumulated CPU seconds."""
        if self._started_at is None:
            raise RuntimeError("stopwatch is not running")
        self._accumulated += cpu_clock() - self._started_at
        self._started_at = None
        return self._accumulated

    def reset(self) -> None:
        """Zero the accumulator and stop timing."""
        self._accumulated = 0.0
        self._started_at = None

    @property
    def running(self) -> bool:
        """True while the stopwatch is started."""
        return self._started_at is not None

    @property
    def elapsed(self) -> float:
        """Accumulated CPU seconds (including the running span, if any)."""
        total = self._accumulated
        if self._started_at is not None:
            total += cpu_clock() - self._started_at
        return total

    def __enter__(self) -> "Stopwatch":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
