"""Host-speed sampling, to take the host's slow phases out of the timings.

On a shared host each vCPU flips, independently and for seconds at a time,
between a fast state and one about 1.8 times slower (a fixed pure-Python
loop measured 2.0 ms and 3.6 ms on a 2-vCPU sandbox).  A simulation and an
emit each fall into slow phases by chance, which spread wall times by 20-30%
across runs of the same code.  The benchmark therefore samples the
host while it runs: every ``PERIOD_S`` of CPU time (``ITIMER_PROF``, so an
idle process takes no samples and each process is sampled in proportion to
its work) a ``SIGPROF`` handler times a fixed loop of builtin operations.
``factor`` turns the samples taken during a timed interval into the host's
mean speed over it, relative to a fixed reference speed; an interval's
duration times its factor is the time it would have taken on a host that ran
at the reference speed throughout.  The reference is a constant, not taken
from the run, because a whole run can fall into a slow phase.

Sampling costs about 1% of CPU time.  Pool workers forked while sampling
sample themselves and write their samples to files in ``dump_dir``, so
a pooled simulation is normalised by the speed of the CPUs that did its
work.
"""

from __future__ import annotations

import gc
import os
import signal
import time
from pathlib import Path

PERIOD_S = 0.01
# The sampling loop's duration in the fast state of the 2-vCPU sandbox the
# bounds were set on; it only sets the unit, any host is normalised to it.
REFERENCE_S = 50e-6
# An interval with fewer samples than this (a short emit, say) borrows the
# samples nearest to it in time: the host's state lasts seconds.
MIN_SAMPLES = 5
# Calls that let the interpreter specialise the loop before it is timed.
WARM_UP_CALLS = 50

_samples: list[tuple[float, float]] = []
_dump_dir: Path | None = None
_dump_fd: int | None = None


def _loop() -> int:
    # Builtins only, so that the program under test cannot change its speed.
    table: dict = {}
    total = 0
    for i in range(150):
        key = (i % 17, i % 5)
        table[key] = table.get(key, 0) + i * i % 11
        total += len(str(i))
    return total


def _sample(signum, frame) -> None:
    enabled = gc.isenabled()
    gc.disable()  # a collection of the program's heap is not host speed
    start = time.perf_counter()
    _loop()
    duration = time.perf_counter() - start
    if enabled:
        gc.enable()
    if _dump_fd is None:
        _samples.append((start, duration))
    else:
        os.write(_dump_fd, f"{start!r} {duration!r}\n".encode())


def _in_child() -> None:
    # A forked process (a pool worker) writes each sample as it takes it:
    # workers end through ``os._exit``, which runs no exit hooks.  Interval
    # timers are not inherited across fork, so sampling is re-armed.
    global _dump_fd
    _samples.clear()
    path = _dump_dir / f"samples-{os.getpid()}.txt"
    _dump_fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)


def start(dump_dir: Path | None = None) -> None:
    """Sample this process, and any process it forks if ``dump_dir`` is set."""
    global _dump_dir
    _dump_dir = dump_dir
    for _ in range(WARM_UP_CALLS):
        _loop()
    signal.signal(signal.SIGPROF, _sample)
    signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
    if dump_dir is not None:
        dump_dir.mkdir(parents=True, exist_ok=True)
        os.register_at_fork(after_in_child=_in_child)


def stop() -> list[tuple[float, float]]:
    """Stop sampling; every ``(start, duration)`` sample, forked workers' too."""
    signal.setitimer(signal.ITIMER_PROF, 0, 0)
    samples = list(_samples)
    if _dump_dir is not None:
        for path in sorted(_dump_dir.glob("samples-*.txt")):
            for line in path.read_text().splitlines():
                start, duration = line.split()
                samples.append((float(start), float(duration)))
    samples.sort()
    return samples


def factor(samples: list, start: float, end: float) -> float:
    """Mean host speed over ``[start, end]``, relative to ``REFERENCE_S``."""
    inside = [d for t, d in samples if start <= t <= end]
    if len(inside) < MIN_SAMPLES:
        middle = (start + end) / 2
        nearest = sorted(samples, key=lambda s: abs(s[0] - middle))[:MIN_SAMPLES]
        inside = [d for _t, d in nearest]
    return sum(REFERENCE_S / d for d in inside) / len(inside)
