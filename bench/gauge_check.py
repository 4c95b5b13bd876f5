"""How much the speed gauge's reading depends on the program's heap.

    python3 bench/gauge_check.py [MIB]

Two synthetic operations, alternated so that the machine's drift falls on
both alike, and the median gauge reading of each (``worker.SpeedGauge``):

- ``copies``: whole-trace copies (a tuple copied and extended at each step,
  a frozenset of its tail), once keeping every copy live until the heap
  holds MIB MiB (default 300), once dropping each copy, for the same time;
- ``random reads``: random reads over a live heap of MIB MiB, against
  reads over a 1 MiB one, right before each gauge pass.

The first is the pattern of ``engine.Trace.extend`` on ``decide-path``; the
second is about the worst a program can do to the cache the pass meets.
Needs about MIB + 100 MiB of memory and a minute.
"""

from __future__ import annotations

import gc
import random
import statistics
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
sys.path[:0] = [str(Path(__file__).resolve().parents[1] / "src"), str(Path(__file__).resolve().parent)]

import worker  # noqa: E402

ROUNDS = 10


def copies(mib: int, keep: bool) -> None:
    live, t, n = [], (), 0
    limit = mib * 2**20 * (1 if keep else 6)  # about the same time either way
    while n < limit:
        t = t + (n,) if len(t) < 400 else (n,)
        fs = frozenset(t[-20:])
        if keep:
            live.append((t, fs))
        n += 8 * len(t) + 800


def heap(mib: int) -> list:
    objs, n = [], 0
    while n < mib * 2**20:
        t = tuple(range(random.randrange(50, 150)))
        objs.append((t, frozenset(t[:20])))
        n += sys.getsizeof(t) + 700
    return objs


def random_reads(objs: list, seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        for _ in range(2000):
            t, f = objs[random.randrange(len(objs))]
            t[-1] + len(f)


def gauged(gauge: worker.SpeedGauge, fn, *args) -> list[float]:
    """The gauge readings taken while ``fn`` ran."""
    i = len(gauge.loop)
    gauge.active = True
    fn(*args)
    gauge.active = False
    return gauge.loop[i:]


def one_pass(objs: list) -> float:
    random_reads(objs, 0.02)
    gc.disable()
    try:
        return worker.SpeedGauge.loop_s(1)
    finally:
        gc.enable()


def main() -> int:
    mib = int(sys.argv[1]) if len(sys.argv) > 1 else 300
    random.seed(1)
    reads = {"kept": [], "dropped": []}
    with worker.SpeedGauge() as gauge:
        for r in range(ROUNDS):
            for keep in (True, False) if r % 2 == 0 else (False, True):
                reads["kept" if keep else "dropped"] += gauged(gauge, copies, mib, keep)
                gc.collect()
    k, d = statistics.median(reads["kept"]), statistics.median(reads["dropped"])
    print(f"copies: gauge {k * 1e3:.3f} ms with {mib} MiB kept live, {d * 1e3:.3f} ms with copies"
          f" dropped; ratio {k / d:.3f} ({len(reads['kept'])} and {len(reads['dropped'])} readings)")

    small, big = heap(1), heap(mib)
    reads = {"small": [], "big": []}
    for r in range(40 * ROUNDS):
        for name, objs in (("small", small), ("big", big)) if r % 2 == 0 else (("big", big), ("small", small)):
            reads[name].append(one_pass(objs))
    s, b = statistics.median(reads["small"]), statistics.median(reads["big"])
    print(f"random reads: gauge {b * 1e3:.3f} ms after reads over {mib} MiB, {s * 1e3:.3f} ms"
          f" after reads over 1 MiB; ratio {b / s:.3f} ({len(reads['big'])} readings each)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
