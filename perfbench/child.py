"""One fresh interpreter: set up, run one sweep, report it as one JSON line.

    python3 perfbench/child.py WORKLOAD SIZE SEED MODE RUN_ID

MODE is ``setup`` (stop once the lab is imported and the inputs validated),
``sweep`` (time the sweep, and the reference loop right before and after
it and at the sweep's pauses) or ``traced`` (time it under the tracer and
add the per-layer numbers).  ``run.py`` starts this script and reads its last
line; the reported ``t_ready`` is CLOCK_MONOTONIC, which is system-wide, so
the parent can subtract its own launch time from it.
"""

import json
import os
import platform
import resource
import sys
import time
from fractions import Fraction

THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def reference() -> float:
    """Seconds taken by a fixed pure-Python loop: the machine's speed right now.

    It uses nothing from the lab, so no change to the lab can move it; the
    sweep's wall and CPU time are reported in multiples of it as well as in
    seconds.  Changing this loop changes the unit of every ``*_ref`` metric.
    """
    t0 = time.perf_counter()
    acc, buckets, frac = 0, {}, Fraction(0)
    for i in range(300000):
        x = (i * 2654435761) % 1000003
        k = x & 1023
        buckets[k] = buckets.get(k, 0) + x
        acc += x // 7
        if i % 64 == 0:
            frac += Fraction(x, k + 1)
    return time.perf_counter() - t0


def main(argv) -> int:
    name, size, seed, mode, run_id = argv[1], argv[2], int(argv[3]), argv[4], argv[5]
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    sys.path.insert(0, src)
    import workloads

    sweep = workloads.prepare(name, size, seed)
    t_ready = time.clock_gettime(time.CLOCK_MONOTONIC)

    import epsilonlab
    import numpy

    if not os.path.abspath(epsilonlab.__file__).startswith(src + os.sep):
        raise SystemExit("epsilonlab was imported from %s, not from %s"
                         % (epsilonlab.__file__, src))
    out = {"t_ready": t_ready}
    if mode == "setup":
        out["machine"] = {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "machine": platform.machine(),
            "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        }
    elif mode == "sweep":
        refs = [reference()]
        paused = []  # (wall, cpu) seconds of the reference loops inside the sweep

        def pause():
            t0, cpu0 = time.perf_counter(), _cpu_s()
            refs.append(reference())
            paused.append((time.perf_counter() - t0, _cpu_s() - cpu0))

        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        result = sweep(pause)
        out["wall_s"] = time.perf_counter() - t0 - sum(w for w, _c in paused)
        out["cpu_s"] = _cpu_s() - cpu0 - sum(c for _w, c in paused)
        refs.append(reference())
        out["ref_s"] = sum(refs) / len(refs)
        out["verdicts"] = workloads.verdicts(name, result)
    elif mode == "traced":
        import tracing

        tracer = tracing.Tracer(run_id)
        tracer.install()
        result, wall = tracer.measure(sweep)
        out["wall_s"] = wall
        out["verdicts"] = workloads.verdicts(name, result)
        out["layers"] = tracer.metrics(wall)
        out["layers"]["cli.report_bytes"] = workloads.report_bytes(result)
    else:
        raise SystemExit("unknown mode %r" % mode)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
