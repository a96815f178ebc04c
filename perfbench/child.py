"""Fresh-interpreter side of the benchmark; ``run.py`` starts it.

    child.py setup WORKLOAD SEED N
        Time the set-up a user of the CLI pays on every run: importing
        meshperm, loading the built-in catalog, and making the workload's
        inputs.  Nothing but ``sys``, ``os`` and ``time`` is imported before
        the clock starts.

    child.py run WORKLOAD SEED N SECONDS TRACE
        Repeat the workload, timing each repetition: at least MIN_REPS
        times, and then while one more repetition, as long as the slowest
        so far, still ends within SECONDS.  With TRACE=1, make one untraced
        and one traced repetition, then the layer probes.

Each mode prints one JSON object as its last line of standard output.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

MIN_REPS = 3
PROBE_REPS = 5
SWEEP_PROBE_N = 8


def setup(workload: str, seed: int, n: int) -> dict:
    t0 = time.perf_counter()
    import meshperm.cli  # noqa: F401  (the whole package, as the CLI loads it)
    from meshperm import catalog

    t1 = time.perf_counter()
    catalog.builtin_catalog()
    t2 = time.perf_counter()
    import workloads

    workloads.make_inputs(workloads.WORKLOADS[workload], seed, n)
    t3 = time.perf_counter()
    return {"import_s": t1 - t0, "catalog_s": t2 - t1, "inputs_s": t3 - t2,
            "setup_s": t3 - t0}


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - t0, out


def _peak_rss_mb() -> dict:
    import resource

    # ru_maxrss is in KiB on Linux.  RUSAGE_CHILDREN holds the largest
    # waited-for child: here, a pool worker.
    self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {"self_mb": self_kib / 1024, "worker_mb": child_kib / 1024}


def _probes(n: int, probe_n: int) -> dict:
    """Layer probes, untraced: the S_n floor at n, and the catalog sweep
    at probe_n with one pair and with all 58."""
    from collections import deque
    from statistics import median

    from meshperm import catalog, dist, perms

    enum_s = median(
        _timed(deque, perms.enumerate_sn(n), 0)[0] for _ in range(PROBE_REPS)
    )
    pairs = [(p.q1, p.q2) for p in catalog.builtin_catalog()]
    one_s, _ = _timed(dist.joint_tables, probe_n, pairs[:1])
    all_s, _ = _timed(dist.joint_tables, probe_n, pairs)
    per_pair_s = (all_s - one_s) / (len(pairs) - 1)
    return {"enumerate_s": enum_s, "enumerate_samples": PROBE_REPS,
            "sweep_one_s": one_s, "sweep_all_s": all_s,
            "sweep_fixed_s": one_s - per_pair_s, "tally_per_pair_s": per_pair_s}


def run(workload: str, seed: int, n: int, seconds: float, trace: bool) -> dict:
    import workloads

    w = workloads.WORKLOADS[workload]
    inputs = workloads.make_inputs(w, seed, n)
    walls, outputs = [], []
    if not trace:
        begin = time.perf_counter()
        while (len(walls) < MIN_REPS
               or time.perf_counter() - begin + max(walls) <= seconds):
            wall, raw = _timed(workloads.run_once, inputs)
            walls.append(wall)
            outputs.append(workloads.canonical(inputs, raw))
        return {"walls": walls, "outputs": outputs, "rss": _peak_rss_mb()}

    from tracing import Tracer

    wall, raw = _timed(workloads.run_once, inputs)
    walls.append(wall)
    outputs.append(workloads.canonical(inputs, raw))
    tracer = Tracer()
    with tracer.installed():
        traced_wall, raw = _timed(workloads.run_once, inputs)
    outputs.append(workloads.canonical(inputs, raw))
    # Smoke runs at a smaller n probe at that n too.
    probe_n = SWEEP_PROBE_N if n == w.n else n
    return {"walls": walls, "outputs": outputs, "traced_wall": traced_wall,
            "trace": tracer.summary(traced_wall), "probes": _probes(n, probe_n)}


def main(argv: list[str]) -> int:
    mode, workload, seed, n = argv[0], argv[1], int(argv[2]), int(argv[3])
    if mode == "setup":
        result = setup(workload, seed, n)
    else:
        result = run(workload, seed, n, float(argv[4]), argv[5] == "1")
    import json  # after set-up is timed: meshperm imports it too

    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
