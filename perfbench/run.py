"""meshperm benchmark: run one workload, check its outputs, print metrics.

    python3 perfbench/run.py --workload catalog-n8 --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; meshperm is imported from ./src.  With
``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json,
measured with tracing off; with ``--trace 1`` they are its per-layer
metrics, from one traced repetition and the layer probes.  Human-readable
lines (environment, every metric with its unit and sample count, every
failed check) come first; the last line of standard output is the JSON
result.  ``--n`` runs a workload at another n, for smoke tests.

Exit codes: 0 all checks pass; 1 a check failed or a child process failed;
2 meshperm's sources are missing or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 7
SETUP_TIMEOUT_S = 30
RUN_TIMEOUT_S = 150


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg_start": os.getloadavg(),
        "commit": git_commit(),
        "numpy_importable": importlib.util.find_spec("numpy") is not None,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def spawn(timeout: float, *args) -> dict:
    """Run child.py in a fresh interpreter and return its JSON result.

    The child leads its own process group, so a timeout stops it together
    with any pool workers it started.
    """
    cmd = [sys.executable, str(HERE / "child.py"), *map(str, args)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"child {' '.join(map(str, args))} exited {proc.returncode}")
    return json.loads(out.splitlines()[-1])


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def layer_metrics(w, res: dict, setups: list[dict], gate) -> dict[str, tuple[float, int]]:
    """Per-layer metrics of a traced run, each as (value, sample count)."""
    t, probes = res["trace"], res["probes"]
    calls, busy, layer_self = t["calls"], t["busy_s"], t["layer_self_s"]
    joint_busy = busy.get("dist.joint_tables", 0.0)
    # Serial 58-pair sweep against workers x the command's joint_tables busy
    # time; only the catalog command sweeps the catalog.
    efficiency = (probes["sweep_all_s"] / (w.workers * joint_busy)
                  if w.kind == "catalog" else 0.0)
    return {
        "perms.enumerate_s": (probes["enumerate_s"], probes["enumerate_samples"]),
        "catalog.load_s": (statistics.median(s["catalog_s"] for s in setups), len(setups)),
        "dist.sweep_fixed_s": (probes["sweep_fixed_s"], 1),
        "dist.tally_per_pair_ms": (probes["tally_per_pair_s"] * 1e3, 1),
        "dist.joint_tables.calls": (calls.get("dist.joint_tables", 0), 1),
        "dist.joint_tables.busy_s": (joint_busy, 1),
        "dist.distribution.busy_s": (busy.get("dist.distribution", 0.0), 1),
        "dist.avoider_count.busy_s": (busy.get("dist.avoider_count", 0.0), 1),
        "dist.split_distribution.busy_s": (busy.get("dist.split_distribution", 0.0), 1),
        "dist.perms_swept": (t["perms_swept"], 1),
        "dist.merge.calls": (calls.get("dist.merge", 0), 1),
        "dist.merge.busy_s": (busy.get("dist.merge", 0.0), 1),
        "dist.parallel_efficiency": (efficiency, 1),
        "mesh.calls": (sum(c for name, c in calls.items() if name.startswith("mesh.")), 1),
        "mesh.busy_s": (t["layer_busy_s"].get("mesh", 0.0), 1),
        "bijections.verify.busy_s": (busy.get("bijections.verify_swap_bijection", 0.0), 1),
        "cli.self_s": (layer_self.get("cli", 0.0), 1),
        "catalog.self_s": (layer_self.get("catalog", 0.0), 1),
        "dist.self_s": (layer_self.get("dist", 0.0), 1),
        "mesh.self_s": (layer_self.get("mesh", 0.0), 1),
        "bijections.self_s": (layer_self.get("bijections", 0.0), 1),
        "closed_forms.check_s": (gate.closed_forms_s, 1),
        "invseq.check_s": (gate.invseq_s, 1),
        "trace.unattributed_frac": (t["unattributed_frac"], 1),
        "trace.overhead_frac": (res["traced_wall"] / res["walls"][0] - 1, 1),
    }


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "meshperm" / "__init__.py").is_file():
        print(f"error: meshperm sources not found under {SRC}", file=sys.stderr)
        return 2
    env = environment()
    sys.path.insert(0, str(SRC))
    import gate as gates
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--n", type=int, default=None, help="override the workload's n")
    args = parser.parse_args(argv)

    w = workloads.WORKLOADS[args.workload]
    n = w.n if args.n is None else args.n
    trace = args.trace == 1
    print(f"perfbench {w.name} n={n} seed={args.seed} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))

    # The first set-up probe also compiles bytecode; it is not counted.
    setups = [spawn(SETUP_TIMEOUT_S, "setup", w.name, args.seed, n)
              for _ in range(SETUP_PROBES + 1)][1:]
    res = spawn(RUN_TIMEOUT_S, "run", w.name, args.seed, n, args.seconds, args.trace)

    inputs = workloads.make_inputs(w, args.seed, n)
    golden = json.loads((HERE / "golden.json").read_text())
    if w.kind == "catalog":
        gate = gates.CatalogGate(w.name, inputs, golden["catalog"].get(str(n)))
    else:
        want = golden["generic"].get(str(n)) if args.seed == workloads.DEFAULT_SEED else None
        gate = gates.GenericGate(w.name, inputs, want)
        print("patterns " + json.dumps(res["outputs"][0]["patterns"])
              + f" map={inputs.map_id}")
    checks = gate.run(res["outputs"])
    attempted = sum(c.attempted for c in checks)
    failures = [f for c in checks for f in c.failures]
    print(f"digest {workloads.digest(inputs, res['outputs'][0])}"
          f" (golden {gate.golden or 'not recorded for this seed and n'})")
    print(f"gate: {len(res['outputs'])} repetitions, {attempted} checks, "
          f"{len(failures)} failed")
    for f in failures:
        print(f"FAIL {f}")

    if trace:
        values = layer_metrics(w, res, setups, gate)
        values["error_rate"] = (len(failures) / attempted, 1)
    else:
        walls = res["walls"]
        wall = statistics.median(walls)
        rss = res["rss"]
        values = {
            "wall_s": (wall, len(walls)),
            "perm_patterns_per_s": (workloads.perm_patterns(inputs) / wall, len(walls)),
            "setup_s": (statistics.median(s["setup_s"] for s in setups), len(setups)),
            "peak_rss_mb": (rss["self_mb"] + rss["worker_mb"], 1),
        }
        print("wall_s samples " + " ".join(f"{x:.4f}" for x in walls))
    units = declared_metrics(trace)
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(values)} differ from BENCHMARK.json {sorted(units)}")
    metrics = {}
    for name, unit in units.items():
        value, samples = values[name]
        print(f"{name:<32} {value:>16.6f} {unit:<6} samples={samples}")
        metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
