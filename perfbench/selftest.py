"""Self-test of the benchmark: the gate catches a corrupt cell, and every
workload passes at a small n.

    python3 perfbench/selftest.py

1. Export the catalog at n=5, corrupt one cell of one table, and check
   that every failure the gate reports names exactly that cell (or no
   cell at all: the table's sum and the digest).
2. Run every workload at n=5, untraced and traced, through run.py, and
   check that each passes its gate.

Exits 0 when everything passes, 1 otherwise.  Takes about ten seconds.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import gate as gates  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SMOKE_N = 5
# A cell below the diagonal of a closed-form pair, nonzero at n = 5.
CORRUPT = ("A17", 1, 0)


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"FAIL {message}")


def gate_catches_corrupt_cell() -> None:
    w = workloads.WORKLOADS["catalog-n8"]
    inputs = workloads.make_inputs(w, workloads.DEFAULT_SEED, SMOKE_N)
    with contextlib.redirect_stdout(io.StringIO()):
        out = workloads.canonical(inputs, workloads.run_once(inputs))
    golden = json.loads((HERE / "golden.json").read_text())["catalog"][str(SMOKE_N)]
    gate = gates.CatalogGate(w.name, inputs, golden)
    clean = gate.check(out)
    expect(clean.attempted > 0 and not clean.failures,
           f"clean tables fail the gate: {[str(f) for f in clean.failures]}")

    pid, k, l = CORRUPT
    table = json.loads(out[pid])
    want = table["counts"][k][l]
    table["counts"][k][l] += 1
    failures = gate.check({**out, pid: json.dumps(table, sort_keys=True)}).failures
    for f in failures:
        print(f"  reported {f}")
    named = {(f.pair, f.n, f.k, f.l) for f in failures if f.k is not None}
    expect(named == {(pid, SMOKE_N, k, l)}, f"gate named cells {named}")
    closed = [(f.want, f.got) for f in failures if f.check == "closed_form"]
    expect(closed == [(want, want + 1)], f"closed-form failure reads {closed}")
    unnamed = {(f.check, f.pair) for f in failures if f.k is None}
    expect(unnamed == {("sum", pid), ("digest", "*")}, f"cell-less failures {unnamed}")
    print(f"PASS gate reports exactly the corrupt cell {CORRUPT} at n={SMOKE_N}")


def smoke(name: str, trace: int) -> str:
    argv = ["--workload", name, "--n", str(SMOKE_N), "--seconds", "0", "--trace", str(trace)]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(argv)
    lines = buf.getvalue().splitlines()
    result = json.loads(lines[-1])
    expect(code == 0 and result["correct"] and result["failed"] == 0,
           f"{name} trace={trace} at n={SMOKE_N}:\n" + "\n".join(lines))
    print(f"PASS {name} trace={trace} at n={SMOKE_N}: {result['attempted']} checks")
    return next(line for line in lines if line.startswith("digest "))


def main() -> int:
    gate_catches_corrupt_cell()
    digests = {name: smoke(name, 0) for name in workloads.WORKLOADS}
    for name in workloads.WORKLOADS:
        smoke(name, 1)
    expect(digests["catalog-n8"] == digests["catalog-n8-w2"],
           "catalog-n8 and catalog-n8-w2 digests differ")
    print("PASS catalog-n8 and catalog-n8-w2 digests are identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
