"""
Command-line surface.

Subcommands:

* ``count PERM PATTERN`` -- occurrences of a mesh pattern in a permutation.
* ``table PAIR N`` -- brute-force joint table of a catalog pair; prints the
  generating polynomial and optionally writes JSON/CSV.
* ``verify`` -- joint-symmetry, frame-equality and never-both checks over
  the catalog by brute force.
* ``crosscheck`` -- every closed form / recurrence against brute force.
* ``bijection MAP`` -- exhaustive check of one of the explicit maps.
* ``catalog validate`` -- catalog invariants and derivation-chain closure.
* ``export`` -- write joint tables for selected pairs to files.

Exit codes: 0 all asserted checks pass; 1 an asserted check failed;
2 usage or configuration error.  Conjectured pairs (S21, S22) never fail
the default ``verify``; pass ``--strict`` to opt in.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import bijections, catalog, closed_forms as cf, dist, invseq, mesh, perms

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


@dataclass
class RunConfig:
    """Validated run options shared by the batch commands."""

    n_max: int = 7
    pairs: list[str] = field(default_factory=lambda: ["all"])
    format: str = "text"
    out: str | None = None
    workers: int = 1
    strict: bool = False

    def __post_init__(self) -> None:
        perms.check_capacity(self.n_max)
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


def config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        n_max=getattr(args, "n", 7),
        pairs=list(getattr(args, "pairs", ["all"])),
        format=getattr(args, "format", "text"),
        out=getattr(args, "out", None),
        workers=getattr(args, "workers", 1),
        strict=getattr(args, "strict", False),
    )


def _selected_pairs(tokens: list[str]) -> list[catalog.PatternPair]:
    cat = catalog.builtin_catalog()
    if not tokens or [t.lower() for t in tokens] == ["all"]:
        return list(cat)
    index = catalog.by_id(cat)
    chosen = []
    for token in tokens:
        for pid in token.split(","):
            pid = pid.strip().upper()
            if not pid:
                continue
            if pid not in index:
                raise ValueError(f"unknown pair id {pid!r}")
            chosen.append(index[pid])
    return chosen


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text + ("\n" if not text.endswith("\n") else ""))
    else:
        print(text)


# ---------------------------------------------------------------------------
# count
# ---------------------------------------------------------------------------


def cmd_count(args: argparse.Namespace) -> int:
    pi = perms.parse_perm(args.perm)
    pat = mesh.parse_pattern(args.pattern)
    print(mesh.count_occurrences(pi, pat))
    return EXIT_OK


# ---------------------------------------------------------------------------
# table / export
# ---------------------------------------------------------------------------


def _render_table(table: dist.JointTable, pair: catalog.PatternPair, fmt: str) -> str:
    if fmt == "csv":
        return dist.table_to_csv(table)
    return dist.table_to_json(table, pair.q1, pair.q2)


def cmd_table(args: argparse.Namespace) -> int:
    cfg = config_from_args(args)
    pair = catalog.get_pair(args.pair)
    table = dist.joint_distribution(cfg.n_max, pair.q1, pair.q2, workers=cfg.workers)
    print(dist.to_polynomial(table).render())
    if cfg.format in ("json", "csv"):
        payload = _render_table(table, pair, cfg.format)
        if cfg.out:
            _emit(payload, cfg.out)
        else:
            print(payload, end="" if payload.endswith("\n") else "\n")
    elif cfg.out:
        _emit(_render_table(table, pair, "json"), cfg.out)
    return EXIT_OK


def cmd_export(args: argparse.Namespace) -> int:
    cfg = config_from_args(args)
    selected = _selected_pairs(cfg.pairs)
    tables = dist.joint_tables(
        cfg.n_max, [(p.q1, p.q2) for p in selected], workers=cfg.workers
    )
    ext = "csv" if cfg.format == "csv" else "json"
    outdir = Path(cfg.out) if cfg.out else None
    if outdir:
        outdir.mkdir(parents=True, exist_ok=True)
    for pair, table in zip(selected, tables):
        payload = _render_table(table, pair, cfg.format)
        if outdir:
            (outdir / f"{pair.id}_n{cfg.n_max}.{ext}").write_text(
                payload + ("" if payload.endswith("\n") else "\n")
            )
        else:
            print(payload, end="" if payload.endswith("\n") else "\n")
    if outdir:
        print(f"wrote {len(selected)} table(s) to {outdir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

NEVER_BOTH_IDS = {f"S{i}" for i in range(9, 19)}


def cmd_verify(args: argparse.Namespace) -> int:
    cfg = config_from_args(args)
    selected = _selected_pairs(cfg.pairs)
    n_max = cfg.n_max
    ids = [p.id for p in selected]
    tables: dict[int, list[dist.JointTable]] = {}
    for n in range(2, n_max + 1):
        tables[n] = dist.joint_tables(
            n, [(p.q1, p.q2) for p in selected], workers=cfg.workers
        )

    reports = []
    failed = False
    for idx, pair in enumerate(selected):
        conjectured = pair.status == "conjectured"
        sym_by_n = {}
        never_both = True
        for n in range(2, n_max + 1):
            t = tables[n][idx]
            sym_by_n[n] = dist.is_jointly_symmetric(t)
            if pair.id in NEVER_BOTH_IDS:
                never_both = never_both and all(
                    k == 0 or l == 0 for k, l, _ in t.cells()
                )
        sym_ok = all(sym_by_n.values())
        checks = {"joint_symmetric": sym_ok}
        if pair.id in NEVER_BOTH_IDS:
            checks["never_both"] = never_both
        ok = all(checks.values())
        report = {
            "pair": pair.id,
            "frame": pair.frame,
            "status": pair.status,
            "n_max": n_max,
            "checks": checks,
            "pass": ok,
        }
        if conjectured:
            report["conjecture"] = (
                f"holds at n<={n_max}" if sym_ok else f"FAILS at n<={n_max}"
            )
            if not ok and cfg.strict:
                failed = True
        elif not ok:
            failed = True
        reports.append(report)

    frame_reports = []
    by_frame: dict[str, list[int]] = {}
    for idx, pair in enumerate(selected):
        by_frame.setdefault(pair.frame, []).append(idx)
    for frame, members in sorted(by_frame.items()):
        if len(members) < 2:
            continue
        equal = all(
            tables[n][i] == tables[n][members[0]]
            for n in range(2, n_max + 1)
            for i in members[1:]
        )
        frame_reports.append(
            {"frame": frame, "pairs": [ids[i] for i in members], "equal": equal}
        )
        if not equal:
            failed = True

    payload = {"n_max": n_max, "pairs": reports, "frames": frame_reports}
    if cfg.format == "json":
        _emit(json.dumps(payload, sort_keys=True), cfg.out)
    else:
        lines = []
        for rep in reports:
            flags = " ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in rep["checks"].items())
            extra = f" [{rep['conjecture']}]" if "conjecture" in rep else ""
            lines.append(f"{rep['pair']:>4} n<={n_max}: {flags}{extra}")
        for rep in frame_reports:
            verdict = "ok" if rep["equal"] else "FAIL"
            lines.append(f"frame {rep['frame']}: identical tables {verdict}")
        lines.append(f"verify: {'FAIL' if failed else 'ok'} ({len(reports)} pair reports)")
        _emit("\n".join(lines), cfg.out)
    return EXIT_FAIL if failed else EXIT_OK


# ---------------------------------------------------------------------------
# crosscheck
# ---------------------------------------------------------------------------


def _crosscheck_lines(n_max: int, workers: int) -> tuple[list[tuple[str, bool]], bool]:
    cat = catalog.by_id()
    anchor_ids = ["S19", "A17", "A25", "A33"] + [f"A{i}" for i in range(26, 37) if i != 33]
    anchor_pairs = [(cat[a].q1, cat[a].q2) for a in anchor_ids]
    tables: dict[int, dict[str, dist.JointTable]] = {}
    for n in range(2, n_max + 1):
        row = dist.joint_tables(n, anchor_pairs, workers=workers)
        tables[n] = dict(zip(anchor_ids, row))

    checks: list[tuple[str, bool]] = []

    ok = all(cf.s19_table(n) == tables[n]["S19"] for n in range(2, n_max + 1))
    checks.append((f"S19 split recurrence total == brute force (n<={n_max})", ok))

    ncls = min(n_max, 6)
    ok = True
    s19 = cat["S19"]
    for n in range(2, ncls + 1):
        split = dist.split_distribution(
            n, s19.q1, s19.q2, lambda p: "desc" if p[0] > p[1] else "asc"
        )
        rec = cf.s19_split_tables(n)
        ok = ok and rec.part1 == split["desc"] and rec.part2 == split["asc"]
    checks.append((f"S19 split parts == sign-of-first-step classes (n<={ncls})", ok))

    naux = min(n_max, 8)
    ok = True
    for pat in (cf.STIRLING_PAIR_12, cf.STIRLING_PAIR_12_FLIP, cf.STIRLING_PAIR_21):
        for n in range(1, naux + 1):
            got = dist.distribution(n, pat)
            want = [cf.stirling_pair_count(n, k) for k in range(len(got))]
            ok = ok and got == want
    checks.append(
        (f"tilde_T(n,k) == c(n,k+1) for the three length-2 patterns (n<={naux})", ok)
    )

    ok = all(cf.a17_table(n) == tables[n]["A17"] for n in range(2, n_max + 1))
    checks.append((f"A17 closed form == brute force (n<={n_max})", ok))
    ok = all(
        cf.a17_entry(n, k, l) == cf.a17_entry_by_convolution(n, k, l)
        for n in range(2, max(n_max, 9) + 1)
        for k in range(n)
        for l in range(n)
    )
    checks.append((f"A17 closed form == binomial convolution (n<={max(n_max, 9)})", ok))
    ok = all(
        tables[n]["A17"].entry(0, 0) == cf.a17_double_avoiders(n)
        for n in range(2, n_max + 1)
    )
    checks.append((f"A17 double avoiders == 2*harmonic_factorial(n-2) (n<={n_max})", ok))

    ok = all(cf.a25_table(n) == tables[n]["A25"] for n in range(2, n_max + 1))
    checks.append((f"A25 split recurrence total == brute force (n<={n_max})", ok))
    ok = True
    a25 = cat["A25"]
    for n in range(2, ncls + 1):
        split = dist.split_distribution(n, a25.q1, a25.q2, cf.position_of_max_class)
        rec = cf.a25_split_tables(n)
        empty = dist.JointTable.from_dict(n, {})
        ok = (
            ok
            and rec.part1 == split.get("first", empty)
            and rec.part2 == split.get("last", empty)
            and rec.part3 == split.get("interior", empty)
        )
    checks.append((f"A25 split parts == position-of-max classes (n<={ncls})", ok))

    ok = all(
        cf.a33_polynomial(n) == dist.to_polynomial(tables[n]["A33"])
        for n in range(2, n_max + 1)
    )
    checks.append((f"A33 polynomial recurrence == brute force (n<={n_max})", ok))
    nco = max(n_max, 9)
    ok = all(
        cf.a33_entry_by_recurrence(n, k, l) == cf.a33_polynomial(n).coefficient(k, l)
        for n in range(4, nco + 1)
        for k in range(n)
        for l in range(n)
    )
    checks.append((f"A33 coefficient recurrence == polynomial (4<=n<={nco})", ok))

    ok = True
    for n in range(2, n_max + 1):
        want = cf.a25_family_marginal(n)
        for pid in [f"A{i}" for i in range(25, 37)]:
            ok = ok and dist.marginal(tables[n][pid], "first") == want
    checks.append(
        (f"A25..A36 brute-force marginals == marginal recurrence (n<={n_max})", ok)
    )

    ninv = min(n_max, 8)
    ok = True
    for n in range(2, ninv + 1):
        want = cf.a25_family_marginal(n)
        got = [invseq.count_with_stat(n, k) for k in range(len(want))]
        ok = ok and got == want
        ok = ok and all(
            invseq.count_by_recurrence(n, k) == want[k] for k in range(len(want))
        )
    checks.append((f"I(n,k) == T(n,k) for all k (n<={ninv})", ok))

    ok = all(
        cf.stirling_convolution_identity(n, m, r)
        for n in range(11)
        for m in range(n + 1)
        for r in range(m + 1)
    )
    checks.append(("stirling convolution identity (0<=r<=m<=n<=10)", ok))

    return checks, all(good for _, good in checks)


def cmd_crosscheck(args: argparse.Namespace) -> int:
    cfg = config_from_args(args)
    checks, all_ok = _crosscheck_lines(cfg.n_max, cfg.workers)
    if cfg.format == "json":
        payload = {"n_max": cfg.n_max, "checks": [{"name": c, "pass": p} for c, p in checks]}
        _emit(json.dumps(payload, sort_keys=True), cfg.out)
    else:
        lines = [f"{'PASS' if good else 'FAIL'}  {name}" for name, good in checks]
        lines.append(f"crosscheck: {'ok' if all_ok else 'FAIL'}")
        _emit("\n".join(lines), cfg.out)
    return EXIT_OK if all_ok else EXIT_FAIL


# ---------------------------------------------------------------------------
# bijection / catalog
# ---------------------------------------------------------------------------


def cmd_bijection(args: argparse.Namespace) -> int:
    cfg = config_from_args(args)
    pair = catalog.get_pair(args.pair) if args.pair else None
    report = bijections.verify_swap_bijection(args.map, cfg.n_max, pair)
    _emit(report.to_json(), cfg.out)
    return EXIT_OK if report.passed else EXIT_FAIL


def cmd_catalog(args: argparse.Namespace) -> int:
    if args.action != "validate":
        raise ValueError(f"unknown catalog action {args.action!r}")
    cat = catalog.load_catalog(args.path) if args.path else catalog.builtin_catalog()
    report = catalog.validate_derivations(cat)
    if args.format == "json":
        payload = {
            "pairs": len(cat),
            "checks": [
                {"name": name, "pass": good, "detail": detail}
                for name, good, detail in report.checks
            ],
            "pass": report.ok,
        }
        _emit(json.dumps(payload, sort_keys=True), args.out)
    else:
        lines = [f"{len(cat)} pairs validated"]
        for name, good, detail in report.checks:
            lines.append(f"{'PASS' if good else 'FAIL'}  {name}" + (f"  ({detail})" if detail else ""))
        lines.append(f"catalog validate: {'ok' if report.ok else 'FAIL'}")
        _emit("\n".join(lines), args.out)
    return EXIT_OK if report.ok else EXIT_FAIL


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meshperm",
        description="Exact mesh-pattern statistics over S_n: counting, joint "
        "tables, catalog verification, closed-form crosschecks, bijections.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, *, n_default: int | None = None) -> None:
        if n_default is not None:
            p.add_argument("--n", type=int, default=n_default, help=f"max n (default {n_default})")
        p.add_argument("--format", choices=("json", "csv", "text"), default="text")
        p.add_argument("--out", default=None, help="write the report/table to a file")
        p.add_argument("--workers", type=int, default=1, help="parallel workers (by first entry)")

    p = sub.add_parser("count", help="count occurrences of PATTERN in PERM")
    p.add_argument("perm")
    p.add_argument("pattern")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("table", help="joint table of a catalog pair at one n")
    p.add_argument("pair")
    p.add_argument("n", type=int)
    add_common(p)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify", help="brute-force catalog verification")
    p.add_argument("--pairs", nargs="*", default=["all"], help="pair ids or 'all'")
    p.add_argument("--strict", action="store_true", help="conjecture failures are fatal")
    add_common(p, n_default=7)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("crosscheck", help="closed forms vs brute force")
    add_common(p, n_default=7)
    p.set_defaults(func=cmd_crosscheck)

    p = sub.add_parser("bijection", help="exhaustively check an explicit map")
    p.add_argument("map", help="S9|S11|S13|S15|S17|S21 or complement|reverse or a pair id")
    p.add_argument("--pair", default=None, help="pair id for complement/reverse maps")
    add_common(p, n_default=5)
    p.set_defaults(func=cmd_bijection)

    p = sub.add_parser("catalog", help="catalog operations")
    p.add_argument("action", choices=("validate",))
    p.add_argument("--path", default=None, help="validate a catalog file instead of the builtin")
    add_common(p)
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("export", help="write joint tables for selected pairs")
    p.add_argument("--pairs", nargs="*", default=["all"])
    add_common(p, n_default=5)
    p.set_defaults(func=cmd_export)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
