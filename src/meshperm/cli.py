"""
Command-line surface.

Subcommands:

* ``count PERM PATTERN`` -- occurrences of a mesh pattern in a permutation.
* ``table PAIR N`` -- brute-force joint table of a catalog pair; prints the
  generating polynomial and optionally writes it, or its JSON/CSV, to a file.
* ``verify`` -- the catalog checks over the selected pairs by brute force:
  joint symmetry of the proven and of the conjectured pairs, never-both
  for S9..S18, identical tables within each frame.
* ``crosscheck`` -- every closed form / recurrence against brute force.
* ``bijection MAP`` -- exhaustive check of one of the explicit maps.
* ``catalog validate`` -- catalog invariants and derivation-chain closure.
* ``export`` -- write joint tables for selected pairs to files.

``verify``, ``crosscheck`` and ``catalog validate`` print one line per
check record and ``<command>: ok|FAIL``, or under ``--format json`` one
object with the records under ``"checks"`` and the verdict under ``"pass"``.
A :mod:`meshperm.checks` record prints as ``PASS|FAIL  <title> (n=a..b)``
and its first mismatching cell and table.  Pair ids go to :func:`catalog.get_pair`.

Exit codes: 0 all asserted checks pass; 1 an asserted check failed;
2 usage or configuration error.  A failed ``conjectures`` record (S21,
S22) is reported but fails ``verify`` only under ``--strict``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import bijections, catalog, dist, mesh, perms

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _validated(args: argparse.Namespace) -> None:
    """Check the options shared by the batch commands."""
    perms.check_capacity(args.n)
    if getattr(args, "workers", 1) < 1:
        raise ValueError(f"workers must be >= 1, got {args.workers}")


def _selected_pairs(tokens: list[str]) -> list[catalog.PatternPair]:
    """The pairs ``tokens`` name (``all`` or comma-separated ids), in order of first mention."""
    if not tokens or [t.lower() for t in tokens] == ["all"]:
        return list(catalog.builtin_catalog())
    ids = [pid.strip() for token in tokens for pid in token.split(",")]
    chosen = {p.id: p for p in map(catalog.get_pair, filter(None, ids))}
    if not chosen:
        raise ValueError("no pair selected")
    return list(chosen.values())


def _emit(text: str, out: str | Path | None) -> None:
    """Write ``text`` to the file ``out``, or print it; it ends in one newline."""
    text = text if text.endswith("\n") else text + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


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
    if fmt == "text":
        return table.render()
    if fmt == "csv":
        return dist.table_to_csv(table)
    return dist.table_to_json(table, pair.q1, pair.q2)


def cmd_table(args: argparse.Namespace) -> int:
    _validated(args)
    pair = catalog.get_pair(args.pair)
    [table] = dist.joint_tables(args.n, [(pair.q1, pair.q2)], workers=args.workers)
    print(table.render())
    if args.format != "text" or args.out:
        _emit(_render_table(table, pair, args.format), args.out)
    return EXIT_OK


def cmd_export(args: argparse.Namespace) -> int:
    _validated(args)
    selected = _selected_pairs(args.pairs)
    tables = dist.joint_tables(
        args.n, [(p.q1, p.q2) for p in selected], workers=args.workers
    )
    outdir = Path(args.out) if args.out else None
    if outdir:
        outdir.mkdir(parents=True, exist_ok=True)
    for pair, table in zip(selected, tables):
        path = outdir / f"{pair.id}_n{args.n}.{args.format}" if outdir else None
        _emit(_render_table(table, pair, args.format), path)
    if outdir:
        print(f"wrote {len(selected)} table(s) to {outdir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify / crosscheck
# ---------------------------------------------------------------------------


def _report(command: str, args: argparse.Namespace, ok: bool, payload: dict, lines: list[str]) -> int:
    """Print a check report as ``payload`` and verdict in JSON, or as ``lines``
    and ``<command>: ok|FAIL``; return its exit code."""
    if args.format == "json":
        _emit(json.dumps({**payload, "pass": ok}, sort_keys=True), args.out)
    else:
        _emit("\n".join([*lines, f"{command}: {'ok' if ok else 'FAIL'}"]), args.out)
    return EXIT_OK if ok else EXIT_FAIL


def _run_checks(command: str, args: argparse.Namespace, names, pairs=None, nonfatal=()) -> int:
    """Run the checks ``names`` over the n ranges ``--n`` gives them and
    report their records and a verdict that only the checks in
    ``nonfatal`` cannot fail."""
    from . import checks
    if args.n < 2:
        raise ValueError(f"{command} needs --n >= 2, got {args.n}")
    runs = [checks.run(name, checks.CHECKS[name][1](args.n), args.workers, pairs) for name in names]
    records = [r for r in runs if r is not None]
    ok = all(r["pass"] or r["name"] in nonfatal for r in records)
    lines = [
        f"{'PASS' if r['pass'] else 'FAIL'}  {r['title']} (n={r['n'][0]}..{r['n'][1]})"
        + (f"  first mismatch (n, k, l, want, got) = {r['mismatch']} in {r['table']}"
           if r["mismatch"] else "")
        for r in records
    ]
    return _report(command, args, ok, {"n_max": args.n, "checks": records}, lines)


def cmd_verify(args: argparse.Namespace) -> int:
    from . import checks  # only here: the CLI's other commands do without it
    _validated(args)
    pairs = [p.id for p in _selected_pairs(args.pairs)]
    # A failed conjecture is reported, and fails verify only under --strict.
    nonfatal = () if args.strict else ("conjectures",)
    return _run_checks("verify", args, checks.VERIFY, pairs, nonfatal)


def cmd_crosscheck(args: argparse.Namespace) -> int:
    from . import checks
    _validated(args)
    return _run_checks("crosscheck", args, checks.CROSSCHECK)


# ---------------------------------------------------------------------------
# bijection / catalog
# ---------------------------------------------------------------------------


def cmd_bijection(args: argparse.Namespace) -> int:
    _validated(args)
    report = bijections.verify_swap_bijection(args.map, args.n)
    _emit(report.to_json(), args.out)
    return EXIT_OK if report.passed else EXIT_FAIL


def cmd_catalog(args: argparse.Namespace) -> int:
    cat = catalog.load_catalog(args.path) if args.path else catalog.builtin_catalog()
    records = catalog.validate_derivations(cat)
    payload = {
        "pairs": len(cat),
        "checks": [{"name": name, "pass": good, "detail": detail} for name, good, detail in records],
    }
    lines = [f"{len(cat)} pairs validated"] + [
        f"{'PASS' if good else 'FAIL'}  {name}" + (f"  ({detail})" if detail else "")
        for name, good, detail in records
    ]
    return _report("catalog validate", args, all(good for _, good, _ in records), payload, lines)


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

    def add_common(
        p: argparse.ArgumentParser,
        formats: tuple[str, ...],
        *,
        n_default: int | None = None,
        workers: bool = True,
    ) -> None:
        # Only the flags and formats that the command reads; the first
        # format is the default.
        if n_default is not None:
            p.add_argument("--n", type=int, default=n_default, help=f"max n (default {n_default})")
        if formats:
            p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--out", default=None, help="write the report/table to a file")
        if workers:
            p.add_argument("--workers", type=int, default=1, help="parallel workers (by first entry)")

    p = sub.add_parser("count", help="count occurrences of PATTERN in PERM")
    p.add_argument("perm")
    p.add_argument("pattern")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("table", help="joint table of a catalog pair at one n")
    p.add_argument("pair")
    p.add_argument("n", type=int)
    add_common(p, ("text", "json", "csv"))
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify", help="brute-force catalog verification")
    p.add_argument("--pairs", nargs="*", default=["all"], help="pair ids or 'all'")
    p.add_argument("--strict", action="store_true", help="conjecture failures are fatal")
    add_common(p, ("text", "json"), n_default=7)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("crosscheck", help="closed forms vs brute force")
    add_common(p, ("text", "json"), n_default=7)
    p.set_defaults(func=cmd_crosscheck)

    p = sub.add_parser("bijection", help="exhaustively check an explicit map")
    p.add_argument("map", help="id of the pair the map proves, e.g. S9, S21, S1 or A3")
    add_common(p, (), n_default=5, workers=False)
    p.set_defaults(func=cmd_bijection)

    p = sub.add_parser("catalog", help="catalog operations")
    p.add_argument("action", choices=("validate",))
    p.add_argument("--path", default=None, help="validate a catalog file instead of the builtin")
    add_common(p, ("text", "json"), workers=False)
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("export", help="write joint tables for selected pairs")
    p.add_argument("--pairs", nargs="*", default=["all"])
    add_common(p, ("json", "csv"), n_default=5)
    p.set_defaults(func=cmd_export)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        message = exc if isinstance(exc, OSError) or not exc.args else exc.args[0]
        print(f"error: {message}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
