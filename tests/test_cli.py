import json
import shlex
from pathlib import Path

import pytest

from meshperm import catalog, checks, cli, closed_forms, dist


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_worked_example(capsys):
    code, out, _ = run(capsys, "count", "23154", "123|0,0;1,2;2,1;3,1")
    assert code == 0 and out.strip() == "2"


def test_count_classical(capsys):
    code, out, _ = run(capsys, "count", "14325", "123|")
    assert code == 0 and out.strip() == "3"
    code, out, _ = run(capsys, "count", "12", "123|")
    assert code == 0 and out.strip() == "0"


def test_count_parse_error_exits_2(capsys):
    code, _, err = run(capsys, "count", "122", "123|")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "count", "123", "123;0,0")
    assert code == 2 and "error:" in err


def test_table_polynomials(capsys):
    code, out, _ = run(capsys, "table", "A33", "3")
    assert code == 0 and out.strip() == "x + y + 4"
    code, out, _ = run(capsys, "table", "S19", "2")
    assert code == 0 and out.strip() == "2"
    code, out, _ = run(capsys, "table", "A17", "4")
    assert code == 0 and out.strip() == "x^2 + y^2 + 6x + 6y + 10"


def test_table_unknown_pair(capsys):
    code, _, err = run(capsys, "table", "Z9", "3")
    assert code == 2 and "unknown" in err


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_table_out_payload(fmt, capsys, tmp_path):
    # --out holds the table in the chosen format; stdout is the polynomial.
    out_path = tmp_path / "t.out"
    code, out, _ = run(
        capsys, "table", "A33", "3", "--format", fmt, "--out", str(out_path)
    )
    assert code == 0 and out == "x + y + 4\n"
    if fmt == "text":
        assert out_path.read_text() == "x + y + 4\n"
    else:
        assert json.loads(out_path.read_text())["counts"] == [[4, 1], [1, 0]]


def test_table_csv_payload(capsys):
    code, out, _ = run(capsys, "table", "A33", "3", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1:] == ["k,l,count", "0,0,4", "0,1,1", "1,0,1"]


def verify_records(capsys, *argv):
    code, out, _ = run(capsys, "verify", *argv, "--format", "json")
    return code, {r["name"]: r for r in json.loads(out)["checks"]}


def test_verify_small(capsys):
    code, out, _ = run(capsys, "verify", "--pairs", "all", "--n", "4")
    assert code == 0
    assert out.splitlines() == [
        "PASS  proven pairs: joint table == its transpose (n=2..4)",
        "PASS  conjectured pairs: joint table == its transpose (n=2..4)",
        "PASS  S9..S18 never both: T[k][l] == 0 for k, l > 0 (n=2..4)",
        "PASS  tables within each frame == its first selected member's (n=2..4)",
        "verify: ok",
    ]


def test_verify_conjecture_report(capsys):
    # S21 alone: only the conjecture record, and it holds at n <= 6.
    code, records = verify_records(capsys, "--pairs", "S21", "--n", "6")
    assert code == 0 and list(records) == ["conjectures"]
    assert records["conjectures"]["pass"] and records["conjectures"]["n"] == [2, 6]


def test_verify_never_both_line(capsys):
    code, out, _ = run(capsys, "verify", "--pairs", "S9", "--n", "4")
    assert code == 0
    assert "PASS  S9..S18 never both: T[k][l] == 0 for k, l > 0 (n=2..4)" in out


def test_verify_strict_flag(capsys):
    # the conjectured pairs hold experimentally, so strict mode still exits 0
    code, out, _ = run(capsys, "verify", "--pairs", "S21,S22", "--n", "5", "--strict")
    assert code == 0
    assert "PASS  conjectured pairs: joint table == its transpose (n=2..5)" in out
    assert "PASS  tables within each frame == its first selected member's (n=2..5)" in out


def test_workers_must_be_positive(capsys):
    code, _, err = run(capsys, "verify", "--pairs", "S19", "--n", "3", "--workers", "0")
    assert code == 2 and "workers" in err


@pytest.mark.parametrize("command", ["verify", "crosscheck"])
def test_check_commands_need_n_at_least_2(command, capsys):
    # Below n = 2 a check would sweep no table: verify would report every
    # check ok, crosscheck a FAIL for each check with no n to run over.
    for n in ("1", "0"):
        code, out, err = run(capsys, command, "--n", n)
        assert code == 2 and out == ""
        assert f"error: {command} needs --n >= 2, got {n}" in err


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--pairs", "S19,S20", "--n", "4", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["n_max"] == 4 and obj["pass"] is True
    # both proven, neither in S9..S18, and one frame: S19-S20
    assert [r["name"] for r in obj["checks"]] == ["symmetric", "frames"]
    assert all(r["pass"] and r["n"] == [2, 4] for r in obj["checks"])
    code, records = verify_records(capsys, "--pairs", "S19", "--n", "4")
    assert code == 0 and list(records) == ["symmetric"]


def corrupt_brute(monkeypatch, pid, n, cell=(1, 0)):
    """Add 1 to one cell of the swept table of ``pid`` at ``n``."""
    real = checks._brute

    def corrupt(n_, workers, ids=None):
        tables = real(n_, workers, ids)
        if n_ != n or pid not in tables:
            return tables
        counts = [list(row) for row in tables[pid].counts]
        counts[cell[0]][cell[1]] += 1
        return {**tables, pid: dist.JointTable(n, tuple(map(tuple, counts)))}

    monkeypatch.setattr(checks, "_brute", corrupt)
    return real(n, 1, (pid,))[pid]


def test_verify_names_the_asymmetric_cell(capsys, monkeypatch):
    t = corrupt_brute(monkeypatch, "S10", 5)
    # The first cell off the diagonal in row-major order is (0, 1): want
    # is the corrupted T[1][0], got is T[0][1].
    want = [5, 0, 1, t.entry(1, 0) + 1, t.entry(0, 1)]
    code, records = verify_records(capsys, "--pairs", "all", "--n", "5")
    assert code == 1
    assert records["symmetric"]["pass"] is False
    assert records["symmetric"]["mismatch"] == want and records["symmetric"]["table"] == "S10"
    assert records["frames"]["table"] == "S10"  # S10 against S9, its frame's first member
    assert records["conjectures"]["pass"] and records["never-both"]["pass"]
    code, out, _ = run(capsys, "verify", "--pairs", "all", "--n", "5")
    line = next(x for x in out.splitlines() if x.startswith("FAIL  proven pairs"))
    assert code == 1 and line.endswith(f"first mismatch (n, k, l, want, got) = {want} in S10")
    assert out.endswith("verify: FAIL\n")


def test_verify_names_a_permutation_with_both_patterns(capsys, monkeypatch):
    corrupt_brute(monkeypatch, "S10", 5, cell=(1, 1))  # symmetric, but k, l > 0
    code, records = verify_records(capsys, "--pairs", "S10", "--n", "5")
    assert code == 1 and records["symmetric"]["pass"]
    assert records["never-both"]["mismatch"] == [5, 1, 1, 0, 1]
    assert records["never-both"]["table"] == "S10"


def test_verify_conjecture_failure_is_fatal_only_under_strict(capsys, monkeypatch):
    corrupt_brute(monkeypatch, "S21", 5)
    code, records = verify_records(capsys, "--pairs", "S21", "--n", "5")
    assert code == 0 and records["conjectures"]["pass"] is False
    assert records["conjectures"]["table"] == "S21"
    code, out, _ = run(capsys, "verify", "--pairs", "S21", "--n", "5")
    assert code == 0 and "FAIL  conjectured pairs" in out and out.endswith("verify: ok\n")
    code, out, _ = run(capsys, "verify", "--pairs", "S21", "--n", "5", "--strict")
    assert code == 1 and out.endswith("verify: FAIL\n")


def test_verify_sweeps_once_per_n(capsys, monkeypatch):
    real = dist.joint_tables
    calls = []

    def counted(n, pairs, workers=1):
        calls.append(n)
        return real(n, pairs, workers=workers)

    monkeypatch.setattr(dist, "joint_tables", counted)
    checks._brute.cache_clear()
    code, _, _ = run(capsys, "verify", "--pairs", "all", "--n", "5")
    assert code == 0 and calls == [2, 3, 4, 5]


@pytest.mark.parametrize(
    "argv", ["table Z9 3", "export --pairs Z9 --n 3", "verify --pairs Z9 --n 3"]
)
def test_verify_unknown_pair(argv, capsys):
    # Every command resolves a pair id through the catalog, with its message.
    code, out, err = run(capsys, *argv.split())
    assert code == 2 and out == ""
    assert err == "error: unknown catalog pair 'Z9' (expected S1..S22 or A1..A36)\n"


def test_catalog_checks_take_pair_ids_in_either_case():
    records = [checks.run("symmetric", range(2, 4), pairs=[pid]) for pid in ("s19", "S19")]
    for r in records:
        del r["seconds"]
    assert records[0] == records[1] and records[0]["pass"]


def test_crosscheck(capsys):
    code, out, _ = run(capsys, "crosscheck", "--n", "4")
    assert code == 0
    assert "crosscheck: ok" in out
    assert "FAIL" not in out and out.count("PASS") == 13
    assert "PASS  A17 closed form == brute force for A17..A24 (n=2..4)" in out


def test_crosscheck_records_do_not_depend_on_workers(capsys):
    records = {}
    for workers in (1, 2):
        checks._brute.cache_clear()
        code, out, _ = run(capsys, "crosscheck", "--n", "6", "--format", "json",
                           "--workers", str(workers))
        assert code == 0
        records[workers] = json.loads(out)["checks"]
        for r in records[workers]:
            del r["seconds"]
    assert records[1] == records[2]


def test_crosscheck_runs_the_split_checks_to_its_n(capsys):
    code, out, _ = run(capsys, "crosscheck", "--n", "7", "--format", "json")
    assert code == 0
    records = {r["name"]: r for r in json.loads(out)["checks"]}
    for name in ("S19-split", "A25-split"):
        assert records[name]["n"] == [2, 7] and records[name]["pass"], name


def test_crosscheck_over_no_n_fails():
    # The command refuses --n < 2; a library run over no n is a FAIL, not a PASS.
    for name in checks.CROSSCHECK:
        record = checks.run(name, range(0))
        assert record["n"] == [] and record["pass"] is False, name
        assert record["mismatch"] is None and record["table"] is None, name


def test_verify_and_crosscheck_print_the_same_json_shape(capsys):
    _, out, _ = run(capsys, "verify", "--pairs", "S19,S20", "--n", "3", "--format", "json")
    verify = json.loads(out)
    _, out, _ = run(capsys, "crosscheck", "--n", "3", "--format", "json")
    crosscheck = json.loads(out)
    assert verify.keys() == crosscheck.keys() == {"n_max", "pass", "checks"}
    record_keys = {frozenset(r) for r in verify["checks"] + crosscheck["checks"]}
    assert record_keys == {
        frozenset({"name", "title", "n", "pass", "mismatch", "table", "seconds"})
    }


def test_crosscheck_names_the_first_mismatch(capsys, monkeypatch):
    # One A17 closed-form cell at n = 5 off by one: only A17 fails, naming it.
    real = closed_forms.a17_table

    def corrupt(n):
        table = real(n)
        if n != 5:
            return table
        counts = [list(row) for row in table.counts]
        counts[1][0] += 1
        return dist.JointTable(n, tuple(map(tuple, counts)))

    monkeypatch.setattr(closed_forms, "a17_table", corrupt)
    code, out, _ = run(capsys, "crosscheck", "--n", "5", "--format", "json")
    failed = [r for r in json.loads(out)["checks"] if not r["pass"]]
    assert code == 1 and [r["name"] for r in failed] == ["A17"]
    assert failed[0]["mismatch"] == [5, 1, 0, 30, 29]
    code, out, _ = run(capsys, "crosscheck", "--n", "5")
    assert code == 1 and "first mismatch (n, k, l, want, got) = [5, 1, 0, 30, 29]" in out


# corrupted pair -> the crosscheck records that must fail
FAILING = {
    "A26": ["A25", "marginals"],
    "A18": ["A17", "A17-avoiders"],
    "A34": ["A33", "marginals"],
}


@pytest.mark.parametrize("pid", FAILING)
def test_crosscheck_names_the_failing_table(capsys, monkeypatch, pid):
    # Only the brute-force table of pid at n = 5 is off by one in cell
    # (0, 0); each closed form is compared with every pair in its anchor's
    # frame, so the records that fail must name pid, not the anchor.
    failing = FAILING[pid]
    t = corrupt_brute(monkeypatch, pid, 5, cell=(0, 0))
    code, out, _ = run(capsys, "crosscheck", "--n", "5", "--format", "json")
    records = {r["name"]: r for r in json.loads(out)["checks"]}
    assert code == 1
    assert [name for name, r in records.items() if not r["pass"]] == failing
    assert all(records[name]["table"] == pid for name in failing)
    assert records[failing[0]]["mismatch"] == [5, 0, 0, t.entry(0, 0), t.entry(0, 0) + 1]
    assert all(r["table"] is None for r in records.values() if r["pass"])
    code, out, _ = run(capsys, "crosscheck", "--n", "5")
    assert code == 1 and f"in {pid}\n" in out and f"in {failing[0]}" not in out


def test_bijection_pass_and_fail(capsys):
    code, out, _ = run(capsys, "bijection", "S9", "--n", "4")
    assert code == 0
    assert json.loads(out)["pass"] is True
    code, out, _ = run(capsys, "bijection", "S21", "--n", "4")
    assert code == 1
    obj = json.loads(out)
    assert obj["pass"] is False and obj["stats"]["image_size"] == 18


def test_bijection_symmetry_map_needs_pair(capsys):
    # A map is named by the id of its pair, in either case.
    code, _, err = run(capsys, "bijection", "complement", "--n", "4")
    assert code == 2 and "unknown map 'complement'" in err
    code, out, _ = run(capsys, "bijection", "s1", "--n", "4")
    assert code == 0 and json.loads(out)["map"] == "S1"


def test_catalog_validate(capsys):
    code, out, _ = run(capsys, "catalog", "validate")
    assert code == 0
    assert "catalog validate: ok" in out


def test_catalog_validate_json(capsys):
    code, out, _ = run(capsys, "catalog", "validate", "--format", "json")
    report = json.loads(out)
    assert code == 0 and report.keys() == {"pairs", "checks", "pass"}
    assert report["pairs"] == 58 and report["pass"] is True
    # 17 chains from both slots of their start, and 24 internal symmetries
    assert len(report["checks"]) == 17 * 2 + 24
    assert all(r.keys() == {"name", "pass", "detail"} for r in report["checks"])


def test_catalog_validate_names_a_broken_chain(capsys, tmp_path):
    # A18 and A19 with each other's patterns: both lines stay valid pairs,
    # but the chain A17 -c-> A18 no longer lands on the catalog entry.
    lines = Path(catalog.__file__).with_name("catalog_data.txt").read_text().splitlines()
    rows = {line.split()[0]: i for i, line in enumerate(lines) if line and not line.startswith("#")}
    a18, a19 = (lines[rows[pid]].split() for pid in ("A18", "A19"))
    lines[rows["A18"]] = " ".join(a18[:4] + a19[4:])
    lines[rows["A19"]] = " ".join(a19[:4] + a18[4:])
    path = tmp_path / "swapped.txt"
    path.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "catalog", "validate", "--path", str(path))
    failed = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert code == 1 and out.endswith("catalog validate: FAIL\n")
    assert failed[0] == f"FAIL  A17.q1 -c-> A18.q2  (got {a18[5]}, catalog has {a19[5]})"


def test_export_counts_a_repeated_pair_once(capsys, tmp_path):
    code, out, _ = run(
        capsys, "export", "--pairs", "S1,s1", "--n", "3", "--out", str(tmp_path),
    )
    assert code == 0 and out == f"wrote 1 table(s) to {tmp_path}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["S1_n3.json"]
    # To stdout each pair is printed once, in the order of its first mention.
    code, out, _ = run(capsys, "export", "--pairs", "S1", "S19,S1", "--n", "3")
    assert code == 0 and out == run(capsys, "export", "--pairs", "S1,S19", "--n", "3")[1]


def test_export_files(capsys, tmp_path):
    code, out, _ = run(
        capsys, "export", "--pairs", "S19,A17", "--n", "3",
        "--format", "csv", "--out", str(tmp_path),
    )
    assert code == 0
    assert (tmp_path / "S19_n3.csv").exists()
    assert (tmp_path / "A17_n3.csv").read_text().startswith("k,l,count\n")


@pytest.mark.parametrize(
    "argv",
    [
        "catalog validate --path {missing}",
        "table A17 3 --format json --out {missing}/x.json",
    ],
)
def test_an_unreadable_or_unwritable_path_is_named(argv, capsys, tmp_path):
    missing = tmp_path / "missing"
    code, _, err = run(capsys, *argv.format(missing=missing).split())
    assert code == 2 and str(missing) in err


@pytest.mark.parametrize("command", ["verify", "export"])
def test_an_empty_pair_selection_is_a_usage_error(command, capsys):
    code, out, err = run(capsys, command, "--pairs", ",", "--n", "3")
    assert code == 2 and out == "" and "no pair selected" in err


def test_export_beyond_the_8_bit_counts_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("MESHPERM_NMAX", "13")
    code, out, err = run(capsys, "export", "--n", "13")
    assert code == 2 and out == "" and "n=13, m=3: C(n, m)=286" in err


def test_capacity_env(capsys, monkeypatch):
    monkeypatch.setenv("MESHPERM_NMAX", "4")
    code, _, err = run(capsys, "verify", "--pairs", "S19", "--n", "6")
    assert code == 2 and "0..4" in err


def test_workers_flag(capsys):
    code, out, _ = run(capsys, "table", "A33", "4", "--workers", "2")
    assert code == 0 and out.strip() == "x^2 + y^2 + 6x + 6y + 10"


@pytest.mark.parametrize(
    "argv",
    [
        "bijection S9 --format csv",
        "bijection S9 --workers 2",
        "bijection S1 --pair S1",
        "catalog validate --workers 9",
        "catalog validate --format csv",
        "verify --format csv",
        "crosscheck --format csv",
        "export --format text",
    ],
)
def test_flags_a_command_ignores_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv.split())
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_readme_cli_examples_parse():
    # Every command in the README's CLI block is accepted by the parser.
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [line for line in block.splitlines() if line.startswith("meshperm ")]
    assert commands
    parser = cli.build_parser()
    for line in commands:
        try:
            parser.parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {line}")
