import pytest

from meshperm import catalog, mesh
from meshperm.catalog import CatalogError


def test_catalog_size_and_order():
    cat = catalog.builtin_catalog()
    assert len(cat) == 58
    assert [p.id for p in cat[:3]] == ["S1", "S2", "S3"]
    assert [p.id for p in cat[20:24]] == ["S21", "S22", "A1", "A2"]
    assert cat[-1].id == "A36"


def test_known_shadings():
    assert mesh.format_pattern(catalog.get_pair("S19").q1) == (
        "123|0,0;0,1;0,2;1,0;1,1;1,2;2,0;2,1;2,2"
    )
    assert mesh.format_pattern(catalog.get_pair("A17").q1) == (
        "123|0,0;0,1;0,2;0,3;1,1;2,1;3,1;3,2"
    )
    assert mesh.format_pattern(catalog.get_pair("A33").q1) == (
        "123|0,2;1,0;1,1;1,2;2,2;3,0;3,1;3,2"
    )
    assert catalog.get_pair("S8").q1.shading == frozenset()


def test_taus_and_shared_shadings():
    for pair in catalog.builtin_catalog():
        assert pair.q1.tau == (1, 2, 3)
        assert pair.q2.tau == (3, 2, 1)
        assert pair.q1.shading == pair.q2.shading


def test_family_classifiers():
    for pair in catalog.builtin_catalog():
        cls = mesh.classify_shading(pair.q1)
        if pair.family == "symmetric":
            assert cls.symmetric, pair.id
        else:
            assert cls.minus_antipodal, pair.id


def test_conjectured_set():
    conj = [p.id for p in catalog.builtin_catalog() if p.status == "conjectured"]
    assert conj == ["S21", "S22"]
    proven = [p for p in catalog.builtin_catalog() if p.status == "proven"]
    assert len(proven) == 56


def test_methods():
    assert catalog.get_pair("S1").method == "complement_reverse"
    assert catalog.get_pair("S9").method == "element_swap"
    assert catalog.get_pair("S19").method == "recurrence"
    assert catalog.get_pair("S21").method == "conjecture"
    assert catalog.get_pair("A17").method == "closed_form"
    assert catalog.get_pair("A25").method == "recurrence"


def test_frames():
    frames = catalog.frames()
    assert len(frames) == 22
    sizes = sorted(len(v) for v in frames.values())
    assert sizes == [1] * 8 + [2] * 7 + [4] * 5 + [8, 8]
    assert [p.id for p in frames["A17-A24"]] == [f"A{i}" for i in range(17, 25)]


def test_get_pair_unknown():
    with pytest.raises(KeyError):
        catalog.get_pair("S99")


def test_load_round_trip(tmp_path):
    cat = catalog.builtin_catalog()
    lines = [
        f"{p.id} {p.family} {p.frame} {p.status} "
        f"{mesh.format_pattern(p.q1)} {mesh.format_pattern(p.q2)}"
        for p in cat
    ]
    path = tmp_path / "catalog.txt"
    path.write_text("# round trip\n" + "\n".join(lines) + "\n")
    assert catalog.load_catalog(path) == cat


def test_load_deduplicates_with_warning(tmp_path):
    path = tmp_path / "dup.txt"
    path.write_text(
        "A22 minus_antipodal A17-A24 proven "
        "123|0,1;0,2;1,2;2,2;3,0;3,1;3,2;3,2;3,3 "
        "321|0,1;0,2;1,2;2,2;3,0;3,1;3,2;3,2;3,3\n"
    )
    with pytest.warns(UserWarning, match="dedup"):
        (pair,) = catalog.load_catalog(path)
    assert pair.q1.shading == catalog.get_pair("A22").q1.shading


def test_load_rejects_bad_symmetric_shading(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("S4 symmetric S4 proven 123|0,1 321|0,1\n")
    with pytest.raises(CatalogError, match="transposition"):
        catalog.load_catalog(path)


def test_load_rejects_wrong_conjectured_set(tmp_path):
    path = tmp_path / "conj.txt"
    path.write_text(
        "S4 symmetric S4 conjectured 123|0,0;0,3;3,0;3,3 321|0,0;0,3;3,0;3,3\n"
    )
    with pytest.raises(CatalogError, match="conjectured"):
        catalog.load_catalog(path)


def test_load_reports_line_numbers(tmp_path):
    path = tmp_path / "short.txt"
    path.write_text("# comment\nS4 symmetric S4 proven 123|0,0\n")
    with pytest.raises(CatalogError, match="line 2"):
        catalog.load_catalog(path)


def test_derivation_chains_close():
    records = catalog.validate_derivations()
    failed = [r for r in records if not r[1]]
    assert not failed, failed
    # every chain is checked from both slots, plus 24 internal symmetries
    assert len(records) == 2 * len(catalog.DERIVATION_CHAINS) + len(
        catalog.INTERNAL_SYMMETRY
    )


def test_derivation_waypoints_cover_non_anchor_pairs():
    covered = {start for start, _ in catalog.DERIVATION_CHAINS}
    for _, steps in catalog.DERIVATION_CHAINS:
        covered.update(target for _, target in steps)
    covered.update(catalog.INTERNAL_SYMMETRY)
    assert covered == {p.id for p in catalog.builtin_catalog()}
