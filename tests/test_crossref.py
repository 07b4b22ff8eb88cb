"""Design-map integrity tests.

The concept map must resolve end to end against the real modules, the
architecture doc must list exactly the same concept ids, and the checker
must actually catch dangling pointers and drift rather than rubber-stamp
them.
"""

from pathlib import Path

from tgk.crossref import DESIGN_MAP, MapEntry, check_design_map, doc_parity, main

DOC = Path(__file__).resolve().parents[1] / "docs" / "architecture.md"


def test_every_concept_resolves():
    assert check_design_map() == []


def test_concept_ids_are_unique_and_kebab_case():
    ids = [e.concept for e in DESIGN_MAP]
    assert len(ids) == len(set(ids))
    for cid in ids:
        assert cid == cid.lower()
        assert " " not in cid


def test_checker_flags_dangling_target():
    bad = DESIGN_MAP + (MapEntry("ghost", "layers:does_not_exist", "x"),)
    problems = check_design_map(bad)
    assert len(problems) == 1
    assert "ghost" in problems[0]


def test_checker_flags_missing_module():
    bad = (MapEntry("ghost", "no_such_module:f", "x"),)
    problems = check_design_map(bad)
    assert len(problems) == 1


def test_checker_flags_duplicate_concepts():
    dup = DESIGN_MAP + (DESIGN_MAP[0],)
    problems = check_design_map(dup)
    assert any("duplicate" in p for p in problems)


def test_doc_lists_exactly_the_map():
    assert DOC.is_file()
    assert doc_parity(DOC) == []


def test_doc_parity_detects_drift(tmp_path):
    doc = tmp_path / "arch.md"
    rows = "\n".join(f"| `{e.concept}` | x |" for e in DESIGN_MAP[:-1])
    doc.write_text(rows + "\n| `stowaway-concept` | x |\n")
    problems = doc_parity(doc)
    assert any("missing" in p and DESIGN_MAP[-1].concept in p for p in problems)
    assert any("unknown" in p and "stowaway-concept" in p for p in problems)


def test_doc_parity_detects_a_row_naming_another_implementation(tmp_path):
    doc = tmp_path / "arch.md"
    text = DOC.read_text()
    row = "| `warmup-cosine-schedule` | `tgk.optim.lr_at` |"
    assert row in text
    doc.write_text(text.replace(row, "| `warmup-cosine-schedule` | "
                                     "`tgk.optim.Adam` |"))
    assert doc_parity(doc) == [
        "doc names tgk.optim.Adam for warmup-cosine-schedule, the map "
        "tgk.optim.lr_at"]


def test_cli_entry_point_reports_status(capsys):
    assert main([]) == 0
    assert "design map ok" in capsys.readouterr().out
    assert main(["--doc", str(DOC)]) == 0


def test_cli_entry_point_fails_on_bad_doc(tmp_path, capsys):
    doc = tmp_path / "arch.md"
    doc.write_text("no table here\n")
    assert main(["--doc", str(doc)]) == 1
    out = capsys.readouterr().out
    assert "doc missing concept" in out
