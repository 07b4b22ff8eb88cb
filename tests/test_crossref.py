"""Concept-map integrity tests.

The concept table in the architecture doc must resolve end to end against
the real modules, and the checker must actually catch dangling pointers,
duplicate ids and a doc without a table rather than rubber-stamp them.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

from tgk.crossref import check_concepts, concept_rows, main

ROOT = Path(__file__).resolve().parents[1]
DOC = ROOT / "docs" / "architecture.md"
ROW = "| `warmup-cosine-schedule` | `tgk.optim.lr_at` |"
TABLE = re.compile(r"tables/([\w<>{}-]+)\.csv")


def doc_with(old: str, new: str) -> str:
    text = DOC.read_text()
    assert old in text
    return text.replace(old, new)


def test_every_concept_resolves():
    assert check_concepts(DOC.read_text()) == []


def test_concept_ids_are_unique_and_kebab_case():
    ids = [concept for _, concept, _ in concept_rows(DOC.read_text())]
    assert len(ids) == len(set(ids)) > 0
    for cid in ids:
        assert cid == cid.lower()
        assert " " not in cid and "_" not in cid


def test_checker_flags_dangling_target():
    text = doc_with(ROW, "| `warmup-cosine-schedule` | "
                         "`tgk.optim.does_not_exist` |")
    problems = check_concepts(text)
    assert len(problems) == 1
    assert "warmup-cosine-schedule" in problems[0]
    assert "tgk.optim.does_not_exist" in problems[0]


def test_checker_flags_missing_module():
    problems = check_concepts("| `ghost` | `tgk.no_such_module.f` | x |\n")
    assert len(problems) == 1
    assert "ghost" in problems[0]


def test_checker_flags_pointer_outside_the_package():
    problems = check_concepts("| `ghost` | `os.path.join` | x |\n")
    assert len(problems) == 1
    assert "tgk.<module>.<attr>" in problems[0]


def test_checker_flags_duplicate_concepts():
    text = DOC.read_text()
    problems = check_concepts(text + ROW + " again |\n")
    assert problems == [f"line {len(text.splitlines()) + 1}: duplicate "
                        f"concept id warmup-cosine-schedule"]


def test_checker_flags_id_that_is_not_kebab_case():
    problems = check_concepts("| `Warmup_Cosine` | `tgk.optim.lr_at` | x |\n")
    assert problems == ["line 1: 'Warmup_Cosine' is not a kebab-case id"]


def test_cli_entry_point_reports_status(capsys):
    assert main(["--doc", str(DOC)]) == 0
    rows = len(concept_rows(DOC.read_text()))
    assert capsys.readouterr().out == f"{DOC}: {rows} concepts resolve\n"


def test_cli_entry_point_fails_on_bad_doc(tmp_path, capsys):
    doc = tmp_path / "arch.md"
    doc.write_text("no table here\n")
    assert main(["--doc", str(doc)]) == 1
    assert capsys.readouterr().out == f"{doc}: no concept rows\n"


def run_module(doc: Path) -> subprocess.CompletedProcess:
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run(
        [sys.executable, "-m", "tgk.crossref", "--doc", str(doc)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)


def test_documented_command_exits_by_the_table(tmp_path):
    ok = run_module(Path("docs") / "architecture.md")
    assert ok.returncode == 0, ok.stdout + ok.stderr
    assert ok.stdout.endswith("concepts resolve\n")

    doc = tmp_path / "arch.md"
    doc.write_text(doc_with(ROW, "| `warmup-cosine-schedule` | "
                                 "`tgk.optim.lr_after` |"))
    bad = run_module(doc)
    assert bad.returncode == 1
    lines = bad.stdout.splitlines()
    assert len(lines) == 1
    assert "warmup-cosine-schedule: `tgk.optim.lr_after` does not resolve" \
        in lines[0]


def tables_the_cli_cannot_write(text: str) -> list[str]:
    """Names of ``tables/<name>.csv`` in ``text`` that ``tgk.cli`` holds
    neither as a string constant nor as the leading literal of an
    f-string (``activation_histogram_<task>``)."""
    tree = ast.parse((ROOT / "src" / "tgk" / "cli.py").read_text())
    names, prefixes = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.JoinedStr):
            head = node.values[0] if node.values else None
            if isinstance(head, ast.Constant) and head.value:
                prefixes.add(head.value)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return [name for name in TABLE.findall(text)
            if name not in names
            and not any(name.startswith(pre) for pre in prefixes)]


def test_docs_name_only_tables_the_cli_writes():
    docs = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]
    text = "\n".join(doc.read_text() for doc in docs)
    assert TABLE.search(text)
    assert tables_the_cli_cannot_write(text) == []
    assert tables_the_cli_cannot_write(
        "`tables/no_such_table.csv`, `tables/activation_histogram_<task>.csv`"
    ) == ["no_such_table"]
