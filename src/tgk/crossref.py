"""Checks that the architecture doc's concept table resolves.

Docs that point at code rot silently. The concept table in
``docs/architecture.md`` is the only map from design concepts to code:
each row holds a kebab-case concept id and, as ``tgk.<module>.<attr>
[.<attr>]``, the callable or class implementing it. ``check_concepts``
reports a row whose implementation does not resolve, a duplicated or
non-kebab-case id, and a doc with no concept rows. As a script it prints
one line per problem and exits nonzero if there is any:

    python -m tgk.crossref --doc docs/architecture.md
"""

from __future__ import annotations

import argparse
import importlib
import re
from pathlib import Path

__all__ = ["concept_rows", "check_concepts", "main"]

_ROW = re.compile(r"^\|\s*`([^`]+)`\s*\|\s*([^|]*?)\s*\|")
_TARGET = re.compile(r"`tgk\.([a-z_]\w*)((?:\.[A-Za-z_]\w*)+)`")
_KEBAB = re.compile(r"[a-z0-9]+(?:-[a-z0-9]+)*")


def concept_rows(text: str) -> list[tuple[int, str, str]]:
    """``(line number, concept id, implementation cell)`` per table row
    whose first cell is a backquoted id."""
    return [(n, m.group(1), m.group(2))
            for n, line in enumerate(text.splitlines(), start=1)
            if (m := _ROW.match(line.strip()))]


def _resolve(cell: str) -> None:
    """Raise unless ``cell`` names an attribute of a ``tgk`` module."""
    m = _TARGET.fullmatch(cell)
    if m is None:
        raise LookupError("not of the form `tgk.<module>.<attr>`")
    obj = importlib.import_module(f"{__package__}.{m.group(1)}")
    for part in m.group(2)[1:].split("."):
        obj = getattr(obj, part)


def check_concepts(text: str) -> list[str]:
    """One message per problem in the doc ``text``'s concept table."""
    rows = concept_rows(text)
    if not rows:
        return ["no concept rows"]
    problems, seen = [], set()
    for n, concept, cell in rows:
        if concept in seen:
            problems.append(f"line {n}: duplicate concept id {concept}")
        seen.add(concept)
        if not _KEBAB.fullmatch(concept):
            problems.append(f"line {n}: {concept!r} is not a kebab-case id")
        try:
            _resolve(cell)
        except (ImportError, LookupError, AttributeError) as exc:
            problems.append(f"line {n}: {concept}: {cell} does not resolve "
                            f"({exc})")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--doc", required=True,
                        help="doc whose concept table to check")
    doc = parser.parse_args(argv).doc
    text = Path(doc).read_text()
    problems = check_concepts(text)
    for line in problems or [f"{len(concept_rows(text))} concepts resolve"]:
        print(f"{doc}: {line}")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
