"""Every ``repro.*`` name the docs and docstrings point at must exist.

A deletion that leaves a reference behind sends a reader to nothing.  Two
sources are checked:

* the ``:mod:`` / ``:class:`` / ``:func:`` / ``:meth:`` / ``:data:`` roles
  naming ``repro.*`` in ``src/``;
* every dotted ``repro.*`` name inside an inline code span of README.md,
  DESIGN.md, EXPERIMENTS.md and ``docs/*.md``.

A name resolves when its longest importable module prefix imports and the
rest is reached by ``getattr``.  docs/performance.md's section "Removed,
and the number that removed it" is exempt: it names what was deleted on
purpose.
"""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ROLE = re.compile(r":(?:mod|class|func|meth|data):`~?(repro(?:\.\w+)+)`")
CODE_SPAN = re.compile(r"`[^`\n]*`")
DOTTED = re.compile(r"(?<![\w.])repro(?:\.\w+)+")
REMOVED_SECTION = re.compile(r"^## Removed, and the number that removed it\n.*?(?=^## )", re.M | re.S)


def resolves(name: str) -> bool:
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for attr in parts[cut:]:
                obj = getattr(obj, attr)
        except AttributeError:
            return False
        return True
    return False


def role_names() -> list[tuple[str, str]]:
    return [
        (str(path.relative_to(ROOT)), name)
        for path in sorted((ROOT / "src").rglob("*.py"))
        for name in ROLE.findall(path.read_text())
    ]


def doc_names() -> list[tuple[str, str]]:
    paths = [ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md", *sorted((ROOT / "docs").glob("*.md"))]
    out = []
    for path in paths:
        text = path.read_text()
        if path.name == "performance.md":
            text, n = REMOVED_SECTION.subn("", text)
            assert n == 1, "docs/performance.md lost its 'Removed' section heading"
        for span in CODE_SPAN.findall(text):
            out += [(str(path.relative_to(ROOT)), name) for name in DOTTED.findall(span)]
    return out


@pytest.mark.parametrize("collect", [role_names, doc_names], ids=["src-roles", "doc-names"])
def test_every_reference_resolves(collect):
    names = collect()
    assert len(names) > 100  # the scan still finds the references
    dangling = sorted({(where, name) for where, name in names if not resolves(name)})
    assert not dangling, "dangling references:\n" + "\n".join(f"{where}: {name}" for where, name in dangling)


def test_the_guard_catches_a_deleted_name():
    assert resolves("repro.service.solver.IncrementalAmfSolver")
    assert resolves("repro.core.amf.CutBasis.record")
    assert not resolves("repro.service.solver.NoSuchSolver")
    assert not resolves("repro.no_such_module.thing")
