"""Every ``repro.*`` name and repo path the docs and docstrings point at must exist.

A deletion that leaves a reference behind sends a reader to nothing.  Three
sources are checked:

* the ``:mod:`` / ``:class:`` / ``:func:`` / ``:meth:`` / ``:data:`` roles
  naming ``repro.*`` in ``src/``;
* every dotted ``repro.*`` name inside an inline code span of README.md,
  DESIGN.md, EXPERIMENTS.md and ``docs/*.md``;
* every repo path (``benchmarks/``, ``tests/``, ``src/``, ``examples/`` or
  ``docs/`` up to a ``.py``, ``.md``, ``.json``, ``.txt`` or ``.jsonl``
  name) in those documents and in ``src/``.

A name resolves when its longest importable module prefix imports and the
rest is reached by ``getattr``; a path resolves when the file exists.
docs/performance.md's section "Removed, and the number that removed it" is
exempt: it names what was deleted on purpose.
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
REPO_PATH = re.compile(r"(?<![\w./-])(?:benchmarks|tests|src|examples|docs)/[\w./-]*?\.(?:py|md|json|txt|jsonl)(?!\w)")


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


def doc_texts() -> list[tuple[str, str]]:
    paths = [ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md", *sorted((ROOT / "docs").glob("*.md"))]
    out = []
    for path in paths:
        text = path.read_text()
        if path.name == "performance.md":
            text, n = REMOVED_SECTION.subn("", text)
            assert n == 1, "docs/performance.md lost its 'Removed' section heading"
        out.append((str(path.relative_to(ROOT)), text))
    return out


def doc_names() -> list[tuple[str, str]]:
    return [
        (where, name)
        for where, text in doc_texts()
        for span in CODE_SPAN.findall(text)
        for name in DOTTED.findall(span)
    ]


def repo_paths() -> list[tuple[str, str]]:
    sources = doc_texts() + [(str(p.relative_to(ROOT)), p.read_text()) for p in sorted((ROOT / "src").rglob("*.py"))]
    return [(where, found) for where, text in sources for found in REPO_PATH.findall(text)]


@pytest.mark.parametrize("collect", [role_names, doc_names], ids=["src-roles", "doc-names"])
def test_every_reference_resolves(collect):
    names = collect()
    assert len(names) > 100  # the scan still finds the references
    dangling = sorted({(where, name) for where, name in names if not resolves(name)})
    assert not dangling, "dangling references:\n" + "\n".join(f"{where}: {name}" for where, name in dangling)


def test_every_repo_path_resolves():
    paths = repo_paths()
    assert len(paths) > 100  # the scan still finds the paths
    missing = sorted({(where, found) for where, found in paths if not (ROOT / found).is_file()})
    assert not missing, "paths to no file:\n" + "\n".join(f"{where}: {found}" for where, found in missing)


def test_the_path_scan_reads_a_path_out_of_prose():
    text = "run `benchmarks/bench_gone.py::test_x`, see docs/service.md; not myrepo/tests/x.py"
    assert REPO_PATH.findall(text) == ["benchmarks/bench_gone.py", "docs/service.md"]


def test_the_guard_catches_a_deleted_name():
    assert resolves("repro.service.solver.IncrementalAmfSolver")
    assert resolves("repro.core.amf.CutBasis.record")
    assert not resolves("repro.service.solver.NoSuchSolver")
    assert not resolves("repro.no_such_module.thing")
