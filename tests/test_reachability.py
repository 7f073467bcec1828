"""The reachability analyzer on a synthetic package; no entry point is run."""

from __future__ import annotations

import importlib
import sys
import textwrap

import pytest

from tests import reachability

SOURCE = textwrap.dedent(
    '''
    import functools


    def entered():
        return 1


    def unentered():
        def nested():
            return 2

        return nested


    def kept():
        return 3


    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args):
            return fn(*args)

        return wrapper


    @deco
    def decorated():
        return 4


    class Box:
        @property
        def size(self):
            return 5
    '''
)
MODULE = "reach_synth.mod"


@pytest.fixture(scope="module")
def package(tmp_path_factory):
    """``(src, entered lines)``: the package's parent directory and what one run entered."""
    src = tmp_path_factory.mktemp("src")
    (src / "reach_synth").mkdir()
    (src / "reach_synth" / "__init__.py").write_text("")
    (src / "reach_synth" / "mod.py").write_text(SOURCE)
    sys.path.insert(0, str(src))
    try:
        mod = importlib.import_module(MODULE)
        codes = reachability.record()
        try:
            mod.entered()
            mod.decorated()
            mod.Box().size
        finally:
            reachability._dump(codes, src)
    finally:
        sys.path.remove(str(src))
        for name in (MODULE, "reach_synth"):
            sys.modules.pop(name, None)
    return src, reachability.entered(src, src)


def findings(package, allow: str = "") -> list[str]:
    src, lines = package
    return reachability.findings(src, lines, allow)


def test_an_unentered_function_is_reported(package):
    assert f"no entry point enters {MODULE}:unentered" in findings(package)
    assert f"no entry point enters {MODULE}:kept" in findings(package)
    # deco ran at import, before recording started
    assert f"no entry point enters {MODULE}:deco" in findings(package)
    assert not [f for f in findings(package) if f.endswith((":entered", ":Box.size"))]


def test_an_allowlisted_function_is_not(package):
    assert f"no entry point enters {MODULE}:kept" not in findings(package, f"{MODULE}:kept  public API: a test\n")


def test_a_stale_allowlist_line_fails(package):
    for name in ("gone", "entered"):
        assert f"allowlist names no unentered function: {MODULE}:{name}" in findings(
            package, f"{MODULE}:{name}  public API: a test\n"
        )


def test_a_line_without_a_reason_or_its_test_fails(package):
    for line in (
        f"{MODULE}:kept  because",
        f"{MODULE}:kept  failure path: no test named",
        f"{MODULE}:kept  failure path: tests/test_reachability.py::test_that_does_not_exist",
    ):
        assert any(f.startswith("allowlist line without a reason") for f in findings(package, line)), line
    named = f"{MODULE}:kept  failure path: tests/test_reachability.py::test_an_allowlisted_function_is_not"
    assert f"no entry point enters {MODULE}:kept" not in findings(package, named)


def test_a_decorated_function_matches_on_its_first_decorator_line(package):
    src, lines = package
    decorator_line = SOURCE.splitlines().index("@deco") + 1
    assert ("reach_synth/mod.py", decorator_line) in lines
    assert ("reach_synth/mod.py", decorator_line + 1) not in lines
    assert not [f for f in findings(package) if f.endswith(":decorated")]


def test_defs_nested_in_an_unentered_def_count_once(package):
    unentered = [f for f in findings(package) if "unentered" in f]
    assert unentered == [f"no entry point enters {MODULE}:unentered"]
