"""The package's public names: one list, and every name its users rely on."""

import ast
import re
from pathlib import Path

import sigcount

ROOT = Path(__file__).resolve().parent.parent

#: Names removed from the package; none may come back through ``sigcount``.
DELETED = ("MomentCLT", "moment_clt", "standard_gaussian_stream")


def _names_from_sigcount(source: str) -> set[str]:
    """Names a Python source takes from ``sigcount``: imported or read as ``sc.x``."""
    tree = ast.parse(source)
    aliases = {
        alias.asname or alias.name
        for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names if alias.name == "sigcount"
    }
    names = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "sigcount"
        for alias in node.names
    }
    names |= {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name) and node.value.id in aliases
    }
    return names


def _used_names() -> set[str]:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    # The README's examples run in one session, so its blocks parse as one.
    sources = ["\n".join(re.findall(r"```python\n(.*?)```", readme, flags=re.S))]
    sources += [p.read_text(encoding="utf-8") for p in sorted((ROOT / "demos").glob("*.py"))]
    sources.append((ROOT / "bench" / "workloads.py").read_text(encoding="utf-8"))
    return set().union(*map(_names_from_sigcount, sources))


def test_all_lists_each_name_once_and_every_name_resolves():
    assert len(sigcount.__all__) == len(set(sigcount.__all__))
    for name in sigcount.__all__:
        getattr(sigcount, name)


def test_all_holds_every_name_readme_demos_and_bench_use():
    used = _used_names()
    # Guards the parsing above: each kind of source contributes.
    assert {"snapshot_spectrum", "run_clt_check", "validate_spectrum"} <= used
    assert sorted(used - set(sigcount.__all__)) == []


def test_deleted_names_are_gone():
    for name in DELETED:
        assert name not in sigcount.__all__
        assert not hasattr(sigcount, name)
    assert not hasattr(sigcount.DetectionResult, "criterion")
    assert not hasattr(sigcount.HermitianMatrix, "order")
    assert not hasattr(sigcount.montecarlo, "ALL_ESTIMATORS")
