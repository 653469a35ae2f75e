"""The ``>>>`` examples in the package's docstrings execute and hold."""

import doctest
import importlib

import pytest

#: Every module under ``src/repro`` whose docstrings carry ``>>>`` examples.
DOCTEST_MODULES = (
    "repro",
    "repro.core.benchcompare",
    "repro.core.paths",
    "repro.jobs.manifest",
    "repro.ml.fixed_point",
    "repro.serve.loadgen",
    "repro.serve.registry",
    "repro.serve.stats",
    "repro.serve.transport",
)


@pytest.mark.parametrize("name", DOCTEST_MODULES)
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(name), verbose=False)
    assert result.attempted, f"{name} has no docstring examples left"
    assert result.failed == 0, f"{result.failed} example(s) failed in {name}"


def test_every_module_with_examples_is_listed():
    from pathlib import Path

    import repro

    root = Path(repro.__file__).parent
    found = set()
    for path in root.rglob("*.py"):
        if ">>>" in path.read_text(encoding="utf-8"):
            parts = path.relative_to(root.parent).with_suffix("").parts
            found.add(".".join(parts[:-1] if parts[-1] == "__init__" else parts))
    assert found == set(DOCTEST_MODULES)
