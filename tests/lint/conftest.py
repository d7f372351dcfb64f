"""Shared whole-tree lint: ``src/repro`` is analysed once per session.

Whole-program lint of the shipped tree is the slowest step of the lint
tests.  The tree-level tests share one timed run (:func:`tree_lint`);
CLI tests that lint the tree get a deep copy of that report through
:func:`shared_tree_lint` instead of re-running the analysis.
"""

import copy
import time
from pathlib import Path

import pytest

import repro
import repro.lint

SRC_REPRO = str(Path(repro.__file__).parent)


@pytest.fixture(scope="session")
def tree_lint():
    """``(report, elapsed_s)`` of one timed ``lint_paths([SRC_REPRO])`` run."""
    start = time.monotonic()
    report = repro.lint.lint_paths([SRC_REPRO])
    return report, time.monotonic() - start


@pytest.fixture
def shared_tree_lint(tree_lint, monkeypatch):
    """Serve ``repro.lint.lint_paths([SRC_REPRO])`` from the session run.

    Each call gets its own deep copy, so a caller that applies a baseline
    cannot leak into the next test.  Any other input runs the real lint.
    """
    real = repro.lint.lint_paths

    def lint_paths(paths, **kwargs):
        if list(paths) == [SRC_REPRO] and not kwargs:
            return copy.deepcopy(tree_lint[0])
        return real(paths, **kwargs)

    monkeypatch.setattr(repro.lint, "lint_paths", lint_paths)
