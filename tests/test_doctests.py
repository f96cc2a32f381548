"""The examples in ybx's docstrings run and print what they show."""

import doctest
import importlib
import pkgutil

import ybx


def test_docstring_examples():
    # a failing example is printed, and captured output shows it; a run
    # that found no example checks nothing, so it fails too
    names = ["ybx"] + [f"ybx.{m.name}" for m in pkgutil.iter_modules(ybx.__path__)]
    runner = doctest.DocTestRunner()
    for name in names:
        for test in doctest.DocTestFinder().find(importlib.import_module(name)):
            runner.run(test)
    failed, attempted = runner.summarize(verbose=False)
    assert failed == 0 and attempted > 0
