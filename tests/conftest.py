import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


def line_ids(calls, first_line):
    """Test ids for a list of calls, the first on the line after the list
    starts: each call's line offset within the list plus first_line, where
    the list started when the ids were fixed, so that lines added above
    the list rename no case."""
    start = calls[0].__code__.co_firstlineno - 1
    return [first_line + call.__code__.co_firstlineno - start
            for call in calls]


@pytest.fixture
def near_recursion_limit():
    """run(f) calls f() with 30 frames left before the interpreter's
    recursion limit, as a library caller deep in its own stack would."""
    def probe(n):
        try:
            return probe(n + 1)
        except RecursionError:
            return n

    def descend(n, f):
        return f() if n == 0 else descend(n - 1, f)

    return lambda f: descend(probe(0) - 30, f)
