import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


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
