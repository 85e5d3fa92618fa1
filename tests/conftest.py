import random
import sys

import pytest

from rnatreedit.tree_model import Label

# Alphabets used across the DP/oracle tests: two node labels with well
# separated sizes plus a single edge label keeps enumerations small while
# exercising size-aware costs.
NODE_LABELS = [Label("h", (1,)), Label("i", (9,))]
EDGE_LABELS = [Label("x", (2,))]


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


def stack_depth():
    """Frames on the stack of the caller, for lowering the recursion limit
    to a few frames above it."""
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth
