import functools

import pytest

from coarselab import opalg, spaces


@pytest.fixture(scope="session")
def zline():
    return spaces.make_window("zd", 16, 6, dim=1)


@pytest.fixture(scope="session")
def zplane():
    return spaces.make_window("zd", 10, 4, dim=2)


@pytest.fixture(scope="session")
def heis():
    return spaces.make_window("heisenberg3", 5, 1)


@pytest.fixture(scope="session")
def tree():
    return spaces.make_window("tree3", 6, 1)


@functools.cache
def _margin0_twin(kind, W, metric, dim):
    return spaces.make_window(kind, W, 0, metric, dim=dim)


def _draw_everywhere(window, seed, prop, fiber=1, **kw):
    """random_banded with its support on every point of the window, not only
    the margin-safe core: the draw on the window's margin-0 twin, whose point
    ids are the same, rebound to the window."""
    twin = _margin0_twin(window.kind, window.W, window.metric, window.dim)
    A = opalg.random_banded(twin, seed, prop, fiber=fiber, **kw)
    return opalg.BandedOperator(window, A.mat, fiber)


@pytest.fixture(scope="session")
def draw_everywhere():
    return _draw_everywhere
