import pytest

from coupler_lab import coupler


@pytest.fixture(autouse=True)
def fresh_tracks():
    # the memoized ground-state tracks are cleared before each test, so a
    # test that counts solves or patches the continuation or a solver traces
    # its own grids, whatever ran before it
    coupler._ground_track.cache_clear()
