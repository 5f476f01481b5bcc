import numpy as np
import pytest

from whichway import Geometry, JointState, make_detector_pair, pattern


@pytest.fixture
def standard_geom():
    """The workhorse geometry used throughout: 500 nm particle, 0.1 mm slits,
    1 m flight, 10 um packets."""
    return Geometry(wavelength=5e-7, slit_sep=1e-4, screen_dist=1.0, packet_width=1e-5)


@pytest.fixture
def separated_geom():
    """Same layout with 1 um packets: the envelope spans ~8 fringes, so
    extrema sit where the ideal fringe formula puts them."""
    return Geometry(wavelength=5e-7, slit_sep=1e-4, screen_dist=1.0, packet_width=1e-6)


@pytest.fixture
def joint_state(standard_geom):
    def make(s, theta=0.0, geom=None):
        return JointState(geom or standard_geom, make_detector_pair(s, theta))

    return make


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


@pytest.fixture(scope="session")
def uncached():
    """Call a function with the pattern module's one-slot caches emptied
    first (the default grid, the packets and their which-way sum), so that it
    builds and evolves its own, as a fresh process does."""
    def call(fn, *args):
        for cache in (pattern.default_grid, pattern._packets, pattern._which_way_sum):
            cache.cache_clear()
        return fn(*args)

    return call
