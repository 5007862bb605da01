import contextlib
import os

import pytest
from hypothesis import Phase, settings

from catalania import forest
from catalania.identities import run_suite

# tools/mutants.py runs tests that are meant to fail: it needs only the first
# failing example, so its profile neither shrinks nor explains it, and keeps
# no example database.  Every other run keeps Hypothesis's default profile.
settings.register_profile("mutants", phases=(Phase.explicit, Phase.generate), database=None)
settings.load_profile(os.environ.get("CATALANIA_HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def default_reports():
    """run_suite() on the default config, run once for every test that only
    reads it; a test that checks repeatability makes its own second run."""
    return tuple(run_suite())


@contextlib.contextmanager
def _pool_cap(cap):
    saved = forest.POOL_CACHE_MAX

    def reset(value):
        forest.POOL_CACHE_MAX = value
        forest._pools.clear()
        forest._large_plan.cache_clear()

    reset(cap)
    try:
        yield
    finally:
        reset(saved)


@pytest.fixture(scope="session")
def pool_cap():
    """``with pool_cap(cap):`` runs its body with forest.POOL_CACHE_MAX set to
    ``cap`` and empty pool caches, and restores the cap after."""
    return _pool_cap
