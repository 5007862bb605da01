import pytest

from catalania.identities import run_suite


@pytest.fixture(scope="session")
def default_reports():
    """run_suite() on the default config, run once for every test that only
    reads it; a test that checks repeatability makes its own second run."""
    return tuple(run_suite())
