"""Suite-wide settings: property tests draw the same examples on every run,
so a failure reproduces. A database would replay stored failures first and
make a run depend on earlier runs, so there is none. The evaluation thread
count comes from the test itself, never from the caller's environment."""

import pytest
from hypothesis import settings

from vaecomm.evaluation import THREADS_ENV_VAR

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture(autouse=True)
def _no_thread_override(monkeypatch):
    monkeypatch.delenv(THREADS_ENV_VAR, raising=False)
