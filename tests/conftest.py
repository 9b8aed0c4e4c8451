"""Suite-wide settings: property tests draw the same examples on every run,
so a failure reproduces. A database would replay stored failures first and
make a run depend on earlier runs, so there is none."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
