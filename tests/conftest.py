import os
import sys
from collections import OrderedDict
from pathlib import Path

import pytest
from hypothesis import settings

import wasmwarden.interp

# make the shared module builders importable from any test file
sys.path.insert(0, str(Path(__file__).parent))

# on CI (GitHub Actions sets CI) property tests draw the same examples on
# every run and keep no example database, so a failure in the log
# reproduces anywhere
settings.register_profile("ci", derandomize=True, database=None)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture
def code_cache(monkeypatch):
    """The process-wide cache of compiled bodies, empty for the test; the
    one the process had is put back after it."""
    cache = OrderedDict()
    monkeypatch.setattr(wasmwarden.interp, "_CODE", cache)
    return cache
