import os
import sys
from pathlib import Path

from hypothesis import settings

# make the shared module builders importable from any test file
sys.path.insert(0, str(Path(__file__).parent))

# on CI (GitHub Actions sets CI) property tests draw the same examples on
# every run and keep no example database, so a failure in the log
# reproduces anywhere
settings.register_profile("ci", derandomize=True, database=None)
if os.environ.get("CI"):
    settings.load_profile("ci")
