import os
import sys

from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

# one profile for every property test: no deadline (timings vary with the
# host), no example database, and the same examples on every run
settings.register_profile("cylkit", deadline=None, database=None,
                          derandomize=True)
settings.load_profile("cylkit")
