"""One hypothesis profile for every property test in the suite.

Each property test draws a fixed sequence of examples (``derandomize``),
keeps no example database between runs, and has no per-example deadline,
which a slow or shared machine would otherwise trip. A test's own
``@settings`` then sets only how many examples it draws.
"""

from hypothesis import settings

settings.register_profile("loginwatch", derandomize=True, database=None, deadline=None)
settings.load_profile("loginwatch")
