"""Exact reconstruction toolkit for the quiver algebra tower behind hh_l."""

__version__ = "0.1.0"


class Hh2Error(Exception):
    """Base of the exceptions hh2 raises on purpose: a failed construction,
    a failed invariant or an input it refuses.  The command line reports
    these with exit code 3 (2 for an empty window); any other exception is
    a crash and keeps its traceback."""
