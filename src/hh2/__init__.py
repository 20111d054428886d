"""Exact reconstruction toolkit for the quiver algebra tower behind hh_l."""

__version__ = "0.1.0"


class Hh2Error(Exception):
    """Base of the exceptions hh2 raises on purpose: a failed construction,
    a failed invariant or an input it refuses.  The command line reports
    these with exit code 3, but exits 2 on the three refusals of its input:
    a spadesuit window that is empty or has too many products, and an hh_l
    too large to list or to multiply (``UnboundedWindow``); any other
    exception is a crash and keeps its traceback."""
