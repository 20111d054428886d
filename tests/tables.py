"""The entries of a ``quiver.Table`` as a dict of combos, {(x, y): {t: c}}:
the form in which the references in these tests read and write tables."""


def as_dict(table) -> dict:
    """{(x, y): {t: c}} over the nonzero entries of a ``quiver.Table``."""
    out: dict = {}
    for x, y, t, c in zip(*(a.tolist() for a in table)):
        out.setdefault((x, y), {})[t] = c
    return out
