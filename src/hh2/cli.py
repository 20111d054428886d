"""Command line front end: tables, bases, structure constants, verification.

Output is deterministic for fixed arguments: bases and product entries are
emitted in a canonical sort order and scalars are integers in [0, p); the
scalar 1/2 appears as (p+1)/2.

Exit codes: 0 success (checks may PASS or SKIP), 2 invalid arguments or
environment, or one of three refusals: a spadesuit window that is empty, one
with too many products, and an hhl level too large to list, 3 a check
failed or hh2 raised one of its own errors (an ``Hh2Error``, or an
``AssertionError`` from an internal invariant), 141 stdout was closed before
the output was written (as ``hh2 verify --p 3 | head -3`` closes it; a shell
reports 141 for a tool stopped by SIGPIPE).  Any other exception is a crash:
it propagates with its traceback and the interpreter exits 1.
"""

from __future__ import annotations

import io
import json
import os
import re
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from . import Hh2Error, __version__
from .exactlin import _among, _distinct, _summed, _within, _xor, is_odd_prime
from .koszulhh import (KIND_DUAL, KIND_IDEAL, KIND_OMEGA, KIND_THETA,
                       KIND_THETA_SIGMA, max_cells)
from .operators import UnboundedWindow
from .quiver import Table, WindowTable, tables_equal, window_associativity
from .spadesuit import WindowEmpty, WindowTooLarge

COEFFS = (KIND_OMEGA, KIND_THETA, KIND_THETA_SIGMA, KIND_DUAL, KIND_IDEAL)
HH2_CHECKS = ("hh_2 -> hh_1 surjective", "projection hh_2 -> hh_1 multiplicative",
              "hh_2 supercommutative in window")
# a basis row's keys as json.dumps(sort_keys=True) orders them; json.dumps(indent=2)'s
# text around the values of a basis row, a product's factors and a term
BASIS_KEYS = ("a", "b", "h", "i", "idempotent", "j", "k", "name")
_ROW = ("\n    {" + ",".join(f'\n      "{key}": %s' for key in BASIS_KEYS) + "\n    }").split("%s")
_HEAD = ('\n    {\n      "left": ', ',\n      "result": [')
_TAIL = ('\n      ],\n      "right": ', "\n    }")
_TERM = ('\n        {\n          "coeff": ', ',\n          "name": ', "\n        }")


def _emit(doc: dict, fmt: str, basis: list[tuple] | None = None,
          products: tuple = ((),) * 5) -> str:
    """doc as JSON, the text of json.dumps(doc, indent=2, sort_keys=True), or its
    basis as CSV.  A listing passes its basis as rows of ``BASIS_KEYS`` values and
    its products as (names, x, y, t, c): terms c * names[t] in print order, each
    run of equal (x, y) the product names[x] * names[y].  Both are written by
    their row shape's fragments; each other value of doc is json.dumps's text,
    indented one level (it escapes every newline in a string)."""
    if fmt == "csv":
        import csv  # only here: a JSON job does not load it
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(("name", "a", "b", "i", "j", "k", "h", "idempotent"))
        a, b, h, i, x, j, k, name = zip(*basis) if basis else ((),) * 8
        writer.writerows(zip(name, a, b, i, j, k, h, x))
        return out.getvalue().rstrip("\n")
    if basis is None:
        return json.dumps(doc, indent=2, sort_keys=True)
    texts = {key: json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n  ")
             for key, value in doc.items()}
    texts |= {"basis": _basis_text(basis), "products": _products_text(*products)}
    parts = ["{"]  # one join: the listings run to megabytes, so each copy shows
    for key, text in sorted(texts.items()):
        parts += "\n  ", json.dumps(key), ": ", text, ","
    parts[-1] = "\n}"
    return "".join(parts)


def _encoded(values) -> dict:
    """The JSON text of each distinct str, int or None of values."""
    return {v: encode_basestring_ascii(v) if isinstance(v, str) else "null" if v is None
            else repr(v) for v in set(values)}


def _listing(n: int, columns: list) -> str:
    """The JSON list of n rows of the columns' texts (one, or one per row), by one join."""
    parts = np.empty((n, len(columns)), dtype=object)
    for i, column in enumerate(columns):
        parts[:, i] = column
    parts[0, 0] = parts[0, 0][1:]  # no "," before the first row
    return "[" + "".join(parts.ravel().tolist()) + "\n  ]"


def _basis_text(rows: list[tuple]) -> str:
    # the template between the values' texts; a column of one value is written into it
    columns = ["," + _ROW[0]]
    for fragment, column in zip(_ROW[1:], zip(*rows)):
        text = _encoded(column)
        if len(text) > 1:
            columns += list(map(text.__getitem__, column)), fragment
        else:
            columns[-1] += next(iter(text.values())) + fragment
    return _listing(len(rows), columns) if rows else "[]"


def _products_text(names: list[str], x, y, t, c) -> str:
    # a term's coeff and name, led by its product's head or ",", ended by its tail or nothing
    if not len(t):
        return "[]"
    shown = np.array(list(map(encode_basestring_ascii, names)), dtype=object)
    x, y = np.asarray(x, dtype=np.int64), np.asarray(y, dtype=np.int64)
    first = np.flatnonzero(np.diff(x, prepend=-1) | np.diff(y, prepend=-1))
    last = np.append(first[1:], len(t)) - 1
    lead, end = (np.full(len(t), text, dtype=object) for text in ("," + _TERM[0], _TERM[2]))
    lead[first] = ("," + _HEAD[0] + shown + _HEAD[1] + _TERM[0])[x[first]]
    end[last] = (_TERM[2] + _TAIL[0] + shown + _TAIL[1])[y[last]]
    c = np.asarray(c, dtype=object).tolist()
    return _listing(len(t), [lead, list(map(_encoded(c).__getitem__, c)), _TERM[1],
                             shown[np.asarray(t, dtype=np.int64)], end])


def cmd_hh(p: int, coefficient: str, fmt: str) -> tuple[str, int]:
    from .clubsuit import NaturalMaps
    from .koszulhh import format_name, idempotent_label

    nm = NaturalMaps(p)
    hh = nm.homology[coefficient]
    basis = [(0, 0, cl.h, 0, idempotent_label(cl.name), cl.j, cl.k, format_name(cl.name))
             for cl in sorted(hh.classes, key=lambda c: (c.h, c.k, c.j, c.name))]
    products = ((),) * 5
    if fmt == "json":  # the CSV listing is the basis alone
        chi = nm.homology[KIND_OMEGA]
        # names: chi's classes, then hh's, each side's distinct; products by
        # the names of their sides, the terms of each by class name
        n = len(chi.classes)
        names = [format_name(cl.name) for cl in (*chi.classes, *hh.classes)]
        place = np.argsort(np.argsort(names))
        by_name = np.argsort(sorted(range(len(hh.classes)), key=lambda i: hh.classes[i].name))
        _, owner, t, c = nm.class_products[KIND_OMEGA, coefficient, coefficient]
        u, v = np.divmod(owner, len(hh.classes))
        order = np.lexsort((by_name[t], place[n + v], place[u]))
        products = (names, u[order], n + v[order], n + t[order], c[order])
    doc = {"p": p, "object": f"HH(Omega, {coefficient})", "version": __version__,
           "command": f"hh --p {p} --coefficient {coefficient}", "checks": []}
    return _emit(doc, fmt, basis, products), 0


def cmd_spadesuit(p: int, a_min: int, a_max: int, fmt: str,
                  check_associativity: bool = False,
                  run_first_principles: bool = False) -> tuple[str, int]:
    from .clubsuit import NaturalMaps
    from .spadesuit import _names, build_spade, verify_first_principles

    alg = build_spade(p, a_min, a_max)
    table = alg.product_table()
    products = ((),) * 5
    if fmt == "json":
        # the terms by (left, right, result) name, then coeff, from each
        # element's place among the names, which are distinct
        names = alg.displays.tolist()
        place = np.argsort(np.argsort(names))
        x, y, t, c = table.terms
        order = np.lexsort((c, place[t], place[y], place[x]))
        products = (names, x[order], y[order], t[order], c[order])
    checks = []  # (name, holds)

    if check_associativity:
        n_checked, n_failed = _spade_associativity(table, p)
        checks.append((f"associativity ({n_checked} triples)", n_failed == 0))
    if run_first_principles:
        rep = verify_first_principles(NaturalMaps(p), a_min, a_max)
        checks.append((f"first-principles ({len(rep.cells)} cells)", not rep.mismatches))
    doc = {"p": p, "object": "spadesuit", "version": __version__,
           "command": f"spadesuit --p {p} --a-min {a_min} --a-max {a_max}",
           "checks": [{"name": name, "status": "PASS" if ok else "FAIL"} for name, ok in checks]}
    # the basis by (a, b, k, j, str(name))
    order = np.lexsort((_names(p).by_str[alg.name], alg.j, alg.k, alg.b, alg.a))
    idem = np.array(["1", *(f"e_{s}" for s in range(1, p + 1))], dtype=object)[alg.x]
    basis = list(zip(*(col[order].tolist() for col in (
        alg.a, alg.b, np.full(alg.dim, None), alg.i, idem, alg.j, alg.k, alg.displays))))
    return _emit(doc, fmt, basis, products), 0 if all(ok for _, ok in checks) else 3


def _supercommutativity(table: WindowTable, ks: list[int], p: int) -> int:
    """Number of in-window pairs with x y != (-1)^{k(x) k(y)} y x, where
    ks[i] is the k-degree of basis element i: the terms of x y against the
    signed terms of y x, both in [1, p)."""
    n, (x, y, t, c), (ox, oy) = table
    ks = np.asarray(ks, dtype=np.int64)
    signed = np.where(ks[x] * ks[y] % 2, -c, c) % p
    pairs = _distinct(_xor(((x * n + y) * n + t) * p + c,
                           ((y * n + x) * n + t) * p + signed) // (p * n))
    return int(np.count_nonzero(~_among(np.sort(np.concatenate((ox * n + oy, oy * n + ox))),
                                        pairs)))


def _spade_associativity(table: WindowTable, p: int) -> tuple[int, int]:
    """Associativity of the grid algebra: a name of its own, so that profiles
    tell the grid scan from the club scan."""
    return window_associativity(table, p)


def _club_associativity(win) -> tuple[int, int]:
    """Associativity of the club window, scanned like the grid algebra."""
    return window_associativity(win.product_table(), win.p)


def _hh2_checks(p: int, spade, hh1) -> list[tuple[str, bool]]:
    """(name, holds) of ``HH2_CHECKS`` for hh_2, listed up to k = 12, and hh_1
    over the same window, read from their tables.  (1, m) in hh_2 projects
    onto m in hh_1, of the same k, and hh_1 reaches k = 2p - 2: k_max = 12 is
    2p - 2 at p = 7, so it keeps every preimage up to p = 7 and hh_2 small.
    At p >= 11 "hh_2 -> hh_1 surjective" needs k_max = 2p - 2.

    proj[x] is the element of hh_1 that x maps to, -1 where x dies.  Both
    sides of proj(x y) = proj(x) proj(y) are summed COO arrays keyed (x, y,
    element of hh_1), the right one over the pairs in hh_2's window."""
    from .operators import build_hhl

    hh2_ = build_hhl(p, 2, spade, k_max=12)
    n1 = hh1.dim
    place = np.full(spade.dim, -1, dtype=np.int64)
    place[hh1.factors[:, 0]] = np.arange(n1)
    f, one = hh2_.factors, spade.first[list(spade.slots).index((0, 0))]  # z^0 at (0, 0)
    proj = np.where(f[:, 0] == one, place[f[:, 1]], -1)
    onto = len(_distinct(proj[proj >= 0])) == n1
    table = hh2_.product_table()
    n, (x, y, t, c), (ox, oy) = table
    at = proj[t] >= 0
    lhs = _summed((x[at] * n + y[at]) * n1 + proj[t[at]], c[at], p)
    hit = np.flatnonzero(proj >= 0)
    a, b = np.repeat(hit, len(hit)), np.tile(hit, len(hit))
    inside = ~_among(ox * n + oy, a * n + b)
    a, b = a[inside], b[inside]
    _, (x1, y1, t1, c1), _ = hh1.product_table()
    s, e = _within(x1 * n1 + y1, proj[a] * n1 + proj[b])
    rhs = _summed((a[s] * n + b[s]) * n1 + t1[e], c1[e], p)
    mult_ok = tables_equal(lhs, rhs)
    sc_ok = _supercommutativity(table, hh2_.k, p) == 0
    return list(zip(HH2_CHECKS, (onto, mult_ok, sc_ok)))


def cmd_hhl(p: int, level: int, k_max: int | None, fmt: str) -> tuple[str, int]:
    from .operators import build_hhl
    from .spadesuit import build_spade

    spade = build_spade(p, -3, 4)
    alg = build_hhl(p, level, spade, k_max=k_max)
    f, k = alg.factors, alg.k
    j = spade.j[f[:, 0]] if level else alg.alpha
    # sorted by k, j and text: no display is a prefix of another (each ends at
    # the ")" of its "@(a,b)"), so the texts sort as their factors' displays do
    shown = spade.displays + " | "
    place = np.argsort(np.argsort(shown.tolist()))
    order = np.lexsort((*place[f[:, ::-1]].T, j, k))
    alpha = alg.alpha[order].tolist()
    tail = {a: f"z^{a})" for a in set(alpha)}
    text = sum((shown[column] for column in f[order].T), np.full(len(order), "(", dtype=object))
    n, text = len(order), text + np.array(list(map(tail.__getitem__, alpha)), dtype=object)
    basis = list(zip(*([None] * n,) * 3, [0] * n, [""] * n, j[order].tolist(), k[order].tolist(),
                     text.tolist()))
    lo = int(k.min(initial=0))  # the basis counted by k is the Hilbert series
    hilbert = {str(lo + d): n for d, n in enumerate(np.bincount(k - lo).tolist()) if n}
    doc = {"p": p, "object": f"hh_{level}", "version": __version__,
           "command": f"hhl --p {p} --l {level}" + (f" --k-max {k_max}" if k_max is not None else ""),
           "checks": [], "hilbert": hilbert}
    return _emit(doc, fmt, basis), 0


def run_verify(p: int) -> list[tuple[str, str, str]]:
    """Every invariant of the build at this prime as (name, status, detail).

    The status is PASS, FAIL or SKIP; a SKIP's detail is the reason the check
    does not run at this prime."""
    from .clubsuit import CHI, ClubWindow, ConstructionFailure, NaturalMaps
    from .exactlin import coo_pivot_rows
    from .koszulhh import TooLarge, bar_oracle, bar_sizes
    from .operators import build_hhl
    from .spadesuit import (LABELS, _names, build_spade, component_names, duality_form_checks,
                            name_table, verify_first_principles)

    results: list[tuple[str, str, str]] = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        results.append((name, "PASS" if ok else "FAIL", detail))

    def skip(name: str, reason: str) -> None:
        results.append((name, "SKIP", reason))

    nm = NaturalMaps(p)
    for name, run, runs_here in (
            ("natural maps intertwine with stated ranks", nm.check_maps, True),
            ("Omega associative", nm.omega.check_associativity, p <= 7),
            ("coefficient bimodules satisfy the axioms", nm.check_bimodules, p <= 7),
            ("pairings balanced and equivariant", nm.check_pairings, p <= 7)):
        if not runs_here:
            skip(name, "runs at p <= 7 only: the structure scans take several seconds at p >= 11")
            continue
        try:
            run()
        except (AssertionError, ConstructionFailure) as exc:
            check(name, False, str(exc))
        else:
            check(name, True)

    hhs = nm.homology
    expect = {KIND_OMEGA: 3 * p - 2, KIND_THETA: 2 * (p - 1), KIND_THETA_SIGMA: 2 * (p - 1),
              KIND_DUAL: p, KIND_IDEAL: p}
    for kind in COEFFS:
        n = len(hhs[kind].classes)
        check(f"dim HH(Omega, {kind}) = {expect[kind]}", n == expect[kind], f"got {n}")

    # the oracle runs to the deepest h <= top + 2 at which the cochains of
    # degrees 1..h+1 fit the cell cap for every coefficient, where top is the
    # highest Hochschild degree of a named class; it does not run below top
    cap, top = max_cells(), max(cl.h for hh in hhs.values() for cl in hh.classes)
    cells = [bar_sizes(nm.omega, nm.modules[kind], top + 3)[1] for kind in COEFFS]
    h_max = next((h for h in range(top + 2, top - 1, -1)
                  if all(sum(c[1:h + 2]) <= cap for c in cells)), None)
    for kind in COEFFS:
        if h_max is None:
            skip(f"bar oracle h<={top} agrees ({kind})",
                 f"bar complex to h<={top} would exceed {cap} cells")
            continue
        name = f"bar oracle h<={h_max} agrees ({kind})"
        try:
            oracle = bar_oracle(nm.omega, nm.modules[kind], h_max)
        except TooLarge as exc:
            skip(name, str(exc))
            continue
        model_dims = hhs[kind].dims_by_h(h_max)
        check(name, oracle == model_dims, f"oracle {oracle} vs model {model_dims}")

    # chi's cup table, each class renumbered by its name's place among chi's
    # names, is chi's name table exactly
    chi_names = {name: i for i, name in enumerate(component_names(p, CHI))}
    presented = Table.of(*name_table(p, CHI, CHI, CHI), p)
    ren = np.array([chi_names[cl.name] for cl in hhs[KIND_OMEGA].classes], dtype=np.int64)
    _, uv, t, c = nm.class_products[KIND_OMEGA, KIND_OMEGA, KIND_OMEGA]
    check("chi cup table matches presentation exactly", tables_equal(
        Table.of(ren[uv // len(ren)], ren[uv % len(ren)], ren[t], c, p), presented))

    perfect, assoc = duality_form_checks(p)
    check("duality pairing perfect", perfect)
    check("duality pairing associative", assoc)

    if p == 3:
        win = ClubWindow(nm, -3, 4)
        n_checked, n_bad = _club_associativity(win)
        check(f"club window associativity ({n_checked} triples)", n_bad == 0)
        # each form's terms are sorted by u, then v: a COO matrix by column u
        forms_ok = all(d1 == d2 == len(coo_pivot_rows(u, v, c, p))
                       for i in range(0, 2)
                       for (u, v, _, c), d1, d2 in win.symmetry_form(i).values())
        check("symmetry form nondegenerate per component pair", forms_ok)
    else:
        skip("club window associativity", "runs at p = 3 only")
        skip("symmetry form nondegenerate per component pair", "runs at p = 3 only")

    if p <= 7:
        rep = verify_first_principles(nm)
        check(f"spade table vs cup ({len(rep.cells)} cells)", not rep.mismatches,
              rep.summary())
    else:
        skip("spade table vs cup", "runs at p <= 7 only")

    a_lo, a_hi = (-3, 4) if p <= 5 else (-2, 3)
    spade = build_spade(p, a_lo, a_hi)
    table = spade.product_table()
    n_checked, n_bad = _spade_associativity(table, p)
    check(f"spade associativity ({n_checked} triples)", n_bad == 0)
    sc_bad = _supercommutativity(table, spade.k, p)
    check("spade supercommutative on window", sc_bad == 0, f"{sc_bad} failures")

    hh0 = build_hhl(p, 0, spade)
    hh1 = build_hhl(p, 1, spade)
    check("hh_0 = F", hh0.dim == 1)
    # hh_1's table, each element renumbered by its name's place among chi's,
    # is chi's name table, with no pair out of the window
    ren = _names(p).places[LABELS.index(CHI), spade.name[hh1.factors[:, 0]]]
    _, (x, y, t, c), (ox, _) = hh1.product_table()
    chi_ok = (len(_distinct(ren)) == hh1.dim == 3 * p - 2 and ren.min() >= 0 and not len(ox)
              and tables_equal(Table.of(ren[x], ren[y], ren[t], c, p), presented))
    check("hh_1 isomorphic to chi as graded algebra", chi_ok)

    if p == 3:
        for name, ok in _hh2_checks(p, spade, hh1):
            check(name, ok)
    else:
        for name in HH2_CHECKS:
            skip(name, "runs at p = 3 only")
    return results


def cmd_verify(p: int, fmt: str) -> tuple[str, int]:
    results = run_verify(p)
    checks = [{"name": name, "status": status} | ({"reason": detail} if status == "SKIP" else {})
              for name, status, detail in results]
    lines = [f"{status}  {name}" + (f"  [{detail}]" if detail and status != "PASS" else "")
             for name, status, detail in results]
    ok_all = all(status != "FAIL" for _, status, _ in results)
    if fmt == "json":
        doc = {"p": p, "object": "verify", "version": __version__,
               "command": f"verify --p {p}", "basis": [], "products": [], "checks": checks}
        return _emit(doc, "json"), 0 if ok_all else 3
    return "\n".join(lines), 0 if ok_all else 3


# each command's help line and flags in usage order: flag -> (type, or its
# choices, default, required, help), bool for a switch.  parse_args and the
# help text both read this table.
_COMMON = {"--p": (int, None, True, "odd prime >= 3"),
           "--format": (("json", "csv"), "json", False, "output format")}
COMMANDS = {
    "hh": ("named classes of one coefficient case",
           {**_COMMON, "--coefficient": (COEFFS, None, True, "coefficient bimodule")}),
    "spadesuit": ("grid algebra basis and products",
                  {**_COMMON, "--a-min": (int, -3, False, "least a of the window"),
                   "--a-max": (int, 4, False, "greatest a of the window"),
                   "--check-associativity": (bool, False, False, "scan the in-window triples"),
                   "--verify-first-principles": (bool, False, False, "check against the cup")}),
    "hhl": ("tower approximant basis",
            {**_COMMON, "--l": (int, None, True, "level l >= 0"),
             "--k-max": (int, None, False, "list the elements of k <= K_MAX only")}),
    "verify": ("run the full invariant suite", _COMMON),
}
_TOP = {"--version": (bool, False, False, "print the version and exit")}  # before a command
_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")  # a value, not a flag, as argparse reads it


class _BadArgs(Exception):
    pass


def _read(token: str, names) -> tuple[str | None, str | None] | None:
    """None if token is a value, else (its flag among names, None if it names
    none; the text after "=", if any).  A flag may be cut to a prefix of no other."""
    name, eq, value = token.partition("=")
    hits = [name] if name in names else [flag for flag in names if flag.startswith(name)] \
        if token[:2] == "--" and token != "--" else []
    if len(hits) > 1:
        raise _BadArgs(f"ambiguous option: {name} could match {', '.join(hits)}")
    if hits:
        return hits[0], value if eq else None
    return None if token[:1] != "-" or token == "-" or _NUMBER.match(token) or " " in token \
        else (None, None)


def _help(command: str | None) -> str:
    """The help of command (None: of hh2 itself), its usage line first."""
    text, flags = COMMANDS[command] if command else (__doc__, _TOP)
    shown = {flag: flag if kind is bool else f"{flag} {{{','.join(kind)}}}"
             if isinstance(kind, tuple) else f"{flag} {flag[2:].upper().replace('-', '_')}"
             for flag, (kind, *_) in flags.items()}
    words = [shown[flag] if flags[flag][2] else f"[{shown[flag]}]" for flag in flags]
    usage = " ".join(["usage: hh2", command, "[-h]", *words] if command else
                     ["usage: hh2 [-h]", *words, "{" + ",".join(COMMANDS) + "} ..."])
    rows = [] if command else [(name, what) for name, (what, _) in COMMANDS.items()]
    rows += [("-h, --help", "print this help and exit")] + [
        (shown[flag], what + (f" (default {default})" if default not in (None, False) else ""))
        for flag, (_, default, _, what) in flags.items()]
    return "\n".join([usage, "", text.strip(), "", *(f"  {a:<27} {b}" for a, b in rows)])


def parse_args(argv: list[str]) -> dict | int:
    """argv's command and flag values by name, read as argparse read them: a
    flag cut to a prefix of no other, ``--flag=value``, the last of a repeated
    flag.  Or the exit status, once the help, the version, or the usage line
    and an error naming the flag, is printed."""
    command = argv[0] if argv[:1] and argv[0] in COMMANDS else None
    flags = COMMANDS[command][1] if command else _TOP
    args = {"command": command} | {flag[2:].replace("-", "_"): spec[1]
                                   for flag, spec in flags.items()}
    tokens, names, seen = argv[bool(command):], ("-h", "--help", *flags), set()
    try:
        while tokens:
            token, *tokens = tokens
            read = _read(token, names)
            if read is None and command is None:
                raise _BadArgs(f"argument command: invalid choice: {token!r}")
            flag, value = read or (None, None)
            if flag is None:
                raise _BadArgs(f"unrecognized arguments: {token}")
            kind = flags[flag][0] if flag in flags else bool
            if kind is bool and value is not None:
                raise _BadArgs(f"argument {flag}: ignored explicit argument {value!r}")
            if flag in ("-h", "--help", "--version"):
                return _print(__version__ if flag == "--version" else _help(command)) or 0
            if kind is not bool and value is None:
                if not tokens or _read(tokens[0], names) is not None:
                    raise _BadArgs(f"argument {flag}: expected one argument")
                value, *tokens = tokens
            if isinstance(kind, tuple) and value not in kind:
                raise _BadArgs(f"argument {flag}: invalid choice: {value!r}")
            try:
                args[flag[2:].replace("-", "_")] = kind is bool or (
                    value if isinstance(kind, tuple) else int(value))
            except ValueError:
                raise _BadArgs(f"argument {flag}: invalid int value: {value!r}") from None
            seen.add(flag)
        missing = [flag for flag, (_, _, required, _) in flags.items()
                   if required and flag not in seen] if command else ["command"]
        if missing:
            raise _BadArgs(f"the following arguments are required: {', '.join(missing)}")
    except _BadArgs as exc:
        print(_help(command).split("\n", 1)[0], f"hh2{' ' + command if command else ''}: "
              f"error: {exc}", sep="\n", file=sys.stderr)
        return 2
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if isinstance(args, int):
        return args
    command, p, fmt = args["command"], args["p"], args["format"]
    if not is_odd_prime(p):
        print(f"error: --p must be an odd prime >= 3, got {p}", file=sys.stderr)
        return 2
    if command == "hhl" and args["l"] < 0:
        print("error: --l must be >= 0", file=sys.stderr)
        return 2
    try:
        max_cells()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if command == "hh":
            out, status = cmd_hh(p, args["coefficient"], fmt)
        elif command == "spadesuit":
            out, status = cmd_spadesuit(p, args["a_min"], args["a_max"], fmt,
                                        args["check_associativity"],
                                        args["verify_first_principles"])
        elif command == "hhl":
            out, status = cmd_hhl(p, args["l"], args["k_max"], fmt)
        else:
            out, status = cmd_verify(p, fmt)
    except (WindowEmpty, WindowTooLarge, UnboundedWindow) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AssertionError, Hh2Error) as exc:
        print(f"internal check failure: {exc}", file=sys.stderr)
        return 3
    return _print(out) or status


def _print(out: str) -> int | None:
    """Write out to stdout; 141 if stdout was closed before it was written."""
    try:
        print(out, flush=True)
    except BrokenPipeError:
        # the unwritten rest would fail again at the interpreter's exit flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
