"""The command line's argparse parser, as ``hh2.cli`` built it before it read
its flag table itself: the reference that ``test_cli_args.py`` compares
``hh2.cli.parse_args`` with.  Importing argparse, and the gettext and locale
it pulls in on its first message, cost each short job about 2 ms."""

import argparse

from hh2 import __version__
from hh2.cli import COEFFS
from hh2.cli import __doc__ as CLI_DOC


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hh2", description=CLI_DOC)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--p", type=int, required=True, help="odd prime >= 3")
        sp.add_argument("--format", choices=("json", "csv"), default="json")

    sp = sub.add_parser("hh", help="named classes of one coefficient case")
    common(sp)
    sp.add_argument("--coefficient", choices=COEFFS, required=True)

    sp = sub.add_parser("spadesuit", help="grid algebra basis and products")
    common(sp)
    sp.add_argument("--a-min", type=int, default=-3)
    sp.add_argument("--a-max", type=int, default=4)
    sp.add_argument("--check-associativity", action="store_true")
    sp.add_argument("--verify-first-principles", action="store_true")

    sp = sub.add_parser("hhl", help="tower approximant basis")
    common(sp)
    sp.add_argument("--l", type=int, required=True)
    sp.add_argument("--k-max", type=int, default=None)

    sp = sub.add_parser("verify", help="run the full invariant suite")
    common(sp)
    return parser
