"""``hh2.cli.parse_args`` reads argv as the argparse parser it replaced
(``cli_reference.build_parser``) did, and ``hh2.cli`` imports no argparse."""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

import hh2
from cli_reference import build_parser
from hh2.cli import COEFFS, COMMANDS, main, parse_args

FLAGS = sorted({flag for _, flags in COMMANDS.values() for flag in flags})
BAD = ["3.5", "-3.5", "x", "", "-", "CSV", "omega-"]
# none of them is -h, --version or a prefix of --help, the flags that print
# and exit 0
JUNK = ["--", "---", "-x", "--x", "--pp", "-1x", "--=3", "--a", "--a-m", "-p", "x y", "--p x",
        "-p=3", "--=a b", "-3\n"]


@st.composite
def tokens(draw, flags):
    """One flag, mostly the command's own, with a value that is mostly good;
    or a value alone, or junk."""
    flag = draw(st.sampled_from([*flags, *flags, *flags, *FLAGS]))
    kind = flags.get(flag, (int,))[0]
    good = st.sampled_from(kind) if isinstance(kind, tuple) else \
        st.integers(-9, 9).map(str) | st.sampled_from(["+3", " 4", "1_0", "07"])
    value = draw(good | good | good | st.sampled_from(BAD))
    cut = flag[:draw(st.integers(3, len(flag)))]
    cut = flag if "--version".startswith(cut) else cut  # as the first word, it prints
    name = draw(st.sampled_from([flag, cut]))
    if kind is bool:
        return draw(st.sampled_from([[name], [name], [f"{name}={value}"]]))
    return draw(st.sampled_from([[name, value]] * 4 + [[f"{name}={value}"]] * 2
                                + [[name], [value], [draw(st.sampled_from(JUNK))]]))


@st.composite
def argvs(draw):
    """A command, or a word that is none, then flags full or cut short, with
    their values apart or after "=", values alone and junk, repeats allowed."""
    command = draw(st.sampled_from([*COMMANDS] * 5 + ["bogus", "--p", "3"]))
    flags = COMMANDS.get(command, ("", {}))[1]
    needed = [[flag, draw(st.sampled_from(kind if isinstance(kind, tuple) else ["3", "5", "7"]))]
              for flag, (kind, _, required, _) in flags.items()
              if required and draw(st.integers(0, 9))]
    rest = draw(st.lists(tokens(flags), max_size=4))
    parts = draw(st.permutations(needed + rest))
    return [command] + [token for part in parts for token in part]


def reference(argv):
    """argparse's values of argv, or None where it exits 2."""
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            return vars(build_parser().parse_args(argv))
    except SystemExit as exc:
        assert exc.code == 2
        return None


@settings(max_examples=600, deadline=None)
@given(argvs())
@example(["spadesuit", "--p", "3", "--a-min", "-3", "--a-max=-1", "--check", "--v"])
@example(["hhl", "--p=3", "--l", "2", "--k", "-1", "--fo=csv", "--f", "json"])
@example(["hh", "--coef", "omega", "--p", "5", "--p", "7"])
@example(["verify", "--p", "3", "--=x"])
@example(["verify", "--p", "--", "3"])
@example(["hh", "--p", "3", "--coefficient", "omega", "--version"])
def test_parse_args_matches_argparse(argv):
    want = reference(argv)
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        got = parse_args(argv)
    assert got == (2 if want is None else want), argv
    if want is None:
        usage, error = err.getvalue().split("\n", 1)
        assert usage.startswith("usage: hh2") and ": error: " in error
    assert out.getvalue() == ""


def run(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        status = main(argv)
    return status, out.getvalue(), err.getvalue()


def test_help_version_and_bare_command_line():
    status, out, err = run(["-h"])
    assert status == 0 and err == ""
    assert out.startswith("usage: hh2 [-h] [--version] {hh,spadesuit,hhl,verify} ...\n")
    assert all(f"  {command}  " in out for command in COMMANDS)
    status, out, err = run(["hh", "--help"])
    assert status == 0 and err == ""
    assert out.splitlines()[0] == ("usage: hh2 hh [-h] --p P [--format {json,csv}] "
                                   "--coefficient {" + ",".join(COEFFS) + "}")
    assert "  --format {json,csv}         output format (default json)\n" in out
    assert run(["--version"]) == (0, hh2.__version__ + "\n", "")
    assert run([]) == (2, "", "usage: hh2 [-h] [--version] {hh,spadesuit,hhl,verify} ...\n"
                       "hh2: error: the following arguments are required: command\n")


def test_bad_flag_value_names_the_flag():
    status, out, err = run(["hhl", "--p", "3", "--l", "two"])
    assert (status, out) == (2, "")
    assert err == ("usage: hh2 hhl [-h] --p P [--format {json,csv}] --l L [--k-max K_MAX]\n"
                   "hh2 hhl: error: argument --l: invalid int value: 'two'\n")


def test_hhl_job_imports_no_argparse_gettext_or_locale():
    # argparse builds its messages through gettext, whose first lookup
    # imports locale: together about 2 ms of a short job in a fresh process
    src = str(Path(hh2.__file__).resolve().parents[1])
    script = ("import contextlib, io, sys\n"
              "from hh2.cli import main\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    status = main(['hhl', '--p', '3', '--l', '2'])\n"
              "print(status, *(name in sys.modules\n"
              "                for name in ('argparse', 'gettext', 'locale')))\n")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert done.stdout.split() == ["0", "False", "False", "False"], done.stderr
