"""Random argument vectors over the CLI grammar, run in-process.

Every argv ends within ARGV_SECONDS with exit 0, 1 or 2 and no traceback;
an exit 2 writes nothing on stdout, and stderr's last line holds
``error:``.  Genera and orders are drawn mostly small, with the values
just outside the accepted ranges, so that a draw runs in milliseconds;
degrees and ``--lmax`` are drawn up to 20 digits, with d2 often on a
valid point of a huge d1.  Every integer option takes only the
spelling ``[+-]digits``: the spellings ``int`` would also take are
refused with exit 2.
"""

import contextlib
import io
import os
import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from higgsbetti.cli import main
from higgsbetti.ingredients import OPS
from higgsbetti.verify import SUITES

ARGV_SECONDS = 10
DIGITS = st.integers(-(10**20 - 1), 10**20 - 1)
GENERA = st.sampled_from([2, 2, 2, 3, 3, 4, -1, 0, 1, 129, 10**20 - 1])
ORDERS = st.one_of(st.integers(1, 40), st.sampled_from([0, -1, 2049, 10**20 - 1]))
INTS = st.one_of(st.integers(-6, 40), DIGITS)
# int() reads each of these as a number; the CLI refuses them
MISSPELLED = ["1_0", " 10", "10 ", "\u0663"]  # U+0663 is an Arabic-Indic 3
JUNK = st.sampled_from(["x", "1.5", "", *MISSPELLED])


@st.composite
def degrees(draw):
    d1 = draw(st.one_of(st.integers(-6, 12), DIGITS))
    # mostly on or near a valid point: |2 d1 - d2| <= 3g-3
    d2 = 2 * d1 - draw(st.integers(-9, 9)) if draw(st.integers(0, 3)) else draw(DIGITS)
    return {"--d1": d1, "--d2": d2}


FORMATS = st.sampled_from(["text", "json", "csv"])
POINT = {"--order": ORDERS, "--format": FORMATS}
# per command, the options always given and the options given at random
OPTIONS = {
    "compute": ({"--genus": GENERA, "--group": st.sampled_from(["u21", "su21", "pu21"])}, {
        **POINT,
        "--route": st.sampled_from(["closed", "stratum"]),
        "--provider": st.sampled_from(["relative", "maximal", "file:", "bogus"]),
        "--out": st.just(os.devnull),
    }),
    "strata": ({"--genus": GENERA}, {**POINT, "--lmax": st.one_of(
        INTS, DIGITS.map(lambda n: f"{n}/2"), st.sampled_from(["1/3", "1/0"]))}),
    # a grid is always given: the default grids take seconds
    "verify": ({"--grid": st.sampled_from(
        ["g=2", "g=2", "g=2..2", "g=1..2", "g=3..2", "g=17", "h=2", "g=x"])}, {
        "--suite": st.sampled_from([*SUITES, "all", "none"]),
        "--format": FORMATS,
    }),
    "ingredients": ({"--op": st.sampled_from([*OPS, "none"])}, {
        "--genus": GENERA, **POINT,
        **{flag: INTS for flag in ("--m", "--m1", "--m2", "--n", "--d2")},
    }),
    "export": ({"--genus": GENERA}, {"--order": ORDERS, "--out": st.just(os.devnull),
                                     "--what": st.sampled_from(["provider", "result"])}),
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(OPTIONS)))
    required, optional = OPTIONS[command]
    options = draw(st.fixed_dictionaries(required, optional=optional))
    if command in ("compute", "strata"):
        options |= draw(degrees())
    # at most one fault beyond the drawn values: a junk value, a missing
    # option, or an option no command has
    fault = draw(st.sampled_from([None, None, None, "junk", "drop", "--force", "--bogus"]))
    if fault in ("junk", "drop"):
        # a junk --out would write a file in the working directory
        flag = draw(st.sampled_from(sorted(options.keys() - {"--out"})))
        if fault == "junk":
            options[flag] = draw(JUNK)
        else:
            del options[flag]
    argv = [command]
    for flag, value in options.items():
        # a value that starts with "-" but is no number needs the = form
        argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, str(value)]
    return argv + ([fault] if fault in ("--force", "--bogus") else [])


def _alarm(signum, frame):
    raise TimeoutError(f"an argv ran for more than {ARGV_SECONDS} s")


@settings(deadline=None)
@given(argvs())
def test_every_argv_exits_0_1_or_2_without_a_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(ARGV_SECONDS)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse
                code = exc.code
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == ""
        assert "error:" in err.getvalue().splitlines()[-1]


# an argv of each command that takes an integer, every value an integer
INTEGER_ARGVS = [
    ["compute", "--group", "u21", "--genus", "2", "--d1", "0", "--d2", "0", "--order", "8"],
    ["strata", "--genus", "2", "--d1", "0", "--d2", "0", "--order", "8", "--lmax", "1"],
    ["ingredients", "--op", "sym", "--genus", "2", "--m", "1", "--m1", "0", "--m2", "0",
     "--n", "0", "--d2", "0", "--order", "8"],
    ["export", "--genus", "2", "--order", "8", "--out", os.devnull],
]


def _run(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            return main(argv), err.getvalue()
        except SystemExit as exc:  # argparse
            return exc.code, err.getvalue()


@pytest.mark.parametrize("text", MISSPELLED)
def test_every_integer_option_refuses_what_int_alone_would_read(text):
    for argv in INTEGER_ARGVS:
        assert _run(argv)[0] == 0, argv
        for i, value in enumerate(argv):
            if value.isdigit():
                flag = argv[i - 1]
                code, err = _run([*argv[:i - 1], f"{flag}={text}", *argv[i + 1:]])
                assert code == 2 and f"argument {flag}" in err, (flag, err)
