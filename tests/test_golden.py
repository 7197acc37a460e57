"""Frozen CLI outputs for the four reference scenarios.

Each file under tests/golden/ holds one subcommand's output on one
reference figure. Comparison is token by token: text and the layout of
every line must match exactly, numbers at a relative 1e-12, and the
interior solver residuals (b_residual, fixed_point_residual), which are
rounding noise, only need to stay at or below 1e-12 on both sides.
simulate output and validate's PASS/FAIL lines must match byte for byte.

Regenerate with ``PYTHONPATH=src python tests/test_golden.py [cmd ...]``,
and only when an output is meant to change. With subcommand names (for
example ``simulate validate``) only those subcommands' files are
rewritten, for all four figures; with none, every file is.
"""

import contextlib
import io
import re
import sys
import tempfile
from pathlib import Path

import pytest

from pmdkit import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
FIGS = ("fig1", "fig2", "fig3", "fig4")
COMMANDS = {
    "optimize": [],
    "min-sensors": ["--delta", "0.05", "--m-max", "100"],
    "pmd-curve": ["--theta-min", "0.1", "--theta-max", "1.5", "--steps", "200",
                  "--M-list", "5,10,15,20,25"],
    "simulate": ["--theta", "0.7", "--runs", "20000", "--seed", "7"],
    "validate": ["--runs", "2000"],
}

NUMBER = re.compile(r"(?<![\w.])[-+]?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?(?![\w.])")
REL_TOL = 1e-12
NOISE_KEYS = ("b_residual=", "fixed_point_residual=")
NOISE_FLOOR = 1e-12


def run(cmd: str, fig: str, work: Path) -> str:
    """Output of one subcommand on one figure (pmd-curve: the CSV it writes)."""
    argv = [cmd, "--scenario", str(ROOT / "scenarios" / f"{fig}.cfg"), *COMMANDS[cmd]]
    out = work / f"{fig}.csv"
    if cmd == "pmd-curve":
        argv += ["--out", str(out)]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    assert code == 0, f"{cmd} on {fig} exited {code}"
    return out.read_text(encoding="utf-8") if cmd == "pmd-curve" else buf.getvalue()


def assert_matches(expected: str, actual: str, exact: bool) -> None:
    exp_lines, act_lines = expected.splitlines(), actual.splitlines()
    assert len(act_lines) == len(exp_lines)
    for exp, act in zip(exp_lines, act_lines):
        if exact or exp.startswith(("PASS ", "FAIL ")):
            assert act == exp
            continue
        assert NUMBER.sub("#", act) == NUMBER.sub("#", exp), f"{act!r} vs {exp!r}"
        for x_text, y_text in zip(NUMBER.findall(exp), NUMBER.findall(act)):
            x, y = float(x_text), float(y_text)
            if exp.startswith(NOISE_KEYS) and abs(x) <= NOISE_FLOOR:
                assert abs(y) <= NOISE_FLOOR, f"{act!r} vs {exp!r}"
            else:
                assert y == pytest.approx(x, rel=REL_TOL, abs=0.0), f"{act!r} vs {exp!r}"


@pytest.mark.parametrize("cmd", list(COMMANDS))
@pytest.mark.parametrize("fig", FIGS)
def test_golden_output(fig, cmd, tmp_path):
    expected = (GOLDEN / f"{fig}_{cmd}.txt").read_text(encoding="utf-8")
    assert_matches(expected, run(cmd, fig, tmp_path), exact=cmd == "simulate")


if __name__ == "__main__":
    cmds = sys.argv[1:] or list(COMMANDS)
    unknown = sorted(set(cmds) - set(COMMANDS))
    if unknown:
        sys.exit(f"unknown subcommand(s): {', '.join(unknown)}; choose from {', '.join(COMMANDS)}")
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for fig in FIGS:
            for cmd in cmds:
                (GOLDEN / f"{fig}_{cmd}.txt").write_text(run(cmd, fig, Path(tmp)), encoding="utf-8")
