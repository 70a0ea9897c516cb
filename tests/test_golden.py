"""The CLI's exact output bytes for the bundled examples, against committed goldens.

Each case runs ``seqmeas.cli.main`` in this process and compares stdout,
byte for byte, with ``tests/golden/<name>.csv``. The config path is the
only part of the output that depends on where the checkout lives, so it is
replaced by ``<config>`` on both sides.

Byte identity holds for one numpy build on one CPU: the last bits of
numpy's SIMD exp/log and of LAPACK can differ on another. With
``SEQMEAS_GOLDEN_CELLS=1`` in the environment (the CI workflow sets it)
every number is instead compared within ``CELL_RTOL`` relative, or
``CELL_ATOL`` absolute near zero, and all other text still exactly.

Regenerate every golden from the current source with::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import math
import os
import sys
from pathlib import Path

import pytest

from seqmeas.cli import main

REPO = Path(__file__).resolve().parent.parent
GOLDEN = REPO / "tests" / "golden"
CHAIN4 = REPO / "configs" / "chain4.json"
# the four-stage qutrit chain of test_cli.QUTRIT_CHAIN, mid free index,
# swept over its second fixed outcome
QUTRIT_SWEEP = GOLDEN / "qutrit_sweep.json"
# ten S_z stages at sigma = 0.05 on |+>, outcomes alternating +1/2, -1/2: a
# record whose likelihood (about e^-800) underflows a double; the answer
# is the up state, mean 1/2 and extracted variance 0
UNDERFLOW10 = GOLDEN / "underflow10.json"

CASES = {
    "fig2": ("fig2",),
    "fig3": ("fig3",),
    "fig4": ("fig4",),
    "chain4": ("chain", CHAIN4),
    "chain4_oracles": ("chain", CHAIN4, "--with-oracles", "--seed", "1", "--mc-samples", "20000"),
    "qutrit_sweep": ("chain", QUTRIT_SWEEP),
    "underflow10": ("chain", UNDERFLOW10),
}
CELL_RTOL = 1e-12
CELL_ATOL = 1e-12


def cli_output(argv) -> str:
    """Stdout of one successful CLI call, with config paths replaced by ``<config>``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([str(arg) for arg in argv])
    assert code == 0
    text = out.getvalue()
    for arg in argv:
        if isinstance(arg, Path):
            text = text.replace(str(arg), "<config>")
    return text


def assert_cells_close(actual: str, expected: str) -> None:
    """Same lines and cells; numbers within the cell bound, everything else exact."""
    got, want = actual.split("\n"), expected.split("\n")
    assert len(got) == len(want)
    for got_line, want_line in zip(got, want):
        if want_line.startswith("#"):
            assert got_line == want_line
            continue
        got_cells, want_cells = got_line.split(","), want_line.split(",")
        assert len(got_cells) == len(want_cells), want_line
        for a, b in zip(got_cells, want_cells):
            if a == b:
                continue
            try:
                x, y = float(a), float(b)
            except ValueError:
                raise AssertionError(f"{a!r} != {b!r} in {want_line!r}") from None
            assert math.isclose(x, y, rel_tol=CELL_RTOL, abs_tol=CELL_ATOL), (a, b, want_line)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name):
    expected = (GOLDEN / f"{name}.csv").read_bytes()
    actual = cli_output(CASES[name]).encode()
    if os.environ.get("SEQMEAS_GOLDEN_CELLS") == "1":
        assert_cells_close(actual.decode(), expected.decode())
    else:
        assert actual == expected


@pytest.mark.parametrize("name", sorted(CASES))
def test_cells_are_shortest_repr(name):
    # the cell comparison cannot see a formatting drift (0.10000000000000001
    # for 0.1 is within any bound); shortest-repr cells hold on every build
    body = [line for line in cli_output(CASES[name]).splitlines() if not line.startswith("#")][1:]
    assert body
    for line in body:
        for cell in line.split(","):
            assert cell == repr(float(cell)), (cell, line)


def test_cell_bound():
    golden = "# config: <config>\nmean,variance\n0.5453015986780404,0.2581876633529906\n"
    assert_cells_close(golden.replace("0.2581876633529906", "0.2581876633529907"), golden)
    for changed in (
        golden.replace("0.2581876633529906", "0.2581876633629906"),
        golden.replace("variance", "var"),
        golden.replace("<config>", "cfg.json"),
        golden + "1.0,2.0\n",
    ):
        with pytest.raises(AssertionError):
            assert_cells_close(changed, golden)


def regenerate() -> None:
    for name, argv in CASES.items():
        (GOLDEN / f"{name}.csv").write_bytes(cli_output(argv).encode())
        print(f"wrote {GOLDEN / name}.csv", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
