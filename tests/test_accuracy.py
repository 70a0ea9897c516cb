"""Engine answers against 60-digit closed forms: error against the truth, not the parent.

The references are the spin-1/2 closed forms (A = S_z, B = S_x, initial
state |+>) evaluated in mpmath at 60 significant digits from the exact
binary inputs. They are written out here and use nothing from
``seqmeas``; only the values under test come from the library.

For a first stage of width s1 and a second of width s2:

* forward, given x1: mean 1 / (2 cosh(x1 / (2 s1^2))), extracted variance
  tanh(x1 / (2 s1^2))^2 / 4, variance 1/4 + s2^2 - mean^2;
* backward, given x2: with D = exp(-1 / (8 s1^2)) the overlap of the two
  first-stage pointer branches and w+, w- the second pointer's densities
  at x2 -+ 1/2, the numerator's moments are m0 = (S + D T) / 2, m1 = 0 and
  center spread S / 8 (S = w+ + w-, T = w+ - w-), so the mean is 0, the
  extracted variance S / (4 (S + D T)) and the variance that plus s1^2.

Budgets are absolute for fig3, whose values are at most 1/4; relative
for fig4, whose default weak first stage (sigma1 = 1e3) makes the engine
cancel 1 - D ~ 1e-7 against O(1) terms; and scaled as
``|out - ref| / max(1, |ref|)`` for the spin grid, whose backward
extracted variances reach about 8 where D is near one.
"""

import contextlib
import io

import numpy as np
import pytest

mpmath = pytest.importorskip("mpmath")

from seqmeas import MeasurementStage, Pointer, backward_stats, forward_stats, spin  # noqa: E402
from seqmeas.cli import main  # noqa: E402

mp = mpmath.mp
DIGITS = 60
FIG3_ABS = 5e-16
FIG4_REL = 1.5e-9
SPIN_SCALED = 4e-15


def _mpf(x: float):
    return mp.mpf(float(x))


def forward_ref(s1: float, s2: float, x1: float):
    """(mean, variance, extracted variance) of the second outcome given x1."""
    with mp.workdps(DIGITS):
        u = _mpf(x1) / (2 * _mpf(s1) ** 2)
        mean = 1 / (2 * mp.cosh(u))
        variance = mp.mpf(1) / 4 + _mpf(s2) ** 2 - mean**2
        return mean, variance, mp.tanh(u) ** 2 / 4


def backward_ref(s1: float, s2: float, x2: float):
    """(mean, variance, extracted variance) of the first outcome given x2."""
    with mp.workdps(DIGITS):
        s1, s2, x2 = _mpf(s1), _mpf(s2), _mpf(x2)
        overlap = mp.exp(-1 / (8 * s1**2))
        w_plus = mp.exp(-((x2 - mp.mpf(1) / 2) ** 2) / (2 * s2**2))
        w_minus = mp.exp(-((x2 + mp.mpf(1) / 2) ** 2) / (2 * s2**2))
        total, diff = w_plus + w_minus, w_plus - w_minus
        extracted = total / (4 * (total + overlap * diff))
        return mp.mpf(0), extracted + s1**2, extracted


def _figure(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    body = [line for line in out.getvalue().splitlines() if line and not line.startswith("#")]
    return np.array([[float(v) for v in line.split(",")] for line in body[1:]])


def _worst(errors):
    return max(float(e) for e in errors)


def test_fig3_generic_column():
    rows = _figure("fig3")
    assert rows.shape == (41 * 8, 4)
    errors = [abs(forward_ref(s1, 0.5, x1)[2] - _mpf(got)) for x1, s1, _, got in rows]
    assert _worst(errors) <= FIG3_ABS


def test_fig4_generic_column():
    rows = _figure("fig4")
    assert rows.shape == (41 * 8, 4)
    errors = []
    for x2, s2, _, got in rows:
        ref = backward_ref(1e3, s2, x2)[2]
        errors.append(abs(_mpf(got) - ref) / ref)
    assert _worst(errors) <= FIG4_REL


SPIN_GRID = [
    (s1, s2, x)
    for s1 in (0.05, 0.3, 0.8, 2.0)
    for s2 in (0.1, 0.5, 1.5)
    for x in np.linspace(-1.5, 1.5, 7)
]


@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_spin_grid_mean_and_variance(direction):
    sz, sx, plus = spin.s_z(), spin.s_x(), spin.plus_state()
    stats, reference = (forward_stats, forward_ref) if direction == "forward" else (backward_stats, backward_ref)
    errors = []
    for s1, s2, x in SPIN_GRID:
        got = stats(plus, MeasurementStage(sz, Pointer(s1)), MeasurementStage(sx, Pointer(s2)), float(x))
        mean, variance, extracted = reference(s1, s2, float(x))
        for out, ref in zip((got.mean, got.variance, got.extracted_system_variance), (mean, variance, extracted)):
            errors.append(abs(_mpf(out) - ref) / max(1, abs(ref)))
    assert _worst(errors) <= SPIN_SCALED
