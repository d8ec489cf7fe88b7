"""Pointwise kernels against closed forms and plain-Python loop oracles."""

import math

import numpy as np
import pytest

from gnls import _kernels


def test_phase_rotate_matches_closed_form():
    rng = np.random.default_rng(0)
    vals = rng.standard_normal(257) + 1j * rng.standard_normal(257)
    a = _kernels.phase_rotate(vals, 0.37)
    b = vals * np.exp(-0.37j * np.abs(vals) ** 2)
    assert np.max(np.abs(a - b)) < 1e-14 * np.max(np.abs(vals))


def test_phase_rotate_preserves_shape_and_modulus():
    rng = np.random.default_rng(1)
    vals = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    out = _kernels.phase_rotate(vals, 0.5)
    assert out.shape == vals.shape
    assert np.max(np.abs(np.abs(out) - np.abs(vals))) < 1e-15


def _triple_gap_loop(xi1, xi2, xi3, sigma):
    """One member at a time: norms, gap, min/max median of three."""
    violations = 0
    ratios = []
    for x1, x2, x3 in zip(xi1, xi2, xi3):
        a1 = math.sqrt(sum(v * v for v in x1))
        a2 = math.sqrt(sum(v * v for v in x2))
        a3 = math.sqrt(sum(v * v for v in x3))
        ao = math.sqrt(sum((p - q - r) ** 2 for p, q, r in zip(x1, x2, x3)))
        lhs = -math.expm1(-sigma * (a1 + a2 + a3 - ao))
        med = min(max(min(a1, a2), a3), max(a1, a2))
        rhs = 12.0 * sigma * med
        if rhs > 0.0:
            ratios.append(lhs / rhs)
            violations += lhs > rhs
        else:
            ratios.append(0.0)
            violations += lhs > 0.0
    return violations, np.array(ratios)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_triple_gap_ratios_matches_loop_oracle(d):
    rng = np.random.default_rng(d)
    xi = rng.uniform(-100, 100, size=(3, 500, d))
    xi[:, 0] = 0.0            # degenerate member: rhs == 0 and lhs == 0
    xi[1, 1] = xi[0, 1]       # two equal frequencies: a tie in the median
    va, ra = _kernels.triple_gap_ratios(xi[0], xi[1], xi[2], 0.1)
    vb, rb = _triple_gap_loop(xi[0].tolist(), xi[1].tolist(), xi[2].tolist(), 0.1)
    assert va == vb == 0
    assert ra[0] == 0.0
    assert np.max(np.abs(ra - rb)) < 1e-14


def test_shell_envelope_matches_loop_oracle():
    rng = np.random.default_rng(2)
    mag = rng.uniform(0, 1, 1000)
    shell = rng.integers(-1, 20, 1000)
    assert np.any(shell == -1)
    mag[shell == -1] = 2.0    # larger than every kept entry, so a leak shows
    expect = [0.0] * 20
    for m, s in zip(mag.tolist(), shell.tolist()):
        if s >= 0:
            expect[s] = max(expect[s], m)
    got = _kernels.shell_envelope(mag, shell, 20)
    assert np.array_equal(got, np.array(expect))
    assert got.max() < 1.0
