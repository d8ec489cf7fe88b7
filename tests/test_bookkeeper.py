"""Arithmetic of the radius lower-bound iteration."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gnls.bookkeeper import (BookkeeperParams, TRACE_CAP, local_delta,
                             radius_floor, run_induction, sigma_for_T)


def test_params_validation():
    with pytest.raises(ValueError):
        BookkeeperParams(sigma0=0.0, A0=1.0)
    with pytest.raises(ValueError):
        BookkeeperParams(sigma0=1.0, A0=-1.0)
    with pytest.raises(ValueError):
        BookkeeperParams(sigma0=1.0, A0=1.0, eps=1.0)
    with pytest.raises(ValueError):
        BookkeeperParams(sigma0=1.0, A0=1.0, T=0.0)


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("name", ["sigma0", "A0", "c0", "C", "T"])
def test_params_must_be_finite(name, value):
    constants = {**dict(sigma0=1.0, A0=1.0, c0=1.0, C=1.0, T=1.0), name: value}
    with pytest.raises(ValueError, match=f"{name} must be finite, got {value}"):
        BookkeeperParams(**constants)


@pytest.mark.parametrize("value", [np.inf, np.nan])
@pytest.mark.parametrize("name", ["A0", "c0", "eps"])
def test_local_delta_needs_finite_constants(name, value):
    # a non-finite A0 would give delta = 0 (inf) or nan, and every floor
    # and step count downstream of it
    constants = {**dict(A0=1.0, c0=1.0, eps=0.05), name: value}
    with pytest.raises(ValueError, match=f"{name} must be finite, got {value}"):
        local_delta(**constants)


def test_local_delta_reference_values():
    assert local_delta(1.0, c0=1.0, eps=0.0) == 0.0625
    assert local_delta(0.0, c0=3.0, eps=0.3) == 3.0
    with pytest.raises(ValueError):
        local_delta(-1.0)
    with pytest.raises(ValueError):
        local_delta(1.0, c0=0.0)


def test_local_delta_decreasing_in_A0():
    deltas = [local_delta(a) for a in np.linspace(0.0, 10.0, 20)]
    assert all(b < a for a, b in zip(deltas, deltas[1:]))


def test_sigma_for_T_reference_case():
    p = BookkeeperParams(sigma0=1.0, A0=1.0, c0=1.0, C=1.0, eps=0.0, T=1.0)
    sigma, c1 = sigma_for_T(p)
    assert sigma == 1.0 / 512.0
    assert c1 == 1.0 / 512.0


def test_sigma_condition_saturates():
    p = BookkeeperParams(sigma0=1.0, A0=2.3, c0=0.7, C=1.9, eps=0.12, T=5.0)
    sigma, _ = sigma_for_T(p)
    delta = local_delta(p.A0, p.c0, p.eps)
    lhs = (16.0 * p.T / delta) * p.C * sigma * p.A0 * (1.0 + p.A0)
    assert abs(lhs - 1.0) <= 1e-15


def test_doubling_T_halves_sigma_exactly():
    p1 = BookkeeperParams(sigma0=1.0, A0=1.7, c0=0.9, C=2.0, eps=0.1, T=3.0)
    p2 = BookkeeperParams(sigma0=1.0, A0=1.7, c0=0.9, C=2.0, eps=0.1, T=6.0)
    assert sigma_for_T(p2)[0] == sigma_for_T(p1)[0] / 2.0
    assert sigma_for_T(p2)[1] == sigma_for_T(p1)[1]


@settings(max_examples=200, deadline=None)
@given(A0=st.floats(0.01, 50.0), c0=st.floats(0.01, 10.0),
       C=st.floats(0.01, 10.0), eps=st.floats(0.0, 0.99),
       T=st.floats(1e-3, 100.0))
def test_sigma_branches_agree(A0, c0, C, eps, T):
    p = BookkeeperParams(sigma0=1.0, A0=A0, c0=c0, C=C, eps=eps, T=T)
    sigma, c1 = sigma_for_T(p)
    assert abs(sigma - c1 / T) <= 1e-15 * max(sigma, c1 / T)


def test_sigma_monotonicities():
    base = dict(sigma0=1.0, A0=1.0, c0=1.0, C=1.0, eps=0.1, T=1.0)
    s0 = sigma_for_T(BookkeeperParams(**base))[0]
    for key in ("T", "C", "A0"):
        bumped = dict(base)
        bumped[key] = base[key] * 1.5
        assert sigma_for_T(BookkeeperParams(**bumped))[0] < s0


# ---------------------------------------------------------------------------
# induction
# ---------------------------------------------------------------------------

def test_induction_reference_case():
    p = BookkeeperParams(sigma0=1.0, A0=1.0, c0=1.0, C=1.0, eps=0.0, T=1.0)
    tr = run_induction(p)
    assert tr.delta == 0.0625
    assert tr.n == 16
    assert tr.all_ok and tr.first_failure == 0
    assert tr.ks == tuple(range(1, 18))
    assert all(tr.ok)
    # closed form vs loop: identical expressions, exact equality
    last = p.A0 + 8.0 * p.C * tr.sigma * (tr.n + 1) * p.A0 ** 2 * (1.0 + p.A0)
    assert tr.bounds[-1] == last


def test_induction_bounds_strictly_increasing():
    p = BookkeeperParams(sigma0=1.0, A0=2.0, c0=1.0, C=1.0, eps=0.05, T=0.5)
    tr = run_induction(p)
    assert all(b > a for a, b in zip(tr.bounds, tr.bounds[1:]))


def test_induction_doubled_sigma_fails_past_midpoint():
    p = BookkeeperParams(sigma0=1.0, A0=1.0, c0=1.0, C=1.0, eps=0.0, T=1.0)
    sigma, _ = sigma_for_T(p)
    tr = run_induction(p, sigma=2.0 * sigma)
    assert not tr.all_ok
    assert tr.first_failure > tr.n / 2
    # the reported k is the actual crossing of bound_k over 2*A0
    bound = lambda k: p.A0 + 8.0 * p.C * 2.0 * sigma * k * p.A0 ** 2 * (1.0 + p.A0)
    assert bound(tr.first_failure) > 2.0 * p.A0
    assert bound(tr.first_failure - 1) <= 2.0 * p.A0


def test_induction_short_horizon_trivially_ok():
    p = BookkeeperParams(sigma0=1.0, A0=1.0, T=0.01)  # T < delta
    tr = run_induction(p, sigma=100.0)  # even an absurd sigma is fine at n=0
    assert tr.n == 0
    assert tr.all_ok
    assert tr.ok == (True,)


def test_induction_first_failure_matches_brute_loop():
    rng = np.random.default_rng(42)
    for _ in range(300):
        A0 = rng.uniform(0.05, 10.0)
        c0 = rng.uniform(0.1, 10.0)
        C = rng.uniform(0.1, 10.0)
        eps = rng.uniform(0.0, 0.99)
        delta = local_delta(A0, c0, eps)
        T = delta * rng.uniform(0.3, 300.0)
        p = BookkeeperParams(sigma0=1.0, A0=A0, c0=c0, C=C, eps=eps, T=T)
        sigma = sigma_for_T(p)[0] * rng.uniform(0.2, 3.0)
        tr = run_induction(p, sigma=sigma)
        brute = 0
        for k in range(1, tr.n + 2):
            if A0 + 8.0 * C * sigma * k * A0 ** 2 * (1.0 + A0) > 2.0 * A0:
                brute = k
                break
        if tr.n == 0:
            brute = 0
        assert tr.first_failure == brute


def test_induction_trace_decimated_for_huge_n():
    p = BookkeeperParams(sigma0=1.0, A0=30.0, c0=0.05, C=1.0, eps=0.5, T=50.0)
    tr = run_induction(p)
    assert tr.n + 1 > TRACE_CAP
    assert len(tr.ks) <= TRACE_CAP + 4
    assert tr.ks[0] == 1 and tr.ks[-1] == tr.n + 1
    assert tr.all_ok


@settings(max_examples=100, deadline=None)
@given(A0=st.floats(0.01, 50.0), c0=st.floats(0.01, 10.0),
       C=st.floats(0.01, 10.0), eps=st.floats(0.0, 0.99),
       T=st.floats(1e-3, 100.0))
def test_induction_closes_with_selected_sigma(A0, c0, C, eps, T):
    p = BookkeeperParams(sigma0=1.0, A0=A0, c0=c0, C=C, eps=eps, T=T)
    assert run_induction(p).all_ok


# ---------------------------------------------------------------------------
# radius floor
# ---------------------------------------------------------------------------

def test_radius_floor_branches():
    p = BookkeeperParams(sigma0=0.5, A0=1.0, c0=1.0, C=1.0, eps=0.0, T=1.0)
    delta = local_delta(p.A0, p.c0, p.eps)
    _, c1 = sigma_for_T(p)
    assert radius_floor(0.0, p) == min(p.sigma0, c1 / delta)
    assert radius_floor(100.0, p) == pytest.approx(c1 / 100.0)
    with pytest.raises(ValueError):
        radius_floor(-0.1, p)


def test_radius_floor_nonincreasing():
    p = BookkeeperParams(sigma0=0.3, A0=1.5, c0=1.0, C=1.0, eps=0.05, T=2.0)
    ts = np.linspace(0.0, 20.0, 200)
    vals = [radius_floor(t, p) for t in ts]
    assert all(b <= a for a, b in zip(vals, vals[1:]))


def test_radius_floor_continuous_at_crossover():
    # pick params so t* = c1/sigma0 > delta; both branches agree at t*
    p = BookkeeperParams(sigma0=1e-5, A0=1.0, c0=1.0, C=1.0, eps=0.0, T=1.0)
    delta = local_delta(p.A0, p.c0, p.eps)
    _, c1 = sigma_for_T(p)
    t_star = c1 / p.sigma0
    assert t_star > delta
    below = radius_floor(t_star * (1 - 1e-12), p)
    above = radius_floor(t_star * (1 + 1e-12), p)
    assert abs(below - above) <= 1e-11 * p.sigma0
    assert radius_floor(t_star, p) == pytest.approx(p.sigma0, rel=1e-12)
