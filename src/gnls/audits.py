"""Numerical audit bench for the functional inequalities.

Each audit pits a directly computed left-hand side against the product of
norms on the right-hand side and reports ratio statistics over a seeded
ensemble.  The pointwise frequency inequality must hold identically (any
violation is an implementation bug); the trilinear and remainder audits
check stability of the empirical constants, not a specific value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import EmptySpectrumError
from .grid import Field, FourierGrid
from .norms import gevrey_norm, GevreyParams, mass
from .spacetime import (SpaceTimeSpectrum, random_decaying, single_mode,
                        st_triple_product, xsb_norm)
from .spectral import (apply_exp_gevrey, dealiased_triple_product, l4_norm,
                       to_physical, to_spectral)


@dataclass(frozen=True)
class AuditReport:
    """Outcome of one audit: a scalar comparison plus ensemble statistics."""

    kind: str
    lhs: float
    rhs: float
    ratio: float
    count: int
    max_ratio: float
    median_ratio: float
    violations: int
    seed: int
    members: tuple = ()
    rejected: int = 0


# ---------------------------------------------------------------------------
# Remainder of the exponential-weight / cubic commutator
# ---------------------------------------------------------------------------

def f_of_v(v: Field, sigma: float) -> Field:
    """Defect of e^{sigma|D|} against the cubic nonlinearity.

        f(v) = -( |v|^2 v - e^{sigma|D|} ( |e^{-sigma|D|} v|^2 e^{-sigma|D|} v ) )

    computed with dealiased triple products; identically zero at sigma = 0.
    Physical-space output on v's grid.
    """
    vh = to_spectral(v)
    direct = dealiased_triple_product(v, v, v, conjugate=(False, True, False))
    w = apply_exp_gevrey(vh, -sigma)
    inner = dealiased_triple_product(w, w, w, conjugate=(False, True, False))
    lifted = to_physical(apply_exp_gevrey(to_spectral(inner), sigma))
    return Field(v.grid, -(direct.values - lifted.values), rep="physical", t=v.t)


def audit_multiplier_inequality(sigma: float, n_triples: int, d: int, rng,
                                xi_max: float = 1e3) -> AuditReport:
    """Check 1 - exp(-sigma*(sum|xi_j| - |xi|)) <= 12 sigma xi_med pointwise.

    Frequencies are drawn uniformly per component in [-xi_max, xi_max] with
    the output frequency xi = xi1 - xi2 - xi3.  The triangle inequality
    makes the exponent gap nonnegative, so the bound must hold with zero
    violations.
    """
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    seed = int(rng.integers(0, 2 ** 63 - 1))
    local = np.random.default_rng(seed)
    xi = local.uniform(-xi_max, xi_max, size=(3, n_triples, d))
    violations, ratios = _kernels.triple_gap_ratios(xi[0], xi[1], xi[2], sigma)
    max_ratio = float(ratios.max())
    return AuditReport(kind="multiplier-inequality",
                       lhs=max_ratio, rhs=1.0, ratio=max_ratio,
                       count=n_triples, max_ratio=max_ratio,
                       median_ratio=float(np.median(ratios)),
                       violations=violations, seed=seed)


def audit_f_estimate(v: Field, sigma: float, ensemble=None) -> AuditReport:
    """Fixed-time surrogate of the remainder bound.

    ratio = ||f(v)||_{L2} / (sigma * ||<D> v||_{L2}^3).  With ``ensemble``
    (an iterable of fields), statistics are collected across members.
    """
    fields = [v] if ensemble is None else list(ensemble)
    ratios = []
    for u in fields:
        fv = f_of_v(u, sigma)
        lhs = float(np.sqrt(mass(fv)))
        h1 = gevrey_norm(u, GevreyParams(0.0, 1.0))
        rhs = sigma * h1 ** 3
        ratios.append(0.0 if rhs == 0.0 else lhs / rhs)
    ratios = np.array(ratios)
    return AuditReport(kind="f-estimate", lhs=ratios[0], rhs=1.0,
                       ratio=float(ratios[0]), count=len(ratios),
                       max_ratio=float(ratios.max()),
                       median_ratio=float(np.median(ratios)),
                       violations=0, seed=0, members=tuple(ratios))


def sigma_halving_ratio(v: Field, sigma: float) -> float:
    """||f(v; sigma)|| / ||f(v; sigma/2)||; tends to 2 as sigma -> 0."""
    num = np.sqrt(mass(f_of_v(v, sigma)))
    den = np.sqrt(mass(f_of_v(v, sigma / 2.0)))
    if den == 0.0:
        return 0.0 if num == 0.0 else np.inf
    return float(num / den)


# ---------------------------------------------------------------------------
# Trilinear product estimates
# ---------------------------------------------------------------------------

#: energy fraction beyond the padded band above which a member is rejected
LEAK_TOLERANCE = 1e-8


def trilinear_sides(kind: int, factors, b: float, sigma: float = 0.1,
                    conjugate=(False, True, True)):
    """LHS and RHS of one trilinear estimate for three space-time factors.

    kind 1: ||prod||_{X^{0,-b}}   vs ||u1||_{X^{1,b}} ||u2||_{X^{0,b}} ||u3||_{X^{0,b}}
    kind 2: ||prod||_{L2_{t,x}}   vs ||u1||_{X^{1,b}} ||u2||_{X^{1,b}} ||u3||_{X^{0,b}}
    kind 3: ||prod||_{X^{sigma,1,0}} vs prod_j ||u_j||_{X^{sigma,1,b}}

    Returns (lhs, rhs, leaked_fraction).
    """
    w1, w2, w3 = factors
    prod, leaked = st_triple_product(w1, w2, w3, conjugate=conjugate)
    if kind == 1:
        lhs = xsb_norm(prod, 0.0, 0.0, -b)
        rhs = xsb_norm(w1, 0.0, 1.0, b) * xsb_norm(w2, 0.0, 0.0, b) \
            * xsb_norm(w3, 0.0, 0.0, b)
    elif kind == 2:
        lhs = prod.l2()
        rhs = xsb_norm(w1, 0.0, 1.0, b) * xsb_norm(w2, 0.0, 1.0, b) \
            * xsb_norm(w3, 0.0, 0.0, b)
    elif kind == 3:
        lhs = xsb_norm(prod, sigma, 1.0, 0.0)
        rhs = xsb_norm(w1, sigma, 1.0, b) * xsb_norm(w2, sigma, 1.0, b) \
            * xsb_norm(w3, sigma, 1.0, b)
    else:
        raise ValueError(f"kind must be 1, 2 or 3, got {kind}")
    return lhs, rhs, leaked


def audit_trilinear(kind: int, grid: FourierGrid, M: int, T_win: float,
                    n_members: int, seed: int, b: float = 0.55,
                    sigma: float = 0.1,
                    conjugate=(False, True, True),
                    threads: int = 1) -> AuditReport:
    """Ratio statistics of one trilinear estimate over a random ensemble.

    Members are seeded independently and merged by index, so the report is
    identical whether they run sequentially or across threads.  Members
    whose product leaks more than ``LEAK_TOLERANCE`` of its energy beyond
    the padded band are rejected and counted, not asserted on.
    """
    streams = np.random.SeedSequence(seed).spawn(n_members)

    def member(ss):
        rng = np.random.default_rng(ss)
        factors = [random_decaying(grid, M, T_win, rng) for _ in range(3)]
        return trilinear_sides(kind, factors, b, sigma, conjugate)

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(member, streams))
    else:
        results = [member(ss) for ss in streams]

    ratios = []
    rejected = 0
    for lhs, rhs, leaked in results:
        if leaked > LEAK_TOLERANCE:
            rejected += 1
            continue
        ratios.append(0.0 if rhs == 0.0 else lhs / rhs)
    ratios = np.array(ratios) if ratios else np.zeros(1)
    return AuditReport(kind=f"trilinear-{kind}",
                       lhs=float(ratios[0]), rhs=1.0, ratio=float(ratios[0]),
                       count=len(ratios), max_ratio=float(ratios.max()),
                       median_ratio=float(np.median(ratios)),
                       violations=0, seed=seed, members=tuple(ratios),
                       rejected=rejected)


def trilinear_single_mode_oracle(kind: int, grid: FourierGrid, M: int,
                                 T_win: float, m0: int, k0: int, b: float,
                                 sigma: float = 0.1,
                                 conjugate=(False, True, True)):
    """Closed-form LHS/RHS for three identical unit single-mode factors.

    With pattern (u, conj u, conj u) the product is a single mode at
    (-tau0, -xi0) with coefficient 1/(T_win * L^d); the weighted norms are
    then scalar evaluations of the weights.
    """
    tau0 = 2.0 * np.pi * m0 / T_win
    xi0 = 2.0 * np.pi * k0 / grid.L
    sgn = [-1.0 if c else 1.0 for c in conjugate]
    tau_p = sum(s * tau0 for s in sgn)
    xi_p = sum(s * xi0 for s in sgn)
    amp = 1.0 / (T_win * grid.L ** grid.d)

    def bracket(x):
        return np.sqrt(1.0 + x * x)

    def weight(tau, xi, sg, s, bb):
        return np.exp(sg * abs(xi)) * bracket(abs(xi)) ** s \
            * bracket(tau + xi * xi) ** bb

    if kind == 1:
        lhs = amp * weight(tau_p, xi_p, 0.0, 0.0, -b)
        rhs = weight(tau0, xi0, 0.0, 1.0, b) * weight(tau0, xi0, 0.0, 0.0, b) ** 2
    elif kind == 2:
        lhs = amp
        rhs = weight(tau0, xi0, 0.0, 1.0, b) ** 2 * weight(tau0, xi0, 0.0, 0.0, b)
    elif kind == 3:
        lhs = amp * weight(tau_p, xi_p, sigma, 1.0, 0.0)
        rhs = weight(tau0, xi0, sigma, 1.0, b) ** 3
    else:
        raise ValueError(f"kind must be 1, 2 or 3, got {kind}")
    return float(lhs), float(rhs)


# ---------------------------------------------------------------------------
# Gagliardo-Nirenberg
# ---------------------------------------------------------------------------

def audit_gagliardo_nirenberg(u: Field) -> AuditReport:
    """ratio = ||u||^4_{L4} / ( ||grad u||^d_{L2} ||u||^{4-d}_{L2} )."""
    m = mass(u)
    if m == 0.0:
        raise EmptySpectrumError("empty spectrum: Gagliardo-Nirenberg audit "
                                 "needs a nonzero field")
    from .norms import gradient_sq
    d = u.grid.d
    lhs = l4_norm(u) ** 4
    rhs = gradient_sq(u) ** (d / 2.0) * m ** ((4 - d) / 2.0)
    ratio = np.inf if rhs == 0.0 else lhs / rhs
    return AuditReport(kind="gagliardo-nirenberg", lhs=lhs, rhs=rhs,
                       ratio=float(ratio), count=1, max_ratio=float(ratio),
                       median_ratio=float(ratio), violations=0, seed=0)
