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
from .norms import gevrey_norm, gradient_sq, mass
from .spacetime import (_decay_envelope, dispersive_weight, random_decaying,
                        st_triple_product, xsb_norm)
from .spectral import (apply_exp_gevrey, dealiased_cubic, l4_norm,
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

    computed with dealiased cubic products of the one transform of v;
    identically zero at sigma = 0.  Physical-space output on v's grid.
    """
    vh = to_spectral(v)
    direct = dealiased_cubic(vh)
    inner = dealiased_cubic(apply_exp_gevrey(vh, -sigma))
    lifted = to_physical(apply_exp_gevrey(to_spectral(inner), sigma))
    return Field(v.grid, -(direct.values - lifted.values), rep="physical", t=v.t)


#: the multiplier audit draws each frequency component in [-XI_MAX, XI_MAX]
XI_MAX = 1e3


def audit_multiplier_inequality(sigma: float, n_triples: int, d: int,
                                rng) -> AuditReport:
    """Check 1 - exp(-sigma*(sum|xi_j| - |xi|)) <= 12 sigma xi_med pointwise.

    Frequencies are drawn uniformly per component in [-XI_MAX, XI_MAX] with
    the output frequency xi = xi1 - xi2 - xi3.  The triangle inequality
    makes the exponent gap nonnegative, so the bound must hold with zero
    violations.

    The ensemble is the ``(3, n_triples, d)`` array that one
    ``default_rng(seed).uniform`` call would draw, but it is never held:
    each run of members the kernel checks gets three PCG64 streams, for
    xi1, xi2 and xi3, advanced to where that run starts in the single
    stream (one 64-bit output per double, in C order), and the kernel
    draws each block just before it checks it.
    """
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if n_triples < 1:
        raise ValueError(f"n_triples must be >= 1, got {n_triples}")
    seed = int(rng.integers(0, 2 ** 63 - 1))

    def source(lo, size):
        streams = []
        for j in range(3):
            bits = np.random.PCG64(seed)
            bits.advance((j * n_triples + lo) * d)
            streams.append(np.random.Generator(bits))
        buf = np.empty((3, size, d))

        def draw(m):
            # random(out=) scaled in place: the doubles and the stream
            # state of uniform(-XI_MAX, XI_MAX), into the one buffer
            xi = buf[:, :m]
            for s, x in zip(streams, xi):
                s.random(out=x)
            xi *= 2.0 * XI_MAX
            xi += -XI_MAX
            return xi
        return draw

    violations, ratios = _kernels.triple_gap_ratios(source, n_triples, sigma)
    max_ratio = float(ratios.max())
    median_ratio = _median_in_place(ratios, max_ratio)
    return AuditReport(kind="multiplier-inequality",
                       lhs=max_ratio, rhs=1.0, ratio=max_ratio,
                       count=n_triples, max_ratio=max_ratio,
                       median_ratio=median_ratio,
                       violations=violations, seed=seed)


def _median_in_place(ratios: np.ndarray, top: float) -> float:
    """``np.median(ratios)`` for ``ratios`` whose largest element is
    ``top``, partitioning ``ratios`` in place at the one index h = n // 2.

    np.median partitions at the middle index or pair and at -1 (its NaN
    check), and numpy's vectorised select takes only one index.  After the
    one partition ratios[h] is the middle, or for even n the upper middle
    and the largest of ratios[:h] the lower one, the pair np.median
    averages; ``np.mean`` of that slice or pair is how np.median takes it,
    so the value is the same, and NaN whenever ``top`` is.
    """
    if np.isnan(top):
        return top
    h = ratios.size // 2
    ratios.partition(h)
    if ratios.size % 2:
        pair = ratios[h:h + 1]
    else:
        pair = np.array([ratios[:h].max(), ratios[h]])
    return float(np.mean(pair))


def audit_f_estimate(fields, sigma: float) -> AuditReport:
    """Fixed-time surrogate of the remainder bound.

    ratio = ||f(v)||_{L2} / (sigma * ||<D> v||_{L2}^3) for each field v of
    ``fields``, with statistics across them; ``lhs``, ``rhs`` and ``ratio``
    are the first field's, so ``lhs`` is its ||f(v; sigma)||_{L2}.
    """
    ratios = []
    sides = []
    for u in fields:
        fv = f_of_v(u, sigma)
        lhs = float(np.sqrt(mass(fv)))
        h1 = gevrey_norm(u, 0.0)
        rhs = sigma * h1 ** 3
        sides.append((lhs, rhs))
        ratios.append(0.0 if rhs == 0.0 else lhs / rhs)
    ratios = np.array(ratios)
    return AuditReport(kind="f-estimate", lhs=sides[0][0], rhs=sides[0][1],
                       ratio=float(ratios[0]), count=len(ratios),
                       max_ratio=float(ratios.max()),
                       median_ratio=float(np.median(ratios)),
                       violations=0, seed=0, members=tuple(ratios))


def sigma_halving_ratio(v: Field, sigma: float, *, num=None) -> float:
    """||f(v; sigma)|| / ||f(v; sigma/2)||; tends to 2 as sigma -> 0.

    ``num``, when given, is ||f(v; sigma)||_{L2} already computed (the
    ``lhs`` of ``audit_f_estimate`` with v first), so only f(v; sigma/2)
    is evaluated.
    """
    if num is None:
        num = np.sqrt(mass(f_of_v(v, sigma)))
    den = np.sqrt(mass(f_of_v(v, sigma / 2.0)))
    if den == 0.0:
        return 0.0 if num == 0.0 else np.inf
    return float(num / den)


# ---------------------------------------------------------------------------
# Trilinear product estimates
# ---------------------------------------------------------------------------

#: energy fraction beyond the coarse band above which a member is rejected
LEAK_TOLERANCE = 1e-8


def _norm_specs(kind: int, b: float, sigma: float) -> tuple:
    """``(sigma, s, b)`` of the X^{sigma,s,b} norm that trilinear estimate
    ``kind`` takes of the product (None: its plain L2 norm), and of those
    it takes of u1, u2 and u3."""
    if kind == 1:
        return (0.0, 0.0, -b), ((0.0, 1.0, b), (0.0, 0.0, b), (0.0, 0.0, b))
    if kind == 2:
        return None, ((0.0, 1.0, b), (0.0, 1.0, b), (0.0, 0.0, b))
    if kind == 3:
        return (sigma, 1.0, 0.0), ((sigma, 1.0, b),) * 3
    raise ValueError(f"kind must be 1, 2 or 3, got {kind}")


def trilinear_sides(kind: int, factors, b: float, sigma: float = 0.1, *,
                    weights: dict = None):
    """LHS and RHS of one trilinear estimate for three space-time factors
    u1, u2, u3, whose product is taken as u1 * conj(u2) * conj(u3).

    kind 1: ||prod||_{X^{0,-b}}   vs ||u1||_{X^{1,b}} ||u2||_{X^{0,b}} ||u3||_{X^{0,b}}
    kind 2: ||prod||_{L2_{t,x}}   vs ||u1||_{X^{1,b}} ||u2||_{X^{1,b}} ||u3||_{X^{0,b}}
    kind 3: ||prod||_{X^{sigma,1,0}} vs prod_j ||u_j||_{X^{sigma,1,b}}

    ``weights``, when given, maps each ``(sigma, s, b)`` of the kind to its
    :func:`~gnls.spacetime.dispersive_weight` on the factors' lattice;
    otherwise each norm makes its own.  Returns (lhs, rhs, leaked_fraction).
    """
    lhs_spec, (spec1, spec2, spec3) = _norm_specs(kind, b, sigma)
    weights = weights or {}

    def norm(w, spec):
        return xsb_norm(w, *spec, weight=weights.get(spec))

    w1, w2, w3 = factors
    prod, leaked = st_triple_product(w1, w2, w3)
    lhs = prod.l2() if lhs_spec is None else norm(prod, lhs_spec)
    rhs = norm(w1, spec1) * norm(w2, spec2) * norm(w3, spec3)
    return lhs, rhs, leaked


def audit_trilinear(kind: int, grid: FourierGrid, M: int, T_win: float,
                    n_members: int, seed: int, b: float = 0.55,
                    sigma: float = 0.1, threads: int = 1) -> AuditReport:
    """Ratio statistics of one trilinear estimate over a random ensemble.

    Members are seeded independently and merged by index, so the report is
    identical whether they run sequentially or across threads.  Members
    whose product leaks more than ``LEAK_TOLERANCE`` of its energy beyond
    the coarse band are rejected and counted, not asserted on; when all
    are, there is nothing to report and a ValueError is raised.

    The tables that depend on the lattice alone, the dispersive weights of
    the kind's norms and the band envelope of the draws, are made once for
    the ensemble and dropped with the call.
    """
    if n_members < 1:
        raise ValueError(f"n_members must be >= 1, got {n_members}")
    lhs_spec, rhs_specs = _norm_specs(kind, b, sigma)
    weights = {spec: dispersive_weight(grid, M, T_win, *spec)
               for spec in {lhs_spec, *rhs_specs} - {None}}
    envelope = _decay_envelope(grid, M)
    streams = np.random.SeedSequence(seed).spawn(n_members)

    def member(ss):
        rng = np.random.default_rng(ss)
        factors = [random_decaying(grid, M, T_win, rng, envelope=envelope)
                   for _ in range(3)]
        return trilinear_sides(kind, factors, b, sigma, weights=weights)

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
    if not ratios:
        raise ValueError(f"trilinear-{kind}: all {rejected} members rejected, "
                         f"each leaked more than {LEAK_TOLERANCE:g} of its "
                         f"energy beyond the coarse band")
    ratios = np.array(ratios)
    return AuditReport(kind=f"trilinear-{kind}",
                       lhs=float(ratios[0]), rhs=1.0, ratio=float(ratios[0]),
                       count=len(ratios), max_ratio=float(ratios.max()),
                       median_ratio=float(np.median(ratios)),
                       violations=0, seed=seed, members=tuple(ratios),
                       rejected=rejected)


# ---------------------------------------------------------------------------
# Gagliardo-Nirenberg
# ---------------------------------------------------------------------------

def audit_gagliardo_nirenberg(u: Field) -> AuditReport:
    """ratio = ||u||^4_{L4} / ( ||grad u||^d_{L2} ||u||^{4-d}_{L2} )."""
    m = mass(u)
    if m == 0.0:
        raise EmptySpectrumError("empty spectrum: Gagliardo-Nirenberg audit "
                                 "needs a nonzero field")
    d = u.grid.d
    lhs = l4_norm(u) ** 4
    rhs = gradient_sq(u) ** (d / 2.0) * m ** ((4 - d) / 2.0)
    ratio = np.inf if rhs == 0.0 else lhs / rhs
    return AuditReport(kind="gagliardo-nirenberg", lhs=lhs, rhs=rhs,
                       ratio=float(ratio), count=1, max_ratio=float(ratio),
                       median_ratio=float(ratio), violations=0, seed=0)
