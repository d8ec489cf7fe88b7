"""Scalar functionals of a time slice.

Mass, energy, Gevrey norms, the almost-conserved quantity A_sigma, and the
analyticity-radius estimator.  Everything here is a pure function of an
immutable :class:`~gnls.grid.Field`; evaluating across sigma values or time
slices in parallel is safe.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import EmptySpectrumError
from .grid import Field, FourierGrid, SPECTRAL
from .spectral import (apply_exp_gevrey, exp_weight, l4_norm, to_spectral,
                       truncate_spectrum)


#: the row of one slice at one sigma: the CSV columns of ``gnls simulate``
#: (and the first of ``gnls radius``) and the lines of ``gnls norms``
NormReport = namedtuple("NormReport", "t sigma mass energy gevrey_s1_sq "
                                      "l4_gevrey a_sigma sigma_hat "
                                      "entire_flag floor_flag")


@dataclass(frozen=True)
class RadiusEstimate:
    """Fitted exponential decay rate of the Fourier envelope.

    ``sigma_hat`` is the fitted strip half-width; ``entire_flag`` marks
    super-exponential decay over the fit band (no finite radius resolved);
    ``floor_flag`` marks spectra with too few usable shells above the
    round-off floor.
    """

    sigma_hat: float
    fit_band: tuple
    residual: float
    entire_flag: bool
    floor_flag: bool


def mass(u: Field) -> float:
    """||u||^2 in L2 of the torus."""
    if u.is_spectral:
        return float(np.sum(np.abs(u.values) ** 2))
    q = (u.grid.L / u.grid.N) ** u.grid.d
    return float(np.sum(u.values.real ** 2 + u.values.imag ** 2) * q)


def gradient_sq(u: Field) -> float:
    """||grad u||^2 in L2, via the |xi|^2 spectral weight."""
    uh = to_spectral(u)
    return float(np.sum(uh.grid.xi_abs ** 2 * np.abs(uh.values) ** 2))


def energy(u: Field) -> float:
    """E = ||grad u||^2_{L2} + (1/2) ||u||^4_{L4}."""
    return gradient_sq(u) + 0.5 * l4_norm(u) ** 4


def gevrey_norm(u: Field, sigma: float, s: float = 1.0) -> float:
    """|| e^{sigma|D|} <D>^s u ||_{L2} for a strip half-width sigma >= 0;
    reduces to the H^s norm at sigma=0."""
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    uh = to_spectral(u)
    xi = uh.grid.xi_abs
    w2 = exp_weight(2.0 * sigma, uh.grid) * (1.0 + xi * xi) ** s
    return float(np.sqrt(np.sum(w2 * np.abs(uh.values) ** 2)))


def l4_gevrey(u: Field, sigma: float) -> float:
    """|| e^{sigma|D|} u ||_{L4} on the padded quadrature grid."""
    return l4_norm(apply_exp_gevrey(to_spectral(u), sigma))


def a_sigma(u: Field, sigma: float) -> float:
    """A_sigma = ||u||^2_{G^{sigma,1}} + (1/2) ||e^{sigma|D|} u||^4_{L4}.

    At sigma = 0 this is exactly mass + energy.
    """
    uh = to_spectral(u)
    g = gevrey_norm(uh, sigma)
    l4 = l4_gevrey(uh, sigma)
    return g * g + 0.5 * l4 ** 4


def resolved_spectrum(u: Field) -> Field:
    """The coefficients of ``u`` above the round-off floor, on the smallest
    grid that holds them: the slice every weighted functional reads.

    e^{sigma|xi|} weighs the round-off plateau of a resolved spectrum (about
    1e-16 of the peak) as much as the modes above it, and at the lattice's
    edge far more (Boyd, Chebyshev and Fourier Spectral Methods, 2001).  So
    every coefficient at or below 1e-14 of the peak |u^| is zeroed, and the
    slice is cut by :func:`~gnls.spectral.truncate_spectrum` to the smallest
    power-of-two grid, never finer than u's, whose lattice holds the cube
    band max_j |k_j| of the rest; the overflow guard of the weights then
    checks that grid.  A slice with no coefficient at or below the floor,
    or an identically zero one, comes back as it is, in its spectral form,
    after one slab pass for the extremes of |u^|
    (:func:`gnls._kernels._abs_range`).
    """
    uh = to_spectral(u)
    lo, peak = _kernels._abs_range(uh.values)
    floor = 1e-14 * peak
    if peak == 0.0 or lo > floor:
        return uh
    grid = uh.grid
    keep = np.abs(uh.values) > floor
    k = np.abs(grid.k_axis)
    # the largest |k_j| of a kept coefficient, over the axes j
    band = max(int(k[keep.any(axis=tuple(set(range(grid.d)) - {j}))].max())
               for j in range(grid.d))
    n = 8
    while n < 2 * band + 2:  # modes -n/2 ... n/2 - 1 hold |k| <= band
        n *= 2
    clean = np.where(keep, uh.values, 0.0)
    clean.flags.writeable = False  # kept by Field without a copy
    masked = Field(grid, clean, rep=SPECTRAL, t=uh.t, _check=False)
    if n >= grid.N:
        return masked
    return truncate_spectrum(masked, FourierGrid(grid.d, n, grid.L))


def norm_report(u: Field, sigma: float) -> NormReport:
    """All scalar diagnostics of one slice at one sigma, and its radius fit.

    The slice is transformed once.  The weighted columns (``gevrey_s1_sq``,
    ``l4_gevrey`` and ``a_sigma``) read its :func:`resolved_spectrum`; the
    energy's L4 quadrature and the radius fit read every coefficient, and
    the mass is taken from ``u`` in the representation it was given.  An
    identically zero slice has no radius to fit and is floor-flagged.
    """
    uh = to_spectral(u)
    resolved = resolved_spectrum(uh)
    g1 = gevrey_norm(resolved, sigma)
    l4 = l4_gevrey(resolved, sigma)
    del resolved  # a masked copy of the whole grid goes before the energy's
    # the fit's grid-sized temporaries follow both quadratures: between
    # them, glibc's heap kept up to 7 MB more of a 64^3 simulate pass
    e = energy(uh)
    try:
        rad = radius_estimate(uh)
        fit = rad.sigma_hat, rad.entire_flag, rad.floor_flag
    except EmptySpectrumError:
        fit = 0.0, False, True
    return NormReport(u.t, sigma, mass(u), e, g1 * g1, l4,
                      g1 * g1 + 0.5 * l4 ** 4, *fit)


# ---------------------------------------------------------------------------
# Radius estimation
# ---------------------------------------------------------------------------

#: fit band: shell envelope within [floor, ceiling] * max envelope
FIT_BAND_FLOOR = 1e-13
FIT_BAND_CEILING = 1e-3
#: entire-function test: |quadratic coeff| > this fraction of |linear coeff|
CURVATURE_RATIO = 0.10
MIN_SHELLS = 8


def spectral_shell_envelope(u: Field) -> tuple:
    """(shell radii |xi|, max |coefficient| per shell) with shell width 2*pi/L.

    In d >= 2 the envelope takes the maximum over spherical shells, so the
    radius estimate is set by the slowest-decaying direction.
    """
    uh = to_spectral(u)
    grid = uh.grid
    dxi = 2.0 * np.pi / grid.L
    shell = np.rint(grid.xi_abs / dxi).astype(np.int64)
    n_shells = int(shell.max()) + 1
    mag = np.abs(uh.values)
    env = _kernels.shell_envelope(mag.ravel(), shell.ravel(), n_shells)
    radii = np.arange(n_shells) * dxi
    return radii, env


def radius_estimate(u: Field) -> RadiusEstimate:
    """Fit log(shell envelope) ~ a - sigma_hat * |xi| over the decade band.

    The fit band keeps shells with envelope in
    [1e-13, 1e-3] * max(envelope), excluding both the round-off floor and
    the low-frequency prefactor region.  A quadratic refit flags
    super-exponential (entire) decay.
    """
    radii, env = spectral_shell_envelope(u)
    peak = env.max()
    if peak == 0.0:
        raise EmptySpectrumError("empty spectrum: field is identically zero")
    usable = (env >= FIT_BAND_FLOOR * peak) & (env <= FIT_BAND_CEILING * peak) & (env > 0)
    if int(usable.sum()) < MIN_SHELLS:
        return RadiusEstimate(sigma_hat=0.0, fit_band=(0.0, 0.0), residual=0.0,
                              entire_flag=False, floor_flag=True)
    r = radii[usable]
    y = np.log(env[usable])
    lin = np.polynomial.polynomial.polyfit(r, y, 1)
    quad = np.polynomial.polynomial.polyfit(r, y, 2)
    resid = float(np.sqrt(np.mean((y - np.polynomial.polynomial.polyval(r, lin)) ** 2)))
    sigma_hat = float(-lin[1])
    entire = bool(abs(quad[2]) > CURVATURE_RATIO * abs(quad[1]))
    return RadiusEstimate(
        sigma_hat=max(sigma_hat, 0.0) if not entire else sigma_hat,
        fit_band=(float(r.min()), float(r.max())),
        residual=resid,
        entire_flag=bool(entire),
        floor_flag=False,
    )
