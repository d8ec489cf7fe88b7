"""Scalar functionals of a time slice.

Mass, energy, Gevrey norms, the almost-conserved quantity A_sigma, and the
analyticity-radius estimator.  Everything here is a pure function of an
immutable :class:`~gnls.grid.Field`; evaluating across sigma values or time
slices in parallel is safe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import EmptySpectrumError
from .grid import Field
from .spectral import apply_exp_gevrey, exp_weight, l4_norm, to_spectral


@dataclass(frozen=True)
class GevreyParams:
    """Strip half-width sigma >= 0 and Sobolev index s."""

    sigma: float
    s: float = 1.0

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")


@dataclass(frozen=True)
class NormReport:
    """Bundle of the per-snapshot scalar diagnostics at one (t, sigma)."""

    t: float
    sigma: float
    mass: float
    energy: float
    gevrey_s1_sq: float
    l4_gevrey: float
    a_sigma: float


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


def gevrey_norm(u: Field, p: GevreyParams) -> float:
    """|| e^{sigma|D|} <D>^s u ||_{L2}; reduces to the H^s norm at sigma=0."""
    uh = to_spectral(u)
    xi = uh.grid.xi_abs
    w2 = exp_weight(2.0 * p.sigma, uh.grid) * (1.0 + xi * xi) ** p.s
    return float(np.sqrt(np.sum(w2 * np.abs(uh.values) ** 2)))


def l4_gevrey(u: Field, sigma: float) -> float:
    """|| e^{sigma|D|} u ||_{L4} on the padded quadrature grid."""
    return l4_norm(apply_exp_gevrey(to_spectral(u), sigma))


def a_sigma(u: Field, sigma: float) -> float:
    """A_sigma = ||u||^2_{G^{sigma,1}} + (1/2) ||e^{sigma|D|} u||^4_{L4}.

    At sigma = 0 this is exactly mass + energy.
    """
    uh = to_spectral(u)
    g = gevrey_norm(uh, GevreyParams(sigma, 1.0))
    l4 = l4_gevrey(uh, sigma)
    return g * g + 0.5 * l4 ** 4


def norm_report(u: Field, sigma: float) -> NormReport:
    """All scalar diagnostics of one slice at one sigma.

    The slice is transformed once; the Gevrey norm, the L4 norm and the
    energy read the same coefficients, and the mass is taken from ``u`` in
    the representation it was given.
    """
    uh = to_spectral(u)
    g1 = gevrey_norm(uh, GevreyParams(sigma, 1.0))
    l4 = l4_gevrey(uh, sigma)
    return NormReport(
        t=u.t,
        sigma=sigma,
        mass=mass(u),
        energy=energy(uh),
        gevrey_s1_sq=g1 * g1,
        l4_gevrey=l4,
        a_sigma=g1 * g1 + 0.5 * l4 ** 4,
    )


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
