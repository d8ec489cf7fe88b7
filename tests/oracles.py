"""Independent references the tests compare the package against.

Nothing in ``src/gnls`` calls these: the solver runs its own fused loop
and rotates in place slab by slab, and multiplies in its linear phase
slab by slab from per-axis factors; ``xi_abs`` and the radial data are
filled by one slab pass over the per-axis squares
(``gnls._kernels._radial``) and no builder makes the whole coordinate mesh
of :func:`meshgrid`; the Gevrey weight is formed and multiplied in slab
by slab, inside the L4 quadrature's first pass for the weighted norm; the
products pad their coefficients by a table of corners into the one array
their whole-array synthesis transforms in place, with no shifted copy, the
L4 quadrature transforms axis 0 of the coefficient lines and streams
blocks of x0-rows through the other axes, summing each row, the shell
functionals of ``gnls.norms`` fold each slice onto the octant of one
shell table, the other data builders fill their samples slab by slab or
broadcast a profile, the multiplier audit draws its ensemble block by
block, and the runners only write sidecars.  They stay here, written out
in the plainest form, as the oracles of the tests that use them.
"""

import numpy as np

from gnls import _kernels
from gnls.audits import XI_MAX, AuditReport
from gnls.grid import Field, FourierGrid, PHYSICAL, SPECTRAL
from gnls.integrator import SolverConfig
from gnls.spacetime import SpaceTimeSpectrum
from gnls.spectral import (_forward_factor, _guarded_exp, forward_transform,
                           inverse_transform, to_spectral)


def meshgrid(grid: FourierGrid) -> tuple:
    """Physical coordinate arrays of ``grid``, one whole grid per axis."""
    return np.meshgrid(*([grid.x] * grid.d), indexing="ij")


def zero_field(grid: FourierGrid, rep: str = PHYSICAL) -> Field:
    return Field(grid, np.zeros(grid.shape, dtype=np.complex128), rep=rep)


# ---------------------------------------------------------------------------
# a Field-level Strang step, the oracle of the fused evolve loop
# ---------------------------------------------------------------------------

def linear_half_step(u: Field, dt: float) -> Field:
    """Apply exp(i dt/2 Lap): multiply coefficients by exp(-i |xi|^2 dt/2)."""
    if not u.is_spectral:
        raise ValueError("linear_half_step expects a spectral-space field")
    xi2 = u.grid.xi_abs ** 2
    return Field(u.grid, u.values * np.exp(-0.5j * dt * xi2),
                 rep=SPECTRAL, t=u.t)


def nonlinear_step(u: Field, dt: float, sign: float = 1.0) -> Field:
    """Exact cubic-ODE flow: u <- u * exp(-i sign |u|^2 dt), pointwise."""
    if not u.is_physical:
        raise ValueError("nonlinear_step expects a physical-space field")
    out = u.values.copy()
    _kernels.phase_rotate(out, sign * dt, _kernels._workspace(out))
    return Field(u.grid, out, rep=PHYSICAL, t=u.t)


def rotate_whole(values, dt):
    """``_kernels.phase_rotate`` as the whole-grid pass it replaced: the
    rotated samples, written out of place, and the blow-up guard's max|u|
    of them, from a second pass over the whole grid."""
    phase = np.empty(values.shape)
    out = np.empty(values.shape, np.complex128)
    np.multiply(values.real, values.real, out=phase)
    phase += np.multiply(values.imag, values.imag, out=out.imag)
    phase *= -float(dt)
    np.cos(phase, out=out.real)
    np.sin(phase, out=out.imag)
    np.multiply(values, out, out=out)
    return out, np.maximum.reduce(np.abs(out, out=phase), axis=None)


def phase_product_whole(values, scale, xi_axis):
    """``_kernels._phase_product`` at d >= 2 as the whole-grid product it
    runs slab by slab: ``values * (e_i * (e_j * e_k))`` for the per-axis
    factors e = exp(scale * xi^2), written out of place."""
    e = np.exp(scale * (xi_axis * xi_axis))
    mesh = np.meshgrid(*[e] * values.ndim, indexing="ij", sparse=True)
    rest = mesh[1] if values.ndim == 2 else mesh[1] * mesh[2]
    return np.multiply(values, mesh[0] * rest)


def xi_abs_whole(grid: FourierGrid) -> np.ndarray:
    """``FourierGrid.xi_abs`` as whole-grid sums from a zero grid."""
    sq = np.zeros(grid.shape)
    for axis in range(grid.d):
        shape = [1] * grid.d
        shape[axis] = grid.N
        sq = sq + (grid.xi_axis.reshape(shape)) ** 2
    return np.sqrt(sq)


def exp_weight_whole(sigma: float, grid: FourierGrid) -> np.ndarray:
    """The Gevrey weight e^{sigma|xi|} on the whole lattice at once, by the
    one overflow guard, of :func:`xi_abs_whole`."""
    return _guarded_exp(sigma, xi_abs_whole(grid), grid.xi_max)


def strang_step(u: Field, dt: float, cfg: SolverConfig = None) -> Field:
    """One second-order step: half linear, full nonlinear, half linear."""
    sign = 1.0 if cfg is None else cfg.sign
    linear_only = False if cfg is None else cfg.linear_only
    uh = linear_half_step(to_spectral(u), dt)
    if not linear_only:
        up = nonlinear_step(inverse_transform(uh), dt, sign=sign)
        uh = linear_half_step(forward_transform(up), dt)
    else:
        uh = linear_half_step(uh, dt)
    out = inverse_transform(uh)
    return Field(out.grid, out.values, rep=PHYSICAL, t=u.t + dt, _check=False)


# ---------------------------------------------------------------------------
# the data builders on the whole grid
# ---------------------------------------------------------------------------

def gaussian_whole(grid: FourierGrid, A: float = 1.0, w: float = 1.0) -> Field:
    """``data.gaussian`` from the full coordinate mesh at once."""
    mesh = meshgrid(grid)
    r2 = sum((x - grid.L / 2.0) ** 2 for x in mesh)
    return Field(grid, A * np.exp(-r2 / w ** 2), rep=PHYSICAL)


def periodized_sech_whole(grid: FourierGrid, A: float = 1.0,
                          a: float = 1.0) -> Field:
    """``data.periodized_sech`` on the whole grid at once: the same images,
    each added to the sum as a fresh full-grid array."""
    r_max = np.sqrt(grid.d) * grid.L / 2.0
    n_images = min(int(np.ceil((2.0 * r_max + 60.0 * np.log(2.0) * a) / grid.L)),
                   int(np.ceil(745.0 * a / grid.L)) + 1)
    mesh = np.meshgrid(*([grid.x] * grid.d), indexing="ij", sparse=True)
    r = np.sqrt(sum((x - grid.L / 2.0) ** 2 for x in mesh))
    vals = np.zeros(grid.shape)
    for j in range(-n_images, n_images + 1):
        z = np.abs(r - j * grid.L) / a
        e = np.exp(-z)
        vals = vals + 2.0 * e / (1.0 + e * e)
    return Field(grid, A * vals, rep=PHYSICAL)


def plane_wave_whole(grid: FourierGrid, A: float = 1.0, k: int = 1) -> Field:
    """``data.plane_wave`` from the full coordinate mesh at once."""
    mesh = meshgrid(grid)
    xi = 2.0 * np.pi * k / grid.L
    return Field(grid, A * np.exp(1j * xi * mesh[0]), rep=PHYSICAL)


def random_bandlimited_whole(grid: FourierGrid, seed: int, band: int = None,
                             decay: float = 0.3,
                             amplitude: float = 1.0) -> Field:
    """``data.random_bandlimited`` on the whole grid at once: two whole-grid
    normal draws, the damping as a full grid and the band mask by
    ``np.where``."""
    if band is None:
        band = grid.N // 6
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    k = np.fft.ifftshift(np.arange(-(grid.N // 2), grid.N // 2))
    k2 = sum(np.meshgrid(*[k * k] * grid.d, indexing="ij", sparse=True))
    coeffs = np.where(grid.k_max <= band,
                      coeffs * np.exp(-decay * np.sqrt(k2)), 0.0)
    return Field(grid, amplitude * coeffs, rep=SPECTRAL)


# ---------------------------------------------------------------------------
# zero-padding and the cubic convolution
# ---------------------------------------------------------------------------

def pad_spectrum(f: Field, factor: int = 2) -> Field:
    """Embed spectral coefficients into a grid ``factor`` times as fine."""
    if not f.is_spectral:
        raise ValueError("pad_spectrum expects a spectral-space field")
    g = f.grid
    big = g.refined(factor)
    block = tuple(slice((nb - n) // 2, (nb - n) // 2 + n)
                  for n, nb in zip(g.shape, big.shape))
    big_c = np.zeros(big.shape, dtype=np.complex128)
    big_c[block] = np.fft.fftshift(f.values)
    return Field(big, np.fft.ifftshift(big_c), rep=SPECTRAL, t=f.t)


def apply_exp_gevrey_whole(f: Field, sigma: float) -> Field:
    """``spectral.apply_exp_gevrey`` as one whole-grid product with
    :func:`exp_weight_whole`."""
    return Field(f.grid, f.values * exp_weight_whole(sigma, f.grid),
                 rep=SPECTRAL, t=f.t)


def l4_norm_whole(u: Field, sigma: float = 0.0) -> float:
    """``spectral.l4_norm`` in its plain form, in the order of its
    arithmetic: the spectrum weighted by :func:`apply_exp_gevrey_whole`
    unless sigma is 0, zero-padded and inverse-transformed by one
    ``np.fft.ifftn`` along axes d-1, ..., 0, which transforms axis 0 first
    and the last axis last, scaled by 1/factor on the real view; |u|^4 of
    every sample; one ``np.sum`` per x0-row; one ``np.sum`` of the row
    sums."""
    grid = u.grid.refined(2)
    uh = to_spectral(u)
    if sigma:
        uh = apply_exp_gevrey_whole(uh, sigma)
    vals = np.fft.ifftn(pad_spectrum(uh).values,
                        axes=tuple(reversed(range(grid.d))))
    parts = vals.view(np.float64)
    parts *= 1.0 / _forward_factor(grid)
    mag2 = vals.real ** 2
    mag2 += vals.imag ** 2
    mag2 *= mag2
    rows = np.array([np.sum(row) for row in mag2])
    q = (grid.L / grid.N) ** grid.d
    return float((np.sum(rows) * q) ** 0.25)


# ---------------------------------------------------------------------------
# the shell functionals on the whole lattice
# ---------------------------------------------------------------------------

def gradient_sq_whole(u: Field) -> float:
    """``norms.gradient_sq`` as the whole-grid sum of |xi|^2 |u^|^2."""
    uh = to_spectral(u)
    return float(np.sum(uh.grid.xi_abs ** 2 * np.abs(uh.values) ** 2))


def gevrey_norm_whole(u: Field, sigma: float, s: float = 1.0) -> float:
    """``norms.gevrey_norm`` with its weight e^{2 sigma|xi|} (1 + |xi|^2)^s
    built on the whole grid."""
    uh = to_spectral(u)
    xi = xi_abs_whole(uh.grid)
    w2 = exp_weight_whole(2.0 * sigma, uh.grid) * (1.0 + xi * xi) ** s
    return float(np.sqrt(np.sum(w2 * np.abs(uh.values) ** 2)))


def shell_envelope_whole(u: Field) -> tuple:
    """``norms.spectral_shell_envelope`` from a whole grid of shell
    indices rint(|xi| / (2 pi/L))."""
    uh = to_spectral(u)
    grid = uh.grid
    dxi = 2.0 * np.pi / grid.L
    shell = np.rint(grid.xi_abs / dxi).astype(np.int64)
    n_shells = int(shell.max()) + 1
    env = _kernels.shell_envelope(np.abs(uh.values).ravel(), shell.ravel(),
                                  n_shells)
    return np.arange(n_shells) * dxi, env


def direct_convolution_cubic(u: Field) -> np.ndarray:
    """O(N^3) spectral convolution oracle of |u|^2 u for a d=1 field."""
    grid = u.grid
    N, L = grid.N, grid.L
    uh = to_spectral(u).values
    # conj in physical space flips and conjugates the spectrum
    spectra = (uh, np.conj(uh[(-np.arange(N)) % N]), uh)
    # unitary coefficients multiply with a 1/sqrt(L) factor per product
    out = np.zeros(N, dtype=complex)
    ks = np.arange(N)
    half = N // 2
    kk = ((ks + half) % N) - half
    for i in range(N):
        if spectra[0][i] == 0:
            continue
        for j in range(N):
            if spectra[1][j] == 0:
                continue
            for m in range(N):
                if spectra[2][m] == 0:
                    continue
                tot = kk[i] + kk[j] + kk[m]
                if tot > half - 1 or tot < -half:
                    continue  # outside the truncated band
                out[tot % N] += spectra[0][i] * spectra[1][j] * spectra[2][m]
    return out / L


# ---------------------------------------------------------------------------
# the multiplier check over the whole ensemble at once
# ---------------------------------------------------------------------------

def triple_gap_ratios_oneshot(xi1, xi2, xi3, sigma):
    """``_kernels.triple_gap_ratios`` as whole-array numpy: row-sum norms
    and a sorted median of three, with no blocking."""
    a1 = np.sqrt((xi1 * xi1).sum(axis=1))
    a2 = np.sqrt((xi2 * xi2).sum(axis=1))
    a3 = np.sqrt((xi3 * xi3).sum(axis=1))
    out = xi1 - xi2 - xi3
    aout = np.sqrt((out * out).sum(axis=1))
    gap = a1 + a2 + a3 - aout
    lhs = -np.expm1(-sigma * gap)
    med = np.sort(np.stack([a1, a2, a3], axis=1), axis=1)[:, 1]
    rhs = 12.0 * sigma * med
    ok_zero = (rhs == 0.0) & (lhs <= 0.0)
    ratio = np.where(rhs > 0.0, lhs / np.where(rhs > 0.0, rhs, 1.0), 0.0)
    violations = int(np.count_nonzero((lhs > rhs) & ~ok_zero))
    return violations, ratio


def audit_multiplier_whole(sigma, n_triples, d, rng) -> AuditReport:
    """``audits.audit_multiplier_inequality`` on the whole ensemble at once:
    one ``(3, n_triples, d)`` uniform draw, the whole-array check and a
    copying median."""
    seed = int(rng.integers(0, 2 ** 63 - 1))
    xi = np.random.default_rng(seed).uniform(-XI_MAX, XI_MAX,
                                             size=(3, n_triples, d))
    violations, ratios = triple_gap_ratios_oneshot(xi[0], xi[1], xi[2], sigma)
    max_ratio = float(ratios.max())
    return AuditReport(kind="multiplier-inequality",
                       lhs=max_ratio, rhs=1.0, ratio=max_ratio,
                       count=n_triples, max_ratio=max_ratio,
                       median_ratio=float(np.median(ratios)),
                       violations=violations, seed=seed)


# ---------------------------------------------------------------------------
# space-time single modes and the closed form of their trilinear sides
# ---------------------------------------------------------------------------

def single_mode(grid: FourierGrid, M: int, T_win: float, m0: int, k0,
                amplitude: complex = 1.0) -> SpaceTimeSpectrum:
    """One coefficient at integer time mode m0 and spatial mode k0."""
    coeffs = np.zeros((M,) + grid.shape, dtype=np.complex128)
    k0 = (k0,) if np.isscalar(k0) else tuple(k0)
    idx = (m0 % M,) + tuple(k % grid.N for k in k0)
    coeffs[idx] = amplitude
    return SpaceTimeSpectrum(grid=grid, M=M, T_win=T_win, coeffs=coeffs)


def trilinear_single_mode_oracle(kind: int, grid: FourierGrid, M: int,
                                 T_win: float, m0: int, k0: int, b: float,
                                 sigma: float = 0.1):
    """Closed-form LHS/RHS of ``audits.trilinear_sides`` for three identical
    unit single-mode factors.

    With pattern (u, conj u, conj u) the product is a single mode at
    (-tau0, -xi0) with coefficient 1/(T_win * L^d); the weighted norms are
    then scalar evaluations of the weights.
    """
    tau0 = 2.0 * np.pi * m0 / T_win
    xi0 = 2.0 * np.pi * k0 / grid.L
    sgn = (1.0, -1.0, -1.0)
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
# key = value files
# ---------------------------------------------------------------------------

def read_sidecar(path) -> dict:
    """The ``key = value`` lines ``storage.write_sidecar`` writes."""
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out
