"""Strang-split spectral time stepping for the cubic Schroedinger equation.

    i u_t + Lap u = nu |u|^2 u        (nu = +1 defocusing, -1 focusing)

Both substeps are exact and L2-unitary: the linear flow is a diagonal phase
in spectral space, and the cubic ODE i u_t = nu |u|^2 u rotates each sample
by exp(-i nu |u|^2 dt) since |u| is pointwise conserved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import SimulationAbort
from .grid import Field, PHYSICAL, SPECTRAL
from .spectral import forward_transform, inverse_transform, to_physical, to_spectral

#: focusing-mode abort threshold on growth of max|u|
BLOWUP_FACTOR = 1e6


@dataclass(frozen=True)
class SolverConfig:
    dt: float
    t_end: float
    snapshot_stride: int = 1
    linear_only: bool = False
    defocusing: bool = True

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.t_end < 0:
            raise ValueError(f"t_end must be >= 0, got {self.t_end}")
        if self.snapshot_stride < 1:
            raise ValueError(f"snapshot_stride must be >= 1, got {self.snapshot_stride}")
        if abs(self.n_steps * self.dt - self.t_end) > 1e-9 * max(self.t_end, self.dt):
            raise ValueError(
                f"t_end = {self.t_end} is not a whole number of steps of "
                f"dt = {self.dt}; the stepper would stop at "
                f"t = {self.n_steps * self.dt:g}")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))

    @property
    def sign(self) -> float:
        return 1.0 if self.defocusing else -1.0


@dataclass
class Trajectory:
    """Ordered (t, Field) snapshots and the solver config that made them."""

    snapshots: list
    config: SolverConfig

    @property
    def times(self) -> np.ndarray:
        return np.array([t for t, _ in self.snapshots])


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
    return Field(u.grid, _kernels.phase_rotate(u.values, sign * dt),
                 rep=PHYSICAL, t=u.t)


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


def evolve(u0: Field, cfg: SolverConfig, on_snapshot=None) -> Trajectory:
    """March u0 to t_end, recording every ``snapshot_stride``-th slice.

    Consecutive linear half-steps between snapshots are fused into full
    steps (identical in exact arithmetic to repeated :func:`strang_step`,
    with half the transforms, which also halves the round-off drift).

    ``on_snapshot(t, field)`` is invoked for each recorded slice, letting
    the harness compute norms without holding every field in memory.
    Non-finite or blown-up states abort with the step index and the last
    recorded snapshot attached.
    """
    u = to_physical(u0)
    u = Field(u.grid, u.values, rep=PHYSICAL, t=0.0)
    peak0 = float(np.abs(u.values).max())
    snapshots = [(0.0, u)]
    if on_snapshot is not None:
        on_snapshot(0.0, u)
    if cfg.n_steps == 0:
        return Trajectory(snapshots=snapshots, config=cfg)

    xi2 = u.grid.xi_abs ** 2
    half_phase = np.exp(-0.5j * cfg.dt * xi2)
    full_phase = np.exp(-1.0j * cfg.dt * xi2)

    # the loop keeps numpy-convention coefficients (no unitary rescaling):
    # fftn/ifftn round-trip physical values directly, and skipping the
    # scalar multiply/divide each step removes its systematic round-off
    coeff = np.fft.fftn(u.values)
    coeff *= half_phase
    for step in range(1, cfg.n_steps + 1):
        vals = np.fft.ifftn(coeff)
        if not cfg.linear_only:
            vals = _kernels.phase_rotate(vals, cfg.sign * cfg.dt)
        peak = float(np.abs(vals).max())
        if not np.isfinite(peak):
            raise SimulationAbort(
                f"non-finite state at step {step} (t={step * cfg.dt:g})",
                step=step, last_good=snapshots[-1])
        if peak0 > 0 and peak > BLOWUP_FACTOR * peak0:
            raise SimulationAbort(
                f"blow-up guard tripped at step {step}: max|u| grew "
                f"{peak / peak0:.3g}x", step=step, last_good=snapshots[-1])
        record = step % cfg.snapshot_stride == 0 or step == cfg.n_steps
        coeff = np.fft.fftn(vals)
        if record:
            coeff *= half_phase
            u = Field(u.grid, np.fft.ifftn(coeff), rep=PHYSICAL,
                      t=step * cfg.dt, _check=False)
            snapshots.append((u.t, u))
            if on_snapshot is not None:
                on_snapshot(u.t, u)
            if step < cfg.n_steps:
                coeff *= half_phase
        elif step < cfg.n_steps:
            coeff *= full_phase
    return Trajectory(snapshots=snapshots, config=cfg)
