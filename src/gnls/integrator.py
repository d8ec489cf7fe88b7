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
from .grid import Field, PHYSICAL
from .spectral import to_physical

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
    """Ordered (t, Field) snapshots."""

    snapshots: list


def evolve(u0: Field, cfg: SolverConfig, on_snapshot=None) -> Trajectory:
    """March u0 to t_end, recording every ``snapshot_stride``-th slice.

    Each step is second-order Strang splitting: half a linear step, the
    exact nonlinear rotation, half a linear step.  Consecutive linear
    half-steps between snapshots are fused into full steps (identical in
    exact arithmetic, with half the transforms, which also halves the
    round-off drift).

    Without ``on_snapshot`` the returned trajectory holds every recorded
    slice.  With it, ``on_snapshot(t, field)`` is invoked for each recorded
    slice and the trajectory keeps only the latest one, so memory does not
    grow with the number of snapshots.  Non-finite or blown-up states abort
    with the step index and the last recorded snapshot attached.

    Beyond its input a run holds the linear phase table (two when steps
    are fused), the one step array that every transform and the in-place
    rotation write, one array per snapshot it hands out (the last one is
    the step array itself) and a few slab buffers: no pass makes a
    temporary of the grid.
    """
    u = to_physical(u0)
    u = Field(u.grid, u.values, rep=PHYSICAL, t=0.0)
    snapshots = [(0.0, u)]
    if on_snapshot is not None:
        on_snapshot(0.0, u)
    # bound once: n_steps is a property, read twice per step below
    n_steps = cfg.n_steps
    rotation = cfg.sign * cfg.dt
    if n_steps == 0:
        return Trajectory(snapshots=snapshots)

    # decided once per run: a split grid runs every pass as two
    # bit-identical halves on two threads (gnls._kernels); any other binds
    # the plain numpy calls, so a 1-D step makes no extra call
    split = _kernels._splits(u.values)
    fftn = _kernels._fftn if split else np.fft.fftn
    ifftn = _kernels._ifftn if split else np.fft.ifftn
    multiply = _kernels._multiply if split else np.multiply

    # the slab buffers of the rotation, the guard and the phase tables,
    # made once: no pass of the loop makes a temporary of the grid
    work = _kernels._workspace(u.values)
    peak0 = float(_kernels._guard(u.values, work))
    half_phase = _kernels._phase_table(-0.5j * cfg.dt, u.grid.xi_abs, work)
    # a full linear step joins two steps when the first records no snapshot
    fused = cfg.snapshot_stride > 1 and n_steps > 1
    full_phase = (_kernels._phase_table(-1.0j * cfg.dt, u.grid.xi_abs, work)
                  if fused else None)

    # the loop keeps numpy-convention coefficients (no unitary rescaling):
    # fftn/ifftn round-trip physical values directly, and skipping the
    # scalar multiply/divide each step removes its systematic round-off.
    # Every transform and the rotation write into the one step array.  A
    # snapshot before the last step takes a fresh array and the last one
    # takes the step array itself, so no array handed out is written again.
    coeff = np.empty(u.grid.shape, np.complex128)
    coeff = fftn(u.values, out=coeff)
    multiply(coeff, half_phase, out=coeff)
    for step in range(1, n_steps + 1):
        vals = ifftn(coeff, out=coeff)
        if cfg.linear_only:
            peak = float(_kernels._guard(vals, work))
        else:
            peak = float(_kernels.phase_rotate(vals, rotation, work))
        if not np.isfinite(peak):
            raise SimulationAbort(
                f"non-finite state at step {step} (t={step * cfg.dt:g})",
                step=step, last_good=snapshots[-1])
        if peak0 > 0 and peak > BLOWUP_FACTOR * peak0:
            raise SimulationAbort(
                f"blow-up guard tripped at step {step}: max|u| grew "
                f"{peak / peak0:.3g}x", step=step, last_good=snapshots[-1])
        record = step % cfg.snapshot_stride == 0 or step == n_steps
        coeff = fftn(vals, out=vals)
        if record:
            multiply(coeff, half_phase, out=coeff)
            last = step == n_steps
            snap = ifftn(coeff, out=coeff if last else np.empty_like(coeff))
            snap.flags.writeable = False  # owned here: Field keeps it uncopied
            u = Field(u.grid, snap, rep=PHYSICAL, t=step * cfg.dt, _check=False)
            if on_snapshot is None:
                snapshots.append((u.t, u))
            else:
                snapshots[-1] = (u.t, u)
                on_snapshot(u.t, u)
            if not last:
                multiply(coeff, half_phase, out=coeff)
        elif step < n_steps:
            multiply(coeff, full_phase, out=coeff)
    return Trajectory(snapshots=snapshots)
