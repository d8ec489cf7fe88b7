"""The four benchmark workloads.

Each workload builds its inputs from the seed in ``setup``, runs one
closed-loop pass of fixed size in ``run`` and verifies that pass's outputs in
``check``.  ``final_check`` runs once after the timed passes.  Every call
into gnls goes through a module attribute (``integrator.evolve``,
``cli.main``, ...) so that the tracer can wrap it.  README.md says why each
workload exists and which layers it exercises.
"""

from __future__ import annotations

import contextlib
import csv
import io
from pathlib import Path

import numpy as np

from gnls import audits, bookkeeper, cli, data, grid, harness, integrator, norms

#: acceptance-suite tolerances (tests/test_acceptance.py)
MASS_DRIFT_TOL = 1e-12
COLLAPSE_TOL = 1e-12
RADIUS_TOL = 0.02
SPREAD_TOL = 10.0


class Checks:
    """Counts correctness checks; each failure is described on stderr."""

    def __init__(self, log):
        self.run = 0
        self.failed = 0
        self._log = log

    def expect(self, what: str, ok: bool, detail="") -> None:
        self.run += 1
        if not ok:
            self.failed += 1
            self._log(f"check failed: {what} ({detail})")


def _amplitude(seed: int) -> float:
    """Sech amplitude in [0.95, 1.05); every other input is fixed."""
    return 1.0 + 0.1 * (np.random.default_rng(seed).random() - 0.5)


def _mass_drift(masses) -> float:
    return max(abs(m - masses[0]) for m in masses) / masses[0]


def _read_csv(path: Path) -> list:
    with path.open() as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def _read_summary(path: Path) -> dict:
    out = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def _check_collapse(checks: Checks, u, where: str) -> None:
    """A_0(u) == mass + energy, the sigma = 0 collapse of acceptance criterion 4."""
    a0 = norms.a_sigma(u, 0.0)
    me = norms.mass(u) + norms.energy(u)
    dev = abs(a0 - me) / max(me, 1.0)
    checks.expect(f"A_0 == mass + energy at {where}", dev < COLLAPSE_TOL,
                  f"rel dev {dev:.2e}")


class Workload:
    """Defaults for the layers a workload does not run, which read 0."""

    def final_check(self, state: dict, checks: Checks) -> None:
        pass

    def accuracy(self, state: dict, out) -> dict:
        return {"integrator.mass_drift_rel": 0.0, "integrator.energy_drift_rel": 0.0}

    def counts(self, out) -> dict:
        return {"audits.accepted_ratio": 0.0, "bookkeeper.trace_entries_per_call": 0.0}


class EvolveD3N128(Workload):
    """Untouched hot loop: evolve on a 128^3 grid, no snapshot callback."""

    name = "evolve-d3-n128"
    setup_repeats = 3
    steps = 1
    dt = 0.01

    def setup(self, seed: int, workdir: Path) -> dict:
        g = grid.FourierGrid(3, 128, 20.0)
        u0 = data.periodized_sech(g, A=_amplitude(seed), a=1.0)
        g.xi_abs
        cfg = integrator.SolverConfig(dt=self.dt, t_end=self.steps * self.dt,
                                      snapshot_stride=self.steps)
        return {"u0": u0, "cfg": cfg}

    def run(self, state: dict):
        return integrator.evolve(state["u0"], state["cfg"])

    def check(self, state: dict, traj, checks: Checks) -> None:
        if "mass0" not in state:
            state["mass0"] = norms.mass(state["u0"])
        drift = _mass_drift([state["mass0"], norms.mass(traj.snapshots[-1][1])])
        checks.expect("relative mass drift", drift < MASS_DRIFT_TOL,
                      f"{drift:.2e} after {self.steps} steps")

    def accuracy(self, state: dict, traj) -> dict:
        u0, u1 = state["u0"], traj.snapshots[-1][1]
        e0 = norms.energy(u0)
        return {"integrator.mass_drift_rel":
                _mass_drift([norms.mass(u0), norms.mass(u1)]),
                "integrator.energy_drift_rel": abs(norms.energy(u1) - e0) / e0}


class _CliWorkload(Workload):
    """A ``gnls`` subcommand run through ``gnls.cli.main`` on a generated
    config; its outputs are read back from the files it writes."""

    command = ""
    csv_name = ""
    config = ""

    def setup(self, seed: int, workdir: Path) -> dict:
        path = workdir / f"{self.command}.cfg"
        path.write_text(self.config.format(A=_amplitude(seed)))
        cfg = harness.load_config(path, kind=self.command)
        u0 = cfg.initial_data()
        u0.grid.xi_abs
        return {"config": path, "out": workdir / self.command, "cfg": cfg, "u0": u0}

    def run(self, state: dict) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main([self.command, "--config", str(state["config"]),
                             "--out", str(state["out"])])

    def rows(self, state: dict) -> list:
        return _read_csv(state["out"] / self.csv_name)

    def check(self, state: dict, rc: int, checks: Checks) -> None:
        checks.expect(f"gnls {self.command} exit code", rc == 0, f"rc {rc}")
        rows = self.rows(state)
        checks.expect("snapshot rows", len(rows) == self.snapshots,
                      f"{len(rows)} rows, expected {self.snapshots}")
        drift = _mass_drift([float(r["mass"]) for r in rows])
        checks.expect("relative mass drift", drift < MASS_DRIFT_TOL, f"{drift:.2e}")

    def final_check(self, state: dict, checks: Checks) -> None:
        """A_0 collapse on snapshots sampled from a short evolve of the same data."""
        cfg = state["cfg"]
        solver = integrator.SolverConfig(dt=cfg.dt, t_end=self.sample_steps * cfg.dt,
                                         snapshot_stride=self.sample_stride)
        for t, u in integrator.evolve(state["u0"], solver).snapshots:
            _check_collapse(checks, u, f"t={t:g}")

    def accuracy(self, state: dict, rc: int) -> dict:
        rows = self.rows(state)
        energies = [float(r["energy"]) for r in rows]
        return {"integrator.mass_drift_rel": _mass_drift([float(r["mass"]) for r in rows]),
                "integrator.energy_drift_rel":
                max(abs(e - energies[0]) for e in energies) / energies[0]}


class RadiusD1N4096(_CliWorkload):
    """The paper's headline experiment: gnls radius, sigma-sweep included."""

    name = "radius-d1-n4096"
    setup_repeats = 11
    command = "radius"
    csv_name = "radius.csv"
    steps = 1000
    snapshots = steps // 50 + 1
    sample_steps, sample_stride = 500, 100
    # no [fit] C, so the almost-conservation sweep runs inside every pass
    config = """
[grid]
d = 1
N = 4096
L = 40.0
[data]
kind = periodized_sech
A = {A!r}
a = 1.0
[solver]
dt = 0.01
t_end = 10.0
snapshot_stride = 50
[fit]
sigma0 = 0.5
"""

    def check(self, state: dict, rc: int, checks: Checks) -> None:
        super().check(state, rc, checks)
        rows = self.rows(state)
        if rows:
            sig = float(rows[0]["sigma_hat"])
            checks.expect("sigma_hat(0) within 2% of pi/2",
                          abs(sig - np.pi / 2) <= RADIUS_TOL * np.pi / 2, f"{sig:.4f}")
        summary = _read_summary(state["out"] / "radius.summary")
        failures, c_hat = int(summary["failures"]), float(summary["c_hat"])
        checks.expect("radius floor failures == 0 and c_hat > 0",
                      failures == 0 and c_hat > 0, f"{failures}, {c_hat:g}")


class SimulateD3N64(_CliWorkload):
    """gnls simulate with diagnostics on every step of a 64^3 grid."""

    name = "simulate-d3-n64"
    setup_repeats = 9
    command = "simulate"
    csv_name = "norms.csv"
    steps = 1
    snapshots = steps + 1
    sample_steps, sample_stride = 1, 1
    config = """
[grid]
d = 3
N = 64
L = 20.0
[data]
kind = periodized_sech
A = {A!r}
a = 1.0
[solver]
dt = 0.01
t_end = 0.01
snapshot_stride = 1
"""


class AuditBench(Workload):
    """The verification bench: multiplier, trilinear and induction audits."""

    name = "audit-bench"
    setup_repeats = 11
    n_triples = 1_000_000
    members = 20
    draws = 200
    M, T_win, b, sigma = 64, 1.0, 0.55, 0.1

    def setup(self, seed: int, workdir: Path) -> dict:
        rng = np.random.default_rng(seed)
        params = [bookkeeper.BookkeeperParams(
            sigma0=1.0, A0=rng.uniform(0.01, 50.0), c0=rng.uniform(0.01, 10.0),
            C=rng.uniform(0.01, 10.0), eps=rng.uniform(0.0, 0.99),
            T=rng.uniform(1e-3, 100.0)) for _ in range(self.draws)]
        g = grid.FourierGrid(1, 64, 2 * np.pi)
        g.xi_abs
        return {"seed": seed, "grid": g, "params": params}

    def run(self, state: dict) -> dict:
        rng = np.random.default_rng(state["seed"])
        multiplier = [audits.audit_multiplier_inequality(sigma, self.n_triples, d, rng)
                      for d, sigma in ((1, 1e-3), (2, 1e-1), (3, 1.0))]
        trilinear = [audits.audit_trilinear(
            kind, state["grid"], self.M, self.T_win, self.members,
            seed=10 * state["seed"] + kind, b=self.b, sigma=self.sigma, threads=1)
            for kind in (1, 2, 3)]
        induction = [bookkeeper.run_induction(p) for p in state["params"]]
        return {"multiplier": multiplier, "trilinear": trilinear,
                "induction": induction}

    def check(self, state: dict, out: dict, checks: Checks) -> None:
        violations = sum(r.violations for r in out["multiplier"])
        checks.expect("multiplier inequality violations == 0", violations == 0,
                      f"{violations}")
        for rep in out["trilinear"]:
            spread = rep.max_ratio / rep.median_ratio
            checks.expect(f"{rep.kind} max/median < {SPREAD_TOL:g}",
                          bool(np.all(np.isfinite(rep.members))) and spread < SPREAD_TOL,
                          f"{spread:.2f}")
        failed = sum(not tr.all_ok for tr in out["induction"])
        checks.expect("every induction draw closes", failed == 0, f"{failed} failed")

    def counts(self, out: dict) -> dict:
        drawn = len(out["trilinear"]) * self.members
        accepted = drawn - sum(r.rejected for r in out["trilinear"])
        entries = [len(tr.ks) for tr in out["induction"]]
        return {"audits.accepted_ratio": accepted / drawn,
                "bookkeeper.trace_entries_per_call": sum(entries) / len(entries)}


WORKLOADS = {w.name: w for w in (EvolveD3N128(), RadiusD1N4096(), SimulateD3N64(),
                                 AuditBench())}
