"""Named experiments: simulate, radius tracking, conservation sweep, audits.

Everything here is deterministic given (config, seed): output CSVs embed
the config echo and artifact version, and every random draw descends from
the recorded seed.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from . import __version__
from .audits import (audit_f_estimate, audit_gagliardo_nirenberg,
                     audit_multiplier_inequality, audit_trilinear, f_of_v,
                     sigma_halving_ratio)
from .bookkeeper import (BookkeeperParams, local_delta, radius_floor,
                         run_induction, sigma_for_T)
from .data import KINDS, make_initial_data
from .errors import EmptySpectrumError, MultiplierOverflowError
from .grid import Field, FourierGrid
from .integrator import SolverConfig, evolve
from .norms import (GevreyParams, a_sigma, energy, gevrey_norm, l4_gevrey,
                    mass, norm_report, radius_estimate)
from .storage import write_csv, write_field, write_sidecar

NORM_COLUMNS = ("t", "sigma", "mass", "energy", "gevrey_s1_sq", "l4_gevrey",
                "a_sigma", "sigma_hat", "entire_flag", "floor_flag")
AUDIT_COLUMNS = ("kind", "seed", "member", "lhs", "rhs", "ratio")


class ConfigError(ValueError):
    """A config file failed validation; message names the offending field."""


@dataclass
class ExperimentConfig:
    kind: str = "simulate"
    d: int = 1
    N: int = 256
    L: float = 40.0
    data_kind: str = "gaussian"
    data_params: dict = dc_field(default_factory=dict)
    seed: int = 0
    dt: float = 1e-3
    t_end: float = 1.0
    snapshot_stride: int = 100
    linear_only: bool = False
    sigma_grid: tuple = ()
    sigma0: float = 0.1
    c0: float = 1.0
    C: float = None           # fitted or user-provided almost-conservation constant
    eps: float = 0.05
    A0: float = None
    T: float = 1.0
    b: float = 0.55
    audit_sigma: float = 0.1
    n_members: int = 200
    n_triples: int = 1_000_000
    M: int = 64
    T_win: float = 1.0
    out_dir: Path = None
    threads: int = 1
    svg: bool = False
    save_fields: bool = False

    def grid(self) -> FourierGrid:
        return FourierGrid(self.d, self.N, self.L)

    def solver(self) -> SolverConfig:
        return SolverConfig(dt=self.dt, t_end=self.t_end,
                            snapshot_stride=self.snapshot_stride,
                            linear_only=self.linear_only)

    def initial_data(self) -> Field:
        return make_initial_data(self.grid(), self.data_kind,
                                 self.data_params, seed=self.seed)

    def echo(self) -> dict:
        out = {"version": __version__, "experiment": self.kind,
               "d": self.d, "N": self.N, "L": self.L,
               "data_kind": self.data_kind,
               "data_params": ";".join(f"{k}={v}" for k, v in
                                       sorted(self.data_params.items())),
               "seed": self.seed, "dt": self.dt, "t_end": self.t_end,
               "snapshot_stride": self.snapshot_stride,
               "sigma0": self.sigma0, "c0": self.c0, "eps": self.eps,
               "b": self.b}
        if self.C is not None:
            out["C"] = self.C
        if self.sigma_grid:
            out["sigma_grid"] = ";".join(f"{s:g}" for s in self.sigma_grid)
        return out


def _get(section, key, cast, default=None, name=""):
    if key not in section:
        if default is not None:
            return default
        raise ConfigError(f"missing required field [{name}] {key}")
    raw = section[key]
    try:
        if cast is bool:
            return raw.strip().lower() in ("1", "true", "yes", "on")
        return cast(raw)
    except ValueError as e:
        raise ConfigError(f"bad value for [{name}] {key}: {raw!r}") from e


def load_config(path, kind: str = None) -> ExperimentConfig:
    """Parse the key = value / [section] config format."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    parser.optionxform = str  # data params like A vs a are case-sensitive
    try:
        read = parser.read(path)
    except configparser.Error as e:
        raise ConfigError(f"malformed config: {e}") from e
    if not read:
        raise ConfigError(f"config file not found: {path}")
    cfg = ExperimentConfig()
    if kind:
        cfg.kind = kind
    if parser.has_section("grid"):
        g = parser["grid"]
        cfg.d = _get(g, "d", int, cfg.d, "grid")
        cfg.N = _get(g, "N", int, cfg.N, "grid")
        cfg.L = _get(g, "L", float, cfg.L, "grid")
    if parser.has_section("data"):
        dsec = parser["data"]
        cfg.data_kind = _get(dsec, "kind", str, cfg.data_kind, "data")
        if cfg.data_kind not in KINDS:
            raise ConfigError(
                f"unknown value for [data] kind: {cfg.data_kind!r}; "
                f"expected one of {KINDS}")
        cfg.seed = _get(dsec, "seed", int, cfg.seed, "data")
        for key in dsec:
            if key in ("kind", "seed"):
                continue
            cfg.data_params[key] = _get(dsec, key, float, name="data")
    if parser.has_section("solver"):
        s = parser["solver"]
        cfg.dt = _get(s, "dt", float, cfg.dt, "solver")
        cfg.t_end = _get(s, "t_end", float, cfg.t_end, "solver")
        cfg.snapshot_stride = _get(s, "snapshot_stride", int,
                                   cfg.snapshot_stride, "solver")
        cfg.linear_only = _get(s, "linear_only", bool, cfg.linear_only, "solver")
    if parser.has_section("sweep"):
        s = parser["sweep"]
        lo = _get(s, "sigma_min", float, 1e-3, "sweep")
        hi = _get(s, "sigma_max", float, 1e-1, "sweep")
        n = _get(s, "n_sigma", int, 8, "sweep")
        spacing = _get(s, "spacing", str, "log", "sweep")
        if spacing == "log":
            cfg.sigma_grid = tuple(np.geomspace(lo, hi, n))
        elif spacing == "linear":
            cfg.sigma_grid = tuple(np.linspace(lo, hi, n))
        else:
            raise ConfigError(f"bad value for [sweep] spacing: {spacing!r}")
    if parser.has_section("fit"):
        s = parser["fit"]
        cfg.sigma0 = _get(s, "sigma0", float, cfg.sigma0, "fit")
        cfg.c0 = _get(s, "c0", float, cfg.c0, "fit")
        cfg.eps = _get(s, "eps", float, cfg.eps, "fit")
        if "C" in s:
            cfg.C = _get(s, "C", float, name="fit")
        if "T" in s:
            cfg.T = _get(s, "T", float, name="fit")
        if "A0" in s:
            cfg.A0 = _get(s, "A0", float, name="fit")
    if parser.has_section("audit"):
        s = parser["audit"]
        cfg.b = _get(s, "b", float, cfg.b, "audit")
        cfg.audit_sigma = _get(s, "sigma", float, cfg.audit_sigma, "audit")
        cfg.n_members = _get(s, "members", int, cfg.n_members, "audit")
        cfg.n_triples = _get(s, "triples", int, cfg.n_triples, "audit")
        cfg.M = _get(s, "M", int, cfg.M, "audit")
        cfg.T_win = _get(s, "T_win", float, cfg.T_win, "audit")
    if cfg.sigma_grid and any(s < 0 for s in cfg.sigma_grid):
        raise ConfigError("sigma grid entries must be >= 0")
    if cfg.sigma_grid and list(cfg.sigma_grid) != sorted(cfg.sigma_grid):
        raise ConfigError("sigma grid must be strictly increasing")
    return cfg


@dataclass
class RunRecord:
    config: dict
    rows: list
    fits: dict = dc_field(default_factory=dict)
    violations: int = 0


def _write_outputs(cfg: ExperimentConfig, record: RunRecord, stem: str,
                   columns, summary: dict, summary_name: str = None):
    """The one output path of every run: ``<stem>.csv`` with the config echo
    as its header, plus a ``key = value`` file (``<stem>.summary`` unless
    ``summary_name`` is given).  Returns the output directory, or None when
    the config sets none and nothing is written.
    """
    if cfg.out_dir is None:
        return None
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / f"{stem}.csv", columns, record.rows, header_meta=record.config)
    write_sidecar(out / (summary_name or f"{stem}.summary"), summary)
    return out


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _norm_row(t, u, sigma):
    rep = norm_report(u, sigma, t=t)
    try:
        rad = radius_estimate(u)
        sig_hat, ent, flo = rad.sigma_hat, rad.entire_flag, rad.floor_flag
    except EmptySpectrumError:
        sig_hat, ent, flo = 0.0, False, True
    return [t, sigma, rep.mass, rep.energy, rep.gevrey_s1_sq,
            rep.l4_gevrey, rep.a_sigma, sig_hat, ent, flo]


def run_simulate(cfg: ExperimentConfig) -> RunRecord:
    """Evolve the configured data and record NormReport rows per snapshot."""
    u0 = cfg.initial_data()
    rows = []
    sigma = cfg.sigma0

    def on_snap(t, u):
        rows.append(_norm_row(t, u, sigma))
        if cfg.save_fields and cfg.out_dir is not None:
            write_field(Path(cfg.out_dir) / f"snapshot_{len(rows) - 1:05d}.gnls", u)

    traj = evolve(u0, cfg.solver(), on_snapshot=on_snap)
    m0, e0 = rows[0][2], rows[0][3]
    mass_drift = max(abs(r[2] - m0) for r in rows) / m0 if m0 > 0 else 0.0
    energy_drift = max(abs(r[3] - e0) for r in rows)
    record = RunRecord(config=cfg.echo(), rows=rows,
                       fits={"mass_drift_rel": mass_drift,
                             "energy_drift_abs": energy_drift})
    sidecar = {"d": cfg.d, "N": cfg.N, "L": cfg.L, "dt": cfg.dt,
               "t_end": cfg.t_end, "seed": cfg.seed,
               "data_kind": cfg.data_kind,
               "data_params": record.config["data_params"]}
    _write_outputs(cfg, record, "norms", NORM_COLUMNS, sidecar, "run.meta")
    return record


# ---------------------------------------------------------------------------
# radius tracking
# ---------------------------------------------------------------------------

def fit_conservation_constant(cfg: ExperimentConfig) -> dict:
    """Almost-conservation sweep: growth D(sigma), slope fit, empirical C.

    Evolves once over [0, delta] (delta from the measured data functional)
    and measures D(sigma) = sup_t A_sigma(t) - A_sigma(0) per grid sigma.
    The sigma = 0 growth is the scheme's own drift in mass + energy and is
    reported as the noise floor.
    """
    sigma_grid = list(cfg.sigma_grid) or list(np.geomspace(1e-3, 1e-1, 8))
    u0 = cfg.initial_data()
    sigma_top = max(sigma_grid)
    A_top = a_sigma(u0, sigma_top)
    delta = local_delta(A_top, cfg.c0, cfg.eps)
    n_steps = max(int(np.ceil(delta / cfg.dt)), 10)
    dt = delta / n_steps
    stride = max(n_steps // 32, 1)
    solver = SolverConfig(dt=dt, t_end=delta, snapshot_stride=stride)

    sigmas = [0.0] + sigma_grid
    base = {}
    sup = {s: -np.inf for s in sigmas}
    dropped = []

    def on_snap(t, u):
        for s in list(sigmas):
            if s in dropped:
                continue
            try:
                val = a_sigma(u, s)
            except MultiplierOverflowError:
                dropped.append(s)
                continue
            if t == 0.0:
                base[s] = val
            sup[s] = max(sup[s], val)

    evolve(u0, solver, on_snapshot=on_snap)
    growth = {s: max(sup[s] - base[s], 0.0) for s in sigmas if s not in dropped}
    noise_floor = growth.get(0.0, 0.0)

    usable = [(s, growth[s]) for s in sigma_grid
              if s not in dropped and growth[s] > noise_floor]
    # slope over the small-sigma half of the grid, after floor subtraction
    half = [sv for sv in usable if sv[0] <= np.median(sigma_grid)]
    slope = np.nan
    if len(half) >= 2:
        xs = np.log([s for s, _ in half])
        ys = np.log([max(g - noise_floor, 1e-300) for _, g in half])
        slope = float(np.polynomial.polynomial.polyfit(xs, ys, 1)[1])
    c_values = [g / (s * base[s] ** 2 * (1.0 + base[s]))
                for s, g in usable if s > 0]
    C_fit = float(np.median(c_values)) if c_values else np.nan
    return {"delta": delta, "A0": A_top, "noise_floor": noise_floor,
            "growth": growth, "slope": slope, "C_fit": C_fit,
            "dropped": dropped, "sigma_grid": sigma_grid}


def run_almost_conservation_sweep(cfg: ExperimentConfig) -> RunRecord:
    fit = fit_conservation_constant(cfg)
    rows = [[s, g, max(g - fit["noise_floor"], 0.0)]
            for s, g in sorted(fit["growth"].items())]
    record = RunRecord(config=cfg.echo(), rows=rows,
                       fits={k: fit[k] for k in
                             ("delta", "A0", "noise_floor", "slope", "C_fit")})
    _write_outputs(cfg, record, "sweep", ("sigma", "growth", "growth_above_floor"),
                   {**record.config, **record.fits,
                    "dropped": ";".join(f"{s:g}" for s in fit["dropped"])})
    return record


def _measured_a_sigma(u: Field, sigma: float) -> float:
    """A_sigma of the data with the spectral round-off floor masked.

    Coefficients below 1e-14 of the peak are numerical noise; under
    e^{sigma|xi|} they would otherwise dominate the measurement.
    """
    from .spectral import to_spectral

    uh = to_spectral(u)
    mag = np.abs(uh.values)
    clean = np.where(mag > 1e-14 * mag.max(), uh.values, 0.0)
    return a_sigma(Field(uh.grid, clean, rep="spectral", t=uh.t), sigma)


def run_radius_tracking(cfg: ExperimentConfig) -> RunRecord:
    """Track sigma_hat(t) against the iteration floor sigma_floor(t).

    The floor uses the measured A_{sigma0}(0) and an empirically fitted
    almost-conservation constant (config [fit] C overrides the internal
    sweep).  The tail constant c_hat is the median of t * sigma_hat(t) over
    the last third of snapshots.
    """
    u0 = cfg.initial_data()
    rad0 = radius_estimate(u0)
    # Any sigma0 below the data's radius is admissible for the floor; keep
    # it moderate so the A_{sigma0}(0) measurement is not dominated by
    # round-off modes amplified by e^{sigma0 |xi|}.
    if not (rad0.entire_flag or rad0.floor_flag):
        sigma0 = min(cfg.sigma0, rad0.sigma_hat)
    else:
        sigma0 = cfg.sigma0
    if cfg.C is not None:
        C_fit = cfg.C
    else:
        C_fit = fit_conservation_constant(cfg)["C_fit"]
        if not np.isfinite(C_fit) or C_fit <= 0:
            C_fit = 1.0
    A0 = cfg.A0 if cfg.A0 is not None else _measured_a_sigma(u0, sigma0)
    params = BookkeeperParams(sigma0=sigma0, A0=A0, c0=cfg.c0, C=C_fit,
                              eps=cfg.eps, T=max(cfg.t_end, cfg.dt))

    rows = []

    def on_snap(t, u):
        row = _norm_row(t, u, sigma0)
        floor = radius_floor(t, params)
        sig_hat, ent = row[7], row[8]
        verdict = "entire" if ent else ("ok" if sig_hat >= floor else "fail")
        rows.append(row + [floor, verdict])

    evolve(u0, cfg.solver(), on_snapshot=on_snap)
    tail = [r for r in rows[len(rows) - max(len(rows) // 3, 1):]
            if r[9] is False and not r[8]]
    c_hat = float(np.median([r[0] * r[7] for r in tail])) if tail else 0.0
    failures = sum(1 for r in rows if r[-1] == "fail")
    record = RunRecord(
        config=cfg.echo(), rows=rows,
        fits={"sigma0_hat": sigma0, "C_fit": C_fit, "A0": A0,
              "c_hat": c_hat, "c1": sigma_for_T(params)[1],
              "failures": failures},
        violations=failures)
    out = _write_outputs(cfg, record, "radius",
                         NORM_COLUMNS + ("sigma_floor", "verdict"),
                         {**record.config, **record.fits})
    if out is not None and cfg.svg:
        _write_radius_svg(out / "radius.svg", rows)
    return record


def _write_radius_svg(path, rows, width=640, height=400) -> None:
    """Line plot of sigma_hat(t) and sigma_floor(t), no plotting deps."""
    ts = [r[0] for r in rows]
    hats = [r[7] for r in rows]
    floors = [r[10] for r in rows]
    t_lo, t_hi = min(ts), max(ts) or 1.0
    y_hi = max(max(hats), max(floors)) or 1.0
    pad = 40

    def px(t):
        return pad + (width - 2 * pad) * (t - t_lo) / max(t_hi - t_lo, 1e-30)

    def py(y):
        return height - pad - (height - 2 * pad) * y / y_hi

    def poly(ys, color):
        pts = " ".join(f"{px(t):.1f},{py(y):.1f}" for t, y in zip(ts, ys))
        return (f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                f'points="{pts}"/>')

    svg = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
           f'height="{height}">',
           f'<rect width="{width}" height="{height}" fill="white"/>',
           f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
           f'y2="{height - pad}" stroke="black"/>',
           f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" '
           f'stroke="black"/>',
           poly(hats, "#1f77b4"), poly(floors, "#d62728"),
           f'<text x="{pad}" y="{pad - 10}" font-size="12">sigma_hat(t) '
           f'(blue) vs sigma_floor(t) (red)</text>', '</svg>']
    Path(path).write_text("\n".join(svg) + "\n")


# ---------------------------------------------------------------------------
# audits and bookkeeper drivers
# ---------------------------------------------------------------------------

def run_audit_multiplier(cfg: ExperimentConfig) -> RunRecord:
    rng = np.random.default_rng(cfg.seed)
    rows = []
    violations = 0
    max_ratio = 0.0
    for d in (1, 2, 3):
        for sigma in (1e-3, 1e-1, 1.0):
            rep = audit_multiplier_inequality(sigma, cfg.n_triples, d, rng)
            rows.append([f"multiplier(d={d},sigma={sigma:g})", rep.seed, 0,
                         rep.lhs, rep.rhs, rep.ratio])
            violations += rep.violations
            max_ratio = max(max_ratio, rep.max_ratio)
    record = RunRecord(config=cfg.echo(), rows=rows,
                       fits={"max_ratio": max_ratio, "violations": violations},
                       violations=violations)
    _write_audit(cfg, record, "audit_multiplier")
    return record


def run_audit_f(cfg: ExperimentConfig) -> RunRecord:
    from .data import random_bandlimited

    grid = cfg.grid()
    sigma = cfg.audit_sigma
    rows = []
    ensemble = [random_bandlimited(grid, seed=cfg.seed + i)
                for i in range(min(cfg.n_members, 100))]
    rep = audit_f_estimate(ensemble[0], sigma, ensemble=ensemble)
    for i, r in enumerate(rep.members):
        rows.append(["f-estimate", cfg.seed, i, r, 1.0, r])
    halving = sigma_halving_ratio(ensemble[0], sigma)
    record = RunRecord(config=cfg.echo(), rows=rows,
                       fits={"max_ratio": rep.max_ratio,
                             "median_ratio": rep.median_ratio,
                             "halving_ratio": halving})
    _write_audit(cfg, record, "audit_f")
    return record


def run_audit_trilinear(cfg: ExperimentConfig, kinds=(1, 2, 3)) -> RunRecord:
    grid = cfg.grid()
    rows = []
    fits = {}
    for kind in kinds:
        rep = audit_trilinear(kind, grid, cfg.M, cfg.T_win, cfg.n_members,
                              seed=cfg.seed + kind, b=cfg.b,
                              sigma=cfg.audit_sigma, threads=cfg.threads)
        for i, r in enumerate(rep.members):
            rows.append([rep.kind, rep.seed, i, r, 1.0, r])
        fits[f"kind{kind}_max"] = rep.max_ratio
        fits[f"kind{kind}_median"] = rep.median_ratio
        fits[f"kind{kind}_rejected"] = rep.rejected
    record = RunRecord(config=cfg.echo(), rows=rows, fits=fits)
    _write_audit(cfg, record, "audit_trilinear")
    return record


def run_audit_gn(cfg: ExperimentConfig) -> RunRecord:
    u0 = cfg.initial_data()
    rep = audit_gagliardo_nirenberg(u0)
    rows = [[rep.kind, cfg.seed, 0, rep.lhs, rep.rhs, rep.ratio]]
    record = RunRecord(config=cfg.echo(), rows=rows,
                       fits={"ratio": rep.ratio})
    _write_audit(cfg, record, "audit_gn")
    return record


def _write_audit(cfg: ExperimentConfig, record: RunRecord, stem: str) -> None:
    _write_outputs(cfg, record, stem, AUDIT_COLUMNS,
                   {**record.config, **record.fits,
                    "violations": record.violations})


def run_bookkeeper(cfg: ExperimentConfig) -> RunRecord:
    A0 = cfg.A0 if cfg.A0 is not None else 1.0
    params = BookkeeperParams(sigma0=cfg.sigma0, A0=A0, c0=cfg.c0,
                              C=cfg.C if cfg.C is not None else 1.0,
                              eps=cfg.eps, T=cfg.T)
    trace = run_induction(params)
    rows = [[k, b, ok] for k, b, ok in
            zip(trace.ks, trace.bounds, trace.ok)]
    record = RunRecord(
        config=cfg.echo(), rows=rows,
        fits={"delta": trace.delta, "n": trace.n, "sigma": trace.sigma,
              "c1": trace.c1},
        violations=0 if trace.all_ok else trace.first_failure)
    _write_outputs(cfg, record, "bookkeeper", ("k", "bound_k", "ok_k"),
                   {**record.config, **record.fits})
    return record
