"""Named experiments: simulate, radius tracking, conservation sweep, audits.

Everything here is deterministic given (config, seed): output CSVs embed
the config echo and artifact version, and every random draw descends from
the recorded seed.
"""

from __future__ import annotations

import configparser
from collections import namedtuple
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from . import __version__
from .audits import (audit_f_estimate, audit_gagliardo_nirenberg,
                     audit_multiplier_inequality, audit_trilinear,
                     sigma_halving_ratio)
from .bookkeeper import (BookkeeperParams, local_delta, radius_floor,
                         run_induction, sigma_for_T)
from .data import KINDS, make_initial_data, random_bandlimited
from .errors import FitError, MultiplierOverflowError, SimulationAbort
from .grid import Field, FourierGrid
from .integrator import SolverConfig, evolve
from .norms import (a_sigma, norm_report, NormReport, radius_estimate,
                    resolved_spectrum)
from .storage import write_csv, write_field, write_sidecar


#: one row type per CSV; its fields are the CSV's column line
RadiusRow = namedtuple("RadiusRow", NormReport._fields + ("sigma_floor", "verdict"))
SweepRow = namedtuple("SweepRow", "sigma growth growth_above_floor")
AuditRow = namedtuple("AuditRow", "kind seed member lhs rhs ratio")
BookkeeperRow = namedtuple("BookkeeperRow", "k bound_k ok_k")


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
    defocusing: bool = True
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
    svg: bool = False

    def grid(self) -> FourierGrid:
        return FourierGrid(self.d, self.N, self.L)

    def solver(self) -> SolverConfig:
        return SolverConfig(dt=self.dt, t_end=self.t_end,
                            snapshot_stride=self.snapshot_stride,
                            linear_only=self.linear_only,
                            defocusing=self.defocusing)

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
        if not self.defocusing:  # the default run's echo stays as it was
            out["defocusing"] = False
        if self.C is not None:
            out["C"] = self.C
        if self.A0 is not None:
            out["A0"] = self.A0
        if self.kind == "bookkeeper":  # the one run that reads T
            out["T"] = self.T
        if self.sigma_grid:
            out["sigma_grid"] = ";".join(f"{s:g}" for s in self.sigma_grid)
        return out


def finite_float(raw: str) -> float:
    """The cast of every float key and flag: ``inf``, ``nan`` and a literal
    that overflows are bad values, not numbers a run could start from."""
    value = float(raw)
    if not np.isfinite(value):
        raise ValueError(raw)
    return value


def _boolean(raw: str) -> bool:
    """configparser's boolean states only; any other word is a bad value."""
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
    except KeyError:
        raise ValueError(raw) from None


def _data_kind(raw: str) -> str:
    if raw not in KINDS:
        raise ConfigError(f"unknown value for [data] kind: {raw!r}; "
                          f"expected one of {KINDS}")
    return raw


def _spacing(raw: str):
    try:
        return {"log": np.geomspace, "linear": np.linspace}[raw]
    except KeyError:
        raise ValueError(raw) from None


#: section -> {key: (field, cast)}: the keys each section accepts, the
#: ExperimentConfig field each sets and how its value parses.  [data] takes,
#: besides these, numeric profile parameters of any name; the [sweep] keys
#: set no field but build ``sigma_grid``, from these defaults.
CONFIG_KEYS = {
    "grid": {"d": ("d", int), "N": ("N", int), "L": ("L", finite_float)},
    "data": {"kind": ("data_kind", _data_kind), "seed": ("seed", int)},
    "solver": {"dt": ("dt", finite_float), "t_end": ("t_end", finite_float),
               "snapshot_stride": ("snapshot_stride", int),
               "linear_only": ("linear_only", _boolean),
               "defocusing": ("defocusing", _boolean)},
    "sweep": {"sigma_min": ("sigma_min", finite_float),
              "sigma_max": ("sigma_max", finite_float),
              "n_sigma": ("n_sigma", int), "spacing": ("spacing", _spacing)},
    "fit": {name: (name, finite_float)
            for name in ("sigma0", "c0", "eps", "C", "T", "A0")},
    "audit": {"b": ("b", finite_float), "sigma": ("audit_sigma", finite_float),
              "members": ("n_members", int), "triples": ("n_triples", int),
              "M": ("M", int), "T_win": ("T_win", finite_float)},
}
SWEEP_DEFAULTS = {"sigma_min": 1e-3, "sigma_max": 1e-1, "n_sigma": 8,
                  "spacing": np.geomspace}


def _sigma_grid(sweep: dict) -> tuple:
    """The sigma grid of the [sweep] keys ``sweep`` over SWEEP_DEFAULTS."""
    s = {**SWEEP_DEFAULTS, **sweep}
    if s["n_sigma"] < 1:
        raise ConfigError(f"bad value for [sweep] n_sigma: {s['n_sigma']} "
                          f"(a sweep needs at least one sigma)")
    grid = tuple(s["spacing"](s["sigma_min"], s["sigma_max"], s["n_sigma"]))
    if any(x < 0 for x in grid):
        raise ConfigError("sigma grid entries must be >= 0")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigError("sigma grid must be strictly increasing: [sweep] "
                          "sigma_min = {sigma_min:g}, sigma_max = "
                          "{sigma_max:g}, n_sigma = {n_sigma}".format(**s))
    return grid


def _parse(name: str, key: str, raw: str, cast):
    try:
        return cast(raw)
    except ConfigError:
        raise
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
    # a misspelt section or key would otherwise run with the default
    if parser.defaults():
        raise ConfigError(f"unknown section [{parser.default_section}]")
    for name in parser.sections():
        if name not in CONFIG_KEYS:
            raise ConfigError(f"unknown section [{name}]")
        for key in parser[name]:
            if name != "data" and key not in CONFIG_KEYS[name]:
                raise ConfigError(f"unknown key [{name}] {key}")

    cfg = ExperimentConfig()
    if kind:
        cfg.kind = kind
    for name, keys in CONFIG_KEYS.items():
        if not parser.has_section(name):
            continue
        section = parser[name]
        values = {field: _parse(name, key, section[key], cast)
                  for key, (field, cast) in keys.items() if key in section}
        if name == "sweep":
            cfg.sigma_grid = _sigma_grid(values)
            continue
        for field, value in values.items():
            setattr(cfg, field, value)
        if name == "data":
            cfg.data_params.update(
                (key, _parse(name, key, raw, finite_float))
                for key, raw in section.items() if key not in keys)
    for key, count in (("members", cfg.n_members), ("triples", cfg.n_triples)):
        if count < 1:
            raise ConfigError(f"bad value for [audit] {key}: {count} "
                              f"(an ensemble needs at least one)")
    return cfg


@dataclass
class RunRecord:
    config: dict
    rows: list
    fits: dict = dc_field(default_factory=dict)
    violations: int = 0


def _write_outputs(cfg: ExperimentConfig, record: RunRecord, stem: str,
                   row_type, summary: dict, summary_name: str = None,
                   abort: SimulationAbort = None):
    """The one output path of every run: ``<stem>.csv`` with the config echo
    as its header and ``row_type``'s fields as its columns, plus a
    ``key = value`` file (``<stem>.summary`` unless ``summary_name`` is
    given); an aborted run adds ``abort``'s step and reason to it and its
    last finite snapshot as ``last_good.gnls``.  Returns the output
    directory, or None when the config sets none and nothing is written.
    """
    if cfg.out_dir is None:
        return None
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / f"{stem}.csv", row_type._fields, record.rows,
              header_meta=record.config)
    if abort is not None:
        summary = {**summary, "abort_step": abort.step,
                   "abort_reason": str(abort)}
        write_field(out / "last_good.gnls", abort.last_good[1])
    write_sidecar(out / (summary_name or f"{stem}.summary"), summary)
    return out


def _track(u0: Field, solver: SolverConfig, row_of) -> tuple:
    """The one place a run steps: ``evolve`` from ``u0`` with ``row_of(u)``
    kept for each snapshot.  Returns ``(rows, abort)``: the rows computed,
    and the :class:`SimulationAbort` that stopped the run, or None.

    A weight that overflows on the data (step 0) is a validation error and
    is raised; one that overflows later, as the resolved band widens, stops
    the run as an abort whose last good snapshot is the slice whose row it
    refused."""
    rows = []

    def keep(t, u):
        try:
            rows.append(row_of(u))
        except MultiplierOverflowError as exc:
            if not rows:
                raise
            step = round(t / solver.dt)
            raise SimulationAbort(f"{exc} at step {step} (t={t:g})",
                                  step=step, last_good=(t, u)) from exc

    try:
        evolve(u0, solver, on_snapshot=keep)
    except SimulationAbort as abort:
        return rows, abort
    return rows, None


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def run_simulate(cfg: ExperimentConfig) -> RunRecord:
    """Evolve the configured data and record NormReport rows per snapshot."""
    u0 = cfg.initial_data()
    sigma = cfg.sigma0
    rows, abort = _track(u0, cfg.solver(), lambda u: norm_report(u, sigma))
    m0, e0 = rows[0].mass, rows[0].energy
    mass_drift = max(abs(r.mass - m0) for r in rows) / m0 if m0 > 0 else 0.0
    energy_drift = max(abs(r.energy - e0) for r in rows)
    record = RunRecord(config=cfg.echo(), rows=rows,
                       fits={"mass_drift_rel": mass_drift,
                             "energy_drift_abs": energy_drift})
    sidecar = {"d": cfg.d, "N": cfg.N, "L": cfg.L, "dt": cfg.dt,
               "t_end": cfg.t_end, "seed": cfg.seed,
               "data_kind": cfg.data_kind,
               "data_params": record.config["data_params"]}
    _write_outputs(cfg, record, "norms", NormReport, sidecar, "run.meta", abort)
    if abort is not None:
        raise abort
    return record


# ---------------------------------------------------------------------------
# radius tracking
# ---------------------------------------------------------------------------

def fit_conservation_constant(cfg: ExperimentConfig, u0: Field) -> dict:
    """Almost-conservation sweep: growth D(sigma), slope fit, empirical C.

    Evolves the run's data ``u0`` once over [0, delta] (delta from the
    measured data functional) and measures D(sigma) = sup_t A_sigma(t) -
    A_sigma(0) per grid sigma.  The sigma = 0 growth is the scheme's own
    drift in mass + energy and is reported as the noise floor.
    """
    sigma_grid = list(cfg.sigma_grid or _sigma_grid({}))
    # measured before any step, on the data's resolved band: a grid sigma
    # the overflow guard rejects there stops the sweep here
    A_top = a_sigma(resolved_spectrum(u0), max(sigma_grid))
    delta = local_delta(A_top, cfg.c0, cfg.eps)
    n_steps = max(int(np.ceil(delta / cfg.dt)), 10)
    dt = delta / n_steps
    stride = max(n_steps // 32, 1)
    solver = SolverConfig(dt=dt, t_end=delta, snapshot_stride=stride,
                          defocusing=cfg.defocusing)

    sigmas = [0.0] + sigma_grid

    def a_sigmas(u):
        resolved = resolved_spectrum(u)
        return [a_sigma(resolved, s) for s in sigmas]

    rows, abort = _track(u0, solver, a_sigmas)
    if abort is not None:
        raise abort
    # each sigma's column of A_sigma(t): its first entry is t = 0
    columns = dict(zip(sigmas, zip(*rows)))
    growth = {s: max(max(col) - col[0], 0.0) for s, col in columns.items()}
    noise_floor = growth[0.0]

    usable = [(s, growth[s]) for s in sigma_grid if growth[s] > noise_floor]
    # slope over the small-sigma half of the grid, after floor subtraction
    half = [sv for sv in usable if sv[0] <= np.median(sigma_grid)]
    slope = np.nan
    if len(half) >= 2:
        xs = np.log([s for s, _ in half])
        ys = np.log([max(g - noise_floor, 1e-300) for _, g in half])
        slope = float(np.polynomial.polynomial.polyfit(xs, ys, 1)[1])
    c_values = [g / (s * columns[s][0] ** 2 * (1.0 + columns[s][0]))
                for s, g in usable if s > 0]
    C_fit = float(np.median(c_values)) if c_values else np.nan
    return {"delta": delta, "A0": A_top, "noise_floor": noise_floor,
            "growth": growth, "slope": slope, "C_fit": C_fit,
            "sigma_grid": sigma_grid}


def _fitted_constant(fit: dict) -> float:
    """The sweep's ``C_fit``; raises :class:`FitError` when no sigma grew
    above the noise floor, so that no run goes on with an invented C."""
    C_fit = fit["C_fit"]
    if not (np.isfinite(C_fit) and C_fit > 0):
        raise FitError(
            f"no sigma of the sweep grew above the sigma = 0 noise floor "
            f"({fit['noise_floor']:.3g}), so C cannot be fitted: set "
            f"[fit] C for gnls radius")
    return C_fit


def run_almost_conservation_sweep(cfg: ExperimentConfig) -> RunRecord:
    """The sweep's rows and fits, written out before :func:`_fitted_constant`
    rejects a sweep with no usable sigma."""
    fit = fit_conservation_constant(cfg, cfg.initial_data())
    rows = [SweepRow(s, g, max(g - fit["noise_floor"], 0.0))
            for s, g in sorted(fit["growth"].items())]
    record = RunRecord(config=cfg.echo(), rows=rows,
                       fits={k: fit[k] for k in
                             ("delta", "A0", "noise_floor", "slope", "C_fit")})
    _write_outputs(cfg, record, "sweep", SweepRow,
                   {**record.config, **record.fits})
    _fitted_constant(fit)
    return record


def run_radius_tracking(cfg: ExperimentConfig) -> RunRecord:
    """Track sigma_hat(t) against the iteration floor sigma_floor(t).

    The floor uses the measured A_{sigma0}(0) and an empirically fitted
    almost-conservation constant (config [fit] C overrides the internal
    sweep, which raises :class:`FitError` when it fits none).  The tail
    constant c_hat is the median of t * sigma_hat(t) over the last third
    of snapshots.
    """
    u0 = cfg.initial_data()
    rad0 = radius_estimate(u0)
    # Any sigma0 below the data's radius is admissible for the floor.
    if not (rad0.entire_flag or rad0.floor_flag):
        sigma0 = min(cfg.sigma0, rad0.sigma_hat)
    else:
        sigma0 = cfg.sigma0
    if cfg.C is not None:
        C_fit = cfg.C
    else:
        C_fit = _fitted_constant(fit_conservation_constant(cfg, u0))
    A0 = (cfg.A0 if cfg.A0 is not None
          else a_sigma(resolved_spectrum(u0), sigma0))
    params = BookkeeperParams(sigma0=sigma0, A0=A0, c0=cfg.c0, C=C_fit,
                              eps=cfg.eps, T=max(cfg.t_end, cfg.dt))

    def row_of(u):
        row = norm_report(u, sigma0)
        floor = radius_floor(row.t, params)
        verdict = ("entire" if row.entire_flag
                   else "ok" if row.sigma_hat >= floor else "fail")
        return RadiusRow(*row, floor, verdict)

    rows, abort = _track(u0, cfg.solver(), row_of)
    tail = [r for r in rows[len(rows) - max(len(rows) // 3, 1):]
            if not r.floor_flag and not r.entire_flag]
    c_hat = float(np.median([r.t * r.sigma_hat for r in tail])) if tail else 0.0
    failures = sum(1 for r in rows if r.verdict == "fail")
    record = RunRecord(
        config=cfg.echo(), rows=rows,
        fits={"sigma0_hat": sigma0, "C_fit": C_fit, "A0": A0,
              "c_hat": c_hat, "c1": sigma_for_T(params)[1],
              "failures": failures},
        violations=failures)
    out = _write_outputs(cfg, record, "radius", RadiusRow,
                         {**record.config, **record.fits}, abort=abort)
    if out is not None and cfg.svg:
        _write_radius_svg(out / "radius.svg", rows)
    if abort is not None:
        raise abort
    return record


def _write_radius_svg(path, rows, width=640, height=400) -> None:
    """Line plot of sigma_hat(t) and sigma_floor(t), no plotting deps."""
    ts = [r.t for r in rows]
    hats = [r.sigma_hat for r in rows]
    floors = [r.sigma_floor for r in rows]
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
            rows.append(AuditRow(f"multiplier(d={d},sigma={sigma:g})", rep.seed,
                                 0, rep.lhs, rep.rhs, rep.ratio))
            violations += rep.violations
            max_ratio = max(max_ratio, rep.max_ratio)
    record = RunRecord(config=cfg.echo(), rows=rows,
                       fits={"max_ratio": max_ratio, "violations": violations},
                       violations=violations)
    _write_audit(cfg, record, "audit_multiplier")
    return record


def run_audit_f(cfg: ExperimentConfig) -> RunRecord:
    grid = cfg.grid()
    sigma = cfg.audit_sigma
    rows = []
    ensemble = [random_bandlimited(grid, seed=cfg.seed + i)
                for i in range(cfg.n_members)]
    rep = audit_f_estimate(ensemble, sigma)
    for i, r in enumerate(rep.members):
        rows.append(AuditRow("f-estimate", cfg.seed, i, r, 1.0, r))
    halving = sigma_halving_ratio(ensemble[0], sigma, num=rep.lhs)
    record = RunRecord(config=cfg.echo(), rows=rows,
                       fits={"max_ratio": rep.max_ratio,
                             "median_ratio": rep.median_ratio,
                             "halving_ratio": halving})
    _write_audit(cfg, record, "audit_f")
    return record


def run_audit_trilinear(cfg: ExperimentConfig) -> RunRecord:
    grid = cfg.grid()
    rows = []
    fits = {}
    for kind in (1, 2, 3):
        rep = audit_trilinear(kind, grid, cfg.M, cfg.T_win, cfg.n_members,
                              seed=cfg.seed + kind, b=cfg.b,
                              sigma=cfg.audit_sigma)
        for i, r in enumerate(rep.members):
            rows.append(AuditRow(rep.kind, rep.seed, i, r, 1.0, r))
        fits[f"kind{kind}_max"] = rep.max_ratio
        fits[f"kind{kind}_median"] = rep.median_ratio
        fits[f"kind{kind}_rejected"] = rep.rejected
    record = RunRecord(config=cfg.echo(), rows=rows, fits=fits)
    _write_audit(cfg, record, "audit_trilinear")
    return record


def run_audit_gn(cfg: ExperimentConfig) -> RunRecord:
    u0 = cfg.initial_data()
    rep = audit_gagliardo_nirenberg(u0)
    rows = [AuditRow(rep.kind, cfg.seed, 0, rep.lhs, rep.rhs, rep.ratio)]
    record = RunRecord(config=cfg.echo(), rows=rows,
                       fits={"ratio": rep.ratio})
    _write_audit(cfg, record, "audit_gn")
    return record


def _write_audit(cfg: ExperimentConfig, record: RunRecord, stem: str) -> None:
    _write_outputs(cfg, record, stem, AuditRow,
                   {**record.config, **record.fits,
                    "violations": record.violations})


def run_bookkeeper(cfg: ExperimentConfig) -> RunRecord:
    """The induction for the given constants; unlike ``radius``, it has no
    data to measure A0 on and no sweep to fit C from, so both must be set."""
    missing = [f"[fit] {name} (--{name})" for name in ("A0", "C")
               if getattr(cfg, name) is None]
    if missing:
        raise ConfigError(f"bookkeeper needs {' and '.join(missing)}")
    params = BookkeeperParams(sigma0=cfg.sigma0, A0=cfg.A0, c0=cfg.c0,
                              C=cfg.C, eps=cfg.eps, T=cfg.T)
    trace = run_induction(params)
    rows = [BookkeeperRow(*kbo) for kbo in zip(trace.ks, trace.bounds, trace.ok)]
    record = RunRecord(
        config=cfg.echo(), rows=rows,
        fits={"delta": trace.delta, "n": trace.n, "sigma": trace.sigma,
              "c1": trace.c1},
        violations=0 if trace.all_ok else trace.first_failure)
    _write_outputs(cfg, record, "bookkeeper", BookkeeperRow,
                   {**record.config, **record.fits})
    return record
