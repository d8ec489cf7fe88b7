"""Command-line driver.

Subcommands: simulate, radius, sweep, audit-multiplier, audit-f,
audit-trilinear, audit-gn, bookkeeper, norms.

Exit codes: 0 success, 1 validation or i/o error, 2 runtime abort, 3 a hard
violation was detected (pointwise inequality or induction failure).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import SimulationAbort
from .harness import (ConfigError, ExperimentConfig, load_config,
                      run_almost_conservation_sweep, run_audit_f,
                      run_audit_gn, run_audit_multiplier,
                      run_audit_trilinear, run_bookkeeper,
                      run_radius_tracking, run_simulate)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_VIOLATION = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gnls",
        description="Cubic NLS spectral simulator and inequality audit bench")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = ("simulate", "radius", "sweep", "audit-multiplier", "audit-f",
                "audit-trilinear", "audit-gn", "bookkeeper", "norms")
    for name in commands:
        p = sub.add_parser(name)
        p.add_argument("--config", type=Path, help="key = value config file")
        p.add_argument("--out", type=Path, help="output directory")
        p.add_argument("--seed", type=int, help="master RNG seed")
        p.add_argument("--threads", type=int, default=1)
        p.add_argument("--svg", action="store_true",
                       help="emit a line-plot SVG where supported")
        if name == "bookkeeper":
            p.add_argument("--sigma0", type=float)
            p.add_argument("--A0", type=float)
            p.add_argument("--c0", type=float)
            p.add_argument("--C", type=float)
            p.add_argument("--eps", type=float)
            p.add_argument("--T", type=float)
        if name == "norms":
            p.add_argument("snapshot", type=Path,
                           help="GNLS snapshot file to evaluate")
            p.add_argument("--sigma", type=float, default=0.0)
    return parser


def _config_from_args(args, kind: str) -> ExperimentConfig:
    if getattr(args, "config", None):
        cfg = load_config(args.config, kind=kind)
    else:
        cfg = ExperimentConfig(kind=kind)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out is not None:
        cfg.out_dir = args.out
    cfg.threads = args.threads
    cfg.svg = bool(getattr(args, "svg", False))
    for flag in ("sigma0", "A0", "c0", "C", "eps", "T"):
        val = getattr(args, flag, None)
        if val is not None:
            setattr(cfg, flag, val)
    return cfg


def _print_fits(record) -> None:
    for key, value in record.fits.items():
        print(f"{key} = {value}")


def cmd_norms(args) -> int:
    from .norms import norm_report
    from .storage import read_field

    u = read_field(args.snapshot)
    rep = norm_report(u, args.sigma)
    for key in ("t", "sigma", "mass", "energy", "gevrey_s1_sq", "l4_gevrey",
                "a_sigma"):
        print(f"{key} = {getattr(rep, key)}")
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    dispatch = {
        "simulate": (run_simulate, "simulate"),
        "radius": (run_radius_tracking, "radius"),
        "sweep": (run_almost_conservation_sweep, "sweep"),
        "audit-multiplier": (run_audit_multiplier, "audit-multiplier"),
        "audit-f": (run_audit_f, "audit-f"),
        "audit-trilinear": (run_audit_trilinear, "audit-trilinear"),
        "audit-gn": (run_audit_gn, "audit-gn"),
        "bookkeeper": (run_bookkeeper, "bookkeeper"),
    }
    try:
        if args.command == "norms":
            return cmd_norms(args)
        runner, kind = dispatch[args.command]
        cfg = _config_from_args(args, kind)
        record = runner(cfg)
        _print_fits(record)
        if record.violations:
            print(f"hard violations detected: {record.violations}",
                  file=sys.stderr)
            return EXIT_VIOLATION
        return EXIT_OK
    except (ConfigError, ValueError) as e:
        print(f"validation error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except SimulationAbort as e:
        print(f"runtime abort: {e} (step {e.step})", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
