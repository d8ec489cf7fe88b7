"""Command-line driver.

Subcommands: simulate, radius, sweep, audit-multiplier, audit-f,
audit-trilinear, audit-gn, bookkeeper, norms; each takes only the flags it
reads (see :func:`_commands`).

Exit codes: 0 success, 1 validation, i/o or usage error, 2 runtime abort
(blow-up guard, non-finite state, or a sweep that fits no C), 3 a hard
violation was detected (pointwise inequality or induction failure).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import FitError, SimulationAbort
from .harness import (ConfigError, ExperimentConfig, finite_float,
                      load_config, run_almost_conservation_sweep, run_audit_f,
                      run_audit_gn, run_audit_multiplier,
                      run_audit_trilinear, run_bookkeeper,
                      run_radius_tracking, run_simulate)
from .norms import norm_report
from .storage import read_field

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_VIOLATION = 3

#: how each flag parses; a run subcommand's flag sets the ExperimentConfig
#: field its ``dest`` names
FLAGS = {
    "snapshot": dict(type=Path, help="GNLS snapshot file to evaluate"),
    "--sigma": dict(type=finite_float, default=0.0, help="Gevrey weight sigma"),
    "--config": dict(type=Path, help="key = value config file"),
    "--out": dict(type=Path, dest="out_dir", metavar="DIR",
                  help="output directory"),
    "--seed": dict(type=int, help="master RNG seed"),
    "--svg": dict(action="store_true", help="also write radius.svg"),
    **{f"--{name}": dict(type=finite_float, help=f"overrides [fit] {name}")
       for name in ("sigma0", "A0", "c0", "C", "eps", "T")},
}


def _commands() -> dict:
    """subcommand -> (runner of the parsed arguments, the flags it reads).

    Built on each call, so that a runner replaced on this module (a test's
    fake, a profiler's wrapper) is the one that runs.
    """
    seeded = ("--config", "--out", "--seed")
    return {
        "simulate": (_experiment(run_simulate), seeded),
        "radius": (_experiment(run_radius_tracking), seeded + ("--svg",)),
        "sweep": (_experiment(run_almost_conservation_sweep), seeded),
        "audit-multiplier": (_experiment(run_audit_multiplier), seeded),
        "audit-f": (_experiment(run_audit_f), seeded),
        "audit-trilinear": (_experiment(run_audit_trilinear), seeded),
        "audit-gn": (_experiment(run_audit_gn), seeded),
        "bookkeeper": (_experiment(run_bookkeeper),
                       ("--config", "--out", "--sigma0", "--A0", "--c0",
                        "--C", "--eps", "--T")),
        "norms": (cmd_norms, ("snapshot", "--sigma")),
    }


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse would exit 2, the runtime-abort code
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gnls",
        description="Cubic NLS spectral simulator and inequality audit bench")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in _commands().items():
        p = sub.add_parser(name)
        for flag in flags:
            p.add_argument(flag, **FLAGS[flag])
    return parser


def _config_from_args(args, kind: str) -> ExperimentConfig:
    """The config file's values, overridden by every flag given."""
    flags = vars(args).copy()
    del flags["command"]
    path = flags.pop("config")
    cfg = load_config(path, kind=kind) if path else ExperimentConfig(kind=kind)
    for field, value in flags.items():
        if value is not None:
            setattr(cfg, field, value)
    return cfg


def _experiment(runner):
    """A harness runner as a subcommand: its fits on stdout, and
    EXIT_VIOLATION when it reports hard violations."""
    def run(args) -> int:
        record = runner(_config_from_args(args, args.command))
        for key, value in record.fits.items():
            print(f"{key} = {value}")
        if record.violations:
            print(f"hard violations detected: {record.violations}",
                  file=sys.stderr)
            return EXIT_VIOLATION
        return EXIT_OK
    return run


def cmd_norms(args) -> int:
    u = read_field(args.snapshot)
    rep = norm_report(u, args.sigma)
    for key in ("t", "sigma", "mass", "energy", "gevrey_s1_sq", "l4_gevrey",
                "a_sigma"):
        print(f"{key} = {getattr(rep, key)}")
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    runner, _ = _commands()[args.command]
    try:
        return runner(args)
    except (ConfigError, ValueError) as e:
        print(f"validation error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except SimulationAbort as e:
        print(f"runtime abort: {e} (step {e.step})", file=sys.stderr)
        return EXIT_RUNTIME
    except FitError as e:
        print(f"runtime abort: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
