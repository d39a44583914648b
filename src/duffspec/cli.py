"""Command-line entry point for sweeps, line scans, and point analyses.

Usage examples::

    duffspec --method both --gamma 2 --chi 1 \
        --delta-range -10:2:241 --epsilon-range 0.05:5:100 --out-dir out

    duffspec --scan epsilon=3.2 --method closed-form --out-dir out

    duffspec --point delta=-5.2,epsilon=3.2 \
        --analyze entropy,spectrum,metastable,mixing-curve --out-dir out

    duffspec --circuit data/circuit.json --analyze entropy --out-dir out

Options given on the command line override the same keys from --config;
``--scan axis=V`` is the one-value range ``--axis-range V:V:1``.
The flags are only parsed here; ``sweep.validate_config`` checks their
values.  On failure a machine-readable error report is written to stderr
as JSON and the exit status is nonzero (2 for configuration problems,
malformed flags included, 1 for runtime failures).
"""

import argparse
import json
import sys
from dataclasses import asdict

from . import __version__
from .sweep import (
    ANALYZE_TASKS,
    METHODS,
    ConfigError,
    SweepConfig,
    analyze,
    config_from_dict,
    run_sweep_to_dir,
)


class _Parser(argparse.ArgumentParser):
    """An argument parser that raises ConfigError instead of exiting."""

    def error(self, message):
        raise ConfigError(message)


def _parse_range(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected start:stop:count, got {text!r}")
    try:
        return (float(parts[0]), float(parts[1]), int(parts[2]))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad range {text!r}: {exc}") from None


def _parse_assignments(text):
    out = {}
    for item in text.split(","):
        if "=" not in item:
            raise argparse.ArgumentTypeError(f"expected key=value, got {item!r}")
        key, _, value = item.partition("=")
        key = key.strip()
        if key in out:
            raise argparse.ArgumentTypeError(f"{key!r} is repeated")
        try:
            out[key] = float(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad value for {key!r}: {exc}") from None
    return out


def _parse_list(text):
    return tuple(t.strip() for t in text.split(",") if t.strip())


def build_parser():
    parser = _Parser(
        prog="duffspec",
        description=(
            "Steady-state response of a driven, damped Kerr oscillator: "
            "parameter sweeps, line scans, and single-point analyses."
        ),
    )
    parser.add_argument("--version", action="version", version=f"duffspec {__version__}")
    parser.add_argument("--config", help="JSON config file; flags override its keys")
    parser.add_argument("--method", help=f"response evaluation method ({', '.join(METHODS)})")
    parser.add_argument("--gamma", type=float, help="decay rate")
    parser.add_argument("--chi", type=float, help="anharmonicity")
    parser.add_argument(
        "--delta-range", type=_parse_range, metavar="LO:HI:N", help="detuning grid"
    )
    parser.add_argument(
        "--epsilon-range", type=_parse_range, metavar="LO:HI:N", help="drive-amplitude grid"
    )
    parser.add_argument(
        "--scan",
        type=_parse_assignments,
        metavar="epsilon=V|delta=V",
        help="1-D line scan at the fixed value; shorthand for --AXIS-range V:V:1",
    )
    parser.add_argument(
        "--point",
        type=_parse_assignments,
        metavar="delta=V,epsilon=V",
        help="parameter point for --analyze",
    )
    parser.add_argument(
        "--analyze",
        type=_parse_list,
        metavar="TASK[,TASK...]",
        help=f"point analyses to run ({', '.join(ANALYZE_TASKS)})",
    )
    parser.add_argument("--circuit", help="circuit-parameter JSON file")
    parser.add_argument("--out-dir", help="output directory")
    parser.add_argument("--workers", type=int, help="process count for numeric sweeps")
    parser.add_argument("--dim", type=int, help="fixed truncation (default: adaptive)")
    return parser


def merge_config(args):
    """The config file's keys overridden by the flags that are set.

    The file is validated on its own first, so a malformed value in it is
    an error even where a flag overrides it.  ``--scan axis=v`` is the
    one-value range ``axis_range = (v, v, 1)``, overriding the file's.
    """
    base = SweepConfig()
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            base = config_from_dict(json.load(fh))
    overrides = {
        k: v for k, v in vars(args).items() if k in SweepConfig.__dataclass_fields__ and v is not None
    }
    if args.scan is not None:
        if set(args.scan) not in ({"epsilon"}, {"delta"}):
            raise ConfigError(f"--scan must set exactly one of epsilon/delta, got {args.scan!r}")
        [(axis, value)] = args.scan.items()
        if f"{axis}_range" in overrides:
            raise ConfigError(f"--scan {axis} and --{axis}-range both set the {axis} axis")
        overrides[f"{axis}_range"] = (value, value, 1)
    return config_from_dict({**asdict(base), **overrides})


def _emit_error(kind, exc):
    report = {"error": {"kind": kind, "type": type(exc).__name__, "message": str(exc)}}
    print(json.dumps(report, sort_keys=True), file=sys.stderr)


def main(argv=None):
    try:
        config = merge_config(build_parser().parse_args(argv))
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        _emit_error("config", exc)
        return 2
    try:
        if config.analyze:
            manifest = analyze(config)
            print(f"analyze: {len(manifest['tasks'])} task(s) -> {config.out_dir}")
            if manifest["failed_tasks"]:
                failed = [k for k, v in manifest["tasks"].items() if v["status"] == "error"]
                _emit_error(
                    "analysis",
                    RuntimeError(
                        f"{manifest['failed_tasks']} task(s) failed: {', '.join(failed)}; "
                        "see manifest.json for details"
                    ),
                )
                return 1
        else:
            manifest = run_sweep_to_dir(config)
            print(f"{manifest['kind']}: {manifest['grid']} -> {config.out_dir}")
    except ConfigError as exc:
        _emit_error("config", exc)
        return 2
    except Exception as exc:
        _emit_error("runtime", exc)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
