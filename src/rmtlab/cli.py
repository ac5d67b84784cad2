"""Command line front end: ``rmtlab <experiment> --config PATH [overrides]``.

Each subcommand has the flags of the fields its experiment reads.  Exit codes:
0 success, 2 a flag, configuration or validation error, a parameter the
experiment rejects while running or an output path the OS rejects, 3 when
--assert is passed and the experiment's summary check fails.
"""

from __future__ import annotations

import argparse
import json
import sys

from .ensembles import ParameterError
from .harness import EXPERIMENTS, ConfigError, config_from_dict, read_config, run_experiment
from .spectral import ContractError, DomainError

FLAGS = {"base_seed": "--seed", "n": "--n", "p": "--p", "trials": "--trials", "workers": "--workers"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rmtlab", description=__doc__)
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name, (_, reads) in EXPERIMENTS.items():
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", help="JSON config file (flags below override it)")
        for field in reads:
            if field in FLAGS:
                p.add_argument(FLAGS[field], dest=field, type=int, help=f"config field {field}")
        p.add_argument("--out", dest="out_dir", metavar="DIR", help="output directory")
        p.add_argument("--label", help="output subdirectory label")
        p.add_argument(
            "--assert",
            dest="assert_ok",
            action="store_true",
            help="exit 3 unless the experiment's summary check passes",
        )
    return parser


def main(argv=None) -> int:
    try:
        args, unread = build_parser().parse_known_args(argv)
        if unread:
            raise ConfigError(f"{args.experiment} takes no {' '.join(unread)}; see rmtlab {args.experiment} --help")
        flags = {name: getattr(args, name, None) for name in (*FLAGS, "out_dir", "label")}
        raw = read_config(args.config) if args.config else {"experiment": args.experiment}
        if isinstance(raw, dict):
            if raw.get("experiment", args.experiment) != args.experiment:
                raise ConfigError(f"config is for {raw['experiment']!r}, requested {args.experiment!r}")
            # validated once, after the flags: a field that a flag replaces need not be valid alone
            raw.update({k: v for k, v in flags.items() if v is not None})
        cfg = config_from_dict(raw)
        report = run_experiment(cfg)
    except (ConfigError, ParameterError, ContractError, DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(json.dumps(report.summary, indent=2, sort_keys=True))
    if report.out_path is not None:
        print(f"outputs: {report.out_path}")
    if args.assert_ok and not report.summary.get("ok", False):
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
