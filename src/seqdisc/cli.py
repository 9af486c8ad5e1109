"""Command line front end.

Subcommands map one-to-one onto the library: `optimize` and `curves` are
purely analytic, `simulate` and `b92` run seeded Monte Carlo, `neumark`
builds the unitary realization and checks it against the Kraus form.  Every
report echoes its inputs exactly, so it can be rerun from its own contents;
every computed number is formatted with 12 significant digits and JSON keys
are sorted, so runs with the same arguments and seed are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import b92, neumark, reporting, sequential, strategies


def _emit(text: str, out_path, extra=None) -> None:
    """Write `extra`, an optional (path, text) pair, then `text` to
    `out_path` if given, and only then `text` to stdout, so a path that
    cannot be written leaves stdout empty."""
    if extra is not None:
        reporting.write_text(*extra)
    if out_path is not None:
        reporting.write_text(out_path, text)
    sys.stdout.write(text)


def _cmd_optimize(args) -> int:
    result = sequential.optimize_two_observer(args.s)
    report = {
        "s": reporting.Echo(args.s),
        "n": args.n,
        **reporting.jsonable(result),
        "p_all_n": sequential.optimal_n_observer(args.s, args.n),
    }
    if args.format == "csv":
        header = sorted(report)
        row = [str(v) if isinstance(v, (int, reporting.Echo)) else reporting.fmt(v)
               for v in map(report.get, header)]
        text = f"{','.join(header)}\n{','.join(row)}\n"
    else:
        text = reporting.dumps_json(report)
    _emit(text, args.out)
    return 0


def _cmd_curves(args) -> int:
    curve = strategies.make_curve(args.s_min, args.s_max, args.steps)
    svg = (args.svg, strategies.curve_svg(curve)) if args.svg is not None else None
    _emit(strategies.curve_csv(curve), args.out, svg)
    return 0


def _cmd_simulate(args) -> int:
    """One simulate_strategy() call runs every kind and checks --n."""
    tally = strategies.simulate_strategy(args.kind, args.s, args.trials, args.seed, args.n)
    report = {
        "params": {
            "kind": args.kind,
            "s": reporting.Echo(args.s),
            "n": args.n,
            "trials": args.trials,
            "seed": args.seed,
        },
        "tally": tally,
    }
    _emit(reporting.dumps_json(report), args.out)
    return 0


def _cmd_neumark(args) -> int:
    dilation = neumark.build_dilation(args.s)
    matrix = (args.matrix, neumark.unitary_csv(dilation)) if args.matrix is not None else None
    _emit(reporting.dumps_json(neumark.dilation_report(dilation)), args.out, matrix)
    return 0


def _cmd_b92(args) -> int:
    raw = {}
    if args.config is not None:
        with open(args.config, encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, too long or deep
                raise ValueError(f"config file {args.config}: {exc}") from None
        if not isinstance(raw, dict):
            found = {list: "array", str: "string", bool: "boolean", type(None): "null"}.get(
                type(raw), "number")
            raise ValueError(f"config file {args.config}: holds a JSON {found}, not a JSON object")
    # explicit flags win over config-file values
    for field in b92.SessionConfig._fields:
        value = getattr(args, field)
        if value is not None:
            raw[field] = value
    config = b92.session_config_from_dict(raw)
    payload = {"config": config._replace(s=reporting.Echo(config.s)),
               "report": b92.run_session(config)}
    _emit(reporting.dumps_json(payload), args.out)
    return 0


class _Parser(argparse.ArgumentParser):
    """Refuses a malformed command line as main() refuses a bad value: with
    one `error:` line and exit status 2.  Subparsers inherit the class."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="seqdisc",
        description="Sequential unambiguous discrimination of two qubit states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("optimize", help="the optimum over measurements that fail equally "
                       "on both states: failure probability and joint rate")
    p.add_argument("--s", type=float, required=True, help="overlap of the state pair")
    p.add_argument("--n", type=int, default=2, help="number of observers (default 2)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", help="also write the report to this file")
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("curves", help="joint-rate table for all strategies")
    p.add_argument("--s-min", type=float, default=0.0)
    p.add_argument("--s-max", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=101)
    p.add_argument("--out", help="also write the CSV to this file")
    p.add_argument("--svg", help="write a line plot to this file")
    p.set_defaults(func=_cmd_curves)

    p = sub.add_parser("simulate", help="Monte Carlo a strategy or chain")
    p.add_argument("--kind", choices=strategies.KINDS, required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--n", type=int, default=2, help="chain length for kind 'seq'")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="also write the report to this file")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("neumark", help="unitary realization of the first stage")
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--out", help="also write the report to this file")
    p.add_argument("--matrix", help="write the 6x6 unitary as CSV to this file")
    p.set_defaults(func=_cmd_neumark)

    p = sub.add_parser("b92", help="two-receiver key distribution session")
    p.add_argument("--config", help="JSON file with session settings")
    p.add_argument("--s", type=float, help="override: overlap")
    p.add_argument("--rounds", type=int, help="override: number of rounds")
    p.add_argument("--mode", choices=b92.MODES, help="override: transport")
    p.add_argument("--eve", choices=b92.EVE_POLICIES, help="override: eavesdropper")
    p.add_argument("--seed", type=int, help="override: RNG seed")
    p.add_argument("--out", help="also write the report to this file")
    p.set_defaults(func=_cmd_b92)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
