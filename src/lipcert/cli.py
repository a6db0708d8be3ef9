"""Command-line entry point of the ``lipcert`` script.

``lipcert solve NET.json --center C [C ...] --radius R --norm {linf,l1}``
computes the local Lipschitz constant of a scalar network, saved by
``network.save``, over the box C +- R by branch and bound on the LipMIP
model, and prints the certified sandwich ``incumbent <= L <= upper_bound``
with the solve's statistics as one JSON object: every field of the search's
record, ``bnb.MIPResult``, except the incumbent point.  ``--gap`` stops at a
relative gap and ``--timeout`` after a number of seconds; the sandwich then
stays valid but open.

``lipcert estimate NET.json --center C [C ...] --radius R`` takes the same
arguments plus ``--methods`` (default: all of ``estimators.METHODS``) and
prints one CSV row per estimator, as ``estimators.records_to_csv`` writes
them.  ``--gap`` and ``--timeout`` apply to the ``lipmip`` row.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

import numpy as np

from . import bnb, estimators, network
from .interval import Hyperbox
from .mip import build_lipmip_model


#: ``MIPResult`` fields that ``lipcert solve`` prints under another key.
_JSON_NAMES = {"incumbent_value": "incumbent", "nodes_explored": "nodes",
               "wall_time": "wall_time_s"}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lipcert", description="Certified local Lipschitz constants of ReLU networks."
    )
    commands = parser.add_subparsers(dest="command", required=True)
    solve = commands.add_parser(
        "solve", help="exact Lipschitz constant over a box by branch and bound"
    )
    estimate = commands.add_parser(
        "estimate", help="compare the Lipschitz estimators over a box as CSV"
    )
    for sub in (solve, estimate):
        sub.add_argument("net", help="network JSON file written by lipcert.network.save")
        sub.add_argument("--center", type=float, nargs="+", required=True,
                         help="box centre: one value per input, or one value for all")
        sub.add_argument("--radius", type=float, required=True, help="box half-width")
        sub.add_argument("--norm", choices=("linf", "l1"), default="linf",
                         help="input norm (default: linf)")
        sub.add_argument("--gap", type=float, default=0.0,
                         help="stop once (upper - incumbent) / incumbent is at most this")
        sub.add_argument("--timeout", type=float, default=float("inf"),
                         help="stop after this many seconds")
    estimate.add_argument("--methods", choices=estimators.METHODS, nargs="+",
                          default=list(estimators.METHODS),
                          help="estimators to run, in this order (default: all)")
    return parser


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        net = network.load(args.net)
    except (OSError, network.NetworkFormatError) as exc:
        parser.error(f"cannot read {args.net}: {exc}")
    if net.output_dim != 1:
        parser.error(f"{args.net}: expected a scalar network, got {net.output_dim} outputs")
    if len(args.center) not in (1, net.input_dim):
        parser.error(f"--center: expected 1 or {net.input_dim} values, got {len(args.center)}")
    if not args.radius >= 0:
        parser.error("--radius must be >= 0")
    try:
        domain = Hyperbox.from_center_radius(
            np.broadcast_to(np.asarray(args.center, dtype=float), net.input_dim), args.radius
        )
        # checks --gap and --timeout for both commands
        opts = bnb.SolveOptions(target_gap=args.gap, timeout_seconds=args.timeout)
    except ValueError as exc:
        parser.error(str(exc))
    if args.command == "estimate":
        records = estimators.compare(net, domain, args.norm, args.methods,
                                     gap=args.gap, timeout=args.timeout)
        sys.stdout.write(estimators.records_to_csv(records))
        return 0
    res = bnb.solve_mip(build_lipmip_model(net, domain, alpha=args.norm), opts)
    out = {_JSON_NAMES.get(k, k): v for k, v in asdict(res).items() if k != "incumbent_point"}
    json.dump(out, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
