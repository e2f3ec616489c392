"""Command line front end.

Two subcommands:

    cavitymix run <scenario.yaml> [--out PATH] [--nmax N] [--tol T]
    cavitymix validate <scenario.yaml>

Exit codes: 0 on success, 1 for command-line, parse or validation errors
and for an output path that cannot be written (diagnostics on stderr, one
per line), 2 for numerical failures inside an otherwise valid run
(quadrature not converging, symplectic spectrum not pairing).

Only `scenarios` is imported up front; each run loads the modules of its
scenario's kind.
"""

from __future__ import annotations

import argparse
import sys

from .scenarios import DEFAULT_TOL, ScenarioError, load_scenario, run_scenario


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1, as other input errors do."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cavitymix",
        description="Mode mixing and entanglement in a rigid accelerated cavity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario file and write its CSV result")
    run_p.add_argument("scenario", help="path to a YAML scenario file")
    run_p.add_argument("--out", help="output CSV path (overrides the scenario's output block)")
    run_p.add_argument("--nmax", type=int, help="override the cavity mode truncation")
    run_p.add_argument(
        "--tol",
        type=float,
        default=DEFAULT_TOL,
        help=(
            "quadrature tolerance for evolve and negativity_sweep scenarios "
            f"(default {DEFAULT_TOL:g})"
        ),
    )

    val_p = sub.add_parser("validate", help="check a scenario file without running it")
    val_p.add_argument("scenario", help="path to a YAML scenario file")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run" and not 0.0 < args.tol < float("inf"):
        print(f"error: --tol: must be a positive finite number, got {args.tol}", file=sys.stderr)
        return 1

    try:
        scenario = load_scenario(args.scenario, n_max=getattr(args, "nmax", None))
    except ScenarioError as exc:
        for line in exc.diagnostics:
            print(f"error: {line}", file=sys.stderr)
        return 1

    if args.command == "validate":
        print(f"ok: {args.scenario} is a valid {scenario.kind} scenario")
        return 0

    try:
        table = run_scenario(scenario, tol=args.tol)
    except RuntimeError as exc:
        # imported here, so that a run loads only the modules of its kind
        from .gaussian import SymplecticPairingError
        from .profiles import QuadratureError

        if isinstance(exc, QuadratureError):
            print(f"numerical failure (profiles quadrature): {exc}", file=sys.stderr)
        elif isinstance(exc, SymplecticPairingError):
            print(f"numerical failure (gaussian spectrum): {exc}", file=sys.stderr)
        else:
            raise
        return 2

    out_path = args.out if args.out is not None else scenario.output_path
    try:
        table.write(out_path)
    except OSError as exc:
        field = "--out" if args.out is not None else "output.path"
        print(f"error: {field}: {exc}", file=sys.stderr)
        return 1
    print(f"{scenario.kind}: wrote {len(table)} rows to {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
