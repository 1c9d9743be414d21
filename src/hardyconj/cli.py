"""Command-line front end.

Subcommands: check-conjugation certifies the conjugation axioms,
check-symmetry tests a Toeplitz section against a diagonal conjugation,
gen-symbol completes one-sided coefficients into a symmetric symbol, and
explore runs randomized criterion-versus-oracle probes.

Exit codes: 0 = ran and the verdict is positive, 1 = ran and the verdict
is negative, 2 = input or usage error.

Reports are printed to stdout with a runtime_ms field; files written via
--out omit runtime_ms so identical inputs and seeds produce byte-identical
files.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time

from . import jsonio
from .conjugations import verify_conjugation
from .toeplitz import (
    EXPLORE_MODES,
    explore_symmetry,
    generate_symmetric_symbol,
    summarize_exploration,
    symmetry_report,
)

__all__ = ["build_parser", "main"]

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2

#: Largest one-sided index gen-symbol accepts. A constant sequence has no
#: length of its own, so this bounds the 2 * band + 1 coefficients the
#: command would allocate and write; it is checked before any allocation.
MAX_GEN_BAND = 2**14


def _json_arg(text: str):
    """Parse an inline JSON argument, or @path to read it from a file."""
    if text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as fh:
            return json.load(fh)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON argument {text!r}: {exc}") from exc


def _tolerance(text: str) -> float:
    """argparse type for --tol: a finite nonnegative number."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"expected a finite nonnegative number, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    """argparse type for --n: a positive integer."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _emit_report(report: dict, out, started: float) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(jsonio.canonical_json(report))
    shown = dict(report)
    shown["runtime_ms"] = int(round((time.perf_counter() - started) * 1000.0))
    sys.stdout.write(jsonio.canonical_json(shown))


def _conjugation_spec_from_args(args) -> dict:
    spec = {"kind": args.kind}
    if args.kind == "lambda":
        if args.value is not None:
            spec["value"] = _json_arg(args.value)
        elif args.theta is not None:
            spec["value"] = {"theta": args.theta}
        else:
            raise ValueError('kind "lambda" requires --theta or --value')
    elif args.kind in ("alpha", "zeta"):
        if args.sequence is None:
            raise ValueError(f'kind "{args.kind}" requires --sequence')
        spec["sequence"] = _json_arg(args.sequence)
    elif args.kind == "unitary-seed":
        spec["seed"] = args.seed
    return spec


def _cmd_check_conjugation(args) -> int:
    started = time.perf_counter()
    spec = _conjugation_spec_from_args(args)
    op = jsonio.conjugation_from_spec(spec, args.n)
    cert = verify_conjugation(op, trials=args.trials, tol=args.tol, seed=args.seed)
    report = {
        "schema_version": jsonio.SCHEMA_VERSION,
        "command": "check-conjugation",
        "inputs": {
            "conjugation": spec,
            "n": args.n,
            "tol": args.tol,
            "trials": args.trials,
            "seed": args.seed,
        },
        "results": jsonio.cert_to_json(cert),
    }
    _emit_report(report, args.out, started)
    return EXIT_OK if cert.passed else EXIT_NEGATIVE


def _cmd_check_symmetry(args) -> int:
    started = time.perf_counter()
    spec = _json_arg(args.conjugation)
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if kind not in jsonio.DIAGONAL_KINDS:
        raise ValueError(
            f"check-symmetry needs a diagonal conjugation kind {jsonio.DIAGONAL_KINDS}, "
            f"got {kind!r}; use the explore command for dense conjugations"
        )
    symbol = jsonio.load_symbol(args.symbol, max_band=args.n - 1)
    op = jsonio.conjugation_from_spec(spec, args.n)
    result = symmetry_report(op, symbol, args.n, tol=args.tol)
    report = {
        "schema_version": jsonio.SCHEMA_VERSION,
        "command": "check-symmetry",
        "inputs": {
            "symbol": jsonio.symbol_to_json(symbol),
            "conjugation": spec,
            "n": args.n,
            "tol": args.tol,
        },
        "results": jsonio.report_to_json(result),
    }
    _emit_report(report, args.out, started)
    return EXIT_OK if result.residual <= args.tol else EXIT_NEGATIVE


def _cmd_gen_symbol(args) -> int:
    started = time.perf_counter()
    # each flag's JSON as given, None where the flag is absent; the report echoes it
    given = {
        "onesided": _json_arg(args.onesided) if args.onesided else None,
        "zero": _json_arg(args.zero) if args.zero else None,
        "sequence": _json_arg(args.sequence) if args.sequence else None,
    }
    entries = given["onesided"] if args.onesided else []
    onesided = jsonio.parse_indexed_coefficients(entries, "--onesided")
    for n in onesided:
        if n < 1:
            raise ValueError(f"one-sided coefficient indices start at 1, got {n}")
    zero_coeff = jsonio.parse_complex(given["zero"]) if args.zero else 0.0
    band = max(onesided, default=0)
    if band > MAX_GEN_BAND:
        raise ValueError(f"one-sided index {band} exceeds the largest allowed band {MAX_GEN_BAND}")
    zeta = []
    if args.sequence:
        zeta = jsonio.parse_sequence_spec(given["sequence"], band, start_index=1)
    symbol = generate_symmetric_symbol(onesided, zero_coeff=zero_coeff, zeta=zeta)
    jsonio.save_symbol(symbol, args.out)
    report = {
        "schema_version": jsonio.SCHEMA_VERSION,
        "command": "gen-symbol",
        "inputs": {**given, "out": str(args.out)},
        "results": jsonio.symbol_to_json(symbol),
    }
    # the symbol file itself is the deterministic artifact; the report goes to stdout
    _emit_report(report, None, started)
    return EXIT_OK


def _cmd_explore(args) -> int:
    started = time.perf_counter()
    if not args.n > args.band >= 1:
        raise ValueError(f"need --n > --band >= 1, got n={args.n} band={args.band}")
    records = explore_symmetry(
        args.trials, args.n, args.band, args.seed, mode=args.mode, tol=args.tol
    )
    summary = summarize_exploration(records)
    inputs = {
        "trials": args.trials,
        "n": args.n,
        "band": args.band,
        "seed": args.seed,
        "mode": args.mode,
        "tol": args.tol,
    }
    # the last line carries the inputs so the file replays alone; no path,
    # so the same run written elsewhere gives the same bytes
    with open(args.out, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(jsonio.json_line(jsonio.record_to_json(record)))
        fh.write(jsonio.json_line({"inputs": inputs, "summary": summary}))
    report = {
        "schema_version": jsonio.SCHEMA_VERSION,
        "command": "explore",
        "inputs": {**inputs, "out": str(args.out)},
        "results": summary,
    }
    # records already streamed to --out; the summary goes to stdout
    _emit_report(report, None, started)
    return EXIT_OK if summary["onesided_disagreements"] == 0 else EXIT_NEGATIVE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hardyconj",
        description="Conjugation certification and Toeplitz symmetry checks "
        "on truncated coefficient space.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, trials=False, band=False, out_required=False, out_help=None):
        p.add_argument("--n", type=_positive_int, default=32, help="truncation dimension N")
        p.add_argument("--tol", type=_tolerance, default=1e-10, help="comparison tolerance")
        if trials:
            p.add_argument("--seed", type=int, default=0, help="random seed")
            p.add_argument("--trials", type=int, default=100, help="number of random trials")
        if band:
            p.add_argument("--band", type=int, default=4, help="symbol band limit M")
        p.add_argument(
            "--out",
            default=None,
            required=out_required,
            help=out_help or "write the deterministic report here",
        )

    p = sub.add_parser("check-conjugation", help="certify the conjugation axioms")
    p.add_argument(
        "--kind",
        required=True,
        choices=list(jsonio.CONJUGATION_KINDS),
        help="conjugation family",
    )
    p.add_argument("--theta", type=float, default=None, help="angle for kind lambda")
    p.add_argument("--value", default=None, help="JSON complex value for kind lambda")
    p.add_argument(
        "--sequence", default=None, help="JSON sequence spec (or @file) for kinds alpha/zeta"
    )
    common(p, trials=True)
    p.set_defaults(handler=_cmd_check_conjugation)

    p = sub.add_parser("check-symmetry", help="test a Toeplitz section for C-symmetry")
    p.add_argument("--symbol", required=True, help="path to a symbol file")
    p.add_argument(
        "--conjugation", required=True, help="JSON conjugation spec (or @file), diagonal kinds"
    )
    common(p)
    p.set_defaults(handler=_cmd_check_symmetry)

    p = sub.add_parser("gen-symbol", help="complete one-sided coefficients symmetrically")
    p.add_argument(
        "--onesided", default=None, help="JSON list (or @file) of {n, re/im or theta}, n >= 1"
    )
    p.add_argument("--zero", default=None, help="JSON complex value for the n = 0 coefficient")
    p.add_argument("--sequence", default=None, help="JSON sequence spec (or @file) for zeta")
    p.add_argument("--out", required=True, help="path for the generated symbol file")
    p.set_defaults(handler=_cmd_gen_symbol)

    p = sub.add_parser("explore", help="randomized criterion-versus-oracle probes")
    p.add_argument("--mode", choices=list(EXPLORE_MODES), default="mixed")
    common(
        p,
        trials=True,
        band=True,
        out_required=True,
        out_help="path for the JSON-lines record stream",
    )
    p.set_defaults(handler=_cmd_explore)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` uses, built once per process.

    Building the tree costs about as much as a small request. Parsing
    leaves the parser unchanged: every call gets a fresh namespace filled
    from the defaults, and a usage error only prints and exits.
    """
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.handler(args)
    except (ValueError, OSError, KeyError, MemoryError) as exc:
        # MemoryError: a size numpy refuses outright, such as a huge --n
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
