"""Command-line front end.

Subcommands: check-conjugation certifies the conjugation axioms,
check-symmetry tests a Toeplitz section against a diagonal conjugation,
gen-symbol completes one-sided coefficients into a symmetric symbol, and
explore runs randomized criterion-versus-oracle probes.

Exit codes: 0 = ran and the verdict is positive, 1 = ran and the verdict
is negative, 2 = input or usage error.

Reports are printed to stdout with a runtime_ms field. Files written via
--out omit it, so identical inputs and seeds give byte-identical files, and
replace the old file only when the command completes (jsonio._replacing).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
import warnings

from . import jsonio
from .conjugations import verify_conjugation
from .core import DEFAULT_TOL
from .toeplitz import (
    EXPLORE_MODES,
    _explore_blocks,
    _summarize_blocks,
    generate_symmetric_symbol,
    symmetry_report,
)

__all__ = ["build_parser", "main"]

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2

#: The commands whose report is also their --out file; gen-symbol and
#: explore write their own artifact there and print the report only.
_REPORT_TO_OUT = ("check-conjugation", "check-symmetry")

#: The commands that run with numpy's RuntimeWarnings ignored. Their reports
#: carry computed floats: an overflow shows as a non-finite value, which the
#: report refuses with the one error line, and the warnings would come first.
_QUIET = ("check-symmetry", "gen-symbol", "explore")

#: The check-conjugation flags that can supply each spec parameter.
#: "seed" has none: it is --seed, which every kind also reads as its sample seed.
_PARAMETER_FLAGS = {"value": ("theta", "value"), "sequence": ("sequence",), "seed": ()}

#: Largest one-sided index gen-symbol accepts. A constant sequence has no
#: length of its own, so this bounds the 2 * band + 1 coefficients the
#: command would allocate and write; it is checked before any allocation.
MAX_GEN_BAND = 2**14


def _json_arg(text: str):
    """Parse an inline JSON argument, or @path to read it from a file."""
    if text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as fh:
            return jsonio._decode(fh.read())
    try:
        return jsonio._decode(text)
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
    text = jsonio.canonical_json(report)
    if out:
        with jsonio._replacing(out) as fh:
            fh.write(text)
    # stdout adds runtime_ms at its sorted place, before the top-level schema_version
    # (a JSON string holds no newline, so no nested text matches this line)
    runtime_ms = round((time.perf_counter() - started) * 1000.0)
    at = text.rindex('\n  "schema_version"')
    sys.stdout.write(f'{text[:at]}\n  "runtime_ms": {runtime_ms},{text[at:]}')


def _conjugation_spec_from_args(args) -> dict:
    # one flag supplies the kind's parameter; a flag the kind does not read is refused
    parameter = jsonio._PARAMETER.get(args.kind)
    flags = _PARAMETER_FLAGS.get(parameter, ())
    given = [f for fs in _PARAMETER_FLAGS.values() for f in fs if getattr(args, f) is not None]
    for flag in given:
        if flag not in flags:
            raise ValueError(f'kind "{args.kind}" does not take --{flag}')
    spec = {"kind": args.kind}
    named = " or ".join(f"--{flag}" for flag in flags)
    if len(given) > 1:
        raise ValueError(f'kind "{args.kind}" takes {named}, not both')
    if given:
        text = getattr(args, given[0])
        spec[parameter] = {"theta": text} if given[0] == "theta" else _json_arg(text)
    elif flags:
        raise ValueError(f'kind "{args.kind}" requires {named}')
    elif parameter:
        spec[parameter] = getattr(args, parameter)
    return spec


def _cmd_check_conjugation(args) -> tuple[dict, dict, bool]:
    spec = _conjugation_spec_from_args(args)
    op = jsonio.conjugation_from_spec(spec, args.n)
    # (seed, 1), not seed: unitary-seed draws U from default_rng(seed), and the
    # sample pairs must not be that stream's rows again
    cert = verify_conjugation(op, trials=args.trials, tol=args.tol, seed=(args.seed, 1))
    inputs = {
        "conjugation": spec,
        "n": args.n,
        "tol": args.tol,
        "trials": args.trials,
        "seed": args.seed,
    }
    return inputs, jsonio.cert_to_json(cert), cert.passed


def _cmd_check_symmetry(args) -> tuple[dict, dict, bool]:
    spec = _json_arg(args.conjugation)
    kind = jsonio._spec_kind(spec)
    if kind not in jsonio.DIAGONAL_KINDS:
        raise ValueError(
            f"check-symmetry needs a diagonal conjugation kind {jsonio.DIAGONAL_KINDS}, "
            f"got {kind!r}; use the explore command for dense conjugations"
        )
    symbol = jsonio.load_symbol(args.symbol, max_band=args.n - 1)
    op = jsonio.conjugation_from_spec(spec, args.n)
    result = symmetry_report(op, symbol, args.n, tol=args.tol)
    inputs = {
        "symbol": jsonio.symbol_to_json(symbol),
        "conjugation": spec,
        "n": args.n,
        "tol": args.tol,
    }
    return inputs, jsonio.report_to_json(result), result.holds


def _cmd_gen_symbol(args) -> tuple[dict, dict, bool]:
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
    elif band:
        raise ValueError(
            f"--onesided goes up to index {band}: give --sequence for zeta_1..zeta_{band}"
        )
    symbol = generate_symmetric_symbol(onesided, zero_coeff=zero_coeff, zeta=zeta)
    # the symbol file itself is the deterministic artifact; the report goes to stdout
    jsonio.save_symbol(symbol, args.out)
    return {**given, "out": str(args.out)}, jsonio.symbol_to_json(symbol), True


def _cmd_explore(args) -> tuple[dict, dict, bool]:
    if not args.n > args.band >= 1:
        raise ValueError(f"need --n > --band >= 1, got n={args.n} band={args.band}")
    blocks = _explore_blocks(args.trials, args.n, args.band, args.seed, args.mode, args.tol)
    inputs = {
        "trials": args.trials,
        "n": args.n,
        "band": args.band,
        "seed": args.seed,
        "mode": args.mode,
        "tol": args.tol,
    }
    # each block's lines are written as the block finishes; the last line
    # carries the inputs so the file replays alone, and no path, so the
    # same run written elsewhere gives the same bytes
    with jsonio._replacing(args.out) as fh:
        summary = _summarize_blocks(_written(blocks, fh))
        fh.write(jsonio.json_line({"inputs": inputs, "summary": summary}))
    # records already streamed to --out; the summary goes to stdout
    return {**inputs, "out": str(args.out)}, summary, summary["onesided_disagreements"] == 0


def _written(blocks, fh):
    """Each of ``blocks``, after its record lines are written to ``fh``."""
    for block in blocks:
        fh.write(jsonio._record_lines(block))
        yield block


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hardyconj",
        description="Conjugation certification and Toeplitz symmetry checks "
        "on truncated coefficient space.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, trials=False, band=False, out_required=False, out_help=None):
        p.add_argument("--n", type=_positive_int, default=32, help="truncation dimension N")
        p.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL, help="comparison tolerance")
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
    """Run one command and print its report; returns the exit code.

    Each handler returns the report's ``inputs``, its ``results`` and
    whether the verdict is positive; the warning policy (``_QUIET``), the
    envelope, the stdout copy with ``runtime_ms``, the --out copy of the
    commands in ``_REPORT_TO_OUT`` and the exit code are made here, the
    same for every command.
    """
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    started = time.perf_counter()
    try:
        with warnings.catch_warnings():
            if args.command in _QUIET:
                warnings.simplefilter("ignore", RuntimeWarning)
            inputs, results, positive = args.handler(args)
        report = {
            "schema_version": jsonio.SCHEMA_VERSION,
            "command": args.command,
            "inputs": inputs,
            "results": results,
        }
        _emit_report(report, args.out if args.command in _REPORT_TO_OUT else None, started)
    except (ValueError, OSError, KeyError, MemoryError) as exc:
        # MemoryError: a size numpy refuses outright, such as a huge --n
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK if positive else EXIT_NEGATIVE


if __name__ == "__main__":
    raise SystemExit(main())
