"""Seeded request cycles for the benchmark workloads, and the output check
of every request.

A workload is a fixed cycle of hardyconj command lines generated from the
workload seed alone: explore seeds, symbol coefficients, theta lists and
certification seeds. The program receives only these inputs. Every
request writes an ``--out`` file so its output can be checked and a
sample of requests can be replayed byte for byte.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("explore-study", "explore-large", "certify-mix")

#: The CLI's default tolerance; no request overrides it.
TOL = 1e-10

#: Problem sizes. ``full`` is the benchmark; ``smoke`` keeps the same
#: shape at tiny N so the harness can be tested in seconds.
SIZES = {
    "full": {
        "explore-study": {"n": 24, "band": 4, "trials": 200},
        "explore-large": {"n": 512, "band": 8, "trials": 3},
        "certify-mix": {"n": 256, "band": 8, "trials": 100},
    },
    "smoke": {
        "explore-study": {"n": 8, "band": 2, "trials": 12},
        "explore-large": {"n": 32, "band": 4, "trials": 3},
        "certify-mix": {"n": 16, "band": 2, "trials": 10},
    },
}

EXPLORE_CYCLE = 8          # distinct explore seeds per cycle
CERTIFY_DIAGONAL_ROUNDS = 3  # seeds per diagonal kind in one certify-mix cycle
CERTIFY_UNITARY = 5        # unitary-seed checks in one certify-mix cycle


@dataclass(frozen=True)
class Request:
    """One command line of a workload.

    ``expect`` is the exit code the inputs imply by construction, or None
    when the verdict is what the request measures (explore).
    """

    argv: tuple
    out: Path
    trials: int
    expect: int | None

    @property
    def command(self) -> str:
        return self.argv[0]

    def args(self, out: Path | None = None) -> list[str]:
        return [*self.argv, "--out", str(out or self.out)]


def build_cycle(workload: str, seed: int, size: str, workdir: Path) -> list[Request]:
    """The workload's request cycle; the same seed gives the same cycle."""
    rng = random.Random(seed)
    params = SIZES[size][workload]
    if workload in ("explore-study", "explore-large"):
        return _explore_cycle(rng, workdir, **params)
    if workload == "certify-mix":
        return _certify_cycle(rng, workdir, **params)
    raise ValueError(f"unknown workload {workload!r}")


def _explore_cycle(rng, workdir, n, band, trials) -> list[Request]:
    cycle = []
    for i in range(EXPLORE_CYCLE):
        argv = ("explore", "--mode", "mixed", "--n", str(n), "--band", str(band),
                "--trials", str(trials), "--seed", str(rng.randrange(1, 2**31)))
        cycle.append(Request(argv, workdir / f"explore-{i}.jsonl", trials, None))
    return cycle


def _angle(rng) -> float:
    return rng.uniform(0.0, 2.0 * math.pi)


def _onesided(rng, band) -> str:
    """One-sided coefficients at the library's unit scale, damped by 1/(1+n)."""
    return json.dumps([
        {"n": k, "re": rng.gauss(0.0, 1.0) / (1 + k), "im": rng.gauss(0.0, 1.0) / (1 + k)}
        for k in range(1, band + 1)
    ])


def _certify_cycle(rng, workdir, n, band, trials) -> list[Request]:
    """Conjugation certificates for every kind plus symmetry checks whose
    verdict is known by construction.

    A symbol completed from a constant sequence w is symmetric for every
    diagonal conjugation whose multipliers are w**(2k): zeta with constant
    w, lambda with w**2 and alpha with phases conj(w**(2k)); for j the
    completion uses w = 1. A symbol completed from a generic sequence
    satisfies the one-sided rule only, so the operator check is negative.
    """
    cycle = []
    common = ("--n", str(n))
    cert = (*common, "--trials", str(trials))
    seq = {"thetas": [_angle(rng) for _ in range(n)]}

    def conjugation(kind, extra, tag):
        argv = ("check-conjugation", "--kind", kind, *extra, *cert,
                "--seed", str(rng.randrange(1, 2**31)))
        cycle.append(Request(argv, workdir / f"cert-{tag}.json", trials, 0))

    for r in range(CERTIFY_DIAGONAL_ROUNDS):
        thetas = json.dumps({"thetas": [_angle(rng) for _ in range(n)]})
        conjugation("zeta", ("--sequence", thetas), f"zeta-{r}")
        conjugation("j", (), f"j-{r}")
        conjugation("lambda", ("--theta", repr(_angle(rng))), f"lambda-{r}")
        conjugation("alpha", ("--sequence", thetas), f"alpha-{r}")
    for r in range(CERTIFY_UNITARY):
        conjugation("unitary-seed", (), f"unitary-{r}")

    t = _angle(rng)
    symbols = {
        "unit": {"constant": {"theta": 0.0}},
        "constant": {"constant": {"theta": t}},
        "generic": seq,
    }
    for name, sequence in symbols.items():
        argv = ("gen-symbol", "--onesided", _onesided(rng, band),
                "--zero", json.dumps({"re": rng.gauss(0.0, 1.0), "im": rng.gauss(0.0, 1.0)}),
                "--sequence", json.dumps(sequence))
        cycle.append(Request(argv, workdir / f"symbol-{name}.json", 0, 0))

    alpha = {"thetas": [-2.0 * k * t for k in range(n)]}
    checks = (  # (kind, spec, symbol file, expected exit code)
        ("j", {"kind": "j"}, "unit", 0),
        ("lambda", {"kind": "lambda", "value": {"theta": 2.0 * t}}, "constant", 0),
        ("alpha", {"kind": "alpha", "sequence": alpha}, "constant", 0),
        ("zeta", {"kind": "zeta", "sequence": {"constant": {"theta": t}}}, "constant", 0),
        ("j", {"kind": "j"}, "generic", 1),
        ("lambda", {"kind": "lambda", "value": {"theta": 2.0 * t}}, "generic", 1),
        ("alpha", {"kind": "alpha", "sequence": alpha}, "generic", 1),
        ("zeta", {"kind": "zeta", "sequence": seq}, "generic", 1),
    )
    for kind, spec, symbol, expect in checks:
        argv = ("check-symmetry", "--symbol", str(workdir / f"symbol-{symbol}.json"),
                "--conjugation", json.dumps(spec), *common)
        cycle.append(Request(argv, workdir / f"symmetry-{kind}-{symbol}.json", 0, expect))
    return cycle


def check(req: Request, rc: int, stdout: str) -> list[str]:
    """Problems with one request's exit code, stdout report and --out file."""
    if rc not in (0, 1):
        return [f"exit code {rc}"]
    if req.expect is not None and rc != req.expect:
        return [f"exit code {rc}, expected {req.expect} by construction"]
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"stdout is not one JSON report: {exc}"]
    if report.get("command") != req.command:
        return [f"report is for command {report.get('command')!r}"]
    return _CHECKS[req.command](req, rc, report)


def _same_file_report(req, report) -> list[str]:
    shown = dict(report)
    shown.pop("runtime_ms", None)
    if json.loads(req.out.read_text(encoding="utf-8")) != shown:
        return ["--out file differs from the stdout report"]
    return []


def _check_conjugation(req, rc, report) -> list[str]:
    passed = report["results"]["passed"]
    if rc != (0 if passed else 1):
        return [f"exit code {rc} contradicts passed={passed}"]
    return _same_file_report(req, report)


def _check_symmetry(req, rc, report) -> list[str]:
    results = report["results"]
    holds = results["residual"] <= results["tol"]
    problems = []
    if rc != (0 if holds else 1):
        problems.append(f"exit code {rc} contradicts residual {results['residual']:.3e}")
    if results["entrywise_holds"] != holds:
        problems.append("entrywise criterion disagrees with the residual oracle")
    return problems + _same_file_report(req, report)


def _check_gen_symbol(req, rc, report) -> list[str]:
    if json.loads(req.out.read_text(encoding="utf-8")) != report["results"]:
        return ["symbol file differs from the reported symbol"]
    return []


def _check_explore(req, rc, report) -> list[str]:
    lines = req.out.read_text(encoding="utf-8").splitlines()
    if len(lines) != req.trials + 1:
        return [f"{len(lines)} lines in --out, expected trials + 1 = {req.trials + 1}"]
    records = [json.loads(line) for line in lines]
    summary = records[-1].get("summary")
    if summary is None:
        return ["--out does not end with a summary line"]
    problems = []
    for record in records[:-1]:
        rep = record["report"]
        if rep["entrywise_holds"] is not None and rep["entrywise_holds"] != (
            rep["residual"] <= rep["tol"]
        ):
            problems.append(f"trial {record['trial']}: entrywise criterion disagrees with oracle")
        if record["mode"] == "constant" and rep["agree"] is not True:
            problems.append(f"trial {record['trial']}: constant-mode criteria disagree")
    if summary["entrywise_mismatch_trials"]:
        problems.append(f"entrywise mismatches {summary['entrywise_mismatch_trials']}")
    if rc != (0 if summary["onesided_disagreements"] == 0 else 1):
        problems.append(f"exit code {rc} contradicts the summary")
    if report["results"] != summary:
        problems.append("stdout summary differs from the --out summary")
    return problems


_CHECKS = {
    "check-conjugation": _check_conjugation,
    "check-symmetry": _check_symmetry,
    "gen-symbol": _check_gen_symbol,
    "explore": _check_explore,
}
