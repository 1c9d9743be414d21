"""hardyconj benchmark: one closed-loop client that calls the CLI in-process.

    python3 benchmarks/run.py --workload explore-study --seed 1 --seconds 25 --trace 0

Run from any directory; the package is imported from this checkout's
``src/`` and the run refuses to start if it resolves anywhere else.
``--trace 0`` measures the end-to-end metrics, ``--trace 1`` the
per-layer metrics (the traced requests run in a separate interpreter).
``--smoke`` runs the same workload at tiny sizes. The last line of
stdout is the JSON result; the run environment and a readable table
precede it, and ``.bench_out/`` keeps the result file and the spans of
a traced run. See ``benchmarks/README.md`` for the metrics.
"""

import os

# Plain single-threaded baseline: pin OpenBLAS before numpy is imported
# here or in any child interpreter.
BLAS_THREADS = "1"
os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS

import argparse
import contextlib
import hashlib
import io
import json
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_RUNS = {"full": 7, "smoke": 1}     # cold starts per run, median reported
IMPORT_RUNS = {"full": 3, "smoke": 1}    # -X importtime probes per traced run
MIN_REQUESTS = {"full": 100, "smoke": 0}  # timed requests per untraced run
REPLAYS = 3                              # sampled byte-for-byte replays per run
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s",
    "requests_per_s": "1/s",
    "trials_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def import_cli():
    """hardyconj.cli from this checkout's src/, or exit without a result."""
    sys.path.insert(0, str(SRC))
    try:
        import hardyconj.cli
    except ImportError as exc:
        raise SystemExit(f"error: cannot import hardyconj from {SRC}: {exc}")
    where = Path(hardyconj.__file__).resolve()
    if not where.is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: hardyconj resolves to {where}, not under {SRC}")
    return hardyconj.cli


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=BLAS_THREADS)


class Tally:
    """Requests sent to the program and those that failed a check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, req: workloads.Request, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{' '.join(req.argv[:3])}: {'; '.join(problems)}")


def call(cli, args: list[str]):
    """Run one command in-process; returns (exit code or None, stdout, stderr, seconds)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        start = perf_counter()
        try:
            rc = cli.main(args)
        except Exception as exc:  # a crash is a failed request, not a failed run
            rc = None
            print(f"raised {exc!r}", file=stderr)
        elapsed = perf_counter() - start
    return rc, stdout.getvalue(), stderr.getvalue(), elapsed


def problems_of(req, rc, stdout, stderr) -> list[str]:
    if rc is None or rc == 2:
        return [f"exit code {rc}: {stderr.strip()[:200]}"]
    return workloads.check(req, rc, stdout)


def closed_loop(cli, cycle, seconds, min_requests, tally, tracer=None) -> list[list[float]]:
    """Whole passes over the cycle, one request after another, until both
    limits are met; returns the seconds of every request, one list per pass."""
    passes = []
    start = perf_counter()
    while (not passes or perf_counter() - start < seconds
           or len(passes) * len(cycle) < min_requests):
        times = []
        for req in cycle:
            if tracer is not None:
                tracer.request_id = len(passes) * len(cycle) + len(times)
            rc, stdout, stderr, elapsed = call(cli, req.args())
            times.append(elapsed)
            tally.record(req, problems_of(req, rc, stdout, stderr))
        passes.append(times)
    return passes


def typical(passes) -> list[float]:
    """Each distinct request's median over the passes, in seconds.

    Load from other tenants of the machine comes and goes within a run;
    the median of many passes repeats from run to run better than the
    fastest pass, which depends on a single quiet moment.
    """
    return [statistics.median(times) for times in zip(*passes)]


def warm_up(cli, cycle, tally) -> None:
    for req in cycle:
        rc, stdout, stderr, _ = call(cli, req.args())
        tally.record(req, problems_of(req, rc, stdout, stderr))


def replay(cli, cycle, seed, workdir, tally) -> None:
    """Rerun sampled requests and require byte-identical --out files."""
    for i, req in enumerate(random.Random(seed).sample(cycle, min(REPLAYS, len(cycle)))):
        again = workdir / f"replay-{i}{req.out.suffix}"
        rc, stdout, stderr, _ = call(cli, req.args(again))
        problems = problems_of(req, rc, stdout, stderr)
        if not problems and again.read_bytes() != req.out.read_bytes():
            problems = ["seeded replay wrote a different --out file"]
        tally.record(req, problems)


def cold_start(req, tally) -> float:
    """Seconds from a fresh interpreter to one completed request."""
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "hardyconj", *req.args()],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    elapsed = perf_counter() - start
    tally.record(req, problems_of(req, proc.returncode, proc.stdout, proc.stderr))
    return elapsed


def import_times() -> tuple[float, float]:
    """Cumulative ms of scipy.linalg and of hardyconj.cli in a cold import."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import hardyconj.cli"],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        check=True,
    )
    cumulative: dict[str, int] = {}
    for line in proc.stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[1].strip().isdigit():
            name = fields[2].strip()
            cumulative[name] = cumulative.get(name, 0) + int(fields[1])
    return cumulative.get("scipy.linalg", 0) / 1e3, cumulative["hardyconj.cli"] / 1e3


def _openblas() -> dict:
    """Runtime OpenBLAS configuration and thread count, where they can be queried."""
    import ctypes
    import glob

    import numpy

    info = {"build": None, "runtime": None, "threads": None}
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info["build"] = blas.get("openblas configuration", blas.get("name"))
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "")):
            threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if threads is not None and config is not None:
                threads.restype = ctypes.c_int
                config.restype = ctypes.c_char_p
                info["threads"] = threads()
                info["runtime"] = config().decode()
                return info
    return info


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas(),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "hardyconj_file": str(Path(sys.modules["hardyconj"].__file__).resolve()),
    }


def end_to_end(cycle, passes, setups) -> dict[str, float]:
    lat_ms = [x * 1e3 for x in typical(passes)]
    mean_pass = statistics.mean(map(sum, passes))
    return {
        "setup_s": statistics.median(setups),
        "requests_per_s": requests_per_s(passes),
        "trials_per_s": sum(req.trials for req in cycle) / mean_pass,
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_p90_ms": statistics.quantiles(lat_ms, n=10, method="inclusive")[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def requests_per_s(passes) -> float:
    """Timed requests completed per second of the whole timed loop."""
    return sum(map(len, passes)) / sum(map(sum, passes))


def pass_spread(passes) -> float:
    """Interquartile range of whole-pass times over their median."""
    totals = [sum(times) for times in passes]
    if len(totals) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(totals, n=4)
    return (q3 - q1) / median


def traced_role(args, cli, cycle) -> None:
    """Traced requests in this interpreter; prints per-layer figures as JSON."""
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    tally = Tally()
    warm_up(cli, cycle, tally)
    tracer.reset()
    passes = closed_loop(cli, cycle, args.seconds, 0, tally, tracer)
    suffix = "-smoke" if args.smoke else ""
    tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}{suffix}.tsv")
    layers = tracer.summary(len(passes) * len(cycle), sum(map(sum, passes)))
    print(json.dumps({
        "per_layer": layers,
        "requests_per_s": requests_per_s(passes),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
    }))


def traced_child(args, tally) -> dict:
    command = [sys.executable, str(Path(__file__).resolve()), "--role", "traced",
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds / 2), "--trace", "1"]
    if args.smoke:
        command.append("--smoke")
    proc = subprocess.run(command, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=args.seconds + CHILD_TIMEOUT_S, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    tally.attempted += result["attempted"]
    tally.failed += result["failed"]
    tally.problems += result["problems"]
    return result


def main_role(args, cli, cycle, workdir, size) -> None:
    tally = Tally()
    if args.trace == 0:
        setups = [cold_start(cycle[0], tally) for _ in range(SETUP_RUNS[size])]
        warm_up(cli, cycle, tally)
        passes = closed_loop(cli, cycle, args.seconds, MIN_REQUESTS[size], tally)
        values = end_to_end(cycle, passes, setups)
        units = END_TO_END_UNITS
        extra = {
            "timed_requests": (len(passes) * len(cycle), "count"),
            "distinct_requests": (len(cycle), "count"),
            "passes": (len(passes), "count"),
            "pass_time_spread": (pass_spread(passes), "ratio"),
        }
    else:
        import tracing

        warm_up(cli, cycle, tally)
        passes = closed_loop(cli, cycle, args.seconds / 2, 0, tally)
        probes = [import_times() for _ in range(IMPORT_RUNS[size])]
        traced = traced_child(args, tally)
        values = dict(traced["per_layer"])
        values["setup.import_scipy_linalg_ms"] = statistics.median(p[0] for p in probes)
        values["setup.import_hardyconj_ms"] = statistics.median(p[1] for p in probes)
        values["trace.overhead_ratio"] = traced["requests_per_s"] / requests_per_s(passes)
        units = tracing.per_layer_units()
        extra = {"untraced_requests": (len(passes) * len(cycle), "count")}
    replay(cli, cycle, args.seed, workdir, tally)
    extra["error_rate"] = (tally.failed / tally.attempted, "ratio")

    env = environment()
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print("# env " + json.dumps(env, sort_keys=True))
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace} size {size}")
    for name, metric in metrics.items():
        print(f"{name:<46} {metric['value']:>16.6g} {metric['unit']}")
    for name, (value, unit) in extra.items():
        print(f"{name:<46} {value:>16.6g} {unit}")
    for problem in tally.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, size=size, problems=tally.problems, env=env,
                  extra={name: value for name, (value, _) in extra.items()})
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' * args.smoke}"
    (OUT / f"{name}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, few requests")
    parser.add_argument("--role", choices=("main", "traced"), default="main",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> None:
    args = parse_args(argv)
    cli = import_cli()
    size = "smoke" if args.smoke else "full"
    workdir = OUT / f"work-{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        cycle = workloads.build_cycle(args.workload, args.seed, size, workdir)
        if args.role == "traced":
            traced_role(args, cli, cycle)
        else:
            main_role(args, cli, cycle, workdir, size)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
