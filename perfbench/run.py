"""End-to-end and per-layer benchmark of corrcs's reproduction recipes.

    python3 perfbench/run.py --workload fig3-grid --seed 0 --seconds 30 --trace 0

Run from the repository root: the program is imported from `./src`. Each
workload (see workloads.py) is one `corrcs.cli.main` call on a recipe's own
flags, repeated in this process for about `--seconds`; the inputs follow from
`--seed`, which is passed to the recipe as its master seed.

--trace 0 measures with tracing off and prints the end-to-end metrics.
--trace 1 alternates untraced and traced calls and prints the per-layer
metrics of the first traced call (spans.py), plus the tracing overhead. On
fig5-phase the pool's forked workers keep their spans, so the parent gives
only the pool figures and a traced `--workers 1` call of the same inputs
gives the solver figures; that call's CSV must equal the pooled one.

Outputs, a result file with the environment block, and the span file go to
`.bench_out/`. The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

from spans import SpanTable, Tracer, layer_metrics
from workloads import WORKLOADS, check, gain_ratio, l1_solves, read_output

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".bench_out"
SETUP_PROBES = 7
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# A fresh interpreter: import the CLI and design the recipe's quantizers.
SETUP_PROBE = """\
import time
t0 = time.perf_counter()
import corrcs.cli
from corrcs.quantizers import design_lloyd_max, gain_model_analytic
for bits in {bits}:
    gain_model_analytic(design_lloyd_max(bits, 1.0), 1.0)
print(time.perf_counter() - t0)
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument(
        "--trials", type=int, default=None,
        help="override the workload's trial count (smoke tests only)",
    )
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0 or (args.trials is not None and args.trials < 1):
        parser.error("--seed must be >= 0, --seconds > 0 and --trials >= 1")
    return args


def import_program(root: str):
    """Import corrcs.cli from `root/src`, and from nowhere else."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "corrcs", "cli.py")):
        sys.exit(f"run.py: no corrcs sources under {src}; run from the repository root")
    sys.path.insert(0, src)
    import corrcs
    import corrcs.cli

    if os.path.dirname(os.path.dirname(os.path.abspath(corrcs.__file__))) != src:
        sys.exit(f"run.py: imported corrcs from {corrcs.__file__}, not from {src}")
    return corrcs.cli


def environment(root: str, args, trials: int) -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas = "unknown"
    git = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
        env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root)),
    )
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {name: os.environ.get(name) for name in THREAD_VARS},
        "git_commit": git.stdout.strip() if git.returncode == 0 else "unknown (not a git checkout)",
        "workload": args.workload,
        "seed": args.seed,
        "trials": trials,
        "trace": args.trace,
    }


class Runner:
    """Calls `main()` on one workload's flags and checks every call's output."""

    def __init__(self, cli, workload, seed, trials, out_root, reference):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.trials = trials
        self.out_root = out_root
        self.reference = reference
        self.calls = 0
        self.problems: list = []
        self.first_output = None  # (bytes, parsed) of the first call
        self.solves = None  # (attempted, non-converged) counted at solve_bpdn

    def call(self, workers=None, tracer=None) -> dict:
        """One timed `main()` call; returns its wall and CPU times."""
        out = os.path.join(self.out_root, f"call{self.calls}")
        self.calls += 1
        argv = self.workload.argv(self.seed, out, self.trials, workers)
        os.makedirs(out, exist_ok=True)
        gc.collect()
        installed = tracer.installed() if tracer else contextlib.nullcontext()
        counting = self.workload.counts_solves and self.solves is None and tracer is None
        counted = self._count_solves() if counting else contextlib.nullcontext()
        with installed, counted, contextlib.redirect_stdout(io.StringIO()):
            cpu0 = os.times()
            t0 = time.perf_counter()
            rc = self.cli.main(argv)
            wall = time.perf_counter() - t0
            cpu1 = os.times()
        self._check(rc, out)
        return {
            "wall_s": wall,
            "self_cpu_s": (cpu1.user + cpu1.system) - (cpu0.user + cpu0.system),
            "children_cpu_s": (cpu1.children_user + cpu1.children_system)
            - (cpu0.children_user + cpu0.children_system),
        }

    @contextlib.contextmanager
    def _count_solves(self):
        """Count solve_bpdn calls where the tuning objective resolves it."""
        experiments = sys.modules["corrcs.experiments"]
        original = experiments.solve_bpdn
        counts = [0, 0]

        def counted(*args, **kwargs):
            report = original(*args, **kwargs)
            counts[0] += 1
            counts[1] += not report.converged
            return report

        experiments.solve_bpdn = counted
        try:
            yield
        finally:
            experiments.solve_bpdn = original
            self.solves = tuple(counts)

    def _check(self, rc: int, out: str) -> None:
        if rc != 0:
            self.problems.append(f"call {self.calls - 1}: main() returned {rc}")
            return
        path = os.path.join(out, self.workload.output)
        with open(path, "rb") as fh:
            data = fh.read()
        if self.first_output is None:
            result = read_output(self.workload, out)
            self.first_output = (data, result)
            self.problems += check(self.workload, result, self.reference)
        else:
            if data != self.first_output[0]:
                self.problems.append(
                    f"call {self.calls - 1}: {self.workload.output} differs from the first call's"
                )
            shutil.rmtree(out)

    def attempted_failed(self) -> tuple:
        if self.first_output is None:
            return 1, 1
        if self.workload.counts_solves:
            attempted, failed = self.solves
        else:
            attempted, failed = l1_solves(self.first_output[1])
        attempted = max(attempted, 1)
        return attempted, (attempted if self.problems else failed)


def repeat(step, seconds: float, min_calls: int = 1) -> list:
    """Call `step()` until the next call would likely end after `seconds`."""
    results = []
    begin = time.perf_counter()
    while True:
        results.append(step())
        elapsed = time.perf_counter() - begin
        if len(results) >= min_calls and elapsed + median_of(results, "wall_s") > seconds:
            return results


def median_of(results, key) -> float:
    return statistics.median(r[key] for r in results)


def setup_seconds(root: str, workload) -> list:
    """Wall time of SETUP_PROBES fresh imports of the CLI plus quantizer designs."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    code = SETUP_PROBE.format(bits=tuple(workload.design_bits))
    times = []
    for _ in range(SETUP_PROBES):
        probe = subprocess.run(
            [sys.executable, "-c", code], cwd=root, env=env,
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(probe.stdout.strip().splitlines()[-1]))
    return times


def end_to_end(runner: Runner, seconds: float, root: str) -> tuple:
    calls = repeat(runner.call, seconds)
    peak_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed = runner.attempted_failed()
    gain = gain_ratio(runner.workload, runner.first_output[1]) if runner.first_output else 0.0
    return {
        "wall_s": (median_of(calls, "wall_s"), "s"),
        "setup_s": (statistics.median(setup_seconds(root, runner.workload)), "s"),
        "peak_rss_mb": (peak_self, "MB"),
        "converged_frac": (1.0 - failed / attempted, "ratio"),
        "gain_ratio": (gain, "ratio"),
    }, [c["wall_s"] for c in calls]


def per_layer(runner: Runner, seconds: float, trace_path: str) -> tuple:
    """Untraced and traced calls in turn, at least untraced-traced-untraced;
    per-layer metrics of the first traced call."""
    tracer = Tracer()
    traces: dict = {}
    plain: list = []
    traced: list = []

    def step():
        if len(plain) > len(traced):
            tracer.reset()
            call = runner.call(tracer=tracer)
            if not traced:
                traces["main"] = (tracer.to_json(), call["wall_s"])
            traced.append(call)
        else:
            call = runner.call()
            plain.append(call)
        return call

    repeat(step, seconds, min_calls=3)
    workers_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    main = serial = SpanTable(*traces["main"])
    if runner.workload.pooled:
        # Runner checks that this call's CSV equals the pooled calls' CSV.
        tracer.reset()
        call = runner.call(workers=1, tracer=tracer)
        traces["workers=1"] = (tracer.to_json(), call["wall_s"])
        serial = SpanTable(*traces["workers=1"])

    metrics, sources = layer_metrics(main, serial)
    # The first call also pays the process's first-call costs; leave it out.
    warm = plain[1:]
    children_cpu = warm[0]["children_cpu_s"]
    total_cpu = warm[0]["self_cpu_s"] + children_cpu
    traced_walls = [c["wall_s"] for c in traced]
    plain_walls = [c["wall_s"] for c in warm]
    overhead = statistics.median(traced_walls) - statistics.median(plain_walls)
    metrics.update({
        "experiments.worker_cpu_frac": (children_cpu / total_cpu if total_cpu > 0 else 0.0, "ratio"),
        "experiments.cpu_util": (total_cpu / (warm[0]["wall_s"] * (os.cpu_count() or 1)), "ratio"),
        "experiments.worker_peak_rss_mb": (workers_rss, "MB"),
        "trace.overhead_s": (overhead, "s"),
        "trace.overhead_pct": (100.0 * overhead / statistics.median(plain_walls), "%"),
    })

    with open(trace_path, "w") as fh:
        json.dump({name: {"wall_s": wall, **trace} for name, (trace, wall) in traces.items()}, fh)
    extra = {"traced_wall_s": traced_walls, "untraced_wall_s": plain_walls, "sources": sources}
    return metrics, extra


def load_reference(workload, trials: int, seed: int):
    with open(os.path.join(HERE, "reference.json")) as fh:
        entry = json.load(fh).get(workload.name)
    if entry is None or entry["trials"] != trials:
        return None
    return entry["seeds"].get(str(seed))


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    cli = import_program(root)
    workload = WORKLOADS[args.workload]
    trials = workload.trials if args.trials is None else args.trials

    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    out_root = os.path.join(root, OUT_DIR, tag)
    shutil.rmtree(out_root, ignore_errors=True)
    os.makedirs(out_root)
    reference = load_reference(workload, trials, args.seed)
    runner = Runner(cli, workload, args.seed, trials, out_root, reference)

    if args.trace:
        trace_path = os.path.join(root, OUT_DIR, f"{tag}-spans.json")
        metrics, extra = per_layer(runner, args.seconds, trace_path)
    else:
        metrics, walls = end_to_end(runner, args.seconds, root)
        extra = {"wall_s_per_call": walls}
    env = environment(root, args, trials)  # after measuring: its git call is a child process
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    attempted, failed = runner.attempted_failed()
    result = {
        "correct": not runner.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    with open(os.path.join(root, OUT_DIR, f"{tag}.json"), "w") as fh:
        report = dict(result, env=env, problems=runner.problems, **extra)
        json.dump(dict(report, reference_checked=reference is not None), fh, indent=1)
    for problem in runner.problems:
        print(f"check failed: {problem}", flush=True)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}", flush=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
