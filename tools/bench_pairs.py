"""Alternating parent/change benchmark pairs, written to BENCH_<label>.json.

    python3 tools/bench_pairs.py --label NAME --base HEAD~1 --workload fig5-phase --seeds 0-9

Both sides are exported with `git archive` (the change defaults to HEAD, so
commit first) into one temporary directory, and each pair runs the
benchmark command of BENCHMARK.json (`python3 perfbench/run.py ... --trace 0`,
for its `run_seconds`) once in each tree on the same seed, alternating which
side runs first. The output file at the repository root keeps the
environment block (run.py's env line plus the OpenBLAS thread count that a
fresh interpreter of the benchmark command uses), both commits, every
pair's end-to-end metrics, each side's median and quartiles per metric, and
how many pairs the change won.
A gain is claimed only when the change wins at least 9 in 10 pairs and the
medians differ by more than the parent's interquartile distance
(`claim_met`). A metric is flagged `regressed` when the change's median is
worse than the parent's by more than the metric's BENCHMARK.json `bound`,
a fraction of the parent's median (any worsening when that median is 0).
Running the script again with the same label adds its
workloads to the file, replacing an earlier run of the same workload and
seeds.

Run one benchmark at a time on a small machine: two at once measure the
scheduler. Uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("base", "change")
# keys of run.py's env line that describe one run, not the machine
PER_RUN_ENV = ("git_commit", "seed", "workload", "trace", "trials")
# Prints the thread count of numpy's bundled OpenBLAS, read through ctypes
# after numpy is imported, or null and the reason when no such symbol is found.
BLAS_PROBE = r"""
import ctypes, glob, json, os
import numpy
pattern = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)),
                       "numpy.libs", "libscipy_openblas64_*.so")
out = {"openblas_threads": None, "openblas_threads_reason": "no file " + pattern}
for path in sorted(glob.glob(pattern)):
    try:
        get = ctypes.CDLL(path).scipy_openblas_get_num_threads64_
    except AttributeError:
        out["openblas_threads_reason"] = "no scipy_openblas_get_num_threads64_ in " + path
        continue
    get.argtypes, get.restype = [], ctypes.c_int
    out = {"openblas_threads": get(), "openblas_lib": os.path.basename(path)}
    break
print(json.dumps(out))
"""


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    if not seeds or min(seeds) < 0:
        raise argparse.ArgumentTypeError(f"bad seed list {text!r}")
    return seeds


def parse_args(argv, benchmark):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--base", required=True, help="git revision of the parent")
    parser.add_argument("--change", default="HEAD", help="git revision of the change")
    parser.add_argument(
        "--workload", required=True, action="append",
        choices=[w["name"] for w in benchmark["workloads"]],
    )
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="e.g. 0-9 or 0,3,41")
    return parser.parse_args(argv)


def git(*args) -> str:
    return subprocess.run(
        ["git", "-C", ROOT, *args], check=True, capture_output=True, text=True
    ).stdout.strip()


def export(rev: str, dest: str) -> None:
    """Write the files of `rev` to `dest`, as `git archive` gives them."""
    proc = subprocess.Popen(["git", "-C", ROOT, "archive", rev], stdout=subprocess.PIPE)
    with tarfile.open(fileobj=proc.stdout, mode="r|") as tar:
        tar.extractall(dest, filter="data")
    if proc.wait() != 0:
        raise SystemExit(f"git archive {rev} failed")


def blas_threads(python: str) -> dict:
    """The OpenBLAS thread count that a fresh `python` uses once numpy is imported."""
    proc = subprocess.run([python, "-c", BLAS_PROBE], capture_output=True, text=True)
    if proc.returncode != 0:
        return {"openblas_threads": None,
                "openblas_threads_reason": proc.stderr.strip()[-500:]}
    return json.loads(proc.stdout)


def run_once(command, tree, workload, seed, seconds) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    env = next((json.loads(l[4:]) for l in lines if l.startswith("env ")), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if proc.returncode != 0 or result is None:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    return {
        "env": env,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def summarize(pairs, end_to_end) -> dict:
    """Per metric: each side's median and quartiles, the change's wins, whether
    it meets the gain rule, and whether it moved worse than its bound."""
    out = {}
    for metric in end_to_end:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {
            side: [p[side]["metrics"][name] for p in pairs if "metrics" in p[side]]
            for side in SIDES
        }
        if not all(values.values()):
            continue
        entry = {}
        for side in SIDES:
            v = values[side]
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
            entry[side] = {"median": statistics.median(v), "q1": q1, "q3": q3}
        both = [p for p in pairs if "metrics" in p["base"] and "metrics" in p["change"]]
        wins = sum(
            (p["change"]["metrics"][name] < p["base"]["metrics"][name]) == lower
            and p["change"]["metrics"][name] != p["base"]["metrics"][name]
            for p in both
        )
        gap = entry["base"]["median"] - entry["change"]["median"]
        if not lower:
            gap = -gap
        iqr = entry["base"]["q3"] - entry["base"]["q1"]
        entry.update(
            unit=metric["unit"], better=metric["better"], pairs=len(both), wins=wins,
            median_gain=gap, base_iqr=iqr,
            claim_met=wins >= 0.9 * len(both) and gap > iqr,
            bound=metric["bound"],
            regressed=-gap > metric["bound"] * abs(entry["base"]["median"]),
        )
        out[name] = entry
    return out


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)
    args = parse_args(argv, benchmark)
    seconds = benchmark["run_seconds"]
    commits = {side: git("rev-parse", getattr(args, side)) for side in SIDES}
    blas = blas_threads(benchmark["command"][0])
    path = os.path.join(ROOT, f"BENCH_{args.label}.json")
    record = {"label": args.label, "runs": []}
    if os.path.exists(path):
        with open(path) as fh:
            record = json.load(fh)

    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {side: os.path.join(tmp, side) for side in SIDES}
        for side in SIDES:
            export(commits[side], trees[side])
        for workload in args.workload:
            pairs = []
            for i, seed in enumerate(args.seeds):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_once(
                        benchmark["command"], trees[side], workload, seed, seconds
                    )
                env = pair["base"].pop("env", None)
                pair["change"].pop("env", None)
                if env is not None:
                    record["env"] = {k: v for k, v in env.items() if k not in PER_RUN_ENV}
                    record["env"].update(blas)
                pairs.append(pair)
                print(json.dumps(pair), flush=True)
            run = {
                "workload": workload,
                "seeds": args.seeds,
                "seconds": seconds,
                "commits": commits,
                "pairs": pairs,
                "summary": summarize(pairs, benchmark["end_to_end"]),
            }
            record["runs"] = [
                r for r in record["runs"]
                if (r["workload"], r["seeds"]) != (workload, args.seeds)
            ] + [run]
            with open(path, "w") as fh:
                json.dump(record, fh, indent=1)
                fh.write("\n")
            for name, entry in run["summary"].items():
                print(
                    f"{workload} {name}: base {entry['base']['median']:.4g} "
                    f"change {entry['change']['median']:.4g} {entry['unit']}, "
                    f"wins {entry['wins']}/{entry['pairs']}, claim_met {entry['claim_met']}, "
                    f"regressed {entry['regressed']}",
                    flush=True,
                )
    return 0


if __name__ == "__main__":
    sys.exit(main())
