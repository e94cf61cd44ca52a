"""Compare the files two revisions write on a fixed set of seeded recipes.

    python3 tools/same_outputs.py BASE [CHANGE]

Both revisions are exported with the `export` helper of tools/bench_pairs.py
(CHANGE defaults to HEAD, so commit first), and each export runs, from its
own `src`:

- `reproduce --figure fig2|fig3|fig4 --scale desk --trials 2` at
  `--workers 1` and `2` (CSV, three manifests and plot script each);
- `reproduce --figure fig5 --scale desk` at `--trials 1` and `3`, each at
  `--workers 1` and `2` (CSV, manifest and plot script);
- `phase-sweep --n 64 --trials 2` at `--workers 1` and `2` (CSV and
  manifest);
- `optimize-beta-epsilon --m 400 --k 41 --bits 1 --trials 3` on seeds 0-9;
- `reproduce --figure table1`;
- `quantizer --design lloyd-max|uniform --bits 1|3`, with the analytic gain
  model, and `--bits 1 --samples 20000`, with the sampled fit.

For each file the script prints "equal", or the largest relative difference
among the numbers in it (or why the two cannot be compared number by number).
JSON files are parsed and compared value by value, so a changed string reads
"text differs" and never counts as a numeric move.
It exits 1 when any file or exit status differs, or a run fails. Seeded
outputs depend on the BLAS thread count, so run both sides in the same
environment. Uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_pairs import export, git  # noqa: E402

NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")


def recipes() -> list:
    """(name, CLI arguments, output file name or None for a directory) for
    every run of the set."""
    out = []
    for figure in ("fig2", "fig3", "fig4"):
        for workers in (1, 2):
            out.append((f"{figure}-trials2-workers{workers}",
                        ["reproduce", "--figure", figure, "--scale", "desk",
                         "--trials", "2", "--workers", str(workers)], None))
    for trials in (1, 3):
        for workers in (1, 2):
            out.append((f"fig5-trials{trials}-workers{workers}",
                        ["reproduce", "--figure", "fig5", "--scale", "desk",
                         "--trials", str(trials), "--workers", str(workers)], None))
    for workers in (1, 2):
        out.append((f"phase-sweep-n64-trials2-workers{workers}",
                    ["phase-sweep", "--n", "64", "--trials", "2",
                     "--workers", str(workers)], None))
    for seed in range(10):
        out.append((f"tune-seed{seed}",
                    ["optimize-beta-epsilon", "--m", "400", "--k", "41", "--bits", "1",
                     "--trials", "3", "--seed", str(seed)], "tune.json"))
    out.append(("table1", ["reproduce", "--figure", "table1"], None))
    for design in ("lloyd-max", "uniform"):
        for bits in (1, 3):
            out.append((f"quantizer-{design}-bits{bits}",
                        ["quantizer", "--design", design, "--bits", str(bits)],
                        "quantizer.json"))
        out.append((f"quantizer-{design}-bits1-samples20000",
                    ["quantizer", "--design", design, "--bits", "1", "--samples", "20000"],
                    "quantizer.json"))
    return out


def run(tree: str, name: str, args: list, out_file, out_root: str) -> int:
    """Run one recipe in `tree`, its files landing in `out_root/name`; its exit status."""
    dest = os.path.join(out_root, name)
    os.makedirs(dest)
    target = dest if out_file is None else os.path.join(dest, out_file)
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    proc = subprocess.run([sys.executable, "-m", "corrcs", *args, "--out", target],
                          cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode not in (0, 2):  # 2: a flagged grid point, still written
        print(f"{name}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}", flush=True)
    return proc.returncode


def _leaves(value, path="$"):
    """(path, value) of every scalar of a parsed JSON document, keys sorted."""
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _leaves(value[key], f"{path}.{key}")
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _leaves(item, f"{path}[{index}]")
    else:
        yield path, value


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def compare(a: bytes, b: bytes, is_json: bool = False) -> str:
    """"equal", or the largest relative difference among the files' numbers.

    With `is_json` both sides are parsed, and only number values are compared
    as numbers; a string, boolean or null that differs is "text differs".
    """
    if a == b:
        return "equal"
    ta, tb = a.decode(), b.decode()
    if is_json:
        la, lb = list(_leaves(json.loads(ta))), list(_leaves(json.loads(tb)))
        if [path for path, _ in la] != [path for path, _ in lb]:
            return "structure differs"
        pairs = [(x, y) for (_, x), (_, y) in zip(la, lb)]
        if any(x != y and not (_is_number(x) and _is_number(y)) for x, y in pairs):
            return "text differs"
        numbers = [(float(x), float(y)) for x, y in pairs if _is_number(x)]
    else:
        if NUMBER.sub("#", ta) != NUMBER.sub("#", tb):
            return "text differs"
        numbers = zip(map(float, NUMBER.findall(ta)), map(float, NUMBER.findall(tb)))
    worst = 0.0
    for x, y in numbers:
        if x != y:
            worst = max(worst, abs(x - y) / max(abs(x), abs(y)))
    return f"max relative difference {worst:.3g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="git revision of the parent")
    parser.add_argument("change", nargs="?", default="HEAD", help="git revision of the change")
    args = parser.parse_args(argv)
    sides = ("base", "change")
    commits = {side: git("rev-parse", getattr(args, side)) for side in sides}
    differing = total = bad_runs = 0
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        for side in sides:
            export(commits[side], os.path.join(tmp, side))
        for name, cli_args, out_file in recipes():
            codes = {
                side: run(os.path.join(tmp, side), name, cli_args, out_file,
                          os.path.join(tmp, f"{side}-out"))
                for side in sides
            }
            if codes["base"] != codes["change"] or codes["base"] not in (0, 2):
                bad_runs += 1
                print(f"{name}: exit {codes['base']} -> {codes['change']}", flush=True)
            dirs = {side: os.path.join(tmp, f"{side}-out", name) for side in sides}
            files = sorted(set(os.listdir(dirs["base"])) | set(os.listdir(dirs["change"])))
            for filename in files:
                total += 1
                paths = {side: os.path.join(dirs[side], filename) for side in sides}
                if not all(os.path.exists(p) for p in paths.values()):
                    verdict = "missing on one side"
                else:
                    with open(paths["base"], "rb") as fa, open(paths["change"], "rb") as fb:
                        verdict = compare(fa.read(), fb.read(), filename.endswith(".json"))
                differing += verdict != "equal"
                print(f"{name}/{filename}: {verdict}", flush=True)
    print(f"{total} files, {total - differing} equal, {differing} differing, "
          f"{bad_runs} runs failed or exited differently "
          f"({commits['base'][:12]} -> {commits['change'][:12]})")
    return 1 if differing or bad_runs else 0


if __name__ == "__main__":
    sys.exit(main())
