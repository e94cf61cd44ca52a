"""Compare the l1 solves of two revisions on a fixed set of random instances.

    python3 tools/same_solves.py BASE [CHANGE]

Both revisions are exported with the `export` helper of tools/bench_pairs.py
(CHANGE defaults to HEAD, so commit first), and each export runs
`solve_bpdn`, from its own `src`, on seeds 0-2999 of the generator in
WORKLOAD: Gaussian matrices with 4 to 59 rows and columns, tall at even
seeds and wide or square at odd ones, at matrix scales from 1e-8 to 1e16,
and radii from 1e-9 to about 0.99 of ||y||, log-uniform. The script lists every
instance whose solution bytes, iteration count or `converged` flag differ,
with its shape, scale, eps/||y||, both sides' iterations, residual/eps and
the relative move of the l1 norm, and marks each `converged` flip. It exits
1 when any instance differs or a run fails. Seeded solves depend on the
BLAS thread count, so run both sides in the same environment. Uses the
standard library only; the solves run under each tree's numpy.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_pairs import export, git  # noqa: E402

SEEDS = 3000

# Runs in each exported tree with the seed count as its argument, and prints
# one JSON object per instance.
WORKLOAD = """
import hashlib, json, sys
import numpy as np
from numpy.linalg import norm
from corrcs.bpdn import BpdnProblem, solve_bpdn

for seed in range(int(sys.argv[1])):
    rng = np.random.default_rng(seed)
    tall = seed % 2 == 0
    m, n = rng.integers(4, 40), rng.integers(4, 60)
    if (m > n) != tall:
        m, n = n, m
    scale = 10.0 ** rng.uniform(-8, 16)
    a = rng.normal(size=(m, n)) * scale
    y = rng.normal(size=m)
    eps = norm(y) * 10.0 ** rng.uniform(-9, -0.005)
    report = solve_bpdn(BpdnProblem(a, y, eps))
    print(json.dumps({
        "seed": seed, "m": int(m), "n": int(n), "scale": scale,
        "eps_ratio": eps / norm(y),
        "solution": hashlib.sha1(report.solution.tobytes()).hexdigest(),
        "iterations": report.iterations, "converged": report.converged,
        "l1": report.l1_norm, "residual_ratio": report.residual_norm / eps,
    }))
"""


def collect(tree: str) -> list:
    """One record per instance, solved from `tree`'s `src`."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    proc = subprocess.run([sys.executable, "-c", WORKLOAD, str(SEEDS)],
                          cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"solves failed in {tree}: {proc.stderr.strip()[-1000:]}")
    return [json.loads(line) for line in proc.stdout.splitlines()]


def compare(base: list, change: list) -> list:
    """A line for each instance whose solution, iterations or converged differ.

    Both lists hold the records of the same seeds in the same order.
    """
    lines = []
    for b, c in zip(base, change, strict=True):
        if b["seed"] != c["seed"]:
            raise ValueError(f"seed {b['seed']} paired with seed {c['seed']}")
        if all(b[key] == c[key] for key in ("solution", "iterations", "converged")):
            continue
        scale = max(abs(b["l1"]), abs(c["l1"]))
        l1_move = abs(c["l1"] - b["l1"]) / scale if scale > 0.0 else 0.0
        flip = "  FLIP" if b["converged"] != c["converged"] else ""
        lines.append(
            f"{b['seed']}: {b['m']}x{b['n']} scale {b['scale']:.3g} "
            f"eps/||y|| {b['eps_ratio']:.3g}: "
            f"iterations {b['iterations']} -> {c['iterations']}, "
            f"residual/eps {b['residual_ratio']:.9g} -> {c['residual_ratio']:.9g}, "
            f"l1 moved {l1_move:.3g}, "
            f"converged {b['converged']} -> {c['converged']}{flip}"
        )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="git revision of the parent")
    parser.add_argument("change", nargs="?", default="HEAD", help="git revision of the change")
    args = parser.parse_args(argv)
    commits = {side: git("rev-parse", getattr(args, side)) for side in ("base", "change")}
    with tempfile.TemporaryDirectory(prefix="same_solves_") as tmp:
        records = {}
        for side, commit in commits.items():
            export(commit, os.path.join(tmp, side))
            records[side] = collect(os.path.join(tmp, side))
    lines = compare(records["base"], records["change"])
    for line in lines:
        print(line)
    flips = sum(line.endswith("FLIP") for line in lines)
    print(f"{len(records['base'])} instances, {len(lines)} differ, {flips} converged flips "
          f"({commits['base'][:12]} -> {commits['change'][:12]})")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
