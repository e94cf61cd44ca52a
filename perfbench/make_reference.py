"""Record reference.json, the per-seed data the correctness checks compare to.

    python3 perfbench/make_reference.py

Run from the repository root. For seeds 0-9 and the workloads' own trial
counts it stores the fig3-grid means with their 99% CIs, and the fig5-phase
cells (computed with one worker; the pooled CSV is byte-identical). Rerun it
only in a change that means to move these numbers, and say so there.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

from run import HERE, OUT_DIR, import_program
from workloads import WORKLOADS, fig5_columns, read_output

SEEDS = range(10)


def record(cli, workload, seed: int):
    out = os.path.join(OUT_DIR, "reference", workload.name, str(seed))
    argv = workload.argv(seed, out, workers=1 if workload.pooled else None)
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    if rc != 0:
        raise SystemExit(f"{workload.name} seed {seed}: main() returned {rc}")
    rows = read_output(workload, out)
    if workload.name == "fig5-phase":
        return fig5_columns(rows)
    return [
        [int(r["bits"]), int(r["m"]), r["method"], float(r["mean_nmse"]), float(r["ci99"])]
        for r in rows
    ]


def main() -> None:
    cli = import_program(os.getcwd())
    reference = {}
    for name in ("fig3-grid", "fig5-phase"):
        workload = WORKLOADS[name]
        seeds = {str(s): record(cli, workload, s) for s in SEEDS}
        reference[name] = {"trials": workload.trials, "seeds": seeds}
        print(name, "recorded", flush=True)
    # one line per (workload, seed), so a re-recording diffs seed by seed
    blocks = []
    for name, entry in reference.items():
        seeds = ",\n".join(f"    {json.dumps(s)}: {json.dumps(v)}" for s, v in entry["seeds"].items())
        head = f'  {json.dumps(name)}: {{"trials": {entry["trials"]}, "seeds": {{'
        blocks.append(f"{head}\n{seeds}\n  }}}}")
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        fh.write("{\n" + ",\n".join(blocks) + "\n}\n")


if __name__ == "__main__":
    main()
