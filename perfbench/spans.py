"""In-memory span tracer that wraps corrcs's public functions from outside.

Nothing in `src/` is edited. `Tracer.installed()` replaces, for the duration
of a `with` block, every module attribute through which callers reach a
traced function: `corrcs.bpdn.project_l1` (called by the solver through its
module globals), and the copies that `corrcs.experiments` and `corrcs.cli`
bound with `from ... import`. Class attributes (`SensingEnsemble.from_matrix`,
`TuningObjective.__call__`) and `corrcs.experiments.ProcessPoolExecutor` are
replaced the same way. On exit every original is put back.

A span is (name, parent, start, end) plus the `iterations`/`converged` of a
returned solver report. Spans live in flat arrays until `to_json` writes them.
A span's self time is its duration minus the durations of its direct
children; calls on one thread nest, so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
from array import array
from time import perf_counter

import numpy as np

MODULES = (
    "corrcs.cli",
    "corrcs.experiments",
    "corrcs.bpdn",
    "corrcs.biht",
    "corrcs.siggen",
    "corrcs.model",
    "corrcs.quantizers",
    "corrcs.neldermead",
)

# (defining module, function name, span name); the layer is the span name up
# to its last dot, so `bpdn.project_l1.call` belongs to layer `bpdn.project_l1`.
FUNCTIONS = (
    ("corrcs.experiments", "run_experiment", "experiments.run_experiment"),
    ("corrcs.experiments", "run_phase_sweep", "experiments.run_phase_sweep"),
    ("corrcs.experiments", "tuning_objective", "experiments.tuning_objective"),
    ("corrcs.experiments", "nmse", "experiments.nmse"),
    ("corrcs.experiments", "write_results_csv", "cli.write.results_csv"),
    ("corrcs.experiments", "write_manifest", "cli.write.manifest"),
    ("corrcs.experiments", "write_sweep_manifest", "cli.write.sweep_manifest"),
    ("corrcs.cli", "_write_json", "cli.write.json"),
    ("corrcs.neldermead", "minimize", "neldermead.minimize"),
    ("corrcs.bpdn", "solve_bpdn", "bpdn.solve_bpdn"),
    ("corrcs.bpdn", "solve_post_scaled", "bpdn.solve_post_scaled"),
    ("corrcs.bpdn", "project_l1", "bpdn.project_l1.call"),
    ("corrcs.biht", "solve_biht", "biht.solve_biht"),
    ("corrcs.siggen", "generate_signal", "siggen.generate_signal"),
    ("corrcs.siggen", "generate_ensemble", "siggen.generate_ensemble"),
    ("corrcs.siggen", "purpose_rng", "siggen.purpose_rng"),
    ("corrcs.quantizers", "design_lloyd_max", "quantizers.design.lloyd_max"),
    ("corrcs.quantizers", "design_uniform_mmse", "quantizers.design.uniform"),
    ("corrcs.quantizers", "gain_model_analytic", "quantizers.design.gain_model"),
    ("corrcs.quantizers", "quantize", "quantizers.quantize.call"),
    ("corrcs.quantizers", "quantizer_from_json", "quantizers.json.from_json"),
    ("corrcs.quantizers", "quantizer_to_json", "quantizers.json.to_json"),
)

LAYERS = (
    "cli.write",
    "experiments",
    "experiments.pool",
    "experiments.pool_teardown",
    "neldermead",
    "bpdn",
    "bpdn.project_l1",
    "biht",
    "siggen",
    "model",
    "quantizers.design",
    "quantizers.quantize",
    "quantizers.json",
)


def layer_of(span_name: str) -> str:
    return span_name.rsplit(".", 1)[0]


class Tracer:
    """Collects spans while installed; see the module docstring."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.iterations = array("i")
        self.converged = array("b")
        self._stack = [-1]

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int, start: float, parent: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(math.nan)
        self.iterations.append(-1)
        self.converged.append(-1)
        return idx

    def record(self, name: str, start: float, end: float, parent: int) -> int:
        """Append an already finished span under `parent` (-1 for a root)."""
        idx = self._open(self._name_id(name), start, parent)
        self.end[idx] = end
        return idx

    def wrap(self, fn, span_name: str):
        nid = self._name_id(span_name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid, perf_counter(), self._stack[-1])
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self._stack.pop()
            its = getattr(result, "iterations", None)
            if its is not None:
                self.iterations[idx] = int(its)
                self.converged[idx] = int(bool(result.converged))
            return result

        return traced

    def _pool_class(self, base):
        tracer = self

        class TracedPool(base):
            def __init__(self, *args, **kwargs):
                self._span_start = perf_counter()
                self._span_parent = tracer._stack[-1]
                super().__init__(*args, **kwargs)

            def shutdown(self, *args, **kwargs):
                t0 = perf_counter()
                super().shutdown(*args, **kwargs)
                t1 = perf_counter()
                pool = tracer.record(
                    "experiments.pool.lifetime", self._span_start, t1, self._span_parent
                )
                tracer.record("experiments.pool_teardown.shutdown", t0, t1, pool)

        return TracedPool

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced attribute for the duration of the block."""
        modules = [importlib.import_module(name) for name in MODULES]
        patches = []  # (owner, attribute, original)
        try:
            for module_name, attr, span_name in FUNCTIONS:
                original = getattr(importlib.import_module(module_name), attr)
                traced = self.wrap(original, span_name)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            patches.append((module, key, original))
                            setattr(module, key, traced)
            model = importlib.import_module("corrcs.model")
            experiments = importlib.import_module("corrcs.experiments")
            ensemble = model.SensingEnsemble
            from_matrix = ensemble.__dict__["from_matrix"]
            patches.append((ensemble, "from_matrix", from_matrix))
            ensemble.from_matrix = classmethod(
                self.wrap(from_matrix.__func__, "model.from_matrix")
            )
            objective = experiments.TuningObjective
            patches.append((objective, "__call__", objective.__call__))
            objective.__call__ = self.wrap(objective.__call__, "experiments.objective_eval")
            pool = experiments.ProcessPoolExecutor
            patches.append((experiments, "ProcessPoolExecutor", pool))
            experiments.ProcessPoolExecutor = self._pool_class(pool)
            yield self
        finally:
            for owner, key, original in reversed(patches):
                setattr(owner, key, original)

    def to_json(self) -> dict:
        """Names and span columns; times in seconds from the first span's start."""
        origin = self.start[0] if self.start else 0.0
        return {
            "names": list(self.names),
            "spans": {
                "name": self.name.tolist(),
                "parent": self.parent.tolist(),
                "start": [t - origin for t in self.start],
                "end": [t - origin for t in self.end],
                "iterations": self.iterations.tolist(),
                "converged": self.converged.tolist(),
            },
        }


def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Duration minus the summed durations of each span's direct children."""
    has_parent = parent >= 0
    covered = np.bincount(
        parent[has_parent], weights=duration[has_parent], minlength=duration.size
    )
    return duration - covered


def tail_percentile(n: int) -> float:
    """Highest of the usual percentiles that leaves at least 10 samples above it."""
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - pct / 100.0) >= 10.0:
            return pct
    return 50.0


class SpanTable:
    """Per-layer figures of one traced `main()` call."""

    def __init__(self, trace: dict, wall_s: float):
        spans = trace["spans"]
        self.names = trace["names"]
        self.name = np.asarray(spans["name"], dtype=np.int64)
        self.parent = np.asarray(spans["parent"], dtype=np.int64)
        self.duration = np.asarray(spans["end"], dtype=np.float64) - np.asarray(
            spans["start"], dtype=np.float64
        )
        self.iterations = np.asarray(spans["iterations"], dtype=np.int64)
        self.converged = np.asarray(spans["converged"], dtype=np.int64)
        self.self_s = self_times(self.parent, self.duration)
        self.wall_s = wall_s
        layer_ids = {layer: i for i, layer in enumerate(LAYERS)}
        name_layer = [layer_ids.get(layer_of(name), -1) for name in self.names]
        self._layer = np.asarray(name_layer, dtype=np.int64)[self.name]

    def mask(self, *span_names: str) -> np.ndarray:
        ids = [self.names.index(n) for n in span_names if n in self.names]
        return np.isin(self.name, ids)

    def layer_mask(self, layer: str) -> np.ndarray:
        return self._layer == LAYERS.index(layer)

    def count(self, *span_names: str) -> int:
        return int(self.mask(*span_names).sum())

    def layer_self_s(self, layer: str) -> float:
        return float(self.self_s[self.layer_mask(layer)].sum())

    def shares(self) -> dict:
        """Each layer's self time as a percentage of the traced wall time."""
        out = {layer: 100.0 * self.layer_self_s(layer) / self.wall_s for layer in LAYERS}
        out["unattributed"] = 100.0 - sum(out.values())
        return out

    def children_named(self, span_name: str) -> np.ndarray:
        """For each span: how many direct children it has called `span_name`."""
        child = self.mask(span_name) & (self.parent >= 0)
        return np.bincount(self.parent[child], minlength=self.name.size)


POOL_LAYERS = ("experiments.pool", "experiments.pool_teardown")


def layer_metrics(main: SpanTable, serial: SpanTable) -> tuple:
    """Per-layer metrics as {name: (value, unit)}, and which came from `serial`.

    `main` is the traced call of the workload's own command. On a pooled
    workload the work done in workers is invisible there, so `serial` is a
    traced `--workers 1` call of the same inputs, and the metrics of that work
    and every share except the pool's are taken from it; otherwise
    `serial is main`.
    """
    solves = serial.mask("bpdn.solve_bpdn")
    solve_ms = 1000.0 * serial.duration[solves]
    n_solves = int(solves.sum())
    tail_pct = tail_percentile(n_solves)
    iterations = int(serial.iterations[solves].sum())
    biht = serial.mask("biht.solve_biht")
    n_biht = int(biht.sum())
    from_serial = {
        "bpdn.solves": (n_solves, "count"),
        "bpdn.solve_s": (serial.layer_self_s("bpdn"), "s"),
        "bpdn.solve_p50_ms": (float(np.percentile(solve_ms, 50)) if n_solves else 0.0, "ms"),
        "bpdn.solve_tail_ms": (float(np.percentile(solve_ms, tail_pct)) if n_solves else 0.0, "ms"),
        "bpdn.solve_tail_pct": (tail_pct, "percentile"),
        "bpdn.iterations": (iterations, "count"),
        "bpdn.iterations_per_solve": (iterations / n_solves if n_solves else 0.0, "count"),
        "bpdn.nonconverged": (int((serial.converged[solves] == 0).sum()), "count"),
        "bpdn.project_l1_calls": (serial.count("bpdn.project_l1.call"), "count"),
        "bpdn.project_l1_s": (serial.layer_self_s("bpdn.project_l1"), "s"),
        "siggen.calls": (int(serial.layer_mask("siggen").sum()), "count"),
        "siggen.self_s": (serial.layer_self_s("siggen"), "s"),
        "model.ensemble_s": (serial.layer_self_s("model"), "s"),
        "quantizers.quantize_calls": (serial.count("quantizers.quantize.call"), "count"),
        "quantizers.json_roundtrips": (serial.count("quantizers.json.from_json"), "count"),
        "biht.solves": (n_biht, "count"),
        "biht.iterations": (int(serial.iterations[biht].sum()), "count"),
        "biht.converged_ratio": (
            float((serial.converged[biht] == 1).mean()) if n_biht else 0.0, "ratio"
        ),
    }
    for layer, share in serial.shares().items():
        if layer not in POOL_LAYERS:
            from_serial[f"share.{layer}"] = (share, "%")
    evals = main.mask("experiments.objective_eval")
    fresh = main.children_named("bpdn.solve_bpdn")[evals] > 0
    main_shares = main.shares()
    metrics = dict(from_serial)
    metrics.update({
        f"share.{layer}": (main_shares[layer], "%") for layer in POOL_LAYERS
    })
    metrics.update({
        "quantizers.design_s": (main.layer_self_s("quantizers.design"), "s"),
        "neldermead.evals": (int(evals.sum()), "count"),
        "experiments.tune_cache_hit_ratio": (
            float((~fresh).mean()) if fresh.size else 0.0, "ratio"
        ),
        "experiments.run_calls": (main.count("experiments.run_experiment"), "count"),
        "experiments.self_s": (main.layer_self_s("experiments"), "s"),
        "experiments.pool_starts": (main.count("experiments.pool.lifetime"), "count"),
        "cli.write_s": (main.layer_self_s("cli.write"), "s"),
        "trace.spans": (
            int(main.name.size + (serial.name.size if serial is not main else 0)), "count"
        ),
    })
    sources = {"workers=1 call": sorted(from_serial)} if serial is not main else {}
    return metrics, sources
