"""Per-layer tracing of one CLI execution, from outside the program.

Child side (run as a script, in place of ``python -m tarstop.cli``):

    python3 clibench/tracer.py <trace-file> <cli args...>

wraps every public function of the program's layer modules, runs
``tarstop.cli.main`` and, when it returns, writes the recorded spans and
counters to ``<trace-file>``. Each wrapper replaces every ``tarstop.*``
module attribute bound to the function, because the modules import each
other's functions by name. A span records its function, start, end and
parent span; spans stay in memory until the run ends.

Parent side: ``layer_metrics`` turns a trace file into per-layer counts and
self times. A layer's self time is the time its spans cover minus the time
covered by spans of other layers nested in them. Public functions that are
not a layer of their own (``rate_value`` inside a fit, ``join`` inside
``join_all``, ``checkpoints`` inside ``run_stopping``) count toward the
layer that called them.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LAYER_MODULES = ("corpus", "rates", "estimates", "stopping", "baselines", "metrics", "cli")

# Functions whose spans start a layer of their own, and that layer's metric.
LAYERS = {
    "corpus.parse_run": "corpus.parse_run.s",
    "corpus.parse_qrels": "corpus.parse_qrels.s",
    "corpus.join_all": "corpus.join_all.s",
    "corpus.generate_synthetic": "corpus.generate_synthetic.s",
    "rates.window_estimates": "rates.window_estimates.s",
    "rates.fit_rate": "rates.fit_rate.s",
    "estimates.estimate_remaining_cox": "estimates.estimate_remaining_cox.s",
    "estimates.estimate_remaining_ip": "estimates.estimate_remaining_ip.s",
    "estimates.poisson_quantile": "estimates.poisson_quantile.s",
    "stopping.run_stopping": "stopping.run_stopping.self_s",
    "cli.main": "cli.main.self_s",
}
MODULE_LAYERS = {"baselines": "baselines.s", "metrics": "metrics.s"}
CALLS = (
    "corpus.parse_run", "rates.window_estimates", "rates.fit_rate", "rates.rate_integral", "estimates.estimate_remaining_cox", "estimates.estimate_remaining_ip",
    "estimates.poisson_quantile", "stopping.run_stopping",
)
GATES = ("too_few_relevant", "fit_failed", "nrmse_rejected", "evaluated")


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


class Recorder:
    """Spans and counters of one traced execution."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters: Counter = Counter()
        self.fit_inputs: set[tuple] = set()

    def _observe(self, fname: str, args: tuple, kwargs: dict, result) -> None:
        if fname == "rates.window_estimates":
            self.counters["rates.window_estimates.points"] += len(result)
        elif fname == "rates.fit_rate":
            points = _arg(args, kwargs, 0, "points")
            self.fit_inputs.add((
                points.x.tobytes(), points.y.tobytes(),
                _arg(args, kwargs, 1, "kind").value, _arg(args, kwargs, 2, "n_total"),
            ))
        elif fname == "estimates.estimate_remaining_cox":
            self.counters["estimates.estimate_remaining_cox.fallbacks"] += bool(result.fallback)
        elif fname == "stopping.run_stopping":
            for trace in result.traces:
                self.counters[f"stopping.gate.{trace.gate.value}"] += 1

    def wrap(self, fname: str, fn):
        name_id = len(self.names)
        self.names.append(fname)
        spans_name, spans_parent, starts, ends = self.name, self.parent, self.start, self.end
        stack, perf_counter = self.stack, time.perf_counter
        observe = self._observe

        def traced(*args, **kwargs):
            idx = len(starts)
            spans_name.append(name_id)
            spans_parent.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[idx] = perf_counter()
                stack.pop()
                self.counters[f"{fname}.raised"] += 1
                raise
            ends[idx] = perf_counter()
            stack.pop()
            observe(fname, args, kwargs, result)
            return result

        return traced

    def save(self, path: Path) -> None:
        import numpy as np

        meta = dict(names=self.names, counters=dict(self.counters),
                    fit_inputs=len(self.fit_inputs))
        np.savez(
            path,
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            meta=np.array(json.dumps(meta)),
        )


def install(recorder: Recorder) -> None:
    """Wrap the public functions of the layer modules and rebind every
    ``tarstop.*`` module attribute that refers to one of them."""
    import inspect

    wrappers = {}
    for short in LAYER_MODULES:
        module = sys.modules[f"tarstop.{short}"]
        for attr, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                wrappers[id(obj)] = recorder.wrap(f"{short}.{attr}", obj)
    for name, module in list(sys.modules.items()):
        if name != "tarstop" and not name.startswith("tarstop."):
            continue
        for attr, obj in list(vars(module).items()):
            if id(obj) in wrappers:
                setattr(module, attr, wrappers[id(obj)])


def layer_metrics(path: Path) -> dict[str, float]:
    """Per-layer counts and self times from one trace file."""
    import numpy as np

    with np.load(path) as data:
        name, parent = data["name"], data["parent"]
        dur = data["end"] - data["start"]
        meta = json.loads(str(data["meta"]))
    names = meta["names"]
    nested = parent >= 0
    self_time = dur - np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)

    # Each span belongs to its own layer, or else to its caller's.
    layer_of_name = []
    layer_names: list[str] = []
    for fname in names:
        metric = LAYERS.get(fname) or MODULE_LAYERS.get(fname.split(".")[0])
        if metric is not None and metric not in layer_names:
            layer_names.append(metric)
        layer_of_name.append(layer_names.index(metric) if metric else -1)
    own = np.asarray(layer_of_name, dtype=np.int64)[name]
    layer = own.tolist()
    parents = parent.tolist()
    for i, lay in enumerate(layer):
        if lay < 0:
            layer[i] = layer[parents[i]] if parents[i] >= 0 else -1
    layer = np.asarray(layer, dtype=np.int64)
    known = layer >= 0
    layer_self = np.bincount(layer[known], weights=self_time[known], minlength=len(layer_names))

    out: dict[str, float] = {m: 0.0 for m in list(LAYERS.values()) + list(MODULE_LAYERS.values())}
    out.update({m: float(v) for m, v in zip(layer_names, layer_self)})
    calls = Counter(names[i] for i in name.tolist())
    counters = meta["counters"]
    for fname in CALLS:
        out[f"{fname}.calls"] = calls.get(fname, 0)
    fits = calls.get("rates.fit_rate", 0)
    out["rates.fit_rate.unique_ratio"] = meta["fit_inputs"] / fits if fits else 0.0
    out["rates.fit_rate.failed"] = counters.get("rates.fit_rate.raised", 0)
    out["rates.window_estimates.points"] = counters.get("rates.window_estimates.points", 0)
    out["estimates.estimate_remaining_cox.fallbacks"] = counters.get(
        "estimates.estimate_remaining_cox.fallbacks", 0)
    for gate in GATES:
        out[f"stopping.gate.{gate}"] = counters.get(f"stopping.gate.{gate}", 0)
    return out


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import tarstop  # noqa: F401  (loads every layer module)
    import tarstop.cli

    recorder = Recorder()
    install(recorder)
    code = tarstop.cli.main(argv[1:])
    recorder.save(Path(argv[0]))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
