"""Span tracer that wraps the package's layer functions from outside.

``Tracer.install()`` replaces each traced function with a wrapper that
records a span (name, start, end, parent span, run id) and rebinds every
copy of the name in the package: ``tower`` calls ``apply`` through its own
``from .maps import apply`` binding, so patching ``maps.apply`` alone would
let those calls bypass the wrapper.  Spans stay in flat in-memory arrays and
are written out once, after the traced run.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import math
import sys
import time
from array import array
from pathlib import Path

import numpy as np

PACKAGE = "quenched_limits"
LAYERS = ("omega", "maps", "tower", "transfer", "decomp", "coupling", "stats", "kstest")

# Called once per scalar parameter draw inside ParamSequence.param; a span
# for it would double the tracing cost of the scalar orbit loops.
SKIP = {"omega.zigzag"}
# Traced besides each layer's public functions: the parameter methods and
# the decomposition kernel that martingale_psi and sigma_squared share.
METHODS = {"omega": {"ParamSequence": ("param", "params")}}
PRIVATE = {"decomp": ("_decompose",)}
# util's file output is counted under the cli layer.
IO_FUNCTIONS = ("write_csv", "write_json", "sha256_of")


class Tracer:
    def __init__(self, run_id: int = 0):
        self.run_id = run_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.run = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.apply_points = 0
        self.brownian_paths = 0
        self.param_keys: set = set()
        self.ulam_keys: set = set()
        self._undo: list = []

    # -- spans ---------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.run.append(self.run_id)
        self.end.append(math.nan)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, name: str, fn, hook=None):
        """A traced stand-in for fn; hook(*args, **kwargs) runs before each call."""
        nid = self.name_id(name)
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:   # one span per step, closed before the value is yielded
                    idx = self.open(nid)
                    try:
                        value = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self.close(idx)
                    yield value
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(*args, **kwargs)
            idx = self.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        return wrapper

    # -- installation --------------------------------------------------

    def _hooks(self) -> dict:
        def param(seq, i):
            self.param_keys.add((seq.master_seed, i + seq.origin_offset))

        def apply(fmap, x):
            self.apply_points += np.size(x)

        def ulam(fmap, n_bins, subsamples=64):
            self.ulam_keys.add((fmap.family, fmap.alpha, n_bins, subsamples))

        def brownian(functional, sigma, n_paths, *args, **kwargs):
            self.brownian_paths += n_paths

        return {"omega.param": param, "maps.apply": apply, "transfer.ulam_matrix": ulam,
                "stats.brownian_functional_samples": brownian}

    def _targets(self):
        """(owner, attribute, span name) of every function to trace."""
        targets = []
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and f"{layer}.{attr}" not in SKIP):
                    targets.append((mod, attr, f"{layer}.{attr}"))
            for attr in PRIVATE.get(layer, ()):
                targets.append((mod, attr, f"{layer}.{attr}"))
            for cls, methods in METHODS.get(layer, {}).items():
                for attr in methods:
                    targets.append((getattr(mod, cls), attr, f"{layer}.{attr}"))
        util = sys.modules[f"{PACKAGE}.util"]
        targets += [(util, attr, f"cli.{attr}") for attr in IO_FUNCTIONS]
        return targets

    def install(self):
        """Wrap every traced function and rebind all its copies in the package."""
        __import__(f"{PACKAGE}.cli")
        hooks = self._hooks()
        modules = [m for n, m in sys.modules.items()
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for owner, attr, name in self._targets():
            orig = getattr(owner, attr)
            wrapped = self.wrap(name, orig, hooks.get(name))
            self._rebind(owner, attr, wrapped)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._rebind(mod, key, wrapped)

    def _rebind(self, owner, key, new):
        self._undo.append((owner, key, vars(owner)[key]))
        setattr(owner, key, new)

    def uninstall(self):
        for owner, key, old in reversed(self._undo):
            setattr(owner, key, old)
        self._undo.clear()

    # -- results -------------------------------------------------------

    def arrays(self) -> dict:
        return {"names": np.array(self.names, dtype=str),
                "name": np.array(self.name, dtype=np.int64),
                "parent": np.array(self.parent, dtype=np.int64),
                "run": np.array(self.run, dtype=np.int64),
                "start": np.array(self.start, dtype=np.float64),
                "end": np.array(self.end, dtype=np.float64)}

    def save(self, path: Path):
        np.savez(path, **self.arrays())

    def by_name(self) -> dict[str, tuple[int, float]]:
        """name -> (span count, summed self time)."""
        a = self.arrays()
        return aggregate(a["names"], a["name"], a["parent"], a["start"], a["end"])

    def layer_metrics(self, subcommands) -> dict[str, float]:
        """The per-layer metrics that the spans and hooks determine."""
        agg = self.by_name()

        def calls(name):
            return agg.get(name, (0, 0.0))[0]

        def self_s(name):
            return agg.get(name, (0, 0.0))[1]

        def layer(prefix, what):
            return sum(v[what] for k, v in agg.items() if k.startswith(prefix + "."))

        param_calls = calls("omega.param")
        apply_calls = calls("maps.apply")
        ulam_builds = calls("transfer.ulam_matrix")
        return {
            "omega.param_calls": param_calls,
            "omega.param_s": self_s("omega.param"),
            "omega.params_calls": calls("omega.params"),
            "omega.param_unique_ratio": _ratio(len(self.param_keys), param_calls),
            "maps.apply_calls": apply_calls,
            "maps.apply_points": self.apply_points,
            "maps.points_per_call": _ratio(self.apply_points, apply_calls),
            "maps.apply_s": self_s("maps.apply"),
            "maps.inverse_calls": calls("maps.left_branch_inverse"),
            "maps.inverse_s": self_s("maps.left_branch_inverse"),
            "tower.calls": layer("tower", 0),
            "tower.partition_s": self_s("tower.build_partition"),
            "tower.return_vec_s": self_s("tower.return_times_vec"),
            "tower.self_s": layer("tower", 1),
            "transfer.ulam_builds": ulam_builds,
            "transfer.ulam_s": self_s("transfer.ulam_matrix"),
            "transfer.ulam_unique_ratio": _ratio(len(self.ulam_keys), ulam_builds),
            "transfer.push_calls": calls("transfer.pushforward"),
            "transfer.push_s": self_s("transfer.pushforward"),
            "transfer.equivariant_s": self_s("transfer.equivariant_density"),
            "decomp.decompose_calls": calls("decomp._decompose"),
            "decomp.self_s": layer("decomp", 1),
            "coupling.calls": layer("coupling", 0),
            "coupling.pairs": calls("coupling.match_pair"),
            "coupling.match_pair_s": self_s("coupling.match_pair"),
            "coupling.self_s": layer("coupling", 1),
            "stats.birkhoff_self_s": self_s("stats.birkhoff_ensemble"),
            "stats.brownian_s": self_s("stats.brownian_functional_samples"),
            "stats.brownian_paths": self.brownian_paths,
            "kstest.calls": calls("kstest.ks_statistic") + calls("kstest.ks_2samp"),
            "kstest.s": layer("kstest", 1),
            **{f"cli.{sub}_s": self_s(f"cli.{sub}") for sub in subcommands},
            "cli.io_s": sum(self_s(f"cli.{f}") for f in IO_FUNCTIONS),
        }


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the summed durations of its direct children."""
    dur = end - start
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
    return dur - covered


def aggregate(names, name, parent, start, end) -> dict[str, tuple[int, float]]:
    """Span count and summed self time per span name."""
    selfs = self_times(parent, start, end)
    counts = np.bincount(name, minlength=len(names))
    totals = np.bincount(name, weights=selfs, minlength=len(names))
    return {str(n): (int(c), float(t)) for n, c, t in zip(names, counts, totals)}
