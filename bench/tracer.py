"""Span tracer for the traced benchmark run.

`Tracer.install` replaces the public functions of each gravwitness module
with wrappers from this file, in every namespace a caller looks the name up
in: the defining module (module-attribute and intra-module calls), every
module that imported the name (for example `gravwitness.sweep.validate`),
and the package itself.  Each wrapper records one span: function, parent
span, start and end.  Spans stay in memory until `save` writes them out.
`uninstall` puts every original back, so untraced passes run the library
untouched.

Two hot counters are kept without spans: `constraints.cp_ratio` (the
`min_separation` bisection calls it ~67 times per report) and
`TwoQubitState.__post_init__` (one `eigvalsh` positivity check per state).

The span stack is a plain list: tracing assumes one thread, which is why
the benchmark caps the sweep at one worker.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np

LAYERS = ("core", "gravphase", "constraints", "decoherence", "spinstate",
          "gravfield", "sweep", "cli")

# The functions callers reach across a layer boundary.  Intra-layer helpers
# that are not listed here run inside their caller's span.
SPANNED = {
    "core": ("validate", "config_from_dict", "paper_defaults",
             "config_to_dict"),
    "gravphase": ("static_phases", "dynamic_phases", "pairwise_separations",
                  "branch_positions", "mutual_acceleration",
                  "small_split_phase", "superposition_size"),
    "constraints": ("feasibility_report",),
    "decoherence": ("dephasing_budget", "collisional_time",
                    "gas_de_broglie_wavelength", "thermal_wavelength"),
    "spinstate": ("entangled_state", "apply_dephasing", "negativity",
                  "witness", "optimize_witness", "expectation"),
    "gravfield": ("newtonian_phase", "modes_for_separation", "build_modes",
                  "branch_phase", "branch_displacement_set", "displacements",
                  "branch_overlap", "reduced_mass_state", "classicalize",
                  "dephase_branch_basis"),
    "sweep": ("run_sweep", "maximize"),
    "cli": ("main",),
}

# Computed work of the mode-level gravfield kernels: (modes evaluated,
# bytes of float64/complex128 arrays read and written per mode).  branch_phase
# reads kGrid and weights; displacements also writes the complex alpha;
# branch_overlap reads two alphas; build_modes writes kGrid and weights.
GRAVFIELD_WORK = {
    "branch_phase": (1, 16),
    "displacements": (1, 32),
    "branch_overlap": (1, 32),
    "build_modes": (0, 16),
}


def _gravfield_modes(name, args, kwargs, result) -> int:
    if name == "build_modes":
        return result.nModes
    if name == "branch_overlap":
        return args[0].modes.nModes
    return (args[0] if args else kwargs["modes"]).nModes


class Tracer:
    def __init__(self, package):
        self.package = package
        # span function ids: "layer.function" and its layer index
        self.names = [f"{layer}.{name}" for layer in LAYERS
                      for name in SPANNED[layer]]
        self.layer_of = [LAYERS.index(n.split(".")[0]) for n in self.names]
        self.fid = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.raised: dict[int, str] = {}    # span index -> exception type
        self.stack: list[int] = []
        # first span index and counter snapshot of each traced pass
        self.pass_starts: list[tuple[int, dict[str, int]]] = []
        self.counts = {"constraints.cp_ratio.calls": 0,
                       "spinstate.state_checks": 0,
                       "gravfield.modes_evaluated": 0,
                       "gravfield.bytes_computed": 0}
        self._restore: list[tuple[object, str, object]] = []
        self._replacement: dict[int, object] = {}

    # ------------------------------------------------------------ install

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        pkg = self.package
        modules = [getattr(pkg, layer) for layer in LAYERS]
        replacement = self._replacement
        if not replacement:
            for layer, module in zip(LAYERS, modules):
                for name in SPANNED[layer]:
                    original = getattr(module, name)
                    replacement[id(original)] = self._span_wrapper(
                        original, layer, name)
            cp_ratio = pkg.constraints.cp_ratio
            replacement[id(cp_ratio)] = self._count_wrapper(
                cp_ratio, "constraints.cp_ratio.calls")
        for namespace in (pkg, *modules):
            for name, value in list(vars(namespace).items()):
                wrapper = replacement.get(id(value))
                if wrapper is not None:
                    self._restore.append((namespace, name, value))
                    setattr(namespace, name, wrapper)
        state_cls = pkg.spinstate.TwoQubitState
        self._restore.append((state_cls, "__post_init__",
                              state_cls.__post_init__))
        state_cls.__post_init__ = self._count_wrapper(
            state_cls.__post_init__, "spinstate.state_checks")

    def uninstall(self) -> None:
        for namespace, name, value in reversed(self._restore):
            setattr(namespace, name, value)
        self._restore.clear()

    def begin_pass(self) -> None:
        self.pass_starts.append((len(self.fid), dict(self.counts)))

    def _count_wrapper(self, fn, key):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    def _span_wrapper(self, fn, layer, name):
        fid = self.names.index(f"{layer}.{name}")
        stack, fids, parents = self.stack, self.fid, self.parent
        starts, ends, raised = self.start, self.end, self.raised
        counts, clock = self.counts, time.perf_counter_ns
        work = GRAVFIELD_WORK.get(name) if layer == "gravfield" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(fids)
            fids.append(fid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                raised[idx] = type(err).__name__
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if work is not None:
                modes = _gravfield_modes(name, args, kwargs, result)
                counts["gravfield.modes_evaluated"] += work[0] * modes
                counts["gravfield.bytes_computed"] += work[1] * modes
            return result
        return traced

    # ------------------------------------------------------------ results

    def arrays(self) -> dict[str, np.ndarray]:
        return {"fid": np.frombuffer(self.fid, dtype=np.int32).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
                "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
                "end_ns": np.frombuffer(self.end, dtype=np.int64).copy()}

    def _pass_slice(self, k: int) -> slice:
        bounds = [b for b, _ in self.pass_starts] + [len(self.fid)]
        return slice(bounds[k], bounds[k + 1])

    def _pass_counts(self, k: int) -> dict[str, int]:
        snapshots = [c for _, c in self.pass_starts] + [dict(self.counts)]
        return {key: snapshots[k + 1][key] - snapshots[k][key]
                for key in self.counts}

    def layer_metrics(self, k: int) -> dict[str, float]:
        """Counts and self times of every layer in traced pass `k`.

        A span's self time is its duration minus its child spans'.
        `<layer>.calls` counts entries into the layer from another layer (or
        from the benchmark); `<layer>.<function>.calls` counts every call.
        """
        sl = self._pass_slice(k)
        a = {key: v[sl] for key, v in self.arrays().items()}
        fid = a["fid"]
        parent = a["parent"] - sl.start     # each pass starts at an empty stack
        has_parent = a["parent"] >= 0
        parent = np.where(has_parent, parent, 0)
        dur = (a["end_ns"] - a["start_ns"]).astype(float) / 1e9
        self_s = dur - np.bincount(parent[has_parent], weights=dur[has_parent],
                                   minlength=fid.size)
        layer = np.asarray(self.layer_of, dtype=np.int64)[fid]
        entry = ~has_parent | (layer[parent] != layer)
        fid_of = {name: i for i, name in enumerate(self.names)}

        out = {}
        for i, name in enumerate(LAYERS):
            in_layer = layer == i
            out[f"{name}.calls"] = float(np.sum(in_layer & entry))
            out[f"{name}.self_s"] = float(np.sum(self_s[in_layer]))
        for name in ("core.validate", "constraints.feasibility_report",
                     "decoherence.dephasing_budget", "spinstate.negativity",
                     "spinstate.optimize_witness", "gravfield.branch_phase"):
            out[f"{name}.calls"] = float(np.sum(fid == fid_of[name]))
        for name in ("core.validate", "spinstate.optimize_witness"):
            out[f"{name}.self_s"] = float(np.sum(self_s[fid == fid_of[name]]))
        regime = np.zeros(fid.size, dtype=bool)
        for idx, kind in self.raised.items():
            if sl.start <= idx < sl.stop:
                regime[idx - sl.start] = kind == "RegimeError"
        deco = layer == LAYERS.index("decoherence")
        out["decoherence.regime_errors"] = float(np.sum(regime & deco & entry))
        out.update({key: float(v) for key, v in self._pass_counts(k).items()})

        # validate calls whose ancestor chain holds a maximize span
        is_max = fid == fid_of["sweep.maximize"]
        under = np.zeros(fid.size, dtype=bool)
        while True:
            nxt = has_parent & (is_max[parent] | under[parent])
            if np.array_equal(nxt, under):
                break
            under = nxt
        n_max = int(np.sum(is_max))
        evals = np.sum(under & (fid == fid_of["core.validate"]))
        out["sweep.evals_per_maximize"] = float(evals) / n_max if n_max else 0.0
        return out

    def per_call_us(self) -> dict[str, tuple[int, float, float, float]]:
        """Per function: calls per pass, and the median, fastest and slowest
        over the traced passes of the mean inclusive time of a call, in us."""
        a = self.arrays()
        dur_us = (a["end_ns"] - a["start_ns"]) / 1e3
        table = {}
        for fid, name in enumerate(self.names):
            means, count = [], 0
            for k in range(len(self.pass_starts)):
                sl = self._pass_slice(k)
                sel = a["fid"][sl] == fid
                if sel.any():
                    means.append(float(dur_us[sl][sel].mean()))
                    count = int(sel.sum())
            if means:
                table[name] = (count, float(np.median(means)), min(means),
                               max(means))
        return table

    def save(self, path) -> None:
        raised = sorted(self.raised)
        np.savez_compressed(path, names=np.array(self.names),
                            pass_starts=np.array([b for b, _ in self.pass_starts]),
                            raised_index=np.array(raised, dtype=np.int64),
                            raised_type=np.array([self.raised[i] for i in raised]),
                            **self.arrays())
