"""Spans around calls into the program's modules, and the per-layer metrics.

``Tracer.install`` replaces every public function bound as an attribute of
one of the program's modules (including names one module imports from
another, and the classmethod ``SubspaceFamily.from_normals``) by a wrapper
that records a span.  A call through any binding therefore records exactly
one span, and a recursive call through the module global records one span
per level.  ``uninstall`` restores the original bindings.

Spans live in flat arrays while the workload runs and are written out at
the end.  A span's self time is its duration minus the part of it that its
child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import os
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("cli", "familyio", "separator", "geometry", "prevalence", "polytope")

#: name, unit, better -- reported by a traced run, per traced cycle.
PER_LAYER = (
    ("separator.adapt_basis.s", "s", "lower"),
    ("separator.adapt_basis.rows", "count", "lower"),
    ("separator.common_complement.self_s", "s", "lower"),
    ("separator.extend_superspace.s", "s", "lower"),
    ("separator.SubspaceFamily.from_normals.s", "s", "lower"),
    ("separator.sample_box_separator.s", "s", "lower"),
    ("separator.sample_cube_separator.s", "s", "lower"),
    ("separator.draws_attempted", "count", "lower"),
    ("separator.draws_accepted", "count", "lower"),
    ("separator.accept_ratio", "frac", "higher"),
    ("separator.certify.s", "s", "lower"),
    ("separator.certify.members", "count", "lower"),
    ("geometry.degree_of_transversality.s", "s", "lower"),
    ("geometry.degree_of_transversality.calls", "count", "lower"),
    ("separator.fit_decay.s", "s", "lower"),
    ("separator.fit_decay.calls", "count", "lower"),
    ("separator.is_well_separating.s", "s", "lower"),
    ("geometry.orthonormalize.s", "s", "lower"),
    ("geometry.orthonormalize.calls", "count", "lower"),
    ("geometry.orthonormalize.passthrough_frac", "frac", "higher"),
    ("familyio.load_family.s", "s", "lower"),
    ("familyio.load_family.bytes", "bytes", "lower"),
    ("familyio.family_from_dict.s", "s", "lower"),
    ("familyio.load_complement.s", "s", "lower"),
    ("familyio.save_complement.s", "s", "lower"),
    ("familyio.save_complement.bytes", "bytes", "lower"),
    ("familyio.dump_json.s", "s", "lower"),
    ("prevalence.translation_experiment.self_s", "s", "lower"),
    ("prevalence.translated_span.s", "s", "lower"),
    ("prevalence.samples", "count", "higher"),
    ("prevalence.degenerate_frac", "frac", "lower"),
    ("prevalence.mc_bad_set_measure.s", "s", "lower"),
    ("prevalence.mc_det_lower_bound.s", "s", "lower"),
    ("prevalence.mc_inverse_bound.s", "s", "lower"),
    ("polytope.mc_shadow_volume.s", "s", "lower"),
    ("polytope.box_projection_volume.s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("familyio.self_s", "s", "lower"),
    ("separator.self_s", "s", "lower"),
    ("geometry.self_s", "s", "lower"),
    ("prevalence.self_s", "s", "lower"),
    ("polytope.self_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
)


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_rows(tracer, args, kwargs, result):
    tracer.counts["separator.adapt_basis.rows"] += len(_arg(args, kwargs, 0, "v_list"))


def _count_draws(tracer, args, kwargs, result):
    stats = result[2]
    tracer.counts["separator.draws_attempted"] += stats.attempted
    tracer.counts["separator.draws_accepted"] += stats.accepted


def _count_members(tracer, args, kwargs, result):
    tracer.counts["separator.certify.members"] += len(_arg(args, kwargs, 1, "family"))


def _count_passthrough(tracer, args, kwargs, result):
    given = np.atleast_2d(np.asarray(_arg(args, kwargs, 0, "vectors"), dtype=float))
    if np.array_equal(given, result.vectors):
        tracer.counts["geometry.orthonormalize.passthrough"] += 1


def _count_file(metric: str, path_arg: str):
    def hook(tracer, args, kwargs, result):
        tracer.counts[metric] += os.path.getsize(_arg(args, kwargs, 0, path_arg))
    return hook


def _count_samples(tracer, args, kwargs, result):
    config = next((a for a in args if type(a).__name__ == "McConfig"), None) \
        or kwargs["config"]
    tracer.counts["prevalence.samples"] += config.samples


def _count_translation(tracer, args, kwargs, result):
    _count_samples(tracer, args, kwargs, result)
    certs = result[1]
    tracer.counts["prevalence.translation_samples"] += len(certs)
    tracer.counts["prevalence.degenerate"] += sum(c is None for c in certs)


#: Counters read from a call's arguments or its return value, after the
#: span has ended.
HOOKS = {
    "separator.adapt_basis": _count_rows,
    "separator.sample_box_separator": _count_draws,
    "separator.sample_cube_separator": _count_draws,
    "separator.certify": _count_members,
    "geometry.orthonormalize": _count_passthrough,
    "familyio.load_family": _count_file("familyio.load_family.bytes", "path"),
    "familyio.save_complement": _count_file("familyio.save_complement.bytes", "path"),
    "prevalence.mc_bad_set_measure": _count_samples,
    "prevalence.mc_det_lower_bound": _count_samples,
    "prevalence.mc_inverse_bound": _count_samples,
    "prevalence.translation_experiment": _count_translation,
}


def _family_shape(args, kwargs):
    for a in (*args, *kwargs.values()):
        if type(a).__name__ == "SubspaceFamily":
            return (a.ambient_dim, a.codim, len(a))
    return None


class Tracer:
    """Records spans of calls into the program's modules.

    ``command`` sets the command id and family shape that new top-level
    spans carry; a nested span takes the shape of the first family among
    its arguments, else its parent's.
    """

    def __init__(self):
        self.names: list[str] = []
        self.shapes: list[tuple | None] = [None]
        self.name_of = array("l")
        self.parent = array("l")
        self.command_of = array("l")
        self.shape_of = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._shape_ids: dict = {None: 0}
        self._name_ids: dict[str, int] = {}
        self._command = -1
        self._command_shape = 0
        self._saved: list[tuple] = []

    def _shape_id(self, shape) -> int:
        sid = self._shape_ids.get(shape)
        if sid is None:
            sid = self._shape_ids[shape] = len(self.shapes)
            self.shapes.append(shape)
        return sid

    def command(self, command_id: int, shape) -> None:
        self._command = command_id
        self._command_shape = self._shape_id(shape)

    def __len__(self) -> int:
        return len(self.start)

    def wrap(self, name: str, fn):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        hook = HOOKS.get(name)
        stack = self._stack
        starts, ends = self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            shape = _family_shape(args, kwargs)
            if shape is not None:
                sid = self._shape_id(shape)
            elif stack:
                sid = self.shape_of[stack[-1]]
            else:
                sid = self._command_shape
            self.name_of.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.command_of.append(self._command)
            self.shape_of.append(sid)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def install(self, modules: dict) -> None:
        """Wrap every public function bound in the given layer modules."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        package = modules["cli"].__name__.rsplit(".", 1)[0]
        origins = {f"{package}.{layer}": layer for layer in LAYERS}
        for layer in LAYERS:
            mod = modules[layer]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                origin = origins.get(obj.__module__)
                if origin is None:
                    continue
                traced = self.wrap(f"{origin}.{obj.__name__}", obj)
                self._saved.append((mod, attr, obj))
                setattr(mod, attr, traced)
        family_cls = modules["separator"].SubspaceFamily
        original = family_cls.__dict__["from_normals"]
        traced = self.wrap("separator.SubspaceFamily.from_normals", original.__func__)
        self._saved.append((family_cls, "from_normals", original))
        setattr(family_cls, "from_normals", classmethod(traced))

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._saved):
            setattr(owner, attr, obj)
        self._saved.clear()

    def self_times(self) -> np.ndarray:
        return self_times(self.start, self.end, self.parent)

    def metrics(self, cycles: int, overhead_frac: float) -> dict[str, float]:
        """Per-layer metrics per traced cycle (see PER_LAYER)."""
        own = self.self_times()
        by_name: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for nid, s in zip(self.name_of, own):
            by_name[self.names[nid]] += float(s)
            calls[self.names[nid]] += 1
        per = 1.0 / max(cycles, 1)
        c = self.counts
        out: dict[str, float] = {}
        for metric, _, _ in PER_LAYER:
            if metric.endswith(".s") or metric.endswith(".self_s"):
                fn = metric.rsplit(".", 1)[0]
                if metric == "cli.main.self_s":
                    value = _layer_total(by_name, "cli")
                elif fn in LAYERS:
                    value = _layer_total(by_name, fn)
                else:
                    value = by_name.get(fn, 0.0)
                out[metric] = value * per
            elif metric.endswith(".calls"):
                out[metric] = calls.get(metric[: -len(".calls")], 0) * per
            elif metric == "separator.accept_ratio":
                attempted = c["separator.draws_attempted"]
                out[metric] = c["separator.draws_accepted"] / attempted if attempted else 0.0
            elif metric == "geometry.orthonormalize.passthrough_frac":
                n = calls.get("geometry.orthonormalize", 0)
                out[metric] = c["geometry.orthonormalize.passthrough"] / n if n else 0.0
            elif metric == "prevalence.degenerate_frac":
                n = c["prevalence.translation_samples"]
                out[metric] = c["prevalence.degenerate"] / n if n else 0.0
            elif metric == "trace.spans":
                out[metric] = len(self) * per
            elif metric == "trace.overhead_frac":
                out[metric] = overhead_frac
            else:
                out[metric] = c[metric] * per
        return out

    def write(self, path, commands: list[str]) -> None:
        """Spans as CSV, one line per span, preceded by the command table."""
        own = self.self_times()
        with open(path, "w") as fh:
            fh.write("# commands: id,argv\n")
            for i, argv in enumerate(commands):
                fh.write(f"# {i},{argv}\n")
            fh.write("id,parent,command,name,n,k,J,start_s,end_s,self_s\n")
            for i in range(len(self)):
                shape = self.shapes[self.shape_of[i]] or ("", "", "")
                fh.write("%d,%d,%d,%s,%s,%s,%s,%.9f,%.9f,%.9f\n" % (
                    i, self.parent[i], self.command_of[i], self.names[self.name_of[i]],
                    *shape, self.start[i], self.end[i], own[i]))


def _layer_total(by_name: dict, layer: str) -> float:
    prefix = layer + "."
    return sum(v for k, v in by_name.items() if k.startswith(prefix))


def self_times(start, end, parent) -> np.ndarray:
    """Duration of each span minus the union of its children's intervals."""
    n = len(start)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for i in range(n):
        if parent[i] >= 0:
            children[parent[i]].append((start[i], end[i]))
    own = np.empty(n)
    for i in range(n):
        lo, hi = start[i], end[i]
        covered = 0.0
        cursor = lo
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, cursor), min(b, hi)
            if b > a:
                covered += b - a
                cursor = b
        own[i] = (hi - lo) - covered
    return own
