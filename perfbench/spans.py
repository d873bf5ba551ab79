"""Spans around the public functions of every vesseltopo layer.

``install`` wraps each function in ``LAYERS`` and rebinds every reference the
package holds to it: module attributes (names imported by value, such as
``synth.betti_numbers``), entries of module-level tables (such as
``synth._PERTURB_FAMILIES``) and class attributes (``VelocityModel``
methods). It then scans the package again and refuses to run if any
reference to an unwrapped original is left, so a refactor that moves an
import cannot silently drop spans. Spans are kept in memory; ``summarize``
turns them into per-layer counts, self times and derived ratios.

The program itself is not modified: the wrappers live in this process only.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types

LAYERS = {
    "topology": ("label_components", "euler_characteristic", "betti_numbers",
                 "skeletonize", "beta0_number_error", "beta0_matching_error",
                 "count_loops"),
    "metrics": ("dice", "cl_dice", "metric_report", "format_csv"),
    "synth": ("generate_vessel", "perturb_disconnect", "perturb_merge",
              "perturb_holes", "perturb_dilate_noise"),
    "taskgen": ("build_dataset", "verify_answers", "gen_judgement",
                "gen_counting", "gen_quality", "gen_choice", "gen_refinement"),
    "maskio": ("load_image", "save_image"),
    "flowgen": ("train", "refine_eval", "sample", "token_weights",
                "VelocityModel.forward_cached", "VelocityModel.backward",
                "save_checkpoint", "load_checkpoint"),
    "cli": ("main",),
}

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)
PERTURB = tuple(f"synth.{fn}" for fn in LAYERS["synth"] if fn.startswith("perturb_"))
GEN = tuple(f"taskgen.{fn}" for fn in LAYERS["taskgen"] if fn.startswith("gen_"))
FLOPS = ("flowgen.VelocityModel.forward_cached", "flowgen.VelocityModel.backward")


def _first(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _conv_flops(widths, shape) -> int:
    """Multiply-adds x 2 of one forward pass of the 3x3 conv stack."""
    h, w = shape[-2:]
    return 2 * 9 * h * w * sum(a * b for a, b in zip(widths[:-1], widths[1:]))


def _pixels(args, kwargs, result):
    return _first(args, kwargs, "mask").size


def _edits(args, kwargs, result):
    log = result[1]
    return len(log.sites) // 2 if log.kind == "merge" else len(log.sites)


def _forward_flops(args, kwargs, result):
    return _conv_flops(args[0].widths, result[0].shape)


def _backward_flops(args, kwargs, result):
    # weight gradient and input gradient each cost one forward pass
    return 2 * _conv_flops(args[0].widths, args[2].shape)


# What each span records about its call, for the derived metrics.
_INFO = {
    "topology.label_components": _pixels,
    "topology.skeletonize": _pixels,
    "maskio.load_image": lambda a, k, r: r.size,
    "maskio.save_image": lambda a, k, r: _first(a, k, "img").size,
    "flowgen.VelocityModel.forward_cached": _forward_flops,
    "flowgen.VelocityModel.backward": _backward_flops,
    **{name: _edits for name in PERTURB},
}


class Tracer:
    """In-memory span recorder for a single-threaded process.

    Each span is ``[name, start, end, parent, info, exception]``; ``parent``
    is the index of the enclosing span or -1.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, info = self.spans, self._stack, _INFO.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if info is not None:
                span[4] = info(args, kwargs, result)
            return result

        traced.__perfbench_original__ = fn
        return traced


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "vesseltopo" or name.startswith("vesseltopo."))]


def _namespaces():
    """(namespace, class or None) for every place the package binds names:
    module globals, module-level dicts, and classes defined in the package."""
    for module in _package_modules():
        yield vars(module), None
        for value in list(vars(module).values()):
            if isinstance(value, dict):
                yield value, None
            elif isinstance(value, type) and value.__module__ == module.__name__:
                yield value.__dict__, value


def _held_by(fn) -> list:
    """Values a function keeps: defaults, keyword defaults, closure cells."""
    held = list(fn.__defaults__ or ()) + list((fn.__kwdefaults__ or {}).values())
    for cell in fn.__closure__ or ():
        try:
            held.append(cell.cell_contents)
        except ValueError:  # empty cell
            pass
    return held


def _stale_references(originals: dict) -> list[str]:
    """Places where the package still reaches an unwrapped original."""
    stale = []
    for space, _ in _namespaces():
        for key, value in list(space.items()):
            if isinstance(value, (list, tuple, set, frozenset)):
                held = list(value)
            elif isinstance(value, types.FunctionType) and not hasattr(
                    value, "__perfbench_original__"):
                held = [value] + _held_by(value)
            else:
                held = [value]
            if any(id(v) in originals for v in held):
                stale.append(str(key))
    return stale


def install(tracer: Tracer):
    """Wrap every function in ``LAYERS``; return a callable that undoes it."""
    importlib.import_module("vesseltopo.cli")  # imports every layer
    wrapped = {}  # id(original) -> (original, wrapper)
    for layer, names in LAYERS.items():
        module = importlib.import_module(f"vesseltopo.{layer}")
        for qualname in names:
            owner, _, attr = qualname.rpartition(".")
            original = vars(getattr(module, owner) if owner else module)[attr]
            wrapped[id(original)] = (original, tracer.wrap(f"{layer}.{qualname}", original))
    bindings = [(space, cls, key, value)
                for space, cls in _namespaces()
                for key, value in list(space.items())
                if id(value) in wrapped and wrapped[id(value)][0] is value]

    def bind(use_wrapper: bool):
        for space, cls, key, value in bindings:
            target = wrapped[id(value)][1] if use_wrapper else value
            if cls is not None:
                setattr(cls, key, target)
            else:
                space[key] = target

    bind(True)
    stale = _stale_references(wrapped)
    if stale:
        bind(False)
        raise RuntimeError("unwrapped references to traced functions: "
                           + ", ".join(sorted(stale)))
    return lambda: bind(False)


def self_times(spans) -> list[float]:
    """Span duration minus the time covered by its direct children."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def _ancestor_in(spans, i, names) -> bool:
    p = spans[i][3]
    while p >= 0:
        if spans[p][0] in names:
            return True
        p = spans[p][3]
    return False


def _ratio(num, den):
    return num / den if den else 0.0


def summarize(spans, records: int, train_steps: int) -> dict:
    """Per-layer metrics as ``{name: (value, unit)}``.

    ``records`` is the number of taskgen records built and ``train_steps``
    the number of optimizer steps taken; ratios over a zero base read 0.
    """
    selfs = self_times(spans)
    calls = dict.fromkeys(SPAN_NAMES, 0)
    self_s = dict.fromkeys(SPAN_NAMES, 0.0)
    info = dict.fromkeys(SPAN_NAMES, 0)
    raised = {}
    for s, st in zip(spans, selfs):
        calls[s[0]] += 1
        self_s[s[0]] += st
        if s[4] is not None:
            info[s[0]] += s[4]
        if s[5] is not None:
            raised[(s[0], s[5])] = raised.get((s[0], s[5]), 0) + 1
    betti_in_perturb = sum(1 for i, s in enumerate(spans)
                           if s[0] == "topology.betti_numbers"
                           and _ancestor_in(spans, i, PERTURB))
    labels_in_report = sum(1 for i, s in enumerate(spans)
                           if s[0] == "topology.label_components"
                           and _ancestor_in(spans, i, ("metrics.metric_report",)))
    flops = sum(info[n] for n in FLOPS)
    train_flops = sum(s[4] for i, s in enumerate(spans)
                      if s[0] in FLOPS and s[4] is not None
                      and _ancestor_in(spans, i, ("flowgen.train",)))
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_s"] = (self_s[name], "s")
    out.update({
        "synth.betti_per_edit": (
            _ratio(betti_in_perturb, sum(info[n] for n in PERTURB)), "ratio"),
        "synth.scenes_per_record": (
            _ratio(calls["synth.generate_vessel"], records), "ratio"),
        "synth.perturb_raised": (
            sum(raised.get((n, "InsufficientStructure"), 0) for n in PERTURB), "count"),
        "taskgen.gen_per_record": (_ratio(sum(calls[n] for n in GEN), records), "ratio"),
        "taskgen.gen_raised": (
            sum(raised.get((n, e), 0) for n in GEN
                for e in ("RejectedTie", "DegenerateInput")), "count"),
        "metrics.labels_per_pair": (
            _ratio(labels_in_report, calls["metrics.metric_report"]), "ratio"),
        "topology.label_mpx_per_s": (
            _ratio(info["topology.label_components"] / 1e6,
                   self_s["topology.label_components"]), "Mpx/s"),
        "topology.skeleton_mpx_per_s": (
            _ratio(info["topology.skeletonize"] / 1e6,
                   self_s["topology.skeletonize"]), "Mpx/s"),
        "maskio.bytes_read": (info["maskio.load_image"], "B"),
        "maskio.bytes_written": (info["maskio.save_image"], "B"),
        "flowgen.conv_gflop_per_step": (_ratio(train_flops / 1e9, train_steps), "GFLOP"),
        "flowgen.conv_gflops": (
            _ratio(flops / 1e9, sum(self_s[n] for n in FLOPS)), "GFLOP/s"),
    })
    return out
