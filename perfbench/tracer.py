"""Outside-in tracing of the hopfkit package.

The tracer replaces functions with timing wrappers from outside the
program; nothing under ``src/`` changes.  Modules bind names directly
(``from .linalg import nullspace``), so every attribute of every
``hopfkit.*`` module that *is* an original function is replaced by the
same wrapper.  A few methods are wrapped on their class.

Span names are ``<layer>.<function>``; ``<layer>`` is the module's short
name, with ``presentation`` and ``groups`` folded into ``catalog``.  A
span's self time is its duration minus the time its child spans cover;
the self times of all spans, the hook time and the harness's own time
add up to the traced wall time.  Host-speed samples taken during the pass
are excluded from both (see ``exclude``).

``CycNumber`` arithmetic is hot (millions of calls per job), so its
methods get counting wrappers only: their time stays in the calling span.
The cyclotomic layer's speed is measured by the probe instead.
"""

from __future__ import annotations

import os
import sys
import types
from collections import Counter, defaultdict
from time import perf_counter

# traced modules and their layer; ``cyclotomic`` gets counters only
LAYER_OF_MODULE = {
    "cli": "cli", "certify": "certify", "catalog": "catalog",
    "presentation": "catalog", "groups": "catalog", "hopf": "hopf",
    "invariants": "invariants", "repsolver": "repsolver", "ydnichols": "ydnichols",
    "linalg": "linalg", "io": "io",
}
LAYERS = tuple(sorted(set(LAYER_OF_MODULE.values())))

# module functions whose span name differs from ``<layer>.<function>``
_RENAMES = {
    ("ydnichols", "matrix_rank"): "ydnichols.rank",
    ("ydnichols", "convolution_inverse_of_identity"): "ydnichols.convolution_inverse",
}
# (class name, method names, span name) wrapped with timing spans
_SPAN_METHODS = (
    ("Matrix", ("__mul__",), "linalg.matmul"),
    ("EchelonBasis", ("add",), "linalg.echelon"),
)
# (class name, method names, counter name) wrapped with counters only
_COUNT_METHODS = (
    ("CycNumber", ("__mul__", "__rmul__"), "cyclotomic.mul"),
    ("CycNumber", ("__add__", "__radd__", "__sub__", "__rsub__"), "cyclotomic.addsub"),
    ("CycNumber", ("inverse",), "cyclotomic.inverse"),
    ("CycNumber", ("__eq__",), "cyclotomic.eq"),
    ("HopfAlgebraData", ("mult_dict",), "hopf.mult_dict"),
    ("HopfAlgebraData", ("tensor_mult",), "hopf.tensor_mult"),
)


def matrix_nnz(m) -> int:
    return sum(1 for row in m.entries for x in row if not x.is_zero())


class Tracer:
    """Span and counter store plus the wrappers that feed it."""

    def __init__(self):
        self.calls = Counter()
        self.counts = Counter()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.hook_s = 0.0
        self.nichols_degree = 0
        self._active = Counter()
        self._stack = [0.0]          # child time of each open span; [0] is the root
        self._restore = []

    # -- wrappers --------------------------------------------------------

    def span(self, name, fn, hook=None):
        calls, active, stack = self.calls, self._active, self._stack
        self_s, total_s = self.self_s, self.total_s

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            active[name] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                active[name] -= 1
                child = stack.pop()
                calls[name] += 1
                self_s[name] += dt - child
                if not active[name]:
                    total_s[name] += dt
                stack[-1] += dt
            if hook is not None:
                h0 = perf_counter()
                hook(name, args, result, dt, active[name])
                hdt = perf_counter() - h0
                self.hook_s += hdt
                stack[-1] += hdt
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def exclude(self, dt):
        """Keep ``dt`` seconds spent outside the program, such as a host-speed
        sample taken while a span is open, out of that span's self time."""
        self._stack[-1] += dt

    def counter(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- hooks: counts taken from arguments and results --------------------

    def _elimination_input(self, name, args, result, dt, depth):
        m = args[0]
        self.counts["linalg.input_cells"] += m.rows * m.cols
        self.counts["linalg.input_nnz"] += matrix_nnz(m)

    def _symmetrizer(self, name, args, result, dt, depth):
        if depth:
            return                   # inner call of the recursion
        n = args[2]
        self.nichols_degree = n
        self.total_s[f"ydnichols.symmetrizer.total_s.deg{n}"] += dt
        self.counts[f"ydnichols.symmetrizer.nnz.deg{n}"] += matrix_nnz(result)

    def _rank(self, name, args, result, dt, depth):
        self._elimination_input(name, args, result, dt, depth)
        self.total_s[f"ydnichols.rank.total_s.deg{self.nichols_degree}"] += dt

    def _bytes_read(self, name, args, result, dt, depth):
        self.counts["io.bytes_read"] += os.path.getsize(args[0])

    def _bytes_written(self, name, args, result, dt, depth):
        self.counts["io.bytes_written"] += os.path.getsize(args[1])

    _HOOKS = {
        "linalg.nullspace": _elimination_input,
        "linalg.rank": _elimination_input,
        "linalg.solve": _elimination_input,
        "ydnichols.rank": _rank,
        "ydnichols.symmetrizer": _symmetrizer,
        "io.load_json": _bytes_read,
        "io.dump_json": _bytes_written,
    }

    # -- install / uninstall -------------------------------------------------

    def install(self):
        """Wrap every hopfkit module function and the listed methods."""
        modules = {name.split(".", 1)[1]: mod for name, mod in list(sys.modules.items())
                   if name.startswith("hopfkit.") and isinstance(mod, types.ModuleType)}
        wrappers = {}                # id(original) -> wrapper
        for short, mod in modules.items():
            layer = LAYER_OF_MODULE.get(short)
            if layer is None:
                continue
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__:
                    name = _RENAMES.get((short, attr), f"{layer}.{attr}")
                    hook = self._HOOKS.get(name)
                    hook = hook.__get__(self) if hook else None
                    wrappers[id(obj)] = (obj, self.span(name, obj, hook))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._replace(mod, attr, hit[1])
        classes = {}
        for mod in modules.values():
            for obj in vars(mod).values():
                if isinstance(obj, type) and obj.__module__.startswith("hopfkit."):
                    classes[obj.__name__] = obj
        for cls_name, methods, name in _SPAN_METHODS:
            for meth in methods:
                cls = classes[cls_name]
                self._replace(cls, meth, self.span(name, vars(cls)[meth]))
        for cls_name, methods, name in _COUNT_METHODS:
            cls = classes[cls_name]
            for meth in methods:
                self._replace(cls, meth, self.counter(name, vars(cls)[meth]))

    def _replace(self, owner, attr, new):
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self):
        while self._restore:
            owner, attr, old = self._restore.pop()
            setattr(owner, attr, old)

    # -- report ----------------------------------------------------------

    def table(self) -> dict:
        """Every span's calls, self_s and total_s, every counter, and the
        self time of each layer."""
        out = {}
        for name in sorted(self.calls):
            out[f"{name}.calls"] = self.calls[name]
            if name in self.self_s:
                out[f"{name}.self_s"] = self.self_s[name]
                out[f"{name}.total_s"] = self.total_s[name]
        for name, v in self.total_s.items():
            if ".total_s." in name:
                out[name] = v
        out.update(self.counts)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(v for k, v in self.self_s.items()
                                         if k.split(".", 1)[0] == layer)
        out["linalg.echelon.rows"] = self.calls["linalg.echelon"]
        out["trace.hook_s"] = self.hook_s
        return out
