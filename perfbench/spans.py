"""Span tracing of coupler_lab's public functions, from outside the package.

``Tracer.install`` wraps every function named in each module's
``__all__`` plus ``TensorOperator.matvec`` and ``TensorOperator.to_dense``,
and rebinds every ``coupler_lab.*`` attribute that refers to a wrapped
function, so calls through ``from .oscillator import lowest_eigs`` style
aliases are recorded too.  Spans (name, start, end, parent and a few
annotations) are kept in memory; ``layer_stats`` derives per-name call
counts, total time and self time from them.  The source tree is never
edited; ``uninstall`` restores the original objects.
"""

import functools
import importlib
import inspect
import sys
import time

PACKAGE = "coupler_lab"
MODULES = ("kapteyn", "coupler", "oscillator", "projection", "bench", "cli")
METHODS = (("oscillator", "TensorOperator", "matvec"),
           ("oscillator", "TensorOperator", "to_dense"))

# Span names the per-layer metrics are derived from.  A name that no longer
# exists after a refactor is reported as missing instead of reading as zero.
EXPECTED = (
    "bench.bo_spectrum", "bench.coupling_scan", "bench.exact_spectrum",
    "cli.load_config", "cli.main", "cli.run",
    "coupler.b_coeffs", "coupler.eg_derivs_numeric", "coupler.eg_exact",
    "coupler.min_nu_for_error", "coupler.truncation_bound",
    "kapteyn.bessel_j", "kapteyn.cos_beta", "kapteyn.g_coeff",
    "kapteyn.kepler_solve", "kapteyn.sin_beta",
    "oscillator.assemble_tensor_operator", "oscillator.ho_exp_matrix",
    "oscillator.lowest_eigs", "oscillator.matvec", "oscillator.to_dense",
    "projection.couplings", "projection.qubit_subspace",
)


def _arg(args, kwargs, index, name):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


def _note_bo_spectrum(span, args, kwargs, result):
    span["qualifier"] = str(_arg(args, kwargs, 0, "theory"))


def _note_lowest_eigs(span, args, kwargs, result):
    span["levels"] = int(_arg(args, kwargs, 1, "m"))
    if result is None:
        span["qualifier"] = "error"
        return
    meta = result.metadata
    # Every iterative solver shares the "lanczos" slot, so a change of solver
    # moves these metrics instead of renaming them.
    span["qualifier"] = "dense" if meta.get("solver") == "dense" else "lanczos"
    span["solver"] = str(meta.get("solver"))
    if "basis" in meta:
        span["basis"] = int(meta["basis"])
    if "residuals" in meta:
        span["max_residual"] = float(max(meta["residuals"], default=0.0))


def _note_matvec(span, args, kwargs, result):
    v = _arg(args, kwargs, 1, "v")
    shape = getattr(v, "shape", ())
    span["vectors"] = int(shape[1]) if len(shape) == 2 else 1


def _note_couplings(span, args, kwargs, result):
    if result is not None:
        span["labels"] = len(result.entries)


NOTES = {
    "bench.bo_spectrum": _note_bo_spectrum,
    "oscillator.lowest_eigs": _note_lowest_eigs,
    "oscillator.matvec": _note_matvec,
    "projection.couplings": _note_couplings,
}


class Tracer:
    """Records one span per call of a wrapped function."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.missing = []
        self.wrapped = set()
        self._stack = []
        self._restore = []

    def wrap(self, name, func):
        note = NOTES.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = {"name": name, "start": self.clock(), "end": None,
                    "parent": self._stack[-1] if self._stack else None}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                span["end"] = self.clock()
                self._stack.pop()
                if note is not None:
                    note(span, args, kwargs, result)

        return traced

    def install(self):
        """Wrap the public functions and rebind their aliases."""
        originals = {}  # id(function) -> (function, wrapper)
        for mod_name in MODULES:
            try:
                mod = importlib.import_module(f"{PACKAGE}.{mod_name}")
            except ImportError:
                self.missing.append(mod_name)
                continue
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr, None)
                if obj is None:
                    self.missing.append(f"{mod_name}.{attr}")
                elif inspect.isfunction(obj):
                    originals[id(obj)] = (obj, self.wrap(f"{mod_name}.{attr}", obj))
                    self.wrapped.add(f"{mod_name}.{attr}")
        for mod_name, cls_name, meth in METHODS:
            cls = getattr(sys.modules.get(f"{PACKAGE}.{mod_name}"), cls_name, None)
            func = cls.__dict__.get(meth) if cls is not None else None
            if func is None:
                self.missing.append(f"{mod_name}.{cls_name}.{meth}")
                continue
            self._restore.append((cls, meth, func))
            setattr(cls, meth, self.wrap(f"{mod_name}.{meth}", func))
            self.wrapped.add(f"{mod_name}.{meth}")
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        self.missing.extend(n for n in EXPECTED
                            if n not in self.wrapped and n not in self.missing)
        return self

    def uninstall(self):
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False


def self_times(spans):
    """Each span's duration minus the part of it its children cover."""
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span["parent"] is not None:
            children[span["parent"]].append(i)
    out = []
    for i, span in enumerate(spans):
        covered, cursor = 0.0, span["start"]
        for c in sorted(children[i], key=lambda k: spans[k]["start"]):
            lo = max(spans[c]["start"], cursor)
            hi = min(spans[c]["end"], span["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((span["end"] - span["start"]) - covered)
    return out


def span_key(span):
    q = span.get("qualifier")
    return f"{span['name']}.{q}" if q else span["name"]


def layer_stats(spans):
    """{key: {"calls", "total_s", "self_s"}} keyed by name[.qualifier]."""
    stats = {}
    for span, own in zip(spans, self_times(spans)):
        for key in {span["name"], span_key(span)}:
            s = stats.setdefault(key, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            s["calls"] += 1
            s["total_s"] += span["end"] - span["start"]
            s["self_s"] += own
    return stats


def under(spans, index, key):
    """True if span ``index`` has an ancestor whose key is ``key``."""
    parent = spans[index]["parent"]
    while parent is not None:
        if span_key(spans[parent]) == key:
            return True
        parent = spans[parent]["parent"]
    return False
