"""Layer-boundary tracing of the gwinv modules, installed from outside.

Every function defined in a layer module and every plain method of a class
defined there is replaced by a wrapper, and each name another module
imported (``divided.witt_canonical``, ``verify.SUITES[...]``, the package
namespace) is rebound to it.  A wrapper always counts its call; it opens a
span only when the caller runs in a different layer, or, for the functions
named in ``LAYER_METRICS``, in a different function of the same layer (so
``build_h`` splits from the ``comp_inverse`` it calls, but a recursive call
opens nothing).  A span's self time is its duration minus the time covered
by its child spans, so the self times of all spans add up to the traced
time.  Like the operations around them, spans are timed in process CPU
time, and they are aggregated in memory by function, not kept one by one.
Properties, static and class methods and lru-cached helpers are not
wrapped; their time counts to the caller.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

# Dependency order.
LAYERS = (
    "series",
    "fields",
    "witt",
    "cohomology",
    "divided",
    "invariants",
    "factorized",
    "sampling",
    "verify",
    "cli",
)

_PAUSED = object()
MUL_INT = "series:TruncSeries.__mul__[int]"
MUL_GW = "series:TruncSeries.__mul__[gw]"
MUL_OTHER = "series:TruncSeries.__mul__[other]"


class _State:
    __slots__ = ("layer", "key", "child", "paused_layer")

    def __init__(self):
        self.layer = None  # None: benchmark code, outside every layer
        self.key = None  # key of the open span
        self.child = 0.0  # time covered by child spans of the open span
        self.paused_layer = None


class Tracer:
    """Counts calls and span self time per wrapped function.

    Keys are ``layer:qualname``; ``TruncSeries.__mul__`` is keyed by its
    coefficient ring (``[int]``, ``[gw]`` or ``[other]``).
    """

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.int_mul_units = 0
        self.build_h_cold = 0
        self._seen_h: set = set()
        self._state = _State()
        self._patches: list = []

    # -- bookkeeping

    def reset(self) -> None:
        """Zero the counters; pairs seen by build_h stay seen (still cached)."""
        self.calls.clear()
        self.self_s.clear()
        self.int_mul_units = 0
        self.build_h_cold = 0

    def pause(self) -> None:
        """Stop counting, e.g. while a reference check calls the library."""
        self._state.paused_layer = self._state.layer
        self._state.layer = _PAUSED

    def resume(self) -> None:
        self._state.layer = self._state.paused_layer

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + ":"
        return sum(v for k, v in self.self_s.items() if k.startswith(prefix))

    # -- hooks for the counters that need arguments

    def _int_mul_hook(self, args, kwargs):
        n = args[1] if len(args) > 1 else kwargs["n"]
        self.int_mul_units += abs(n)

    def _build_h_hook(self, args, kwargs):
        key = tuple(args) + tuple(kwargs.values())
        if key not in self._seen_h:
            self._seen_h.add(key)
            self.build_h_cold += 1

    # -- wrapping

    def _wrap(self, fn, layer: str, key: str, keyfn=None, hook=None):
        st, calls, self_s, clock = self._state, self.calls, self.self_s, time.process_time
        named = key in NAMED_KEYS or keyfn is not None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            k = keyfn(args) if keyfn else key
            if st.layer is layer:
                if not named or st.key is k:
                    calls[k] += 1
                    if hook:
                        hook(args, kwargs)
                    return fn(*args, **kwargs)
            elif st.layer is _PAUSED:
                return fn(*args, **kwargs)
            calls[k] += 1
            if hook:
                hook(args, kwargs)
            outer_layer, outer_key, outer_child = st.layer, st.key, st.child
            st.layer, st.key, st.child = layer, k, 0.0
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_s[k] += dt - st.child
                st.layer, st.key, st.child = outer_layer, outer_key, outer_child + dt

        return wrapper

    def _special(self, layer: str, qualname: str):
        """(keyfn, hook) for the functions whose counters need arguments."""
        if qualname == "TruncSeries.__mul__":
            from gwinv.series import IntRing
            from gwinv.witt import GwRing

            def keyfn(args):
                ring = type(args[0].ring)
                return MUL_INT if ring is IntRing else MUL_GW if ring is GwRing else MUL_OTHER

            return keyfn, None
        if qualname == "WittClass.int_mul":
            return None, self._int_mul_hook
        if layer == "series" and qualname == "build_h":
            return None, self._build_h_hook
        return None, None

    def _set(self, owner, name, value) -> None:
        if isinstance(owner, dict):
            self._patches.append((owner, name, owner[name]))
            owner[name] = value
        else:
            self._patches.append((owner, name, getattr(owner, name)))
            setattr(owner, name, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {layer: importlib.import_module(f"gwinv.{layer}") for layer in LAYERS}
        wrapped = {}  # original function -> wrapper
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    keyfn, hook = self._special(layer, name)
                    wrapped[obj] = self._wrap(obj, layer, f"{layer}:{name}", keyfn, hook)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for attr, val in list(vars(obj).items()):
                        if inspect.isfunction(val):
                            qual = f"{obj.__name__}.{attr}"
                            keyfn, hook = self._special(layer, qual)
                            self._set(obj, attr, self._wrap(val, layer, f"{layer}:{qual}", keyfn, hook))
        for mod in [importlib.import_module("gwinv"), *modules.values()]:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._set(mod, name, wrapped[obj])
                elif isinstance(obj, dict):
                    for k, v in list(obj.items()):
                        if inspect.isfunction(v) and v in wrapped:
                            self._set(obj, k, wrapped[v])

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)
        self._patches.clear()


# Per-layer metrics printed by a traced run: name -> (stat, keys).  "calls"
# and "self_s" sum over the listed function keys, "layer" is the self time of
# the whole layer, and the other stats are tracer counters.
def _fn(layer, *names):
    return tuple(f"{layer}:{n}" for n in names)


LAYER_METRICS = {
    "series.self_s": ("layer", ("series",)),
    "series.mul_int.calls": ("calls", (MUL_INT,)),
    "series.mul_int.self_s": ("self_s", (MUL_INT,)),
    "series.mul_gw.calls": ("calls", (MUL_GW,)),
    "series.mul_gw.self_s": ("self_s", (MUL_GW,)),
    "series.compose.self_s": ("self_s", _fn("series", "TruncSeries.compose", "compose")),
    "series.comp_inverse.self_s": ("self_s", _fn("series", "TruncSeries.comp_inverse", "comp_inverse")),
    "series.build_h.calls": ("calls", _fn("series", "build_h")),
    "series.build_h.cold": ("build_h_cold", ()),
    "series.build_h.self_s": ("self_s", _fn("series", "build_h")),
    "fields.self_s": ("layer", ("fields",)),
    "fields.descriptor_new.calls": ("calls", _fn("fields", "FieldDescriptor.__init__")),
    "fields.descriptor_eq.calls": ("calls", _fn("fields", "FieldDescriptor.__eq__")),
    "fields.parent.calls": ("calls", _fn("fields", "FieldDescriptor.parent")),
    "fields.minus_one.calls": ("calls", _fn("fields", "minus_one")),
    "witt.self_s": ("layer", ("witt",)),
    "witt.canonical.calls": ("calls", _fn("witt", "witt_canonical")),
    "witt.canonical.self_s": ("self_s", _fn("witt", "witt_canonical")),
    "witt.add.calls": ("calls", _fn("witt", "WittClass.__add__")),
    "witt.add.self_s": ("self_s", _fn("witt", "WittClass.__add__")),
    "witt.mul.calls": ("calls", _fn("witt", "WittClass.__mul__")),
    "witt.mul.self_s": ("self_s", _fn("witt", "WittClass.__mul__")),
    "witt.int_mul.calls": ("calls", _fn("witt", "WittClass.int_mul")),
    "witt.int_mul.units": ("int_mul_units", ()),
    "witt.int_mul.self_s": ("self_s", _fn("witt", "WittClass.int_mul")),
    "witt.gw_mul.calls": ("calls", _fn("witt", "GwElement.__mul__", "mul_forms")),
    "witt.gw_mul.self_s": ("self_s", _fn("witt", "GwElement.__mul__", "mul_forms")),
    "witt.lambda_series.calls": ("calls", _fn("witt", "lambda_series")),
    "witt.lambda_series.self_s": ("self_s", _fn("witt", "lambda_series")),
    "witt.render.calls": ("calls", _fn("witt", "WittClass.__str__")),
    "witt.render.self_s": ("self_s", _fn("witt", "WittClass.__str__")),
    "cohomology.self_s": ("layer", ("cohomology",)),
    "cohomology.e_n.calls": ("calls", _fn("cohomology", "e_n")),
    "cohomology.e_n.self_s": ("self_s", _fn("cohomology", "e_n")),
    "cohomology.cup.calls": ("calls", _fn("cohomology", "CohClass.__mul__", "cup")),
    "cohomology.cup.self_s": ("self_s", _fn("cohomology", "CohClass.__mul__", "cup")),
    "cohomology.residue.calls": ("calls", _fn("cohomology", "coh_residue")),
    "divided.self_s": ("layer", ("divided",)),
    "divided.eval_pi_series.calls": ("calls", _fn("divided", "eval_pi_series")),
    "divided.eval_pi_series.self_s": ("self_s", _fn("divided", "eval_pi_series")),
    "divided.eval_f_all.calls": ("calls", _fn("divided", "eval_f_all")),
    "divided.eval_f_all.self_s": ("self_s", _fn("divided", "eval_f_all")),
    "divided.sw_series.self_s": ("self_s", _fn("divided", "sw_series")),
    "invariants.self_s": ("layer", ("invariants",)),
    "invariants.product.calls": ("calls", _fn("invariants", "product")),
    "invariants.product.self_s": ("self_s", _fn("invariants", "product")),
    "invariants.to_basis.calls": ("calls", _fn("invariants", "to_basis")),
    "invariants.to_basis.self_s": ("self_s", _fn("invariants", "to_basis")),
    "invariants.evaluate.calls": ("calls", _fn("invariants", "evaluate")),
    "invariants.evaluate.self_s": ("self_s", _fn("invariants", "evaluate")),
    "invariants.parse.self_s": ("self_s", _fn("invariants", "parse_invariant")),
    "factorized.self_s": ("layer", ("factorized",)),
    "factorized.alt_factorizations.self_s": ("self_s", _fn("factorized", "alt_factorizations")),
    "sampling.self_s": ("layer", ("sampling",)),
    "verify.self_s": ("layer", ("verify",)),
    "cli.self_s": ("layer", ("cli",)),
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    out = {}
    for name, (stat, keys) in LAYER_METRICS.items():
        if stat == "layer":
            out[name] = tracer.layer_self_s(keys[0])
        elif stat == "calls":
            out[name] = sum(tracer.calls.get(k, 0) for k in keys)
        elif stat == "self_s":
            out[name] = sum(tracer.self_s.get(k, 0.0) for k in keys)
        else:
            out[name] = getattr(tracer, stat)
    return out


NAMED_KEYS = frozenset(k for stat, keys in LAYER_METRICS.values() if stat in ("calls", "self_s") for k in keys)
