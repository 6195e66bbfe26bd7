"""Outside-in spans around sextic's layer functions, for the traced run only.

Tracer.install() replaces each target function by a timing wrapper at every
site where a module of the package binds it: the defining module (so calls
inside that module are seen too), every module that imported it by name,
and the package's re-exports. Modules are resolved through importlib,
because `sextic.classify` as an attribute is the re-exported function, not
the module. Nothing under src/ changes; uninstall() restores the originals.

A span's self time is its duration minus the durations of the wrapped calls
made inside it. The run is single-threaded, so those child spans never
overlap and their sum is the covered interval.
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter_ns

PACKAGE = "sextic"
LAYERS = ("exact", "roots", "groups", "resolvents", "classify", "quintic", "cli")

# layer -> public functions whose calls are recorded
TARGETS = {
    "exact": ("rational_roots", "divisors", "factorize", "poly_divide_exact", "resultant"),
    "roots": ("find_roots", "expand_from_roots", "round_to_int_poly"),
    "groups": ("orbit", "eval_monomial_sum"),
    "resolvents": (
        "resolvent_numeric_in_frame",
        "monic_integer_rescale",
        "f_verified",
        "g_verified",
        "discriminant_exact",
    ),
    "classify": ("is_irreducible", "classify"),
    "quintic": ("params_from_ab", "radical_roots"),
    "cli": ("main",),
}

# Binding sites that must exist: a rename that drops one would otherwise
# read as zero calls instead of failing.
REQUIRED_SITES = {
    "classify.is_irreducible": ("classify", "quintic"),
    "roots.find_roots": ("classify", "resolvents"),
    "exact.resultant": ("classify", "resolvents"),
    "exact.factorize": ("exact", "resolvents"),
    "classify.classify": ("classify", "cli"),
}

# spans whose find_roots children are counted as precision rungs
RUNG_PARENTS = ("classify.is_irreducible", "resolvents.resolvent_numeric_in_frame")


class Stat:
    __slots__ = ("calls", "failed", "self_ns", "hits", "max_bits")

    def __init__(self):
        self.calls = self.failed = self.self_ns = self.hits = self.max_bits = 0


class Tracer:
    """Per-function and per-(function, parent) call statistics."""

    def __init__(self):
        self.stats: dict = {}  # key -> Stat
        self.by_parent: dict = {}  # (key, parent key) -> Stat
        self._stack: list = []  # [key, child ns] of the open spans
        self._patched: list = []  # (module, attribute, original)

    def install(self) -> list:
        """Wrap every target at every binding site; returns "module.attr" sites."""
        modules = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in LAYERS}
        modules[PACKAGE] = importlib.import_module(PACKAGE)
        sites = []
        for layer, names in TARGETS.items():
            for name in names:
                original = getattr(modules[layer], name, None)
                if not callable(original):
                    raise LookupError(f"{PACKAGE}.{layer} has no function {name}")
                key = f"{layer}.{name}"
                wrapper = self._wrap(key, original)
                for mod_name, mod in modules.items():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
                            sites.append(f"{mod_name}.{attr}")
        missing = [
            f"{mod}.{key.split('.')[1]}"
            for key, mods in REQUIRED_SITES.items()
            for mod in mods
            if f"{mod}.{key.split('.')[1]}" not in sites
        ]
        if missing:
            self.uninstall()
            raise LookupError(f"expected binding sites not found: {missing}")
        return sites

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, key: str, fn):
        stats = self.stats.setdefault(key, Stat())
        stack = self._stack
        is_find_roots = key == "roots.find_roots"
        is_search = key == "quintic.params_from_ab"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [key, 0]
            stack.append(frame)
            ok = False
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                duration = perf_counter_ns() - start
                stack.pop()
                if parent is not None:
                    parent[1] += duration
                self_ns = duration - frame[1]
                stats.calls += 1
                stats.self_ns += self_ns
                if not ok:
                    stats.failed += 1
                pkey = parent[0] if parent is not None else None
                ps = self.by_parent.get((key, pkey))
                if ps is None:
                    ps = self.by_parent[(key, pkey)] = Stat()
                ps.calls += 1
                ps.self_ns += self_ns
                if not ok:
                    ps.failed += 1
            if is_find_roots:
                bits = args[1] if len(args) > 1 else kwargs.get("precision_bits", 0)
                stats.max_bits = max(stats.max_bits, bits)
            elif is_search and result is not None:
                stats.hits += 1
            return result

        return wrapper

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def layer_metrics(tracer: Tracer, ops: int) -> dict:
    """Per-op means of the recorded statistics, by metric name."""
    out = {}

    def stat(key):
        return tracer.stats.get(key, Stat())

    for key, s in tracer.stats.items():
        out[f"{key}.self_ms"] = s.self_ns / 1e6 / ops
        out[f"{key}.calls"] = s.calls / ops
        out[f"{key}.failed"] = s.failed / ops
    for parent in RUNG_PARENTS:
        child = tracer.by_parent.get(("roots.find_roots", parent), Stat())
        short = parent.split(".")[1]
        out[f"roots.find_roots.in_{short}.self_ms"] = child.self_ns / 1e6 / ops
        out[f"roots.find_roots.in_{short}.calls"] = child.calls / ops
        calls = stat(parent).calls
        out[f"{parent}.rungs"] = child.calls / calls if calls else 0.0
    out["roots.find_roots.max_bits"] = float(stat("roots.find_roots").max_bits)
    search = stat("quintic.params_from_ab")
    out["quintic.params_from_ab.hit_ratio"] = search.hits / search.calls if search.calls else 0.0
    return out
