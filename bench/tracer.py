"""Call tracing of the program's layers from outside the program.

``Tracer.installed()`` wraps every public function of the traced
modules, a few private ones that mark a layer boundary, and the
LaurentPoly arithmetic methods.  Functions are wrapped once and the
wrapper is bound under every name that refers to the original, in every
module of the package, because ``from .qjacobi import
rep_coeff_reconstruct`` and the like copy the binding: wrapping only the
defining module would miss those call sites.  Everything is restored on
exit.

Each call records a span (name, start, end, parent span, invocation id)
in flat arrays kept in memory; ``summary()`` turns them into per-function
call counts and self times after the run.  Self time is a span's
duration minus the durations of its child spans (calls are nested, so
children never overlap).
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import pkgutil
import time
from array import array

from mpmath import mp

PACKAGE = "krallm1"
TRACED_MODULES = ("exact_core", "qjacobi", "minus_one", "matrix_op", "cli")
# Private functions that mark a layer boundary the metrics need.
PRIVATE_BOUNDARIES = {
    "matrix_op": ("_chains",),
    "cli": ("_render_json", "_render_csv_rows", "_report_csv", "_emit"),
}
LAURENT_METHODS = ("__add__", "__sub__", "__mul__", "__rmul__")


def _dps_key(args, kwargs):
    return args, tuple(sorted(kwargs.items())), mp.dps


def _args_key(args, kwargs):
    return args, tuple(sorted(kwargs.items()))


# Argument keys for distinct_ratio.  rep_coeff_reconstruct also depends
# on the ambient mpmath precision.
KEYED = {
    "qjacobi.rep_coeff_reconstruct": _dps_key,
    "minus_one.gen_poly_family": _args_key,
    "minus_one.transformed_recurrence_m1": _args_key,
}
# Per-call values recorded alongside the span.
OBSERVED = {
    "minus_one.epsilon_scan": lambda args, kwargs: len(args[3]),
    "cli._emit": lambda args, kwargs: len(args[0]),
}


class Tracer:
    """Span recorder for one process; install it around the traced calls."""

    def __init__(self):
        self.names = []
        self.invocation = -1
        self._start = array("d")
        self._end = array("d")
        self._name = array("i")
        self._parent = array("i")
        self._inv = array("i")
        self._stack = []
        self._keys = {}
        self._observed = {}

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        start, end, name_ids = self._start, self._end, self._name
        parents, invs, stack = self._parent, self._inv, self._stack
        key = KEYED.get(name)
        keys = self._keys.setdefault(name, set()) if key else None
        observe = OBSERVED.get(name)
        observed = self._observed
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(start)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            invs.append(self.invocation)
            end.append(0.0)
            if keys is not None:
                keys.add(key(args, kwargs))
            if observe is not None:
                observed[index] = observe(args, kwargs)
            stack.append(index)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def targets(self):
        """(qualified name, original function) for everything traced."""
        for short in TRACED_MODULES:
            module = importlib.import_module(f"{PACKAGE}.{short}")
            extra = PRIVATE_BOUNDARIES.get(short, ())
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj)
                        and obj.__module__ == module.__name__
                        and (not attr.startswith("_") or attr in extra)):
                    yield f"{short}.{attr}", obj
        laurent = importlib.import_module(f"{PACKAGE}.exact_core").LaurentPoly
        for method in LAURENT_METHODS:
            yield f"exact_core.LaurentPoly.{method}", vars(laurent)[method]

    @contextlib.contextmanager
    def installed(self):
        """Bind wrappers under every name of each traced function."""
        wrappers = {fn: self._wrap(name, fn) for name, fn in self.targets()}
        package = importlib.import_module(PACKAGE)
        owners = [package] + [
            importlib.import_module(f"{PACKAGE}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)]
        owners.append(package.exact_core.LaurentPoly)
        restore = []
        for owner in owners:
            for attr, obj in list(vars(owner).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    restore.append((owner, attr, obj))
                    setattr(owner, attr, wrappers[obj])
        try:
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    def summary(self) -> dict:
        """Per-function calls, self seconds, distinct argument keys and
        observed values, plus ``eps_scan_attempts``: calls of
        rep_coeff_reconstruct that ran inside an epsilon_scan."""
        count = len(self._start)
        child = [0.0] * count
        start, end, parent = self._start, self._end, self._parent
        for i in range(count):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        stats = {name: {"calls": 0, "self_s": 0.0, "observed": 0}
                 for name in self.names}
        ids = {name: i for i, name in enumerate(self.names)}
        for i in range(count):
            entry = stats[self.names[self._name[i]]]
            entry["calls"] += 1
            entry["self_s"] += end[i] - start[i] - child[i]
        for index, value in self._observed.items():
            stats[self.names[self._name[index]]]["observed"] += value
        for name, keys in self._keys.items():
            stats[name]["distinct"] = len(keys)
        scan = ids.get("minus_one.epsilon_scan")
        recon = ids.get("qjacobi.rep_coeff_reconstruct")
        attempts = 0
        for i in range(count):
            if self._name[i] == recon:
                p = parent[i]
                while p >= 0 and self._name[p] != scan:
                    p = parent[p]
                attempts += p >= 0
        return {"functions": stats, "eps_scan_attempts": attempts,
                "spans": count}

