"""Per-layer spans for the iet3 library, recorded from outside the package.

`Tracer.install()` replaces every public function of the traced modules,
and every public method of the classes they define, by a timing wrapper at
every binding where an iet3 module holds it: the defining module, each
re-import (`construction.kr_upper_binned`, `joinings.apply_pow_many`,
`towers.scan_renorm_times`, the package's own re-exports, ...) and the class
dictionaries.  Spans are kept in memory as per-name aggregates; a span's
self time is its duration minus the durations of its direct child spans.

Span names are `<module>.<function>` (methods drop the class name), except
`joinings.kr_distance_detailed`, which is bucketed by the method it reports
as `joinings.kr.{assignment,lp,grid}`.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import sys
import time

TRACED_MODULES = ("arith", "construction", "joinings", "towers", "renorm",
                  "iet_core", "intervals")


def _size(v) -> int:
    try:
        return len(v)
    except TypeError:
        return 1


def _arg(name):
    return lambda a, r: {"points": _size(a[name])}


# Extra per-call quantities, from the bound arguments `a` and the result `r`.
_PROBES = {
    "arith.visits": _arg("u"),
    "arith.visit_time": _arg("u"),
    "arith.first_hit": _arg("u"),
    "iet_core.apply_pow_many": _arg("xs"),
    "joinings.sample_power_joining": lambda a, r: {"atoms": len(r)},
    "joinings.kr_upper_binned": lambda a, r: {"atoms": len(a["mu"]) + len(a["nu"])},
    "joinings.kr_lower_witness": lambda a, r: {"atoms": len(a["mu"]) + len(a["nu"])},
    "towers.build_tower": lambda a, r: {"levels": r.height},
}
_FAILED = object()


def _kr_bucket(result) -> str:
    method = result["method"]
    return "joinings.kr." + ("grid" if method.startswith("grid") else method)


class _Stat:
    __slots__ = ("calls", "points", "atoms", "levels", "self_s", "incl_s",
                 "child_points")

    def __init__(self):
        self.calls = self.points = self.atoms = self.levels = 0
        self.self_s = self.incl_s = 0.0
        self.child_points = {}


class _Frame:
    __slots__ = ("name", "child_s", "child_points", "verify_calls")

    def __init__(self, name):
        self.name = name
        self.child_s = 0.0
        self.child_points = {}
        self.verify_calls = 0


def _library_modules():
    import iet3
    for info in pkgutil.iter_modules(iet3.__path__):
        importlib.import_module(f"iet3.{info.name}")
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "iet3" or n.startswith("iet3."))]


def _plain(raw):
    """The function behind a class attribute (unwraps class/static methods)."""
    return raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw


def _targets():
    """(span name, owner class or None, attribute, original) for every public
    function of the traced modules and every public method of their classes."""
    out = []
    for short in TRACED_MODULES:
        mod = importlib.import_module(f"iet3.{short}")
        for attr, obj in sorted(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                out.append((f"{short}.{attr}", None, attr, obj))
            elif inspect.isclass(obj):
                for meth, raw in sorted(vars(obj).items()):
                    if not meth.startswith("_") and inspect.isfunction(_plain(raw)):
                        out.append((f"{short}.{meth}", obj, meth, raw))
    names = [t[0] for t in out]
    dup = {n for n in names if names.count(n) > 1}
    if dup:
        raise RuntimeError(f"ambiguous span names: {sorted(dup)}")
    return out


class Tracer:
    """In-memory span aggregates for one traced run."""

    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self._stack: list[_Frame] = []
        self._patches = []            # (owner, attr, original value)
        self._originals = []
        self.kept_verify = 0          # verify_switch calls in each op's last schedule
        self._last_schedule_verify = 0

    # -- spans ---------------------------------------------------------------

    def _stat(self, name) -> _Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = _Stat()
        return st

    def _wrap(self, name, fn):
        probe = _PROBES.get(name)
        sig = inspect.signature(fn) if probe else None
        stack, clock, record = self._stack, time.perf_counter, self._record

        def traced(*args, **kwargs):
            frame = _Frame(name)
            stack.append(frame)
            result = _FAILED
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dur = clock() - t0
                stack.pop()
                extra = {}
                if probe is not None and result is not _FAILED:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    extra = probe(bound.arguments, result)
                record(frame, dur, result, extra)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def _record(self, frame, dur, result, extra) -> None:
        span = frame.name
        if span == "joinings.kr_distance_detailed" and result is not _FAILED:
            span = _kr_bucket(result)
        st = self._stat(span)
        st.calls += 1
        st.incl_s += dur
        st.self_s += dur - frame.child_s
        for key, val in extra.items():
            setattr(st, key, getattr(st, key) + val)
        for child, pts in frame.child_points.items():
            st.child_points[child] = st.child_points.get(child, 0) + pts
        stack = self._stack
        if stack:
            parent = stack[-1]
            parent.child_s += dur
            if extra.get("points"):
                parent.child_points[span] = parent.child_points.get(span, 0) + extra["points"]
        if span == "construction.verify_switch":
            for f in reversed(stack):
                if f.name == "construction.run_schedule":
                    f.verify_calls += 1
                    break
        elif span == "construction.run_schedule":
            self._last_schedule_verify = frame.verify_calls

    def end_op(self) -> None:
        """Close one workload operation: its last schedule's verifications
        are the kept ones, all earlier schedules' were discarded work."""
        self.kept_verify += self._last_schedule_verify
        self._last_schedule_verify = 0

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        modules = _library_modules()
        replacement = {}
        for name, owner, attr, raw in _targets():
            fn = _plain(raw)
            wrapped = self._wrap(name, fn)
            if isinstance(raw, classmethod):
                wrapped_raw = classmethod(wrapped)
            elif isinstance(raw, staticmethod):
                wrapped_raw = staticmethod(wrapped)
            else:
                wrapped_raw = wrapped
            replacement[id(fn)] = (fn, wrapped)
            self._originals.append(fn)
            if owner is not None:
                self._patches.append((owner, attr, raw))
                setattr(owner, attr, wrapped_raw)
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                hit = replacement.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, val in reversed(self._patches):
            setattr(owner, attr, val)
        self._patches.clear()

    def reachable_originals(self) -> list[str]:
        """Bindings in any iet3 module (or class defined there) that still
        hold an unwrapped original: empty when the install is complete."""
        orig = {id(f) for f in self._originals}
        left = []
        for mod in _library_modules():
            for attr, val in vars(mod).items():
                if id(val) in orig:
                    left.append(f"{mod.__name__}.{attr}")
                if inspect.isclass(val) and val.__module__ == mod.__name__:
                    for meth, raw in vars(val).items():
                        if id(_plain(raw)) in orig:
                            left.append(f"{mod.__name__}.{attr}.{meth}")
        return left
