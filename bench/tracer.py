"""Span tracer that times calls into mcvar's public functions from outside.

Modules import each other with ``from .x import y``, so one function can be
bound under several names (``mcvar.closure.solve_cross_pair``,
``mcvar.estimation.solve_cross_pair``, ``mcvar.solve_cross_pair``, ...).
:meth:`Tracer.install` finds every binding of every public function defined
in an ``mcvar`` module by object identity and replaces it with a timing
wrapper; ``scipy.optimize.minimize`` is wrapped as well, so optimiser runs can
be attributed to the stage that drives them.  :meth:`Tracer.restore` puts
every original back.  The package source is not modified.

Spans are kept in memory as ``(label, parent span, start ns, end ns)`` and
written out by :meth:`Tracer.dump` once the run has ended.
"""

import contextlib
import functools
import gzip
import inspect
import json
import sys
import time
from collections import defaultdict

# Spans that own the work nested inside them: every call, second and
# optimiser evaluation below one of these is also credited to the innermost
# enclosing one.
SCOPES = (
    "estimation.fit_stage2",
    "estimation.fit_stage3",
    "estimation.fit_stage4",
    "margins.fit_margin",
)

MINIMIZE = "scipy.optimize.minimize"


class _Frame:
    __slots__ = ("label", "t0", "child", "span", "scope")

    def __init__(self, label, t0, span, scope):
        self.label = label
        self.t0 = t0
        self.child = 0
        self.span = span
        self.scope = scope


class Tracer:
    """Wraps mcvar's public functions and aggregates their spans.

    ``stats[label]`` holds calls, total and self nanoseconds and errors per
    exception type; ``scoped[(scope, label, key)]`` holds calls and
    nanoseconds restricted to calls made inside a :data:`SCOPES` span, plus
    ``nfev``, ``nit`` and ``unconverged`` for optimiser runs.
    """

    def __init__(self):
        self.enabled = False
        self.spans = []
        self.stats = defaultdict(lambda: {"calls": 0, "ns": 0, "self_ns": 0, "errors": defaultdict(int)})
        self.scoped = defaultdict(float)
        self._stack = []
        self._patches = []

    # -- installation ---------------------------------------------------------

    def install(self):
        """Wrap every binding of every public mcvar function; returns the count."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "mcvar" or n.startswith("mcvar."))]
        targets = {}
        for mod in modules:
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    short = mod.__name__.split(".", 1)[1] if "." in mod.__name__ else mod.__name__
                    targets[id(obj)] = (obj, "%s.%s" % (short, obj.__name__))
        wrappers = {}
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                hit = targets.get(id(obj))
                if hit is None or hit[0] is not obj:
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(obj, hit[1])
                self._patch(mod, name, wrappers[id(obj)])
        import scipy.optimize

        self._patch(scipy.optimize, "minimize", self._wrap(scipy.optimize.minimize, MINIMIZE))
        return len(self._patches)

    def _patch(self, owner, name, replacement):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def restore(self):
        """Put every original binding back, newest first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)
        self.enabled = False

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- spans ----------------------------------------------------------------

    def _enter(self, label):
        stack = self._stack
        parent = stack[-1] if stack else None
        scope = parent.scope if parent is not None else None
        if parent is not None and parent.label in SCOPES:
            scope = parent.label
        frame = _Frame(label, time.perf_counter_ns(), len(self.spans), scope)
        self.spans.append([label, parent.span if parent is not None else -1, frame.t0, 0])
        stack.append(frame)
        return frame

    def _exit(self, frame, result, exc):
        t1 = time.perf_counter_ns()
        self._stack.pop()
        dur = t1 - frame.t0
        self.spans[frame.span][3] = t1
        if self._stack:
            self._stack[-1].child += dur
        st = self.stats[frame.label]
        st["calls"] += 1
        st["ns"] += dur
        st["self_ns"] += dur - frame.child
        if exc is not None:
            st["errors"][type(exc).__name__] += 1
        scope = frame.scope
        if scope is None:
            return
        sc = self.scoped
        sc[(scope, frame.label, "calls")] += 1
        sc[(scope, frame.label, "ns")] += dur
        if frame.label == MINIMIZE and result is not None:
            sc[(scope, frame.label, "nfev")] += int(getattr(result, "nfev", 0))
            sc[(scope, frame.label, "nit")] += int(getattr(result, "nit", 0))
            sc[(scope, frame.label, "unconverged")] += 0 if result.success else 1

    @contextlib.contextmanager
    def span(self, label):
        """A span opened by the benchmark itself around one operation."""
        if not self.enabled:
            yield
            return
        frame = self._enter(label)
        try:
            yield
        except BaseException as exc:
            self._exit(frame, None, exc)
            raise
        self._exit(frame, None, None)

    def _wrap(self, fn, label):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frame = tracer._enter(label)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._exit(frame, None, exc)
                raise
            tracer._exit(frame, result, None)
            return result

        traced.__wrapped_by_bench_tracer__ = True
        return traced

    # -- results --------------------------------------------------------------

    def calls(self, label):
        return self.stats[label]["calls"] if label in self.stats else 0

    def seconds(self, label, key="ns"):
        return self.stats[label][key] * 1e-9 if label in self.stats else 0.0

    def errors(self, label, exc_name):
        return self.stats[label]["errors"].get(exc_name, 0) if label in self.stats else 0

    def in_scope(self, scope, label, key):
        value = self.scoped.get((scope, label, key), 0.0)
        return value * 1e-9 if key == "ns" else value

    def dump(self, path):
        """Write every span as gzipped JSON: a label table and one row per span."""
        labels = sorted({s[0] for s in self.spans})
        index = {lb: i for i, lb in enumerate(labels)}
        rows = [[index[s[0]], s[1], s[2], s[3]] for s in self.spans]
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump({"labels": labels, "columns": ["label", "parent", "start_ns", "end_ns"],
                       "spans": rows}, fh, separators=(",", ":"))
