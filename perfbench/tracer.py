"""Outside-in span tracer for the census benchmark.

The package has no spans of its own yet, so the traced run records them
from outside: it rebinds the module attributes the package calls through
(``commcensus.census.splitting``, ``commcensus.quaternion.is_prime``, ...)
to timing wrappers, and puts the originals back afterwards. Nothing under
``src/`` is edited.

Every span record has a name, start, end, parent id and run id (the
sequence number of the benchmark op it belongs to). Records stay in memory
and are written out once when the benchmark ends. Hot leaves such as
``kronecker`` are called millions of times per op, so repeated calls of one
function under the same parent record are folded into a single record that
carries the call count and the summed duration ``busy``; start is the first
call's start and end the last call's end. Calls made directly by the op are
never folded, so the top-level spans are the exact call intervals.

A record's self time is its busy time minus the busy time of its child
records. Calls made on worker threads (the Chebotarev thread pool) have no
parent on their own thread; they become top-level records of the op in
flight, so their parent's self time includes the wait for the pool.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time

_now = time.perf_counter


class Span:
    """One span record; `calls` > 1 when repeated calls were folded into it."""

    __slots__ = ("id", "parent", "run", "name", "start", "end", "calls", "busy",
                 "child", "extra", "kids")

    def __init__(self, id_, parent, run, name, start):
        self.id = id_
        self.parent = parent
        self.run = run
        self.name = name
        self.start = start
        self.end = start
        self.calls = 0
        self.busy = 0.0
        self.child = 0.0
        self.extra: dict[str, int] = {}
        self.kids: dict[str, Span] = {}

    def bump(self, key: str, n: int = 1) -> None:
        self.extra[key] = self.extra.get(key, 0) + n

    def as_dict(self, t0: float) -> dict:
        return {
            "id": self.id,
            "parent": self.parent,
            "run": self.run,
            "name": self.name,
            "start": self.start - t0,
            "end": self.end - t0,
            "calls": self.calls,
            "busy_s": self.busy,
            "self_s": self.busy - self.child,
            **self.extra,
        }


class Tracer:
    """Span collector plus the attribute patches that feed it."""

    def __init__(self):
        self.spans: list[Span] = []
        self.roots: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: Span | None = None
        self._patches: list[tuple[object, str, object]] = []

    # -- op boundaries, called by the benchmark around each op -------------

    def begin_op(self, run: int) -> None:
        root = Span(next(self._ids), 0, run, "op", _now())
        self.spans.append(root)
        self.roots.append(root)
        self._root = root

    def end_op(self) -> None:
        root = self._root
        root.end = _now()
        root.calls = 1
        root.busy = root.end - root.start
        self._root = None

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name, fn, on_return=None, on_raise=None):
        tracer = self
        local = self._local

        def traced(*args, **kwargs):
            root = tracer._root
            if root is None:
                return fn(*args, **kwargs)
            t0 = _now()
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if stack:
                parent = stack[-1]
                rec = parent.kids.get(name)
                if rec is None:
                    rec = parent.kids[name] = Span(
                        next(tracer._ids), parent.id, root.run, name, t0)
                    tracer.spans.append(rec)
            else:
                parent = None
                rec = Span(next(tracer._ids), root.id, root.run, name, t0)
                tracer.spans.append(rec)
            stack.append(rec)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                if on_raise is not None:
                    on_raise(rec, exc)
                raise
            finally:
                t1 = _now()
                stack.pop()
                rec.calls += 1
                rec.busy += t1 - t0
                rec.end = t1
                if parent is not None:
                    parent.child += t1 - t0
            if on_return is not None:
                on_return(rec, out)
            return out

        return traced

    def install(self, targets) -> None:
        """Wrap each (module, attr, span name, on_return, on_raise) target.

        Every module of the package that holds the same object under any
        name is rebound too, so calls are caught wherever the package makes
        them from.
        """
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "commcensus" or k.startswith("commcensus."))]
        for module, attr, name, on_return, on_raise in targets:
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, on_return, on_raise)
            for mod in modules:
                for key in [k for k, v in vars(mod).items() if v is original]:
                    setattr(mod, key, wrapper)
                    self._patches.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches.clear()

    # -- summaries -----------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self_s and every extra counter, summed."""
        totals: dict[str, dict[str, float]] = {}
        for s in self.spans:
            if s.name == "op":
                continue
            agg = totals.setdefault(s.name, {"calls": 0, "self_s": 0.0})
            agg["calls"] += s.calls
            agg["self_s"] += s.busy - s.child
            for key, val in s.extra.items():
                agg[key] = agg.get(key, 0) + val
        return totals

    def coverage(self) -> float:
        """Union of the top-level spans of each op over the op's wall time."""
        by_root: dict[int, list[tuple[float, float]]] = {r.id: [] for r in self.roots}
        for s in self.spans:
            if s.parent in by_root:
                by_root[s.parent].append((s.start, s.end))
        covered = wall = 0.0
        for root in self.roots:
            wall += root.busy
            end = root.start
            for a, b in sorted(by_root[root.id]):
                a, b = max(a, end), min(b, root.end)
                if b > a:
                    covered += b - a
                    end = b
        return covered / wall

    def dump(self) -> list[dict]:
        t0 = self.roots[0].start if self.roots else 0.0
        return [s.as_dict(t0) for s in self.spans]
