"""Spans recorded from outside the program, around its public functions.

``Tracer.installed()`` replaces each function in ``TRACED`` by a wrapper
that records one span per call: name, parent span, start and end.  The
program's modules call each other through module attributes
(``dist.joint_tables``, ``mesh.count_occurrences``, ...), so calls between
layers are recorded too.  Spans stay in memory; ``Tracer.summary`` reduces
them when the run ends.
"""

from __future__ import annotations

import contextlib
import inspect
from collections import Counter, defaultdict
from math import factorial
from time import perf_counter

from meshperm import bijections, catalog, cli, dist, mesh

# The public functions timed, by module attribute.  perms is timed by a
# probe instead: enumerate_sn returns a lazy iterator, so a span around the
# call would not cover the enumeration.
TRACED = (
    (cli, "main"),
    (catalog, "builtin_catalog"),
    (catalog, "by_id"),
    (catalog, "get_pair"),
    (dist, "joint_tables"),
    (dist, "distribution"),
    (dist, "avoider_count"),
    (dist, "split_distribution"),
    (dist, "merge"),
    (dist, "table_to_json"),
    (mesh, "joint_counts"),
    (mesh, "count_occurrences"),
    (mesh, "occurrences"),
    (bijections, "verify_swap_bijection"),
)

# Functions that sweep all of S_n, their first argument being n.
SWEEPS = {"dist.joint_tables", "dist.distribution", "dist.avoider_count",
          "dist.split_distribution"}


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.perms_swept = 0
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        i = len(self.spans)
        self.spans.append([name, self._stack[-1] if self._stack else -1, 0.0, 0.0])
        self._stack.append(i)
        self.spans[i][2] = perf_counter()
        return i

    def _close(self, i: int) -> None:
        self.spans[i][3] = perf_counter()
        if self._stack[-1] == i:
            self._stack.pop()
        else:
            self._stack.remove(i)

    def _wrap(self, name: str, fn):
        sweeps = name in SWEEPS
        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                i = self._open(name)
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    self._close(i)
        else:
            def wrapper(*args, **kwargs):
                if sweeps:
                    self.perms_swept += factorial(args[0])
                i = self._open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._close(i)
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        originals = [(mod, attr, getattr(mod, attr)) for mod, attr in TRACED]
        try:
            for mod, attr, fn in originals:
                name = f"{mod.__name__.rsplit('.', 1)[-1]}.{attr}"
                setattr(mod, attr, self._wrap(name, fn))
            yield self
        finally:
            for mod, attr, fn in originals:
                setattr(mod, attr, fn)

    def summary(self, wall_s: float) -> dict:
        """Per-name calls and busy time, per-layer self and busy time, and
        the share of ``wall_s`` that no span covers.

        busy: total duration of the spans not nested in a span of the same
        name (or layer), so recursion and nesting are not counted twice.
        self: duration minus the durations of direct child spans.
        """
        spans = self.spans
        dur = [end - start for _, _, start, end in spans]
        child = [0.0] * len(spans)
        for i, (_, parent, _, _) in enumerate(spans):
            if parent >= 0:
                child[parent] += dur[i]
        calls: Counter = Counter()
        busy: defaultdict = defaultdict(float)
        layer_busy: defaultdict = defaultdict(float)
        layer_self: defaultdict = defaultdict(float)
        covered = 0.0
        for i, (name, parent, _, _) in enumerate(spans):
            layer = layer_of(name)
            calls[name] += 1
            layer_self[layer] += dur[i] - child[i]
            if parent < 0:
                covered += dur[i]
            same_name = same_layer = False
            p = parent
            while p >= 0 and not same_name:
                pname = spans[p][0]
                same_name = pname == name
                same_layer = same_layer or layer_of(pname) == layer
                p = spans[p][1]
            if not same_name:
                busy[name] += dur[i]
            if not same_layer:
                layer_busy[layer] += dur[i]
        return {
            "calls": dict(calls),
            "busy_s": dict(busy),
            "layer_busy_s": dict(layer_busy),
            "layer_self_s": dict(layer_self),
            "perms_swept": self.perms_swept,
            "unattributed_frac": (wall_s - covered) / wall_s,
        }
