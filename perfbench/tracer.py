"""Spans and counters recorded from outside qcontext.

``Tracer.install`` wraps every public function of the measured modules
and the ``__post_init__`` of every dataclass they define, and rebinds each
wrapper wherever a loaded qcontext module holds the original: as a module
attribute, inside a module-level tuple (``acceptance.ALL_CRITERIA``) or as
a value of a module-level dict (``cli._NAMED_STATES``).  ``uninstall``
puts every original back, so untraced passes run the unmodified program.

A span is ``(name, start, end, parent, pass_id)``: times in integer
nanoseconds since the tracer was made, parent as an index into the spans.
Spans stay in memory until ``write_spans``.  A function re-entered while its own span is open (``io.jsonable`` recursing)
is folded into the outer span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

MODULES = (
    "linalg", "states", "contexts", "correlations", "contextuality",
    "mub", "sampling", "acceptance", "io", "cli",
)

# Leaf helpers called once per number (serialising) or several times per
# validation; a span each would cost more than the work.  Their time stays
# in the caller's self time (``linalg.require_hermitian`` for validation).
UNWRAPPED = frozenset({
    "io.round_sig", "io.jsonable",
    "linalg.dagger", "linalg.as_operator", "linalg.hermiticity_defect", "linalg.is_hermitian",
})


def _jacobi_dims(tracer, args, kwargs, result):
    h = args[0] if args else kwargs["h"]
    n = len(h)
    if n <= 2:
        bucket = "d2"
    elif n <= 4:
        bucket = "d3-4"
    elif n <= 16:
        bucket = "d5-16"
    else:
        bucket = "d17-64"
    tracer.counts["linalg.jacobi_eigh.calls." + bucket] += 1
    tracer.counts["linalg.jacobi_eigh.work_n3"] += n ** 3


def _spin_direction(tracer, args, kwargs, result):
    d = args[0] if args else kwargs["d"]
    tracer.directions.add((d.x, d.y, d.z))


def _search_cases(tracer, args, kwargs, result):
    tracer.counts["contextuality.search_noncontextual_assignment.cases"] += (
        result.cases_checked
    )


def _parser_parse(tracer, args, kwargs, parser):
    parser.parse_args = tracer.wrap("cli.parse_args", parser.parse_args)


# Extra counters taken from a call's arguments or result.
HOOKS = {
    "linalg.jacobi_eigh": _jacobi_dims,
    "correlations.spin_observable": _spin_direction,
    "contextuality.search_noncontextual_assignment": _search_cases,
    "cli.build_parser": _parser_parse,
}


class Tracer:
    """Per-pass counters and self times, plus every span of the run."""

    def __init__(self):
        self.spans: list = []
        self.origin = time.perf_counter()
        self.pass_id = 0
        self._stack: list[list] = []
        self._open: set[str] = set()
        self._restore: list = []
        self.start_pass(0)

    def start_pass(self, pass_id: int) -> None:
        self.pass_id = pass_id
        self.counts: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.directions: set = set()

    def wrap(self, name: str, fn, hook=None):
        tracer = self
        spans = self.spans
        stack = self._stack
        open_names = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name in open_names:
                return fn(*args, **kwargs)
            open_names.add(name)
            parent = stack[-1][0] if stack else -1
            frame = [len(spans), 0.0]
            spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                open_names.discard(name)
                spent = end - start
                spans[frame[0]] = (name, start, end, parent, tracer.pass_id)
                tracer.counts[name + ".calls"] += 1
                tracer.self_s[name] += spent - frame[1]
                tracer.total_s[name] += spent
                if stack:
                    stack[-1][1] += spent
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer is already installed")
        wrappers: dict[int, object] = {}
        for short in MODULES:
            module = importlib.import_module(f"qcontext.{short}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                name = f"{short}.{attr}"
                if inspect.isfunction(obj) and name not in UNWRAPPED:
                    wrappers[id(obj)] = self.wrap(name, obj, HOOKS.get(name))
                elif inspect.isclass(obj) and "__post_init__" in vars(obj):
                    original = vars(obj)["__post_init__"]
                    obj.__post_init__ = self.wrap(f"{name}.init", original)
                    self._restore.append((obj, "__post_init__", original, True))
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "qcontext" or mod_name.startswith("qcontext."):
                self._rebind(vars(module), wrappers)

    def _rebind(self, namespace: dict, wrappers: dict) -> None:
        for key, value in list(namespace.items()):
            if id(value) in wrappers:
                new = wrappers[id(value)]
            elif isinstance(value, tuple) and any(id(v) in wrappers for v in value):
                new = tuple(wrappers.get(id(v), v) for v in value)
            elif isinstance(value, dict) and any(id(v) in wrappers for v in value.values()):
                for k, v in list(value.items()):
                    if id(v) in wrappers:
                        value[k] = wrappers[id(v)]
                        self._restore.append((value, k, v, False))
                continue
            else:
                continue
            namespace[key] = new
            self._restore.append((namespace, key, value, False))

    def uninstall(self) -> None:
        while self._restore:
            target, key, original, is_attr = self._restore.pop()
            if is_attr:
                setattr(target, key, original)
            else:
                target[key] = original

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('["name", "start_ns", "end_ns", "parent", "pass_id"]\n')
            origin = self.origin
            for name, start, end, parent, pass_id in self.spans:
                fh.write(json.dumps([
                    name, round((start - origin) * 1e9), round((end - origin) * 1e9),
                    parent, pass_id,
                ]) + "\n")
