"""Layer tracing installed from outside the program.

``Tracer.install`` replaces every public function of the five layer modules
(and every public method of ``Tree``, at the class) with a wrapper, in every
``sweepcover`` module that binds it, so calls made through a name imported
with ``from .cover import validate`` are seen too.  Nothing reads private
state.  A name the tracer gives a meaning to that the program no longer has
is recorded in ``absent`` instead of failing.

A span is recorded only where a call crosses from one layer into another;
calls within a layer count towards their counters but add no span, which
keeps the overhead low on deep recursions such as ``p_count``.  A layer's
self time is the time of its spans minus the time of the spans they cause.
Spans are aggregated in memory by (caller layer, callee), not kept one by
one.  Generator functions get no span (their work happens in whoever
iterates them); only the items they yield to a caller outside any other
traced generator are counted.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("tree", "cover", "enumeration", "counting", "cli")

# Names whose counters carry a meaning beyond "a call of this layer".
EXPECTED = {
    "tree": ("Tree", "parse_tree"),
    "cover": ("validate", "make_cover", "cover_relatives"),
    "enumeration": ("find_sweep_covers", "compositions", "set_partitions"),
    "counting": ("p_count", "l_delta"),
    "cli": ("main",),
}

COUNTERS = (
    "tree.build_calls",
    "tree.build_nodes",
    "tree.subtree_calls",
    "tree.query_calls",
    "tree.ancestor_steps",
    "cover.validate_calls",
    "cover.members",
    "cover.make_cover_calls",
    "enumeration.search_calls",
    "enumeration.search_distinct",
    "enumeration.search_empty",
    "enumeration.partitions_yielded",
    "enumeration.compositions_yielded",
    "enumeration.covers_emitted",
    "counting.p_count_calls",
    "counting.p_count_distinct",
    "counting.compositions_yielded",
    "counting.result_bits",
)
TIMERS = (
    "tree.parse_s",
    "tree.query_s",
    "cover.validate_s",
    "enumeration.search_s",
) + tuple(f"{layer}.self_s" for layer in LAYERS)


_CALL_COUNTERS = {
    "Tree": "tree.build_calls",
    "subtree": "tree.subtree_calls",
    "validate": "cover.validate_calls",
    "make_cover": "cover.make_cover_calls",
    "p_count": "counting.p_count_calls",
}
_SPAN_TIMERS = {
    "parse_tree": "tree.parse_s",
    "validate": "cover.validate_s",
    "find_sweep_covers": "enumeration.search_s",
}


class Tracer:
    def __init__(self) -> None:
        self.counts: Counter = Counter({name: 0 for name in COUNTERS})
        self.times: Counter = Counter({name: 0.0 for name in TIMERS})
        self.spans: Counter = Counter()  # (caller layer, callee) -> boundary calls
        self.span_s: Counter = Counter()  # (caller layer, callee) -> seconds
        self.absent: list[str] = []
        self._stack: list[list] = []  # open spans: [layer, time of child spans]
        self._in_generator = 0
        self._p_keys: set = set()
        self._search_depth = 0
        self._search_keys: set = set()
        self._tree_len = len

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"sweepcover.{layer}")
            except ImportError:
                self.absent.append(f"sweepcover.{layer}")
        for layer, names in EXPECTED.items():
            for name in names:
                if layer in modules and not hasattr(modules[layer], name):
                    self.absent.append(f"{layer}.{name}")
        replaced: dict[int, object] = {}
        generators: dict[int, tuple] = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if name == "Tree" and isinstance(obj, type):
                    self._wrap_tree_class(obj)
                elif inspect.isgeneratorfunction(obj):
                    generators[id(obj)] = (obj, layer, name)
                elif callable(obj) and not isinstance(obj, type):
                    replaced[id(obj)] = self._wrap(obj, layer, name)
        for mod in [m for n, m in sys.modules.items() if n.split(".")[0] == "sweepcover"]:
            binder = mod.__name__.rpartition(".")[2]
            for name, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    setattr(mod, name, replaced[id(obj)])
                elif id(obj) in generators:
                    fn, layer, fname = generators[id(obj)]
                    # compositions serves both counting and enumeration: count
                    # its yields under the layer of the module that calls it.
                    owner = binder if binder in ("counting", "enumeration") else layer
                    kind = "compositions" if fname == "compositions" else "partitions"
                    setattr(mod, name, self._wrap_generator(fn, f"{owner}.{kind}_yielded"))

    def _wrap_tree_class(self, cls: type) -> None:
        self._tree_len = cls.__len__  # unwrapped, so sizing a build is no query
        for name, attr in list(vars(cls).items()):
            if name == "__init__":
                setattr(cls, name, self._wrap(attr, "tree", "Tree"))
            elif isinstance(attr, property) and not name.startswith("_"):
                setattr(cls, name, property(self._wrap(attr.fget, "tree", name, query=True)))
            elif inspect.isfunction(attr) and (
                name in ("__len__", "__contains__") or not name.startswith("_")
            ):
                setattr(cls, name, self._wrap(attr, "tree", name, query=name != "subtree"))

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, layer: str, name: str, query: bool = False):
        times, stack = self.times, self._stack
        spans, span_s = self.spans, self.span_s
        before = self._before_hook(name, query)
        after = self._after_hook(name)

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            if stack and stack[-1][0] == layer:
                result = fn(*args, **kwargs)
            else:
                caller = stack[-1][0] if stack else "client"
                frame = [layer, 0.0]
                stack.append(frame)
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = perf_counter() - start
                    stack.pop()
                    times[f"{layer}.self_s"] += elapsed - frame[1]
                    if stack:
                        stack[-1][1] += elapsed
                    spans[caller, name] += 1
                    span_s[caller, name] += elapsed
                    if query:
                        times["tree.query_s"] += elapsed
                    elif name in _SPAN_TIMERS:
                        times[_SPAN_TIMERS[name]] += elapsed
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _before_hook(self, name: str, query: bool):
        counts = self.counts
        if name == "find_sweep_covers":
            return self._search_enter
        key = _CALL_COUNTERS.get(name, "tree.query_calls" if query else None)
        if key is None:
            return None

        def before(args, kwargs):
            counts[key] += 1

        return before

    def _after_hook(self, name: str):
        counts = self.counts
        if name == "Tree":

            def after(args, kwargs, result):
                counts["tree.build_nodes"] += self._tree_len(args[0])

            return after
        if name == "p_count":
            keys = self._p_keys

            def after(args, kwargs, result):
                key = (args, tuple(sorted(kwargs.items()))) if kwargs else args
                if key not in keys:
                    keys.add(key)
                    counts["counting.p_count_distinct"] += 1
                    counts["counting.result_bits"] += int(result).bit_length()

            return after
        if name == "ancestors_of":

            def after(args, kwargs, result):
                counts["tree.ancestor_steps"] += len(result)

            return after
        if name == "validate":

            def after(args, kwargs, result):
                cover = args[1] if len(args) > 1 else kwargs.get("cover", ())
                counts["cover.members"] += len(set().union(*cover))

            return after
        if name == "find_sweep_covers":
            return self._search_exit
        return None

    def _search_enter(self, args, kwargs) -> None:
        self.counts["enumeration.search_calls"] += 1
        tree = args[0] if args else kwargs.get("tree")
        size = args[1] if len(args) > 1 else kwargs.get("n")
        self._search_keys.add((getattr(tree, "root", None), size))
        self._search_depth += 1

    def _search_exit(self, args, kwargs, result):
        self._search_depth -= 1
        counts = self.counts
        # A lazy result (an iterator) cannot be sized without consuming it.
        sized = hasattr(result, "__len__")
        if sized and not result:
            counts["enumeration.search_empty"] += 1
        if self._search_depth == 0:
            counts["enumeration.search_distinct"] += len(self._search_keys)
            self._search_keys.clear()
            if sized:
                counts["enumeration.covers_emitted"] += len(result)

    def _wrap_generator(self, fn, counter: str):
        tracer = self
        counts = self.counts

        def wrapper(*args, **kwargs):
            if tracer._in_generator:
                return fn(*args, **kwargs)
            return counted(fn(*args, **kwargs))

        def counted(gen):
            try:
                while True:
                    tracer._in_generator += 1
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer._in_generator -= 1
                    counts[counter] += 1
                    yield item
            finally:
                gen.close()

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def start_command(self) -> None:
        """Forget open spans and searches left behind by a failed command."""
        self._stack.clear()
        self._in_generator = 0
        self._search_depth = 0
        self._search_keys.clear()

    # -- results -----------------------------------------------------------

    def snapshot(self) -> dict:
        """Counters (exact), timers (seconds) and the aggregated span table."""
        return {
            "counts": dict(self.counts),
            "times": dict(self.times),
            "spans": [
                {"caller": c, "callee": f, "calls": n, "s": self.span_s[c, f]}
                for (c, f), n in sorted(self.spans.items())
            ],
            "absent": list(self.absent),
        }
