"""Per-function self time, call counts and work counters for every public
function of the rislink package.

`Tracer.install()` replaces each public function defined in a rislink module
with a timing wrapper in every rislink namespace that binds it: module
globals (so `harness`, which imports `select_codeword` and others by name, is
traced too) and module-level dicts such as `coding.MODULATIONS`. `uninstall()`
puts the originals back. Spans are aggregated in memory as they close; a
function that does not exist simply records no span.

Keys are "<module>.<function>" without the package prefix, e.g.
"ris.select_codeword".
"""

import functools
import importlib
import inspect
import pkgutil
import time
from collections import defaultdict

PACKAGE = "rislink"


class Tracer:
    def __init__(self, counters: dict):
        # key -> [(counter name, fn(args, result) -> number)]
        self.counters = counters
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.counter_errors = 0
        self._child_s = [0.0]  # time spent in wrapped callees, one slot per open span
        self._patched = []

    @staticmethod
    def _public_function(obj) -> bool:
        return (
            inspect.isfunction(obj)
            and obj.__module__.startswith(PACKAGE + ".")
            and obj.__name__.isidentifier()
            and not obj.__name__.startswith("_")
        )

    def _wrap(self, fn):
        key = f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__name__}"
        counters = self.counters.get(key, ())
        child_s = self._child_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child_s.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                inner = child_s.pop()
                child_s[-1] += elapsed
                self.self_s[key] += elapsed - inner
                self.total_s[key] += elapsed
                self.calls[key] += 1
            for name, count in counters:
                try:
                    self.counts[name] += count(args, result)
                except (AttributeError, IndexError, TypeError):
                    self.counter_errors += 1
            return result

        return wrapper

    def install(self) -> None:
        pkg = importlib.import_module(PACKAGE)
        modules = [pkg] + [
            importlib.import_module(f"{PACKAGE}.{info.name}")
            for info in pkgutil.iter_modules(pkg.__path__)
            if info.name != "__main__"  # importing it runs the CLI
        ]
        wrappers = {}

        def traced(obj):
            if self._public_function(obj):
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj)
                return wrappers[obj]
            if isinstance(obj, tuple) and any(self._public_function(x) for x in obj):
                return tuple(traced(x) or x for x in obj)
            return None

        for module in modules:
            namespace = vars(module)
            for name, obj in list(namespace.items()):
                if name.startswith("_"):
                    continue
                containers = [(namespace, name, obj)]
                if isinstance(obj, dict):
                    containers = [(obj, k, v) for k, v in obj.items()]
                for container, key, value in containers:
                    replacement = traced(value)
                    if replacement is not None:
                        self._patched.append((container, key, value))
                        container[key] = replacement

    def uninstall(self) -> None:
        for container, key, original in reversed(self._patched):
            container[key] = original
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def module_self_s(self, module: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.split(".")[0] == module)

    def module_calls(self, module: str) -> int:
        return sum(v for k, v in self.calls.items() if k.split(".")[0] == module)
