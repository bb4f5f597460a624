"""In-memory spans and counters for the traced run.

Spans are recorded by wrapping public functions of the library from the
outside (the library itself is not changed).  A wrapper replaces every
binding of the function in the ``padicgeom`` modules, so calls the library
makes internally are seen too; self time then splits the work between a
caller and the wrapped functions it calls.  Spans are aggregated as they
close (busy time, call count), which keeps memory flat however many
spans a run makes.
"""

import sys
import time
from collections import defaultdict

from benchstats import self_time

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.active = False
        self.scale = 1.0          # raw time -> time at the nominal machine speed
        self._stack = []          # open spans: [name, start, child intervals]
        self.busy = defaultdict(float)
        self.calls = defaultdict(int)
        self.counters = defaultdict(int)

    def begin(self, name):
        self._stack.append([name, _clock(), []])

    def end(self):
        name, start, children = self._stack.pop()
        end = _clock()
        self.busy[name] += self_time(start, end, children) * self.scale
        self.calls[name] += 1
        self.exclude(start, end)

    def exclude(self, start, end):
        """Remove [start, end] from the self time of the enclosing span."""
        if self._stack:
            self._stack[-1][2].append((start, end))

    def add(self, name, amount=1):
        self.counters[name] += amount

    def maximum(self, name, value):
        self.counters[name] = max(self.counters[name], value)

    def call(self, name, fn, *args, **kwargs):
        """Run fn(*args) inside a span (a span around the benchmark's own
        call, for layers that are not wrapped)."""
        self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end()


def _library_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "padicgeom" or n.startswith("padicgeom."))]


class Instrumentation:
    """Span wrappers installed on library functions; ``remove`` undoes them."""

    def __init__(self, tracer):
        self.tracer = tracer
        self._restore = []

    def wrap(self, owner, attr, name, after=None):
        """Wrap owner.attr (and every other library binding of the same
        function) in a span.  ``name`` is a span name or a function of the
        call's arguments giving one; ``after(tracer, result, args)`` updates
        counters, and its own time is kept out of every span."""
        original = getattr(owner, attr)
        tracer = self.tracer
        name_of = name if callable(name) else (lambda *a, **k: name)

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            tracer.begin(name_of(*args, **kwargs))
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end()
            if after is not None:
                start = _clock()
                after(tracer, result, args)
                tracer.exclude(start, _clock())
            return result

        bindings = [(owner, attr)]
        for mod in _library_modules():
            for key, value in list(vars(mod).items()):
                if value is original and (mod, key) != (owner, attr):
                    bindings.append((mod, key))
        for obj, key in bindings:
            self._restore.append((obj, key, original))
            setattr(obj, key, wrapper)

    def remove(self):
        for obj, key, original in reversed(self._restore):
            setattr(obj, key, original)
        self._restore.clear()


def coeff_bits(fractions):
    """Largest bit length of a numerator or denominator (0 for none)."""
    return max((max(abs(c.numerator).bit_length(), c.denominator.bit_length())
                for c in fractions), default=0)
