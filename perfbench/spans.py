"""Span tracer used by the traced benchmark run.

Spans are opened and closed around calls into the library from outside it:
the tracer replaces a public function by a wrapper in every module namespace
that binds it, so nothing in the library changes.  Each span has a name, a
layer (the library module, or ``bench`` for the benchmark's own code), a
start, an end and a parent.  A span's self time is its duration minus the
time its child spans cover; children are strictly nested in their parent on
one thread, so that cover is the plain sum of their durations.

Generators are timed per ``next()`` call: every step of the wrapped generator
is one span, so a consumer's self time excludes the time spent producing its
items.  Spans deeper than ``keep_depth`` are folded into the per-name and
per-layer totals instead of being stored one by one, because a full word-tree
sweep makes millions of them.
"""

import functools
import inspect
import sys
import time

LAYER_MODULES = (
    "cube",
    "calculus",
    "ifs",
    "presets",
    "components",
    "spectral",
    "ktheory",
    "render",
    "cli",
    "_verify",
)
# methods are wrapped on their class; one entry per membership test that the
# pruned pairing pays for every visited cube
METHODS = (("ktheory", "ProjectionSpec", "contains"),)
CACHED = ("vertex_bits", "x_matrix", "g_matrix", "oriented_edge_set")
PACKAGE = "fractal_dirac"


def layer_of(module_name):
    """Layer name of a library module: its last dotted part without a leading underscore."""
    return module_name.rsplit(".", 1)[-1].lstrip("_")


class Tracer:
    """In-memory span stack with per-name and per-layer totals."""

    def __init__(self, keep_depth=3, clock=time.perf_counter):
        self.clock = clock
        self.keep_depth = keep_depth
        self.reset()

    def reset(self):
        self._stack = []  # open frames: [name, layer, start, child_s, kept_index]
        self._open_names = {}
        self._open_layers = {}
        self.calls = {}
        self.busy = {}  # outermost activation of each name only, so recursion counts once
        self.layer_busy = {}
        self.layer_self = {}
        self.counts = {}
        self.spans = []  # kept spans: [name, start, end, parent index or -1]

    def push(self, name, layer):
        kept = -1
        depth = len(self._stack)
        if depth < self.keep_depth:
            parent = self._stack[-1][4] if self._stack else -1
            kept = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent])
        self._open_names[name] = self._open_names.get(name, 0) + 1
        self._open_layers[layer] = self._open_layers.get(layer, 0) + 1
        start = self.clock()
        self._stack.append([name, layer, start, 0.0, kept])
        if kept >= 0:
            self.spans[kept][1] = start

    def pop(self):
        end = self.clock()
        name, layer, start, child, kept = self._stack.pop()
        dur = end - start
        if kept >= 0:
            self.spans[kept][2] = end
        if self._stack:
            self._stack[-1][3] += dur
        self.calls[name] = self.calls.get(name, 0) + 1
        self._open_names[name] -= 1
        if self._open_names[name] == 0:
            self.busy[name] = self.busy.get(name, 0.0) + dur
        self._open_layers[layer] -= 1
        if self._open_layers[layer] == 0:
            self.layer_busy[layer] = self.layer_busy.get(layer, 0.0) + dur
        self.layer_self[layer] = self.layer_self.get(layer, 0.0) + dur - child
        return dur

    def count(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def generator(self, gen, name, layer):
        """Re-yield gen's items, timing each next() call as one span."""
        try:
            while True:
                self.push(name, layer)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self.pop()
                self.count(name + ".items")
                yield item
        finally:
            gen.close()

    def absorb(self, export, covered_s):
        """Merge another tracer's totals (a child process) under the open span.

        covered_s is the time the other tracer's root spans lasted; it counts
        as child time of the currently open span.
        """
        if self._stack:
            self._stack[-1][3] += covered_s
        for attr in ("calls", "busy", "layer_busy", "layer_self", "counts"):
            mine = getattr(self, attr)
            for key, value in export[attr].items():
                mine[key] = mine.get(key, 0) + value

    def export(self):
        return {
            "calls": dict(self.calls),
            "busy": dict(self.busy),
            "layer_busy": dict(self.layer_busy),
            "layer_self": dict(self.layer_self),
            "counts": dict(self.counts),
            "spans": [list(s) for s in self.spans],
        }


def wrap(tracer, fn, name, layer, on_return=None):
    """Traced stand-in for fn; generator functions get a per-next() timer."""
    if inspect.isgeneratorfunction(fn):

        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            return tracer.generator(fn(*args, **kwargs), name, layer)

        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.push(name, layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.pop()
        if on_return is not None:
            on_return(tracer, args, kwargs, result)
        return result

    return wrapper


def _public_functions(module):
    """Public functions (plain or lru-cached) defined in module itself."""
    out = {}
    for attr, obj in vars(module).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
            out[attr] = obj
    return out


def _pairing_words(tracer, args, kwargs, result):
    from fractal_dirac import ifs as ifs_mod
    from fractal_dirac import ktheory

    bound = inspect.signature(ktheory.index_pairing).bind(*args, **kwargs)
    word_count = inspect.unwrap(ifs_mod.word_count)  # keep this lookup out of the trace
    system = bound.arguments["ifs"]
    tracer.count("ktheory.words", word_count(system.num_maps, bound.arguments["depth"]))


def _svg_bytes(tracer, args, kwargs, result):
    tracer.count("render.svg_bytes", len(result.encode()))


ON_RETURN = {
    "ktheory.index_pairing": _pairing_words,
    "render.render_svg": _svg_bytes,
}


def install(tracer):
    """Wrap every public function of the layer modules; return an undo callable.

    The wrapper replaces the function in every loaded module of the package
    that binds it, for example both ``ifs.iter_placed`` and
    ``spectral.iter_placed``.
    """
    wrappers = {}
    for short in LAYER_MODULES:
        module = sys.modules.get(f"{PACKAGE}.{short}")
        if module is None:  # not imported by this process, e.g. the CLI in a worker
            continue
        layer = layer_of(short)
        for attr, fn in _public_functions(module).items():
            name = f"{layer}.{attr}"
            wrappers[id(fn)] = (fn, wrap(tracer, fn, name, layer, ON_RETURN.get(name)))
    undo = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
            continue
        for attr, obj in list(vars(module).items()):
            hit = wrappers.get(id(obj))  # the originals stay referenced, so ids are unique
            if hit is not None:
                setattr(module, attr, hit[1])
                undo.append((module, attr, obj))
    for short, cls_name, meth in METHODS:
        cls = getattr(sys.modules[f"{PACKAGE}.{short}"], cls_name)
        original = cls.__dict__[meth]
        setattr(cls, meth, wrap(tracer, original, f"{layer_of(short)}.{meth}", layer_of(short)))
        undo.append((cls, meth, original))

    def uninstall():
        for owner, attr, obj in reversed(undo):
            setattr(owner, attr, obj)

    return uninstall


def cache_totals():
    """Summed (hits, misses) of the cube module's lru caches; call with the tracer uninstalled."""
    cube = sys.modules[f"{PACKAGE}.cube"]
    hits = misses = 0
    for attr in CACHED:
        info = getattr(cube, attr).cache_info()
        hits += info.hits
        misses += info.misses
    return hits, misses
