"""Span tracing of fgrow's public functions, installed from outside.

``Tracer.install`` makes a wrapper for each traced callable and finds
every fgrow module namespace that binds it (``free_reduce`` is bound
in words, folding, growth, geometry and automorphisms, for instance),
and the owning class for methods.  It then scans every fgrow module
and fails if, with the wrappers in place, any namespace still holds an
unwrapped original.  ``enable`` and ``disable`` put the wrappers in
and take them out again, so traced and untraced runs can alternate.

A span is (function, start, end, parent span, job id).  Spans are
kept in memory in flat arrays; ``metrics`` derives per-function call
counts and self time from them, where self time is a span's duration
minus the durations of its direct traced children (calls are
single-threaded and nested, so children never overlap).
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict

import numpy as np


def _free_reduce_pre(args, kwargs, add):
    letters = args[0] if hasattr(args[0], "__len__") else tuple(args[0])
    add("words.free_reduce.letters_in", len(letters))
    return (letters,) + args[1:], kwargs, None


def _stallings_pre(args, kwargs, add):
    gens = list(args[1])
    add("folding.stallings_graph.letters_in", sum(len(g.letters) for g in gens))
    return (args[0], gens) + args[2:], kwargs, None


def _stallings_post(result, state, add):
    add("folding.stallings_graph.vertices_out", result.n_vertices)


def _apply_post(result, state, add):
    add("automorphisms.apply.letters_out", len(result.letters))


def _classify_post(result, state, add):
    if not result.certified:
        add("growth.classify_growth.heuristic", 1)
        add("growth.classify_growth.lengths_sum", sum(result.lengths))


def _fiber_post(result, state, add):
    add("mapping_torus.fiber_intersection.rounds", result.rounds)


def _fiber_error(exc, add):
    if type(exc).__name__ == "UnstabilizedError":
        add("mapping_torus.fiber_intersection.rounds", exc.rounds)
        add("mapping_torus.fiber_intersection.unstabilized", 1)


def _ball_post(result, state, add):
    add("geometry.cayley_ball.vertices", len(result))


def _distances_post(result, state, add):
    add("geometry.distances_from.visited", sum(1 for d in result if d is not None))


def _main_pre(args, kwargs, add):
    # the CLI job captures stdout in a StringIO; remember where this call starts
    out = sys.stdout
    return args, kwargs, (out.tell() if hasattr(out, "getvalue") else None)


def _main_post(result, start, add):
    if start is not None:
        add("cli.main.bytes_out", len(sys.stdout.getvalue()[start:].encode()))


# (metric name, module, class or None, attribute, pre, post, on_error,
#  outermost_only).  pre(args, kwargs, add) returns the arguments, which
#  it may rewrite (to measure an iterable once), and a state handed to
#  post(result, state, add); counts from post skip nested calls of the
#  same function when outermost_only is set.
TARGETS = (
    ("words.free_reduce", "words", None, "free_reduce", _free_reduce_pre, None, None, False),
    ("words.cyclic_reduce", "words", None, "cyclic_reduce", None, None, None, False),
    ("words.concat", "words", None, "concat", None, None, None, False),
    ("words.Word.init", "words", "Word", "__post_init__", None, None, None, False),
    ("automorphisms.apply", "automorphisms", "Endomorphism", "apply", None, _apply_post, None, False),
    ("automorphisms.apply_power", "automorphisms", None, "apply_power", None, None, None, False),
    ("automorphisms.certify_automorphism", "automorphisms", None, "certify_automorphism",
     None, None, None, False),
    ("automorphisms.inverse", "automorphisms", "Automorphism", "inverse", None, None, None, False),
    ("growth.classify_growth", "growth", None, "classify_growth", None, _classify_post, None, True),
    ("growth.transition_matrix", "growth", None, "transition_matrix", None, None, None, False),
    ("growth.no_cancellation_certificate", "growth", None, "no_cancellation_certificate",
     None, None, None, False),
    ("growth.spectral_radius", "growth", None, "spectral_radius", None, None, None, False),
    ("folding.stallings_graph", "folding", None, "stallings_graph", _stallings_pre,
     _stallings_post, None, False),
    ("folding.witnessed_graph", "folding", None, "witnessed_graph", None, None, None, False),
    ("folding.accepts", "folding", "StallingsGraph", "accepts", None, None, None, False),
    ("folding.free_basis", "folding", "StallingsGraph", "free_basis", None, None, None, False),
    ("folding.express", "folding", "WitnessedGraph", "express", None, None, None, False),
    ("folding.is_invariant", "folding", None, "is_invariant", None, None, None, False),
    ("folding.intersect", "folding", None, "intersect", None, None, None, False),
    ("mapping_torus.fiber_intersection", "mapping_torus", None, "fiber_intersection",
     None, _fiber_post, _fiber_error, False),
    ("mapping_torus.normalize", "mapping_torus", "TorusGroup", "normalize", None, None, None, False),
    ("mapping_torus.multiply", "mapping_torus", "TorusElement", "__mul__", None, None, None, False),
    ("splittings.parse_splitting", "splittings", None, "parse_splitting", None, None, None, False),
    ("splittings.validate_splitting", "splittings", None, "validate_splitting",
     None, None, None, False),
    ("splittings.verify_fixed", "splittings", None, "verify_fixed", None, None, None, False),
    ("splittings.induce_torus_splitting", "splittings", None, "induce_torus_splitting",
     None, None, None, False),
    ("splittings.parse_hierarchy", "splittings", None, "parse_hierarchy", None, None, None, False),
    ("splittings.induce_hierarchy", "splittings", None, "induce_hierarchy", None, None, None, False),
    ("geometry.cayley_ball", "geometry", None, "cayley_ball", None, _ball_post, None, False),
    ("geometry.distances_from", "geometry", "BallGraph", "distances_from", None,
     _distances_post, None, False),
    ("geometry.divergence_estimate", "geometry", None, "divergence_estimate",
     None, None, None, False),
    ("cli.main", "cli", None, "main", _main_pre, _main_post, None, False),
)

COUNTS = (
    "words.free_reduce.letters_in",
    "automorphisms.apply.letters_out",
    "growth.classify_growth.heuristic",
    "growth.classify_growth.lengths_sum",
    "folding.stallings_graph.letters_in",
    "folding.stallings_graph.vertices_out",
    "mapping_torus.fiber_intersection.rounds",
    "mapping_torus.fiber_intersection.unstabilized",
    "geometry.cayley_ball.vertices",
    "geometry.distances_from.visited",
    "cli.main.bytes_out",
)


def unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    return "1" if name == "trace.overhead_frac" else "count"


class Tracer:
    def __init__(self):
        self.fn = array("i")
        self.parent = array("q")
        self.job = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.job_id = -1
        self.counts: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object, object]] = []

    def add(self, name: str, value: int) -> None:
        self.counts[name] += value

    # -- installation -----------------------------------------------------

    def install(self, package: str = "fgrow") -> None:
        """Build a wrapper for every binding of every traced function and
        check that none is missed; ``enable`` and ``disable`` then swap
        the wrappers in and out."""
        modules = {
            name: mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == package or name.startswith(package + "."))
        }
        originals = {}
        for fid, (name, mod_name, cls_name, attr, pre, post, err, outer) in enumerate(TARGETS):
            mod = modules[f"{package}.{mod_name}"]
            owner = getattr(mod, cls_name) if cls_name else mod
            original = owner.__dict__[attr] if cls_name else getattr(mod, attr)
            wrapper = self._wrap(fid, original, pre, post, err, outer)
            originals[id(original)] = (original, wrapper)
            if cls_name:
                self._patches.append((owner, attr, original, wrapper))
        # every module-level alias of a traced function gets the wrapper too
        for mod in modules.values():
            for key, value in vars(mod).items():
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, key, value, hit[1]))
        self.enable()
        missed = self.unwrapped(modules, originals)
        self.disable()
        if missed:
            raise RuntimeError("traced functions still bound unwrapped: " + ", ".join(missed))

    def enable(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def disable(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    @staticmethod
    def unwrapped(modules, originals) -> list[str]:
        out = []
        for mod_name, mod in modules.items():
            for key, value in vars(mod).items():
                if id(value) in originals and originals[id(value)][0] is value:
                    out.append(f"{mod_name}.{key}")
                if isinstance(value, type) and value.__module__ == mod_name:
                    for attr, member in vars(value).items():
                        if id(member) in originals and originals[id(member)][0] is member:
                            out.append(f"{mod_name}.{key}.{attr}")
        return out

    def _wrap(self, fid, original, pre, post, on_error, outermost_only):
        fn, parent, job, start, end = self.fn, self.parent, self.job, self.start, self.end
        stack = self.stack
        clock = time.perf_counter
        tracer = self
        add = self.add

        def nested() -> bool:
            return any(fn[i] == fid for i in stack)

        def wrapper(*args, **kwargs):
            state = None
            if pre is not None:
                args, kwargs, state = pre(args, kwargs, add)
            idx = len(start)
            fn.append(fid)
            parent.append(stack[-1] if stack else -1)
            job.append(tracer.job_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                end[idx] = clock()
                stack.pop()
                if on_error is not None:
                    on_error(exc, add)
                raise
            end[idx] = clock()
            stack.pop()
            if post is not None and not (outermost_only and nested()):
                post(result, state, add)
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", "traced")
        wrapper.__doc__ = getattr(original, "__doc__", None)
        return wrapper

    # -- metrics ----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Calls and self time per traced function, then the extra counts."""
        fn = np.asarray(self.fn, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        inner = parent >= 0
        covered = np.bincount(parent[inner], weights=dur[inner], minlength=len(dur))
        calls = np.bincount(fn, minlength=len(TARGETS))
        self_s = np.bincount(fn, weights=dur - covered, minlength=len(TARGETS))
        out: dict[str, float] = {}
        for i, target in enumerate(TARGETS):
            out[target[0] + ".calls"] = int(calls[i])
            out[target[0] + ".self_s"] = float(self_s[i])
        for name in COUNTS:
            out[name] = self.counts.get(name, 0)
        return out
