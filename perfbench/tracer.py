"""In-memory call tracer for gqlab, installed from outside the package.

The tracer replaces chosen gqlab functions with timing wrappers in every
``gqlab`` module that bound them (``from gqlab.gf2 import rref`` copies the
binding, so patching ``gqlab.gf2`` alone would miss callers), and wraps the
check functions held in ``gqlab.checks.REGISTRY``; each ``render_export``
call is a span named after its pair.  Hot kernels are only aggregated (calls
and self time); builders, checks, model functions, exports and the op itself
are also recorded one by one as ``(id, name, start, end, parent)``.  A cached builder records a span only when it builds, not on
a cache hit.

Self time is a call's duration minus the time of the traced calls inside it,
so the self times of one op add up exactly to the op's traced wall time.

Run as a script, it executes one ``gqlab`` command under the tracer and
writes the trace as JSON::

    python perfbench/tracer.py TRACE_OUT.json classify 001100
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from contextlib import contextmanager

# Aggregated only: these run up to 100k+ times per op.
KERNELS = {
    "gf2": ("rref", "row_rank", "mat_mul", "row_times_mat", "det3", "inverse3", "sym_to_mat"),
    "pg": ("planes_in", "lines_in", "quadric_points", "polar_form", "minor_coordinates"),
    "atlas": ("classify", "label_of"),
    "planes": ("plane_of", "make_plane", "intersection_dim", "conjugate", "collineation_action"),
}

# Also recorded as spans.  Cached builders are told apart by ``cache_info``.
SPANNED = {
    "pg": (
        "pg_lines",
        "pg_planes",
        "klein_quadric",
        "elliptic_quadric",
        "klein_matrix_points",
        "elliptic_matrix_points",
    ),
    "atlas": ("atlas",),
    "quadrangle": (
        "build_quadric_quadrangle",
        "build_matrix_quadrangle",
        "doily_substructure",
        "build_double_six_model",
        "make_structure",
        "collinearity",
        "verify_gq_axioms",
        "find_isomorphism",
        "hyperplane_section_survey",
    ),
    "planes": ("family_planes", "build_plane_model", "intersection_statistics"),
}


def gqlab_modules() -> list:
    return [m for n, m in sorted(sys.modules.items()) if n == "gqlab" or n.startswith("gqlab.")]


class Tracer:
    """Collects per-name call counts and self times, and spans, in memory."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # name -> [calls, self seconds]
        self.spans: list[tuple] = []  # (id, name, start, end, parent id)
        # frames are [start, child seconds] or [start, child seconds, span id];
        # the base frame collects whatever runs outside any traced call
        self._stack: list[list] = [[0.0, 0.0, None]]
        self._next_id = 0
        self._patched: list[tuple] = []

    def _stat(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0])

    def _parent_span(self):
        for frame in reversed(self._stack):
            if len(frame) == 3:
                return frame[2]
        return None

    def _aggregated(self, name: str, fn):
        stat, stack, clock = self._stat(name), self._stack, time.perf_counter

        def traced(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - frame[0]
                stack.pop()
                stack[-1][1] += duration
                stat[0] += 1
                stat[1] += duration - frame[1]

        return traced

    def _spanned(self, name: str, fn):
        cache_info = getattr(fn, "cache_info", None)

        def traced(*args, **kwargs):
            misses = cache_info().misses if cache_info else None
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if cache_info and cache_info().misses == misses:
                    record[0] = False
            return result

        return traced

    @contextmanager
    def span(self, name: str):
        """Time a block as one span named ``name``; the yielded list's first
        item may be set to False to keep the time but drop the span record."""
        stat, stack, clock = self._stat(name), self._stack, time.perf_counter
        parent = self._parent_span()
        span_id = self._next_id
        self._next_id += 1
        keep = [True]
        frame = [clock(), 0.0, span_id]
        stack.append(frame)
        try:
            yield keep
        finally:
            end = clock()
            duration = end - frame[0]
            stack.pop()
            stack[-1][1] += duration
            stat[0] += 1
            stat[1] += duration - frame[1]
            if keep[0]:
                self.spans.append((span_id, name, frame[0], end, parent))

    def _replace_everywhere(self, original, replacement) -> None:
        for module in gqlab_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        """Wrap every traced function in every gqlab module that bound it."""
        for table, wrap in ((KERNELS, self._aggregated), (SPANNED, self._spanned)):
            for short, names in table.items():
                module = importlib.import_module(f"gqlab.{short}")
                for fn_name in names:
                    original = getattr(module, fn_name)
                    self._replace_everywhere(original, wrap(f"{short}.{fn_name}", original))
        exports = importlib.import_module("gqlab.exports")
        render_export = exports.render_export

        def traced_render_export(what, fmt):
            with self.span(f"exports.{what}-{fmt}"):
                return render_export(what, fmt)

        self._replace_everywhere(render_export, traced_render_export)
        checks = importlib.import_module("gqlab.checks")
        registry = checks.REGISTRY
        wrapped = tuple((cid, self._spanned(f"checks.{cid}", fn)) for cid, fn in registry)
        self._patched.append((checks, "REGISTRY", registry))
        checks.REGISTRY = wrapped

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def to_dict(self) -> dict:
        return {
            "stats": {name: {"calls": c, "self_s": s} for name, (c, s) in self.stats.items()},
            "spans": [list(span) for span in self.spans],
        }


def main(argv: list[str]) -> int:
    out, cli_args = argv[0], argv[1:]
    import gqlab.cli

    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("op"):
            code = gqlab.cli.main(cli_args)
    finally:
        tracer.uninstall()
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(tracer.to_dict(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
