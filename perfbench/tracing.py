"""Benchmark-side span tracing of braidbracket's public functions.

The library has no tracing hooks of its own, so each layer is timed from
outside: while a ``Tracer`` is installed, the public functions listed in
``TARGETS`` are replaced, in every ``braidbracket`` module namespace that
holds them, by wrappers that record a span (name, start, end, parent span,
request id) and feed the per-layer counters.  ``uninstall`` puts the
originals back, so untimed and untraced code never runs through a wrapper.

A layer's self time is its spans' durations minus the durations of their
direct child spans.  Only the calling thread is traced: the worker threads
of ``bracket_br(threads=...)`` call no wrapped function.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

# (span name, module, attribute); "Class.method" patches the class.
TARGETS = (
    ("diagram.parse", "braidbracket.diagram", "parse_braid_word"),
    ("diagram.parse", "braidbracket.diagram", "parse_pd"),
    ("diagram.build", "braidbracket.diagram", "DiagramBuilder.build"),
    ("diagram.canonical_code", "braidbracket.diagram", "OrientedDiagram.canonical_code"),
    ("diagram.to_pd_json", "braidbracket.diagram", "OrientedDiagram.to_pd_json"),
    ("states.enumerate", "braidbracket.states", "enumerate_states"),
    ("bracket.bracket_br", "braidbracket.bracket", "bracket_br"),
    ("bracket.oracle", "braidbracket.bracket", "kauffman_oracle"),
    ("bracket.skein_expand", "braidbracket.bracket", "skein_expand"),
    ("bracket.lighten_normalize", "braidbracket.bracket", "lighten"),
    ("bracket.lighten_normalize", "braidbracket.bracket", "normalize"),
    ("chain_complex.differential_matrices", "braidbracket.chain_complex",
     "differential_matrices"),
    ("chain_complex.d_squared", "braidbracket.chain_complex",
     "DifferentialMatrix.check_d_squared"),
    ("homology.homology_groups", "braidbracket.homology", "homology_groups"),
    ("homology.euler", "braidbracket.homology", "euler_characteristic"),
    ("homology.euler", "braidbracket.homology", "lightened_in_h"),
    ("moves.find_sites", "braidbracket.moves", "find_sites"),
    ("moves.apply_move", "braidbracket.moves", "apply_move"),
    ("moves.pair_generation", "braidbracket.moves", "random_equivalent_pair"),
    ("cli.self", "braidbracket.cli", "main"),
)

REQUEST = "request"

# Counters and the span each one is read from; a counter of a span whose
# target is missing is reported missing too.
COUNTS = {
    "diagram.builds": "diagram.build",
    "states.states_summed": "bracket.bracket_br",
    "bracket.bracket_br_calls": "bracket.bracket_br",
    "bracket.repeat_calls": "bracket.bracket_br",
    "bracket.configs_out": "bracket.bracket_br",
    "chain_complex.enhanced_states": "chain_complex.differential_matrices",
    "chain_complex.blocks": "chain_complex.differential_matrices",
    "chain_complex.nnz": "chain_complex.differential_matrices",
    "chain_complex.max_block_cols": "chain_complex.differential_matrices",
    "homology.groups_out": "homology.homology_groups",
    "moves.find_sites_calls": "moves.find_sites",
    "moves.sites_found": "moves.find_sites",
    "moves.moves_applied": "moves.apply_move",
}


class Tracer:
    """Spans and counters for one traced pass over a workload."""

    def __init__(self):
        self.spans = []   # [name, start_ns, end_ns, parent index, request id]
        self.counts = dict.fromkeys(COUNTS, 0)
        self.missing = {}  # "module.attribute" of a target not found -> span
        self._stack = []
        self._request = None
        self._bracketed = {}  # id -> diagram bracketed in the current request
        self._undo = []

    # -- spans ---------------------------------------------------------

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self._request])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    def begin_request(self, request_id):
        self._request = request_id
        self._bracketed = {}
        self._open(REQUEST)

    def end_request(self):
        self._close(self._stack[-1])
        self._request = None
        self._bracketed = {}

    def self_times(self):
        """Self time in ns of every span, in span order."""
        child = [0] * len(self.spans)
        for _, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return [t1 - t0 - c for (_, t0, t1, _, _), c in zip(self.spans, child)]

    # -- counters --------------------------------------------------------

    def _count(self, name, args, kwargs, result):
        c = self.counts
        if name == "diagram.build":
            c["diagram.builds"] += 1
        elif name == "bracket.bracket_br":
            diagram = args[0] if args else kwargs["diagram"]
            c["bracket.bracket_br_calls"] += 1
            c["states.states_summed"] += 1 << len(diagram.active_crossings)
            c["bracket.configs_out"] += len(result)
            if id(diagram) in self._bracketed:
                c["bracket.repeat_calls"] += 1
            self._bracketed[id(diagram)] = diagram  # keeps the id unique
        elif name == "chain_complex.differential_matrices":
            c["chain_complex.enhanced_states"] += sum(map(len, result.basis.values()))
            c["chain_complex.blocks"] += len(result.matrices)
            c["chain_complex.nnz"] += sum(map(len, result.matrices.values()))
            c["chain_complex.max_block_cols"] = max(
                [c["chain_complex.max_block_cols"]]
                + [len(result.basis[g]) for g in result.matrices]
            )
        elif name == "homology.homology_groups":
            c["homology.groups_out"] += len(result)
        elif name == "moves.find_sites":
            c["moves.find_sites_calls"] += 1
            c["moves.sites_found"] += len(result)
        elif name == "moves.apply_move":
            c["moves.moves_applied"] += 1

    # -- wrappers --------------------------------------------------------

    def _wrap(self, name, fn):
        if inspect.isgeneratorfunction(fn):
            # one span per step, so the caller's loop body is not counted
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    idx = self._open(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            self._count(name, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Replace every target in all loaded braidbracket namespaces."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "braidbracket" or n.startswith("braidbracket.")]
        for name, module_name, attr in TARGETS:
            owner = sys.modules.get(module_name)
            cls_name, _, meth = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
            original = owner.__dict__.get(meth) if owner is not None else None
            if not callable(original):
                self.missing[f"{module_name}.{attr}"] = name
                continue
            wrapped = self._wrap(name, original)
            holders = [owner] if cls_name else [
                m for m in modules if m.__dict__.get(meth) is original
            ]
            for holder in holders:
                setattr(holder, meth, wrapped)
                self._undo.append((holder, meth, original))

    def uninstall(self):
        for holder, meth, original in reversed(self._undo):
            setattr(holder, meth, original)
        self._undo = []

    def missing_spans(self):
        """Span names with at least one target that could not be found."""
        return set(self.missing.values())

    def write(self, fh, pass_no, origin_ns):
        """One JSON list per span: name, start and end in ns from
        ``origin_ns``, parent span index, "pass.request"."""
        for name, t0, t1, parent, request in self.spans:
            fh.write(json.dumps([name, t0 - origin_ns, t1 - origin_ns, parent,
                                 f"{pass_no}.{request}"]) + "\n")
