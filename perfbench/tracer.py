"""Per-layer tracing of ybekit from outside the program.

The tracer replaces public functions by timing wrappers in every `ybekit`
module that binds them (`catalog`, `cli`, `operators`, `frobenius` and
`constructions` all import `nhacybe_residual` by name, so patching `ybe`
alone would miss their calls) and restores every binding on exit.  Coarse
calls (a CLI command, `verify_catalog`, `grid_enumerate`, `kernel_basis`, the
suites) each get a span; hot per-candidate calls (the residual, tensor
construction, ...) are only counted and timed under their enclosing span,
which keeps the tracing overhead bounded.

Every wrapped call is timed with its children subtracted, so each layer has
an inclusive time (outermost calls of the layer only) and a self time.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from fractions import Fraction

SPAN, AGG = "span", "agg"

# module, function, layer, kind
TARGETS = (
    ("cli", "run", "cli", SPAN),
    ("catalog", "verify_catalog", "catalog.verify", SPAN),
    ("catalog", "catalog_algebra", "catalog.build", AGG),
    ("ybe", "grid_enumerate", "ybe.search", SPAN),
    ("ybe", "invariant_symmetric_basis", "ybe.inv_rows", SPAN),
    ("ybe", "nhacybe_residual", "ybe.residual", AGG),
    ("ybe", "opposite_residual", "ybe.residual", AGG),
    ("ybe", "is_invariant", "ybe.invariance", AGG),
    ("ybe", "is_symmetrized_invariant", "ybe.invariance", AGG),
    ("linalg", "kernel_basis", "linalg.kernel", SPAN),
    ("linalg", "rank", "linalg.rank", AGG),
    ("linalg", "in_span", "linalg.rank", AGG),
    ("linalg", "invert", "linalg.invert", AGG),
    ("algebras", "check_algebra", "algebras.check", AGG),
    ("algebras", "find_augmentations", "algebras.find_aug", AGG),
    ("operators", "operator_form_suite", "operators.suite", SPAN),
    ("operators", "invariant_operator_suite", "operators.suite", SPAN),
    ("operators", "o_operator_residual", "operators.o_residual", AGG),
    ("operators", "rota_baxter_residual", "operators.rb_residual", AGG),
    ("frobenius", "rb_bridge_suite", "frobenius.bridge", SPAN),
    ("frobenius", "induced_operators", "frobenius.induced", AGG),
)
# io_json: every decode_* and encode_* function, plus dumps.
IO_PREFIXES = (("decode_", "io_json.decode"), ("encode_", "io_json.encode"))
# Tensor construction is traced through the dataclasses' __post_init__.
TENSOR_CLASSES = (("Tensor2", "tensors.t2"), ("Tensor3", "tensors.t3"))


def _bits(x) -> int:
    f = Fraction(x)
    return max(abs(f.numerator).bit_length(), f.denominator.bit_length())


def _observe_grid(args, kwargs, result) -> dict:
    inst = args[0]
    values = args[1] if len(args) > 1 else kwargs["values"]
    n = inst.algebra.dim
    return {"grid_points": len({Fraction(v) for v in values}) ** (n * n),
            "solutions": len(result)}


def _observe_kernel(args, kwargs, result) -> dict:
    m = args[0] if args else kwargs["m"]
    return {"rows": len(m), "cols": len(m[0]) if m else 0, "nullity": len(result),
            "max_bits": max((_bits(x) for v in result for x in v), default=0)}


OBSERVERS = {"grid_enumerate": _observe_grid, "kernel_basis": _observe_kernel}


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "self_s", "attrs", "aggregates")

    def __init__(self, sid, parent, name, start):
        self.id, self.parent, self.name, self.start = sid, parent, name, start
        self.end = start
        self.self_s = 0.0
        self.attrs: dict = {}
        self.aggregates: dict = {}  # function name -> [calls, seconds]

    def to_json(self) -> dict:
        return {"id": self.id, "parent": self.parent, "name": self.name,
                "start": self.start, "end": self.end, "self_s": self.self_s,
                "attrs": self.attrs,
                "aggregates": {k: {"calls": c, "s": s}
                               for k, (c, s) in sorted(self.aggregates.items())}}


class Tracer:
    """Records spans and per-layer totals while installed; see `installed`."""

    def __init__(self):
        self.spans: list[Span] = []
        # layer -> [outermost calls, inclusive seconds, self seconds, depth]
        self.layers: dict[str, list] = {}
        self.missing: set[str] = set()
        self._saved: list[tuple] = []
        self._clock = time.perf_counter
        root = Span(0, None, "pass", self._clock())
        self.spans.append(root)
        self._stack = [[0.0, root]]  # frames: [child seconds, enclosing span]

    @contextmanager
    def installed(self):
        """Patch ybekit for the duration of the block; always restores."""
        try:
            self._install()
            yield self
        finally:
            self._uninstall()
            self.spans[0].end = self._clock()

    def layer(self, name: str) -> list:
        return self.layers.setdefault(name, [0, 0.0, 0.0, 0])

    def _install(self):
        mods = [m for name, m in list(sys.modules.items())
                if m is not None and (name == "ybekit" or name.startswith("ybekit."))]
        targets = list(TARGETS)
        io = sys.modules.get("ybekit.io_json")
        if io is not None:
            for attr in sorted(vars(io)):
                for prefix, layer in IO_PREFIXES:
                    if attr.startswith(prefix) and callable(getattr(io, attr)):
                        targets.append(("io_json", attr, layer, AGG))
            targets.append(("io_json", "dumps", "io_json.encode", AGG))
        for modname, attr, layer, kind in targets:
            home = sys.modules.get(f"ybekit.{modname}")
            orig = getattr(home, attr, None)
            if orig is None:
                self.missing.add(f"{modname}.{attr}")
                continue
            wrapper = self._wrap(orig, attr, layer, kind)
            for m in mods:
                for name, value in list(vars(m).items()):
                    if value is orig:
                        self._saved.append((m, name, value))
                        setattr(m, name, wrapper)
        tensors = sys.modules.get("ybekit.tensors")
        for cls_name, layer in TENSOR_CLASSES:
            cls = getattr(tensors, cls_name, None)
            orig = None if cls is None else cls.__dict__.get("__post_init__")
            if orig is None:
                self.missing.add(f"tensors.{cls_name}.__post_init__")
                continue
            self._saved.append((cls, "__post_init__", orig))
            setattr(cls, "__post_init__", self._wrap(orig, cls_name, layer, AGG))

    def _uninstall(self):
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)

    def _wrap(self, fn, attr, layer, kind):
        stack, clock, spans = self._stack, self._clock, self.spans
        st = self.layer(layer)
        observe = OBSERVERS.get(attr)

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if kind == SPAN:
                span = Span(len(spans), parent[1].id, attr, 0.0)
                spans.append(span)
            else:
                span = parent[1]
            frame = [0.0, span]
            stack.append(frame)
            st[3] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                st[3] -= 1
                parent[0] += dur
                st[2] += dur - frame[0]
                if st[3] == 0:
                    st[0] += 1
                    st[1] += dur
                if kind == SPAN:
                    span.start, span.end, span.self_s = start, start + dur, dur - frame[0]
                else:
                    agg = span.aggregates.get(attr)
                    if agg is None:
                        span.aggregates[attr] = [1, dur]
                    else:
                        agg[0] += 1
                        agg[1] += dur
            if observe is not None:
                span.attrs.update(observe(args, kwargs, result))
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", attr)
        return wrapper

    def metrics(self) -> dict:
        """Per-layer numbers of everything recorded so far, by metric name."""
        def calls(layer):
            return self.layer(layer)[0]

        def incl(layer):
            return self.layer(layer)[1]

        def self_s(layer):
            return self.layer(layer)[2]

        grids = [s for s in self.spans if s.name == "grid_enumerate"]
        candidates = sum(s.aggregates.get(f, [0, 0.0])[0] for s in grids
                         for f in ("nhacybe_residual", "opposite_residual"))
        points = sum(s.attrs.get("grid_points", 0) for s in grids)
        solutions = sum(s.attrs.get("solutions", 0) for s in grids)
        kernels = [s for s in self.spans if s.name == "kernel_basis"]
        # A call that raised has no attrs.
        largest = max(kernels, key=lambda s: s.attrs.get("rows", 0) * s.attrs.get("cols", 0),
                      default=None)
        big = largest.attrs if largest is not None else {}
        res_calls = calls("ybe.residual")
        us_per_call = 1e6 * incl("ybe.residual") / res_calls if res_calls else 0.0
        max_bits = max((s.attrs.get("max_bits", 0) for s in kernels), default=0)
        return {
            "ybe.residual_calls": res_calls,
            "ybe.residual_s": incl("ybe.residual"),
            "ybe.residual_us_per_call": us_per_call,
            "ybe.search_s": incl("ybe.search"),
            "ybe.search_candidates": candidates,
            "ybe.search_solutions": solutions,
            "ybe.search_yield": solutions / candidates if candidates else 0.0,
            "ybe.search_eval_ratio": candidates / points if points else 0.0,
            "ybe.invariance_calls": calls("ybe.invariance"),
            "ybe.invariance_s": incl("ybe.invariance"),
            "ybe.inv_rows_s": self_s("ybe.inv_rows"),
            "tensors.t2_built": calls("tensors.t2"),
            "tensors.t2_s": incl("tensors.t2"),
            "tensors.t3_built": calls("tensors.t3"),
            "tensors.t3_s": incl("tensors.t3"),
            "linalg.kernel_calls": calls("linalg.kernel"),
            "linalg.kernel_s": incl("linalg.kernel"),
            "linalg.kernel_rows": big.get("rows", 0),
            "linalg.kernel_cols": big.get("cols", 0),
            "linalg.kernel_nullity": big.get("nullity", 0),
            "linalg.kernel_max_bits": max_bits,
            "linalg.rank_s": incl("linalg.rank"),
            "linalg.invert_s": incl("linalg.invert"),
            "algebras.check_calls": calls("algebras.check"),
            "algebras.check_s": incl("algebras.check"),
            "algebras.find_aug_s": incl("algebras.find_aug"),
            "operators.suite_s": incl("operators.suite"),
            "operators.o_residual_calls": calls("operators.o_residual"),
            "operators.o_residual_s": incl("operators.o_residual"),
            "operators.rb_residual_s": incl("operators.rb_residual"),
            "frobenius.bridge_s": incl("frobenius.bridge"),
            "frobenius.induced_s": incl("frobenius.induced"),
            "io_json.decode_s": incl("io_json.decode"),
            "io_json.encode_s": incl("io_json.encode"),
            "catalog.verify_self_s": self_s("catalog.verify"),
            "catalog.build_s": incl("catalog.build"),
            "cli.self_s": self_s("cli"),
        }
