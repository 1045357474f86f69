"""Spans recorded from outside ``cylkit``, by wrapping the public functions
of each layer.

A wrapper replaces a target in its defining module, in every ``cylkit``
module that imported the same object, and on classes for methods.  Each
call records a span: name, start, end, parent span, and whether a span of
the same name was already open (so that ``total_s`` counts a recursive
function's time once).  Spans stay in memory in flat arrays; ``aggregate``
turns them into per-layer metrics, ``spans`` serializes them.

A target that no longer exists is reported as absent and its metrics are
left out; the run goes on.
"""

from __future__ import annotations

import array
import functools
import importlib
import json
import math
import sys
from time import perf_counter

# (span name, module, attribute path, metrics reported for it)
TARGETS = (
    ("affine.max_cyclic_factor", "cylkit.affine", "max_cyclic_factor",
     ("calls", "self_s", "candidates")),
    ("affine.shape_of", "cylkit.affine", "shape_of", ("calls", "total_s")),
    ("affine.validate", "cylkit.affine", "AffinePermutation.__post_init__",
     ("calls", "self_s")),
    ("affine.mul", "cylkit.affine", "AffinePermutation.__mul__",
     ("calls", "self_s")),
    ("affine.times_s", "cylkit.affine", "AffinePermutation.times_s", ("calls",)),
    ("cylindric.in_A", "cylkit.cylindric", "in_A", ("calls", "total_s")),
    ("cylindric.skew_word", "cylkit.cylindric", "skew_word", ("total_s",)),
    ("cylindric.phi", "cylkit.cylindric", "phi", ("total_s",)),
    ("cylindric.cylindric_schur_poly", "cylkit.cylindric",
     "cylindric_schur_poly", ("total_s",)),
    ("stanley.grassmannianize", "cylkit.stanley", "grassmannianize",
     ("calls", "total_s")),
    ("stanley.grassmannianize_321", "cylkit.stanley", "grassmannianize_321",
     ("calls",)),
    ("stanley.expand_state", "cylkit.stanley", "_expand_state",
     ("calls", "self_s")),
    ("stanley.expand_affine_schur", "cylkit.stanley", "expand_affine_schur",
     ("calls", "total_s")),
    ("stanley.stanley_monomials", "cylkit.stanley", "stanley_monomials",
     ("calls", "self_s")),
    ("stanley.oracle_expand", "cylkit.stanley", "oracle_expand", ("self_s",)),
    ("symfunc.from_weight_table", "cylkit.symfunc",
     "SymmetricPolynomial.from_weight_table", ("calls", "self_s")),
    ("symfunc.expand_in_schur", "cylkit.symfunc", "expand_in_schur",
     ("total_s",)),
    ("symfunc.lr_coeff", "cylkit.symfunc", "lr_coeff", ("total_s",)),
    ("cli.main", "cylkit.cli", "main", ("self_s",)),
)


def _candidates(args, result) -> int:
    """Subsets the exhaustive cyclic-factor scan tries for ``w``."""
    w = args[0]
    return sum(math.comb(w.n, k) for k in range(min(w.n - 1, w.length) + 1))


def _v_length(args, result) -> int:
    return result[0].length


# Metrics computed from call arguments or results, keyed by span name:
# (metric name, function of (args, result) giving the amount to add).
HOOKS = {
    "affine.max_cyclic_factor": ("affine.max_cyclic_factor.candidates", _candidates),
    "stanley.grassmannianize": ("stanley.v_length.sum", _v_length),
    "stanley.grassmannianize_321": ("stanley.v_length.sum", _v_length),
}

UNITS = {"calls": "count", "candidates": "count", "sum": "count",
         "self_s": "s", "total_s": "s"}


class Tracer:
    """Span store plus the installed wrappers of one process."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.names = [t[0] for t in targets]
        self.absent: list[str] = []
        self.extras = {metric: 0 for metric, _ in HOOKS.values()}
        self.name = array.array("H")
        self.parent = array.array("q")
        self.start = array.array("d")
        self.end = array.array("d")
        self.nested = array.array("b")
        self._stack = [-1]
        self._open = [0] * len(self.names)
        self._originals: list[tuple[object, str, object]] = []

    def reset(self):
        """Drop the recorded spans; the wrappers stay installed."""
        for arr in (self.name, self.parent, self.start, self.end, self.nested):
            del arr[:]
        for metric in self.extras:
            self.extras[metric] = 0

    # -- installing -------------------------------------------------------------

    def _wrap(self, fn, nid: int):
        hook = HOOKS.get(self.names[nid])
        name, parent, start, end, nested = (self.name, self.parent, self.start,
                                            self.end, self.nested)
        stack, is_open, extras = self._stack, self._open, self.extras

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1])
            nested.append(is_open[nid] > 0)
            end.append(0.0)
            stack.append(idx)
            is_open[nid] += 1
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                is_open[nid] -= 1
                stack.pop()
            if hook is not None:
                extras[hook[0]] += hook[1](args, result)
            return result

        return wrapper

    def install(self):
        """Wrap every target that exists; remember the rest as absent."""
        for nid, (span, module_name, attr, _) in enumerate(self.targets):
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(span)
                continue
            owner_name, _, leaf = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                raw = vars(owner).get(leaf) if isinstance(owner, type) else None
                if raw is None:
                    self.absent.append(span)
                    continue
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(self._wrap(raw.__func__, nid))
                else:
                    wrapped = self._wrap(raw, nid)
                self._originals.append((owner, leaf, raw))
                setattr(owner, leaf, wrapped)
                continue
            fn = getattr(module, leaf, None)
            if not callable(fn):
                self.absent.append(span)
                continue
            wrapped = self._wrap(fn, nid)
            for mod in _cylkit_modules():
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._originals.append((mod, key, value))
                        setattr(mod, key, wrapped)

    def uninstall(self):
        for owner, key, value in reversed(self._originals):
            setattr(owner, key, value)
        self._originals.clear()

    # -- reading ------------------------------------------------------------------

    def aggregate(self) -> dict[str, float]:
        """Per-name calls, self time and outermost total time, plus extras."""
        k = len(self.names)
        calls = [0] * k
        total = [0.0] * k
        self_s = [0.0] * k
        child = [0.0] * len(self.name)
        name, parent, start, end, nested = (self.name, self.parent, self.start,
                                            self.end, self.nested)
        for i in range(len(name) - 1, -1, -1):
            dur = end[i] - start[i]
            nid = name[i]
            calls[nid] += 1
            self_s[nid] += dur - child[i]
            if not nested[i]:
                total[nid] += dur
            if parent[i] >= 0:
                child[parent[i]] += dur
        out: dict[str, float] = {}
        for nid, (span, _, _, metrics) in enumerate(self.targets):
            if span in self.absent:
                continue
            values = {"calls": calls[nid], "self_s": self_s[nid],
                      "total_s": total[nid]}
            for metric in metrics:
                if metric in values:
                    out[f"{span}.{metric}"] = values[metric]
        installed = set(self.names) - set(self.absent)
        for span, (metric, _) in HOOKS.items():
            if span in installed:
                out[metric] = self.extras[metric]
        return out

    def spans(self) -> bytes:
        """The raw spans, as a JSON header line followed by the arrays."""
        header = {"names": self.names, "count": len(self.name),
                  "arrays": ["name:H", "parent:q", "start:d", "end:d", "nested:b"]}
        return (json.dumps(header).encode() + b"\n" + self.name.tobytes()
                + self.parent.tobytes() + self.start.tobytes()
                + self.end.tobytes() + self.nested.tobytes())


def _cylkit_modules():
    return [m for key, m in list(sys.modules.items())
            if m is not None and (key == "cylkit" or key.startswith("cylkit."))]


def memo_entries() -> int:
    """Sum of the sizes of ``cylkit``'s module-level memo dicts, read only."""
    total = 0
    for mod in _cylkit_modules():
        for key, value in vars(mod).items():
            if isinstance(value, dict) and key.isupper() and key.startswith("_") \
                    and key.endswith(("_MEMO", "_CACHE")):
                total += len(value)
    return total


def unit_of(metric: str) -> str:
    return UNITS[metric.rpartition(".")[2]]
