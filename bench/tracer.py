"""Per-layer spans by attribute replacement, recorded from the benchmark's files.

A target names a function by module and attribute (``Class.method`` for a
method, ``obj.method`` for a method of one object).  Installing it replaces
that attribute with a wrapper and, where asked, also in every loaded
``nahmkit`` module that holds the same object, so calls through a module
reference (``spectral.spectral_points``) and through names imported with
``from ... import`` are both seen.  A target whose attribute no longer
exists is recorded as absent and reads as zero.

Spans nest on a stack; a span's self time is its duration minus the
durations of its direct children.  Counters are kept per op, in memory, and
written out when the run ends.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time

# (layer name, module, attribute, patch every nahmkit module holding it)
TARGETS = (
    # the click entry point of the in-process CLI ops
    ("cli.main", "nahmkit.cli", "main.main", False),
    ("moduli.random_higgs_data", "nahmkit.moduli", "random_higgs_data", True),
    ("moduli.check_hypothesis", "nahmkit.moduli", "check_hypothesis", True),
    ("nahm.transform", "nahmkit.nahm", "transform", True),
    ("nahm.involution_check", "nahmkit.nahm", "involution_check", True),
    ("nahm.extension_bookkeeping", "nahmkit.nahm", "extension_bookkeeping", True),
    ("verification.involution_suite", "nahmkit.verification", "involution_suite", True),
    ("verification.bookkeeping_suite", "nahmkit.verification", "bookkeeping_suite", True),
    ("verification.dictionary_suite", "nahmkit.verification", "dictionary_suite", True),
    ("verification.local_identity_suite", "nahmkit.verification", "local_identity_suite", True),
    ("verification.spectral_fiber_suite", "nahmkit.verification", "spectral_fiber_suite", True),
    ("cli.emit_csv", "nahmkit.cli", "emit_csv", True),
    ("serialize.data_from_dict", "nahmkit.serialize", "data_from_dict", True),
    ("fields.matrix_at", "nahmkit.fields", "ExplicitHiggsField.matrix_at", False),
    ("fields.scale", "nahmkit.fields", "ExplicitHiggsField.scale", False),
    ("fields.model_field", "nahmkit.fields", "model_field", True),
    ("fields.extract_data", "nahmkit.fields", "extract_data", True),
    ("fields.random_field", "nahmkit.fields", "random_field", True),
    ("spectral.spectral_points", "nahmkit.spectral", "spectral_points", True),
    ("spectral.char_poly_at", "nahmkit.spectral", "char_poly_at", True),
    ("spectral.track_branches", "nahmkit.spectral", "track_branches", True),
    # only the assignment used by branch tracking, not numkernel.multiset_match
    ("spectral.match", "nahmkit.spectral", "linear_sum_assignment", False),
    ("numkernel.cokernel_basis", "nahmkit.numkernel", "cokernel_basis", True),
    ("numkernel.poly_roots", "nahmkit.numkernel", "poly_roots", True),
    ("numkernel.numerical_rank", "nahmkit.numkernel", "numerical_rank", True),
    ("numkernel.eigenvalues", "nahmkit.numkernel", "eigenvalues", True),
)
TRACK = "spectral.track_branches"
SOLVE = "spectral.spectral_points"
_UNSET = object()  # marks a patched attribute that its holder did not own


class Tracer:
    def __init__(self):
        self.absent: list[str] = []
        self.per_op: list[dict] = []
        self._op: dict[str, list] = {}
        self._stack: list[list[int]] = []
        self._patches: list[tuple[object, str, object]] = []
        self._track_depth = 0

    # -- spans ---------------------------------------------------------------

    def begin_op(self, index: int, kind: str) -> None:
        self._op = {"#nodes": [0, 0, 0], "#track_solves": [0, 0, 0]}
        self.per_op.append({"index": index, "kind": kind, "layers": self._op})

    def call(self, name, fn, *args, **kwargs):
        stat = self._op.setdefault(name, [0, 0, 0])  # calls, self ns, raised
        if name == SOLVE and self._track_depth:
            self._op["#track_solves"][0] += 1
        if name == TRACK:
            self._track_depth += 1
        frame = [0]
        self._stack.append(frame)
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            stat[2] += 1
            raise
        finally:
            elapsed = time.perf_counter_ns() - start
            self._stack.pop()
            stat[0] += 1
            stat[1] += elapsed - frame[0]
            if self._stack:
                self._stack[-1][0] += elapsed
            if name == TRACK:
                self._track_depth -= 1
        if name == TRACK:
            self._op["#nodes"][0] += sum(1 for _ in (args[1] if len(args) > 1 else kwargs["path"]))
        return result

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        for name, module_name, attr, everywhere in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            holders = [(owner, leaf)]
            if everywhere:
                holders += [
                    (mod, key)
                    for mod_name, mod in list(sys.modules.items())
                    if mod_name.split(".")[0] == "nahmkit" and mod is not owner
                    for key, value in list(vars(mod).items())
                    if value is original
                ]
            for holder, key in holders:
                self._patches.append((holder, key, vars(holder).get(key, _UNSET)))
                setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patches):
            if original is _UNSET:  # the wrapper shadowed a class attribute
                delattr(holder, key)
            else:
                setattr(holder, key, original)
        self._patches.clear()

    # -- readout -----------------------------------------------------------------

    def totals(self) -> dict[str, list[int]]:
        out: dict[str, list[int]] = {}
        for rec in self.per_op:
            for name, stat in rec["layers"].items():
                acc = out.setdefault(name, [0, 0, 0])
                for i in range(3):
                    acc[i] += stat[i]
        return out
