"""Spans around the program's public functions, recorded from outside it.

`Tracer.install` replaces each target function with a wrapper on every
``gowers_lab`` module that holds it, so names re-bound by importing modules
(``structure.gowers_norm``, ``cli.decompose`` and the like) are traced too.
Spans stay in memory until the run ends.  A span's self time is its
duration minus the durations of its direct children; calls are nested on
one thread, so children never overlap.
"""
from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import defaultdict


def _arg(a, kw, i, name):
    return a[i] if len(a) > i else kw[name]


# module.function -> counts taken from its arguments and return value
TARGETS = {
    # Sigma N^d per call: computed from the arguments, not measured
    "gowers.gowers_norm": lambda a, kw, r: {"terms": _arg(a, kw, 0, "f").n ** _arg(a, kw, 1, "d")},
    "gowers.dual_function": None,
    "gowers.gowers_norm_batch": lambda a, kw, r: {"rows": len(r)},
    "gowers.multilinear_average": None,
    "uap.certify_dual": None,
    "uap.verify_certificate": lambda a, kw, r: {"nodes": r.total_nodes},
    "uap.certify_phase_sum": None,
    "partitions.conditional_expectation": None,
    "partitions.energy": None,
    "levelset.level_set_algebra": lambda a, kw, r: {"atoms": r.partition.atom_count},
    "levelset.approximate_measurable": None,
    "structure.decompose": lambda a, kw, r: {"steps": len(r.trace),
                                             "fU_zero": int(not r.f_U.values.any())},
    "structure.structure_dichotomy": lambda a, kw, r: {
        "increments": int(type(r).__name__ == "EnergyIncrement")},
    "structure.verify_decomposition": None,
    "serialize.certificate_to_json": None,
    "serialize.canonical_dumps": lambda a, kw, r: {"bytes": len(r.encode())},
    "serialize.function_from_json": None,
    "cli.main": None,
    "vdw.vdw_number": lambda a, kw, r: {"nodes": r.nodes},
    "vdw.bound_recursion": None,
    "recurrence.empirical_c": lambda a, kw, r: {"sets_checked": r.sets_checked,
                                                "subsets": 2 ** r.n},
}


class Tracer:
    def __init__(self):
        # [id, parent id, name, pass id, start, end, counts]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self.pass_id = None

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        rec = [len(self.spans), parent, name, self.pass_id, time.perf_counter(), None, None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        return rec

    def _close(self, rec: list):
        rec[5] = time.perf_counter()
        self._stack.pop()

    def run(self, name: str, fn):
        """Call fn() under a root span, for one benchmark job."""
        rec = self._open(name)
        try:
            return fn()
        finally:
            self._close(rec)

    def _wrap(self, name: str, fn, count):
        @functools.wraps(fn)
        def traced(*a, **kw):
            rec = self._open(name)
            try:
                result = fn(*a, **kw)
            finally:
                self._close(rec)
            if count is not None:
                rec[6] = count(a, kw, result)
            return result

        return traced

    def install(self):
        originals = {}
        for name, count in TARGETS.items():
            mod, attr = name.split(".")
            fn = getattr(sys.modules[f"gowers_lab.{mod}"], attr)
            originals[id(fn)] = (fn, self._wrap(name, fn, count))
        for modname, mod in list(sys.modules.items()):
            if modname != "gowers_lab" and not modname.startswith("gowers_lab."):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in originals and originals[id(value)][0] is value:
                    setattr(mod, attr, originals[id(value)][1])
                    self._patched.append((mod, attr, value))

    def remove(self):
        for mod, attr, value in self._patched:
            setattr(mod, attr, value)
        self._patched.clear()

    def self_times(self, pass_id) -> dict:
        """name -> {"calls", "self_s", counts...} over the spans of one pass.

        The root spans of all jobs share the row "job.*": their self time is
        the benchmark's own glue around the program's calls.
        """
        spans = [s for s in self.spans if s[3] == pass_id]
        covered = defaultdict(float)
        for s in spans:
            if s[1] is not None:
                covered[s[1]] += s[5] - s[4]
        table: dict = defaultdict(lambda: defaultdict(float))
        for s in spans:
            row = table["job.*" if s[2].startswith("job.") else s[2]]
            row["calls"] += 1
            row["self_s"] += s[5] - s[4] - covered[s[0]]
            for key, v in (s[6] or {}).items():
                row[key] += v
        return {name: dict(row) for name, row in table.items()}

    def write(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(
                    ("id", "parent", "name", "pass", "start", "end", "counts"), s))) + "\n")


def per_layer_metrics(table: dict) -> dict:
    """The per-layer metrics of one traced pass, from its self-time table."""
    def get(name, key="self_s"):
        return table.get(name, {}).get(key, 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for name in TARGETS:
        m[f"{name}.self_s"] = get(name)
    for name in ("gowers.gowers_norm", "uap.certify_dual", "partitions.conditional_expectation",
                 "levelset.level_set_algebra"):
        m[f"{name}.calls"] = get(name, "calls")
    m["gowers.terms"] = get("gowers.gowers_norm", "terms")
    m["gowers.terms_per_s"] = ratio(m["gowers.terms"], get("gowers.gowers_norm"))
    m["gowers.gowers_norm_batch.rows"] = get("gowers.gowers_norm_batch", "rows")
    m["uap.verify_certificate.nodes"] = get("uap.verify_certificate", "nodes")
    m["levelset.atoms"] = get("levelset.level_set_algebra", "atoms")
    m["levelset.calls_per_step"] = ratio(get("levelset.level_set_algebra", "calls"),
                                         get("structure.structure_dichotomy", "increments"))
    m["structure.steps"] = get("structure.decompose", "steps")
    m["structure.fU_zero"] = get("structure.decompose", "fU_zero")
    m["serialize.bytes_out"] = get("serialize.canonical_dumps", "bytes")
    m["vdw.nodes"] = get("vdw.vdw_number", "nodes")
    m["vdw.nodes_per_s"] = ratio(m["vdw.nodes"], get("vdw.vdw_number"))
    m["recurrence.sets_checked"] = get("recurrence.empirical_c", "sets_checked")
    m["recurrence.sets_per_s"] = ratio(m["recurrence.sets_checked"], get("recurrence.empirical_c"))
    m["recurrence.checked_frac"] = ratio(m["recurrence.sets_checked"],
                                         get("recurrence.empirical_c", "subsets"))
    return m


def median_table(tables: list[dict]) -> dict:
    """Per name and key, the median over several passes' tables."""
    names = sorted({n for t in tables for n in t})
    out = {}
    for name in names:
        keys = sorted({k for t in tables for k in t.get(name, {})})
        out[name] = {k: statistics.median(t.get(name, {}).get(k, 0.0) for t in tables) for k in keys}
    return out
