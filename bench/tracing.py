"""Span tracing for the benchmark's traced run.

The wrappers live here, outside the package: ``Tracer.install`` rebinds the
public functions of each posetturan module (and the class attributes and
registry entries that point at them) to timing wrappers, and ``uninstall``
puts the originals back. Nothing in ``src/`` knows about tracing.

Spans are kept in memory as flat columns (name, parent span, op, start, end,
aux) and written out once the run ends. A span's self time is its duration
minus the durations of its direct child spans.
"""
from __future__ import annotations

import functools
import json
import os
import sys
from array import array
from time import perf_counter

SPAN_FORMAT = "posetturan-bench-spans/1"
_COLUMNS = (("name", "H"), ("parent", "i"), ("op", "H"), ("start", "d"), ("end", "d"), ("aux", "q"))


def _hit(args, result):
    return result is not None


def _pair_tests(args, result):
    m = len(args[0].members)
    return m * (m - 1) // 2


def _nodes(args, result):
    return result.nodes_explored


def _file_bytes(args, result):
    return os.path.getsize(args[0])


def _text_bytes(args, result):
    return len(result.encode())


class Tracer:
    """Records one span per call into a wrapped function while an op is active."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.cols = {col: array(code) for col, code in _COLUMNS}
        self._stack = [-1]
        self._undo = []
        self.op = -1  # index of the op being run; -1 records nothing

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name, func, aux=None):
        nid = self._name_id(name)
        c = self.cols
        names, parents, ops, starts, ends, auxes = (
            c["name"], c["parent"], c["op"], c["start"], c["end"], c["aux"]
        )
        stack = self._stack

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if self.op < 0:
                return func(*args, **kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(self.op)
            ends.append(0.0)
            auxes.append(0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = func(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if aux is not None:
                auxes[idx] = aux(args, result)
            return result

        return traced

    # -- installation ---------------------------------------------------

    def _set(self, holder, key, value):
        if isinstance(holder, dict):
            old = holder[key]
            holder[key] = value
            self._undo.append(lambda: holder.__setitem__(key, old))
        else:
            old = holder.__dict__[key] if isinstance(holder, type) else getattr(holder, key)
            setattr(holder, key, value)
            self._undo.append(lambda: setattr(holder, key, old))

    def _rebind_function(self, name, module, attr, aux=None):
        """Wrap module.attr and every posetturan module attribute bound to it."""
        orig = getattr(module, attr)
        traced = self.wrap(name, orig, aux)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "posetturan" or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._set(mod, key, traced)

    def _rebind_cached_property(self, name, cls, attr, aux=None):
        orig = cls.__dict__[attr]
        prop = functools.cached_property(self.wrap(name, orig.func, aux))
        prop.__set_name__(cls, attr)
        self._set(cls, attr, prop)

    def install(self):
        from posetturan import cli, constructions, dsl, embedding, familyio
        from posetturan import lattice, posets, proofcheck, search

        self._rebind_function("cli", cli, "run_command")
        self._set(lattice.SetFamily, "__init__",
                  self.wrap("lattice.setfamily", lattice.SetFamily.__init__))
        self._rebind_cached_property("lattice.above", lattice.SetFamily, "above", _pair_tests)
        self._rebind_cached_property("lattice.below", lattice.SetFamily, "below")
        self._rebind_function("lattice.count_k_chains", lattice, "count_k_chains")
        self._rebind_function("lattice.chains_meeting", lattice, "chains_meeting")
        self._rebind_function("embedding.using_member", embedding, "embedding_using_member", _hit)
        self._rebind_function("embedding.find_embedding", embedding, "find_embedding", _hit)
        self._rebind_function("embedding.count_copies", embedding, "count_copies")
        self._rebind_function("search.la_exact", search, "la_exact", _nodes)
        self._rebind_function("search.cached_la_exact", search, "cached_la_exact")
        self._set(posets.Poset, "canonical_key",
                  self.wrap("posets.canonical_key", posets.Poset.canonical_key))
        self._rebind_function("posets.path_hasse_family", posets, "path_hasse_family")
        self._rebind_function("dsl.parse", dsl, "parse_poset_dsl")
        self._rebind_function("dsl.parse", dsl, "parse_single_poset")
        self._rebind_function("familyio.read", familyio, "read_family", _file_bytes)
        self._rebind_function("familyio.format", familyio, "format_family", _text_bytes)
        for key, func in list(constructions.CONSTRUCTIONS.items()):
            self._set(constructions.CONSTRUCTIONS, key, self.wrap("constructions.build", func))
        for key, func in list(proofcheck.VERIFIERS.items()):
            self._set(proofcheck.VERIFIERS, key, self.wrap(f"proofcheck.{key}", func))

    def uninstall(self):
        while self._undo:
            self._undo.pop()()

    # -- results --------------------------------------------------------

    def span_count(self):
        return len(self.cols["start"])

    def _durations(self):
        """Per span: (duration, self time, set of direct child name ids)."""
        c = self.cols
        total = len(c["start"])
        durations = [c["end"][i] - c["start"][i] for i in range(total)]
        self_times = list(durations)
        child_names = [()] * total
        for i in range(total):
            p = c["parent"][i]
            if p >= 0:
                self_times[p] -= durations[i]
                if not child_names[p]:
                    child_names[p] = set()
                child_names[p].add(c["name"][i])
        return durations, self_times, child_names

    def summary(self):
        """Per span name: calls, inclusive and self seconds, aux sum.

        ``children[child_name]`` counts the spans of this name that have at
        least one direct child span of that name.
        """
        durations, self_times, child_names = self._durations()
        out = {name: {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "aux": 0, "children": {}}
               for name in self.names}
        c = self.cols
        for i, duration in enumerate(durations):
            rec = out[self.names[c["name"][i]]]
            rec["calls"] += 1
            rec["incl_s"] += duration
            rec["self_s"] += self_times[i]
            rec["aux"] += c["aux"][i]
            for child in child_names[i]:
                child_name = self.names[child]
                rec["children"][child_name] = rec["children"].get(child_name, 0) + 1
        return out

    def self_by_op(self):
        """Per op index: {span name: self seconds}."""
        _, self_times, _ = self._durations()
        c = self.cols
        out = {}
        for i, t in enumerate(self_times):
            per_op = out.setdefault(c["op"][i], {})
            name = self.names[c["name"][i]]
            per_op[name] = per_op.get(name, 0.0) + t
        return out

    def write(self, path, op_names):
        """Write the spans: one JSON header line, then each column's raw bytes."""
        header = {
            "format": SPAN_FORMAT,
            "byteorder": sys.byteorder,
            "count": self.span_count(),
            "names": self.names,
            "ops": list(op_names),
            "columns": [list(col) for col in _COLUMNS],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for col, _ in _COLUMNS:
                self.cols[col].tofile(fh)


def load_spans(path):
    """Read a file written by ``Tracer.write``; returns (header, columns)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        if header.get("format") != SPAN_FORMAT:
            raise ValueError(f"{path}: not a span file")
        cols = {}
        for col, code in header["columns"]:
            arr = array(code)
            arr.fromfile(fh, header["count"])
            if header["byteorder"] != sys.byteorder:
                arr.byteswap()
            cols[col] = arr
    return header, cols
