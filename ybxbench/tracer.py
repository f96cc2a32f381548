"""Spans at the boundaries of ybx's layers, recorded from outside ybx.

``install`` replaces the public functions and methods listed in LAYERS by
wrappers, in every ybx module that binds them, so calls between ybx's own
modules are timed as well. Each wrapped call records a span (name, start,
end, parent, job) in flat arrays kept in memory; ``dump`` writes them out
and ``layer_metrics`` turns them into per-layer calls and self times.
A span's self time is its duration minus the durations of its children.

Counting work that a layer wastes (matmul products with a zero factor,
zero entries of three-leg operators) reads the operands after the call;
that bookkeeping is recorded as its own span so it is subtracted from the
caller's self time and appears in no layer.
"""

from __future__ import annotations

import array
import importlib
import json
import sys
import time

_ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
          "__rmul__", "__truediv__", "__rtruediv__")

# metric group -> (module, attribute or Class.attribute) of the wrapped calls
LAYERS = {
    "scalars.arith": [("ybx.scalars", "ParamScalar." + m) for m in _ARITH],
    "scalars.gcd": [("ybx.scalars", "poly_gcd")],
    "scalars.divexact": [("ybx.scalars", "Poly.divexact")],
    "scalars.parse": [("ybx.scalars", "parse_scalar")],
    "tensor.embed": [("ybx.tensor", "embed")],
    "tensor.matmul": [("ybx.tensor", "_Operator.__matmul__")],
    "tensor.scan": [("ybx.tensor", "_Operator." + m)
                    for m in ("first_nonzero", "is_zero", "is_identity")],
    "tensor.defect": [("ybx.tensor", f) for f in
                      ("braid_defect", "qybe_defect", "yb_commutator",
                       "colored_defect")],
    "tensor.eliminate": [("ybx.tensor", f)
                         for f in ("invert", "determinant", "nullspace")],
    "algebra.validate": [("ybx.algebra", "make_algebra")],
    "lie_super.validate": [("ybx.lie_super", "make_superalgebra")],
    "lie_super.even_center": [("ybx.lie_super", "even_center")],
    "constructors.build": [("ybx.constructors", f) for f in
                           ("dn_operator", "dn_inverse", "colored_operator",
                            "colored_inverse", "wxz_system",
                            "split_center_operator", "super_phi",
                            "super_phi_inverse",
                            "canonical_two_dim_solution")],
    "verify.check": [("ybx.verify", f) for f in
                     ("verify_constant", "verify_colored_family",
                      "verify_wxz", "verify_inverse_pair")],
    "cli.emit": [("ybx.tensor", "_Operator.to_text"),
                 ("ybx.tensor", "_Operator.to_json_obj"),
                 ("ybx.verify", "VerificationReport.to_text"),
                 ("ybx.verify", "VerificationReport.to_json_obj")],
}

BOOKKEEPING = "trace.bookkeeping"
_COLUMNS = (("name", "i"), ("start", "q"), ("end", "q"), ("parent", "i"),
            ("job", "i"))
COUNTERS = ("gcd_trivial", "matmul_useful", "matmul_cube", "op3_nonzero",
            "op3_entries", "max_terms")


class Recorder:
    """In-memory span store; job is the id stamped on new spans."""

    def __init__(self):
        self.names = []
        self.columns = {key: array.array(code) for key, code in _COLUMNS}
        self.stack = [-1]
        self.job = -1
        self.active = True
        self.counters = dict.fromkeys(COUNTERS, 0)

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def begin(self, name: str) -> int:
        cols = self.columns
        idx = len(cols["start"])
        cols["name"].append(self.name_id(name))
        cols["parent"].append(self.stack[-1])
        cols["job"].append(self.job)
        cols["end"].append(0)
        self.stack.append(idx)
        cols["start"].append(time.perf_counter_ns())
        return idx

    def end(self, idx: int) -> None:
        self.columns["end"][idx] = time.perf_counter_ns()
        self.stack.pop()

    def wrap(self, name: str, fn, after=None, costly=False):
        """fn timed as a span called name; after(rec, args, result) runs
        once the span is closed (inside a bookkeeping span when costly)."""
        nid = self.name_id(name)
        book = self.name_id(BOOKKEEPING)
        cols = self.columns
        names, starts, ends = cols["name"], cols["start"], cols["end"]
        parents, jobs = cols["parent"], cols["job"]
        stack = self.stack
        clock = time.perf_counter_ns
        rec = self

        def record(name_id, t0, t1):
            names.append(name_id)
            parents.append(stack[-1])
            jobs.append(rec.job)
            starts.append(t0)
            ends.append(t1)

        def wrapper(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            jobs.append(rec.job)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if after is not None:
                if costly:
                    b0 = clock()
                    after(rec, args, result)
                    record(book, b0, clock())
                else:
                    after(rec, args, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- persistence ------------------------------------------------------

    def dump(self, path) -> None:
        """Header line (JSON) followed by the raw span columns."""
        header = {"names": self.names, "count": len(self.columns["start"]),
                  "columns": [[k, c] for k, c in _COLUMNS],
                  "counters": self.counters}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for key, _ in _COLUMNS:
                self.columns[key].tofile(fh)

    @classmethod
    def load(cls, path) -> "Recorder":
        rec = cls()
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
            rec.names = header["names"]
            rec.counters = header["counters"]
            for key, code in header["columns"]:
                rec.columns[key] = array.array(code)
                rec.columns[key].fromfile(fh, header["count"])
        return rec


# -- after-call counters ------------------------------------------------------

def _gcd_after(rec, args, result):
    if result.terms == {(): 1}:
        rec.counters["gcd_trivial"] += 1


def _arith_after(rec, args, result):
    n = max(len(result.num.terms), len(result.den.terms))
    if n > rec.counters["max_terms"]:
        rec.counters["max_terms"] = n


def _count_op3(rec, op):
    if op.legs == 3:
        rec.counters["op3_nonzero"] += sum(
            1 for row in op.rows for e in row if not e.is_zero)
        rec.counters["op3_entries"] += op.size * op.size


def _matmul_after(rec, args, result):
    a, b = args
    size = a.size
    col_nz = [0] * size
    for row in a.rows:
        for k, e in enumerate(row):
            if not e.is_zero:
                col_nz[k] += 1
    useful = 0
    for k, row in enumerate(b.rows):
        if col_nz[k]:
            useful += col_nz[k] * sum(1 for e in row if not e.is_zero)
    rec.counters["matmul_useful"] += useful
    rec.counters["matmul_cube"] += size ** 3
    _count_op3(rec, result)


def _embed_after(rec, args, result):
    _count_op3(rec, result)


_AFTER = {
    "scalars.gcd": (_gcd_after, False),
    "scalars.arith": (_arith_after, False),
    "tensor.matmul": (_matmul_after, True),
    "tensor.embed": (_embed_after, True),
}


def install(rec: Recorder) -> None:
    """Wrap every call listed in LAYERS, wherever ybx binds it."""
    importlib.import_module("ybx.cli")
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "ybx" or name.startswith("ybx."))]
    for group, targets in LAYERS.items():
        after, costly = _AFTER.get(group, (None, False))
        for module_name, attr in targets:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                original = owner.__dict__[attr]
                setattr(owner, attr, rec.wrap(group, original, after, costly))
                continue
            original = getattr(owner, attr)
            wrapped = rec.wrap(group, original, after, costly)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)


# -- per-layer numbers ----------------------------------------------------------

def self_times(recs):
    """{span name: [calls, self ns]} over all recorders."""
    out = {}
    for rec in recs:
        cols = rec.columns
        name, start, end, parent = (cols["name"], cols["start"], cols["end"],
                                    cols["parent"])
        n = len(start)
        child = [0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        per = [[0, 0] for _ in rec.names]
        for i in range(n):
            slot = per[name[i]]
            slot[0] += 1
            slot[1] += end[i] - start[i] - child[i]
        for nid, (calls, ns) in enumerate(per):
            acc = out.setdefault(rec.names[nid], [0, 0])
            acc[0] += calls
            acc[1] += ns
    return out


def layer_metrics(recs) -> dict:
    """The per-layer metrics that spans give; ratios are 0 when their base
    is 0."""
    st = self_times(recs)
    counters = dict.fromkeys(COUNTERS, 0)
    for rec in recs:
        for key, value in rec.counters.items():
            if key == "max_terms":
                counters[key] = max(counters[key], value)
            else:
                counters[key] += value

    def calls(group):
        return st.get(group, [0, 0])[0]

    def self_s(group):
        return st.get(group, [0, 0])[1] / 1e9

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for group in ("scalars.arith", "scalars.gcd", "scalars.divexact",
                  "scalars.parse", "tensor.embed", "tensor.matmul",
                  "tensor.eliminate", "tensor.defect", "algebra.validate",
                  "constructors.build", "verify.check"):
        m[group + ".calls"] = calls(group)
        m[group + ".self_s"] = self_s(group)
    m["scalars.gcd.trivial_ratio"] = ratio(counters["gcd_trivial"],
                                           calls("scalars.gcd"))
    m["scalars.max_terms"] = counters["max_terms"]
    m["tensor.matmul.useful_ratio"] = ratio(counters["matmul_useful"],
                                            counters["matmul_cube"])
    m["tensor.scan.self_s"] = self_s("tensor.scan")
    m["tensor.nonzero_ratio"] = ratio(counters["op3_nonzero"],
                                      counters["op3_entries"])
    m["lie_super.validate.self_s"] = self_s("lie_super.validate")
    m["lie_super.even_center.self_s"] = self_s("lie_super.even_center")
    m["cli.main.self_s"] = self_s("cli.main")
    m["cli.emit.self_s"] = self_s("cli.emit")
    m["trace.spans"] = sum(v[0] for v in st.values())
    return m


def span_seconds(rec, name) -> float:
    """Total duration of the spans called name, children included."""
    if name not in rec.names:
        return 0.0
    nid = rec.names.index(name)
    cols = rec.columns
    return sum(cols["end"][i] - cols["start"][i]
               for i in range(len(cols["start"])) if cols["name"][i] == nid) / 1e9
