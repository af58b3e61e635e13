"""Per-layer tracing of the ferns package, installed from outside it.

The layers are the package's modules.  Functions listed in ``SPANNED`` get
a span per call: name, start, end, parent span, op id and whether it
raised.  Each is wrapped under every name a loaded ferns module holds it
by, because ``from .fern import validate_fern`` copies the function into
``universal``, ``rand`` and ``jsonio``.  Hot functions and methods listed
in ``COUNTED`` are counted only: they run millions of times per op and a
timer around each would swamp the work.  Spans stay in memory and are
written out by the caller when the run ends.
"""

from __future__ import annotations

import statistics
import sys
import time

SPANNED = (
    ("gf", "flags"),
    ("curve", "are_isomorphic"),
    ("curve", "contract"),
    ("curve", "contract_to_component"),
    ("fern", "validate_fern"),
    ("fern", "contract_fern"),
    ("fern", "graft"),
    ("fern", "line_data"),
    ("fern", "reciprocal_data"),
    ("fern", "drinfeld_psi"),
    ("universal", "fiber"),
    ("universal", "classify"),
    ("universal", "chart_coords"),
    ("universal", "chart_point"),
    ("universal", "check_equations"),
    ("universal", "locate_component"),
    ("universal", "compatibility_checker"),
    ("universal", "functional_candidates"),
    ("census", "census"),
    ("census", "bv_count_strata"),
    ("census", "bv_count_bruteforce"),
    ("jsonio", "fern_to_json"),
    ("jsonio", "fern_from_json"),
    ("jsonio", "dumps"),
    ("rand", "random_fern"),
)

# (module, class or None, attribute, counter name)
COUNTED = (
    ("gf", "FieldElement", "__mul__", "gf.mul"),
    ("gf", "Subspace", "reduce", "gf.reduce"),
    ("universal", None, "q_value", "universal.q_value"),
    ("universal", None, "component_constraint", "universal.constraint"),
    ("universal", "CompatibilityChecker", "bv_ok", "universal.bv_ok"),
)
COUNTER_NAMES = tuple(c[3] for c in COUNTED)

# span record fields
NAME, START, END, PARENT, OP, ERROR, COUNTS0, COUNTS1 = range(8)


class Tracer:
    """Spans and counters for one traced run; ``install`` patches the
    loaded ferns modules and ``uninstall`` restores them."""

    def __init__(self, modules: dict):
        self.modules = modules  # short name -> module
        self.names = [f"{mod}.{attr}" for mod, attr in SPANNED]
        self.spans = []
        self.stack = []
        self.op = -1
        self.counts = [0] * len(COUNTED)
        self._restore = []

    # -- patching -----------------------------------------------------------

    def install(self):
        loaded = [m for name, m in sys.modules.items()
                  if name == "ferns" or name.startswith("ferns.")]
        for idx, (mod, attr) in enumerate(SPANNED):
            original = getattr(self.modules[mod], attr)
            self._replace(loaded, original, self._spanned(idx, original))
        for idx, (mod, cls, attr, _) in enumerate(COUNTED):
            if cls is None:
                original = getattr(self.modules[mod], attr)
                self._replace(loaded, original, self._counted(idx, original))
            else:
                owner = getattr(self.modules[mod], cls)
                original = owner.__dict__[attr]
                setattr(owner, attr, self._counted(idx, original))
                self._restore.append((owner, attr, original))

    def _replace(self, loaded, original, wrapper):
        for module in loaded:
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, wrapper)
                    self._restore.append((module, name, original))

    def uninstall(self):
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _spanned(self, idx, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            rec = [idx, 0, 0, stack[-1] if stack else -1, tracer.op, False,
                   tuple(counts), None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec[ERROR] = True
                raise
            finally:
                rec[END] = clock()
                rec[COUNTS1] = tuple(counts)
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, idx, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[idx] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- reporting ----------------------------------------------------------

    def trace_record(self) -> dict:
        fields = ("name", "start_ns", "end_ns", "parent", "op", "error")
        return {
            "span_fields": fields,
            "names": self.names,
            "spans": [rec[:6] for rec in self.spans],
        }


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def per_layer_metrics(per_layer: list, tracer: Tracer, first_round_ops: int,
                      ops: int, first_round_counts: list, micro: dict,
                      field_build_ms: float) -> dict:
    """The per-layer metrics of one traced run, named with their units in
    ``per_layer``, the list of that name in BENCHMARK.json.

    Counts are per op over the first round, whose work the seed fixes;
    later rounds repeat it on warmer caches.  Times use every span inside
    an op.  ``first_round_counts`` are the counter totals over the first
    round's ops, summed at op boundaries.
    """
    names = tracer.names
    spans = [s for s in tracer.spans if s[OP] >= 0]
    dur = {id(s): s[END] - s[START] for s in spans}
    child = {}
    for s in spans:
        if s[PARENT] >= 0:
            parent = tracer.spans[s[PARENT]]
            child[id(parent)] = child.get(id(parent), 0) + dur[id(s)]

    def of(name, error=None):
        idx = names.index(name)
        return [s for s in spans if s[NAME] == idx
                and (error is None or s[ERROR] == error)]

    def first(name):
        return [s for s in of(name) if s[OP] < first_round_ops]

    def ms(sel):
        return [dur[id(s)] / 1e6 for s in sel]

    def total_s(name):
        return sum(dur[id(s)] for s in of(name)) / 1e9 / ops

    self_s = {}
    for s in spans:
        layer = names[s[NAME]].split(".")[0]
        self_s[layer] = self_s.get(layer, 0) + dur[id(s)] - child.get(id(s), 0)

    def within(name, ancestor):
        """Spans of ``name`` in the first round with an ``ancestor`` span
        above them."""
        target = names.index(ancestor)
        found = 0
        for s in first(name):
            parent = s[PARENT]
            while parent >= 0:
                rec = tracer.spans[parent]
                if rec[NAME] == target:
                    found += 1
                    break
                parent = rec[PARENT]
        return found

    counts = dict(zip(COUNTER_NAMES, first_round_counts))
    per_op = 1.0 / first_round_ops
    validates = len(first("fern.validate_fern"))
    locates = first("universal.locate_component")
    constraint_idx = COUNTER_NAMES.index("universal.constraint")
    located = sum(s[COUNTS1][constraint_idx] - s[COUNTS0][constraint_idx]
                  for s in locates)
    builds = [s for s in of("rand.random_fern")
              if s[PARENT] < 0 or tracer.spans[s[PARENT]][NAME] != s[NAME]]
    values = {
        "gf.mul_ns": micro["mul_ns"],
        "gf.inv_ns": micro["inv_ns"],
        "gf.add_ns": micro["add_ns"],
        "gf.mul_calls": counts["gf.mul"] * per_op,
        "gf.field_build_ms": field_build_ms,
        "gf.flags_s": total_s("gf.flags"),
        "gf.reduce_calls": counts["gf.reduce"] * per_op,
        "curve.iso_calls": len(first("curve.are_isomorphic")) * per_op,
        "curve.iso_us": _median(ms(of("curve.are_isomorphic"))) * 1e3,
        "curve.contract_calls": (len(first("curve.contract"))
                                 + len(first("curve.contract_to_component")))
        * per_op,
        "curve.self_s": self_s.get("curve", 0) / 1e9 / ops,
        "fern.validate_calls": validates * per_op,
        "fern.validate_ms": _median(ms(of("fern.validate_fern", error=False))),
        "fern.iso_per_validate": (within("curve.are_isomorphic",
                                         "fern.validate_fern") / validates
                                  if validates else 0.0),
        "fern.reject_ms": _median(ms(of("fern.validate_fern", error=True))),
        "fern.self_s": self_s.get("fern", 0) / 1e9 / ops,
        "universal.fiber_ms": _median(ms(of("universal.fiber"))),
        "universal.classify_ms": _median(ms(of("universal.classify"))),
        "universal.check_equations_s": total_s("universal.check_equations"),
        "universal.q_value_calls": counts["universal.q_value"] * per_op,
        "universal.constraint_per_mark": (located / len(locates)
                                          if locates else 0.0),
        "universal.bv_ok_calls": counts["universal.bv_ok"] * per_op,
        "universal.self_s": self_s.get("universal", 0) / 1e9 / ops,
        "census.strata_s": total_s("census.bv_count_strata"),
        "census.oracle_s": total_s("census.bv_count_bruteforce"),
        "jsonio.dump_ms": (_median(ms(of("jsonio.fern_to_json")))
                           + _median(ms(of("jsonio.dumps")))),
        "jsonio.load_ms": _median(ms(of("jsonio.fern_from_json", error=False))),
        "rand.build_ms": _median(ms(builds)),
    }
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in per_layer}


def field_micro(fld, rng) -> dict:
    """Median nanoseconds per multiply, inverse and add on 2,000 seeded
    pairs of nonzero elements of ``fld``, each the median of 15 timed
    loops."""
    elements = fld.elements()
    xs = [elements[rng.randrange(1, fld.order)] for _ in range(2000)]
    ys = [elements[rng.randrange(1, fld.order)] for _ in range(2000)]
    clock = time.perf_counter_ns

    def loop(kind):
        samples = []
        for _ in range(15):
            if kind == "mul":
                t0 = clock()
                for a, b in zip(xs, ys):
                    a * b
                t1 = clock()
            elif kind == "add":
                t0 = clock()
                for a, b in zip(xs, ys):
                    a + b
                t1 = clock()
            else:
                t0 = clock()
                for a in xs:
                    a.inverse()
                t1 = clock()
            samples.append((t1 - t0) / len(xs))
        return statistics.median(samples)

    return {"mul_ns": loop("mul"), "inv_ns": loop("inv"),
            "add_ns": loop("add")}
