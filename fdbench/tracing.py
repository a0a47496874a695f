"""Layer tracing for the fdcalc benchmark, installed from outside the program.

Wrappers replace a traced function at every place a caller looks its name up:
the class, for methods; the defining module and every ``fdcalc`` module that
bound the name with ``from ... import``, for functions; and the check lists
in ``suites.SUITES``.  ``uninstall`` puts the originals back, so untraced
passes run the program unchanged.

There are two kinds of probe:

* span probes (series, distributions, fieldcalc, dvir, suites, cli) record
  one span per call: name, start, end, parent span and thread;
* aggregate probes (scalars and fock, called hundreds of thousands of times
  a pass) only add to counts and times.

Each call pushes a frame on a per-thread stack.  A frame whose parent belongs
to another layer is a layer boundary: its duration minus the boundary frames
nested in it is added to its layer's self time.  Check functions that
``run_suite`` hands to worker threads start with an empty stack; their
parent is the open ``run_suite`` span, whose self time subtracts the union
of their intervals.

Counters live in per-thread dictionaries and are merged by ``collect``, so
worker threads never update shared state.  A probe whose target no longer
exists, or whose hook reads an attribute that is gone, marks its metrics
absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import statistics
import sys
import threading
import time

LAYERS = ("scalars", "series", "distributions", "fock", "fieldcalc", "dvir", "suites", "cli")
SELF_TIME_LAYERS = ("scalars", "series", "distributions", "fock", "fieldcalc", "dvir", "suites")


class Probe:
    """One traced callable: ``target`` is ``module:attr`` or ``module:Class.attr``.

    ``group`` keys the probe's time (outermost call per thread), ``count`` its
    call counter, ``before``/``after`` optional hooks that add counters.
    """

    def __init__(self, layer, target, group, count=None, span=True, before=None, after=None,
                 hook_keys=(), fork=False):
        self.layer = layer
        self.target = target
        self.group = group
        self.count = count
        self.span = span
        self.before = before
        self.after = after
        self.hook_keys = tuple(hook_keys)
        self.fork = fork


# -- hooks: counters read from arguments and results ----------------------------


def _ratfunc_created(tr, st, args, result, pre, outer):
    den = args[0].den.coeffs
    if sum(1 for c in den if c) == 1:
        st.add("scalars.ratfunc_monomial_den")


def _memo_probe(tr, args):
    return (args[1], args[2]) in args[0]._memo


def _memo_hit(tr, st, args, result, pre, outer):
    if pre:
        st.add("fock.memo_hits")


def _module_created(tr, st, args, result, pre, outer):
    tr.modules.append(args[0])


def _mul_terms(tr, st, args, result, pre, outer):
    st.add("series.mul_pairs_tried", len(args[0].coeffs) * len(args[1].coeffs))
    st.add("series.mul_terms_kept", len(result.coeffs))


def _subst_terms(tr, st, args, result, pre, outer):
    st.add("series.subst_exp_terms_out", len(result.coeffs))


def _expand_cells(tr, st, args, result, pre, outer):
    if outer:
        st.add("distributions.expand_cells", len(result.coeffs))


def _window_cells(tr, st, args, result, pre, outer):
    st.add("fieldcalc.cells_materialized", len(result.coeffs))


def _shift_counts(tr, st, args, result, pre, outer):
    st.add("fieldcalc.shifts_evaluated", len(args[1].shifts()))
    st.add("fieldcalc.shifts_contributing", len(result[2]))


_RATFUNC_OPS = (
    "__add__", "__radd__", "__neg__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "inverse", "__truediv__", "__rtruediv__", "__pow__",
)


def default_probes():
    P = Probe
    probes = [
        P("scalars", "scalars:RatFunc.__init__", "scalars.ratfunc", "scalars.ratfunc_new",
          span=False, after=_ratfunc_created, hook_keys=("scalars.ratfunc_monomial_den",)),
        *(P("scalars", f"scalars:RatFunc.{op}", "scalars.ratfunc", span=False)
          for op in _RATFUNC_OPS),
        P("scalars", "scalars:Poly.gcd", "scalars.poly_gcd", "scalars.poly_gcd_calls", span=False),
        P("scalars", "scalars:power", "scalars.power", span=False),
        P("fock", "fock:FockModule.__init__", "fock.init", span=False,
          after=_module_created, hook_keys=("fock.memo_entries",)),
        P("fock", "fock:FockModule.apply_mode", "fock.apply_mode", "fock.apply_mode_calls",
          span=False),
        P("fock", "fock:FockModule._apply_gen", "fock.gen", "fock.gen_calls", span=False,
          before=_memo_probe, after=_memo_hit, hook_keys=("fock.memo_hits",)),
        P("fock", "fock:FockModule.apply_field", "fock.apply_field", span=False),
        P("fock", "fock:FockModule.basis", "fock.basis", span=False),
        P("series", "series:TruncatedSeries.__mul__", "series.mul", "series.mul_calls",
          after=_mul_terms, hook_keys=("series.mul_pairs_tried", "series.mul_terms_kept")),
        P("series", "series:subst_exp", "series.subst_exp", "series.subst_exp_calls",
          after=_subst_terms, hook_keys=("series.subst_exp_terms_out",)),
        P("series", "series:invert_unit_1v", "series.invert_unit"),
        P("series", "series:FactoredRational.exp_arg_dict", "series.exp_arg_dict"),
        P("series", "series:var_scaled", "series.var_scaled"),
        P("distributions", "distributions:delta_fit", "distributions.delta_fit",
          "distributions.delta_fit_calls"),
        P("distributions", "distributions:solve_exact", "distributions.solve_exact",
          "distributions.solve_exact_calls"),
        P("distributions", "distributions:DeltaSum.expand", "distributions.expand",
          after=_expand_cells, hook_keys=("distributions.expand_cells",)),
        P("distributions", "distributions:delta_expand", "distributions.expand",
          after=_expand_cells, hook_keys=("distributions.expand_cells",)),
        P("fieldcalc", "fieldcalc:product_on_window", "fieldcalc.product_on_window",
          "fieldcalc.product_on_window_calls", after=_window_cells,
          hook_keys=("fieldcalc.cells_materialized",)),
        P("fieldcalc", "fieldcalc:quadrant_verdict", "fieldcalc.quadrant_verdict",
          "fieldcalc.quadrant_verdict_calls"),
        P("fieldcalc", "fieldcalc:ye_from_product", "fieldcalc.ye_from_product",
          "fieldcalc.ye_from_product_calls"),
        P("fieldcalc", "fieldcalc:defect_series", "fieldcalc.defect_series"),
        P("fieldcalc", "fieldcalc:commutator_formula_check", "fieldcalc.commutator_check",
          "fieldcalc.commutator_check_calls", after=_shift_counts,
          hook_keys=("fieldcalc.shifts_evaluated", "fieldcalc.shifts_contributing")),
        P("dvir", "dvir:vir_relation_check", "dvir.vir_relation_check",
          "dvir.vir_relation_check_calls"),
        P("dvir", "dvir:theorem58_suite", "dvir.theorem58_suite"),
        P("dvir", "dvir:theorem59_suite", "dvir.theorem59_suite"),
        P("suites", "suites:run_suite", "suites.run_suite", fork=True),
        P("cli", "cli:main", "cli.main"),
    ]
    # the remaining public entry points, traced for their layer's time only
    for layer, targets in (
        ("scalars", ("specialize",)),
        ("series", (
            "TruncatedSeries.__add__", "TruncatedSeries.__sub__", "TruncatedSeries.eq_on_common",
            "TruncatedSeries.restricted", "FactoredRational.ratio_series", "subst_log1p",
            "diagonal_collapse", "divide_linear", "binom_expand", "iota_expand",
            "partial_fractions", "exp_of_series", "log_series",
        )),
        ("distributions", (
            "laurent_annihilator", "annihilation_check", "delta_decompose", "vanishing_order",
            "three_term_check", "substitute_diag",
        )),
        ("fieldcalc", (
            "ye_product", "residue_ye", "modes_agree", "locality_check", "compat_check",
            "assoc_check", "covariance_check", "scaled_mode_extract",
        )),
        ("dvir", ("f_coefficients", "central_term")),
    ):
        span = layer != "scalars"
        probes += [P(layer, f"{layer}:{t}", f"{layer}.{t}", span=span) for t in targets]
    return probes


# -- per-thread state ---------------------------------------------------------------


class _ThreadState:
    __slots__ = ("stack", "counts", "times", "selfs", "depth", "spans", "thread")

    def __init__(self):
        self.stack = []  # frames: [layer, nested boundary time, span id or None, start]
        self.counts = {}
        self.times = {}
        self.selfs = {}
        self.depth = {}
        self.spans = []
        self.thread = threading.current_thread().name

    def add(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n


class Tracer:
    """Installs probes into an imported ``fdcalc`` and aggregates what they see."""

    def __init__(self, program, probes=None):
        self.program = program
        self.probes = default_probes() if probes is None else probes
        self.absent = set()
        self.modules = []
        self.check_names = []
        self.spans = []  # every span of every traced pass, written out at the end
        self._local = threading.local()
        self._states = []
        self._lock = threading.Lock()
        self._patches = []
        self._ids = itertools.count(1)
        self._fork = None  # (span id, intervals of worker-thread children)
        self._t0 = time.perf_counter()
        self._pass = 0

    # -- installation ---------------------------------------------------------

    def _modules(self):
        name = self.program.__name__
        for layer in LAYERS:
            try:
                importlib.import_module(f"{name}.{layer}")
            except ImportError:
                continue  # its probes are reported absent
        return [m for k, m in sorted(sys.modules.items())
                if m is not None and (k == name or k.startswith(name + "."))]

    def install(self):
        self.check_names = []
        modules = self._modules()
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        for probe in self.probes:
            mod_name, _, path = probe.target.partition(":")
            owner = by_name.get(mod_name)
            cls_name, _, attr = path.rpartition(".")
            if owner is not None and cls_name:
                owner = getattr(owner, cls_name, None)
            original = getattr(owner, "__dict__", {}).get(attr) if owner is not None else None
            if not callable(original):
                self._mark_absent(probe)
                continue
            wrapper = self._wrap(probe, original)
            if cls_name:
                self._patch(owner, attr, wrapper)
            else:
                self._rebind(modules, original, wrapper)
        suites = by_name.get("suites")
        table = getattr(suites, "SUITES", None)
        if isinstance(table, dict):
            wrapped = {}
            for fn in table.get("all", []):
                probe = Probe("suites", f"suites:{fn.__name__}", f"suites.check_s.{fn.__name__}")
                wrapped[fn] = self._wrap(probe, fn)
                self.check_names.append(fn.__name__)
                self._rebind(modules, fn, wrapped[fn])
            for checks in table.values():
                for i, fn in enumerate(checks):
                    if fn in wrapped:
                        self._patches.append((checks, i, fn))
                        checks[i] = wrapped[fn]
        else:
            self.absent.add("suites.check_s")

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, list):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    def _mark_absent(self, probe):
        self.absent.add(probe.group)
        if probe.count:
            self.absent.add(probe.count)
        self.absent.update(probe.hook_keys)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, modules, original, wrapper):
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    self._patch(m, attr, wrapper)

    # -- the wrappers ---------------------------------------------------------

    def _state(self):
        try:
            return self._local.st
        except AttributeError:
            st = self._local.st = _ThreadState()
            with self._lock:
                self._states.append(st)
            return st

    def _hook(self, probe, fn, *args):
        try:
            return fn(self, *args)
        except (AttributeError, TypeError, IndexError):
            # the hook reads program internals that no longer exist
            self.absent.update(probe.hook_keys)
            return None

    def _wrap(self, probe, fn):
        tracer = self
        layer, group, count = probe.layer, probe.group, probe.count
        before, after, span, fork = probe.before, probe.after, probe.span, probe.fork
        name = probe.target.partition(":")[2]
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = tracer._state()
            stack = st.stack
            parent = stack[-1] if stack else None
            if count:
                st.counts[count] = st.counts.get(count, 0) + 1
            pre = tracer._hook(probe, before, args) if before else None
            sid = None
            if span:
                sid = next(tracer._ids)
                if fork:
                    tracer._fork = (sid, [])
            depth = st.depth.get(group, 0)
            st.depth[group] = depth + 1
            frame = [layer, 0.0, sid, clock()]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                start = frame[3]
                dur = end - start
                st.depth[group] = depth
                if depth == 0:
                    st.times[group] = st.times.get(group, 0.0) + dur
                nested = frame[1]
                if fork and tracer._fork is not None:
                    nested += _union(tracer._fork[1], start, end)
                    tracer._fork = None
                if parent is not None and parent[0] == layer:
                    parent[1] += nested
                else:
                    st.selfs[layer] = st.selfs.get(layer, 0.0) + dur - nested
                    if parent is not None:
                        parent[1] += dur
                if span:
                    pid = parent[2] if parent is not None else None
                    if parent is None and tracer._fork is not None and sid != tracer._fork[0]:
                        pid = tracer._fork[0]
                        tracer._fork[1].append((start, end))
                    st.spans.append((sid, name, layer, start - tracer._t0, end - tracer._t0,
                                     pid, st.thread, tracer._pass))
            if after:
                tracer._hook(probe, after, st, args, result, pre, depth == 0)
            return result

        return traced

    # -- collection -----------------------------------------------------------

    def collect(self):
        """Merge and reset every thread's counters; return this pass's raw data."""
        counts, times, selfs = {}, {}, {}
        with self._lock:
            states = list(self._states)
        for st in states:
            for src, dst in ((st.counts, counts), (st.times, times), (st.selfs, selfs)):
                for k, v in src.items():
                    dst[k] = dst.get(k, 0) + v
                src.clear()
            self.spans.extend(st.spans)
            st.spans.clear()
        try:
            counts["fock.memo_entries"] = sum(len(m._memo) for m in self.modules)
        except AttributeError:
            self.absent.add("fock.memo_entries")
        self.modules.clear()
        self._pass += 1
        return Raw(counts, times, selfs, self.absent)

    def span_records(self):
        keys = ("id", "name", "layer", "start_s", "end_s", "parent", "thread", "pass")
        return [dict(zip(keys, s)) for s in sorted(self.spans)]


def _union(intervals, lo, hi):
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


# -- metrics ------------------------------------------------------------------------


class Absent(KeyError):
    pass


class Raw:
    """Counts and times of one traced pass; absent keys raise :class:`Absent`."""

    def __init__(self, counts, times, selfs, absent):
        self.counts, self.times, self.selfs, self.absent = counts, times, selfs, set(absent)

    def c(self, key):
        if key in self.absent:
            raise Absent(key)
        return self.counts.get(key, 0)

    def t(self, key):
        if key in self.absent:
            raise Absent(key)
        return self.times.get(key, 0.0)


def _ratio(a, b):
    return a / b if b else 0.0


# name, unit, better, value from one pass's Raw; "count" and "ratio" metrics
# are deterministic and are taken from one pass, "s" metrics are medians
LAYER_METRICS = [
    ("scalars.ratfunc_new", "count", "lower", lambda r: r.c("scalars.ratfunc_new")),
    ("scalars.ratfunc_monomial_den_share", "ratio", "higher",
     lambda r: _ratio(r.c("scalars.ratfunc_monomial_den"), r.c("scalars.ratfunc_new"))),
    ("scalars.poly_gcd_calls", "count", "lower", lambda r: r.c("scalars.poly_gcd_calls")),
    ("scalars.poly_gcd_s", "s", "lower", lambda r: r.t("scalars.poly_gcd")),
    ("scalars.ratfunc_s", "s", "lower", lambda r: r.t("scalars.ratfunc")),
    ("fock.apply_mode_calls", "count", "lower", lambda r: r.c("fock.apply_mode_calls")),
    ("fock.apply_mode_s", "s", "lower", lambda r: r.t("fock.apply_mode")),
    ("fock.gen_calls", "count", "lower", lambda r: r.c("fock.gen_calls")),
    ("fock.memo_entries", "count", "lower", lambda r: r.c("fock.memo_entries")),
    ("fock.memo_hit_ratio", "ratio", "higher",
     lambda r: _ratio(r.c("fock.memo_hits"), r.c("fock.gen_calls"))),
    ("series.mul_calls", "count", "lower", lambda r: r.c("series.mul_calls")),
    ("series.mul_s", "s", "lower", lambda r: r.t("series.mul")),
    ("series.mul_pairs_tried", "count", "lower", lambda r: r.c("series.mul_pairs_tried")),
    ("series.mul_terms_kept", "count", "lower", lambda r: r.c("series.mul_terms_kept")),
    ("series.subst_exp_calls", "count", "lower", lambda r: r.c("series.subst_exp_calls")),
    ("series.subst_exp_s", "s", "lower", lambda r: r.t("series.subst_exp")),
    ("series.subst_exp_terms_out", "count", "lower", lambda r: r.c("series.subst_exp_terms_out")),
    ("series.invert_unit_s", "s", "lower", lambda r: r.t("series.invert_unit")),
    ("series.exp_arg_dict_s", "s", "lower", lambda r: r.t("series.exp_arg_dict")),
    ("series.var_scaled_s", "s", "lower", lambda r: r.t("series.var_scaled")),
    ("distributions.delta_fit_calls", "count", "lower",
     lambda r: r.c("distributions.delta_fit_calls")),
    ("distributions.delta_fit_s", "s", "lower", lambda r: r.t("distributions.delta_fit")),
    ("distributions.solve_exact_calls", "count", "lower",
     lambda r: r.c("distributions.solve_exact_calls")),
    ("distributions.solve_exact_s", "s", "lower", lambda r: r.t("distributions.solve_exact")),
    ("distributions.expand_s", "s", "lower", lambda r: r.t("distributions.expand")),
    ("distributions.expand_cells", "count", "lower", lambda r: r.c("distributions.expand_cells")),
    ("fieldcalc.product_on_window_calls", "count", "lower",
     lambda r: r.c("fieldcalc.product_on_window_calls")),
    ("fieldcalc.product_on_window_s", "s", "lower", lambda r: r.t("fieldcalc.product_on_window")),
    ("fieldcalc.cells_materialized", "count", "lower",
     lambda r: r.c("fieldcalc.cells_materialized")),
    ("fieldcalc.quadrant_verdict_calls", "count", "lower",
     lambda r: r.c("fieldcalc.quadrant_verdict_calls")),
    ("fieldcalc.quadrant_verdict_s", "s", "lower", lambda r: r.t("fieldcalc.quadrant_verdict")),
    ("fieldcalc.ye_from_product_calls", "count", "lower",
     lambda r: r.c("fieldcalc.ye_from_product_calls")),
    ("fieldcalc.ye_from_product_s", "s", "lower", lambda r: r.t("fieldcalc.ye_from_product")),
    ("fieldcalc.defect_series_s", "s", "lower", lambda r: r.t("fieldcalc.defect_series")),
    ("fieldcalc.commutator_check_calls", "count", "lower",
     lambda r: r.c("fieldcalc.commutator_check_calls")),
    ("fieldcalc.commutator_check_s", "s", "lower", lambda r: r.t("fieldcalc.commutator_check")),
    ("fieldcalc.shifts_evaluated", "count", "lower", lambda r: r.c("fieldcalc.shifts_evaluated")),
    ("fieldcalc.shifts_contributing", "count", "lower",
     lambda r: r.c("fieldcalc.shifts_contributing")),
    ("fieldcalc.shift_yield", "ratio", "higher",
     lambda r: _ratio(r.c("fieldcalc.shifts_contributing"), r.c("fieldcalc.shifts_evaluated"))),
    ("dvir.vir_relation_check_calls", "count", "lower",
     lambda r: r.c("dvir.vir_relation_check_calls")),
    ("dvir.vir_relation_check_s", "s", "lower", lambda r: r.t("dvir.vir_relation_check")),
    ("dvir.theorem58_suite_s", "s", "lower", lambda r: r.t("dvir.theorem58_suite")),
    ("dvir.theorem59_suite_s", "s", "lower", lambda r: r.t("dvir.theorem59_suite")),
    ("suites.run_suite_s", "s", "lower", lambda r: r.t("suites.run_suite")),
    ("suites.parallelism", "ratio", "higher",
     lambda r: _ratio(sum(v for k, v in r.times.items() if k.startswith("suites.check_s.")),
                      r.t("suites.run_suite"))),
    *((f"{layer}.self_s", "s", "lower", lambda r, layer=layer: r.selfs.get(layer, 0.0))
      for layer in SELF_TIME_LAYERS),
]


def pass_metrics(raw, check_names):
    """Per-layer metrics of one traced pass: name -> (value, unit).

    Metrics whose probe or hook found nothing to attach to are left out.
    """
    out = {}
    specs = LAYER_METRICS + [
        (f"suites.check_s.{n}", "s", "lower", lambda r, k=f"suites.check_s.{n}": r.t(k))
        for n in check_names
    ]
    for name, unit, _, value in specs:
        try:
            out[name] = (value(raw), unit)
        except Absent:
            continue
    return out


def combine(passes):
    """Counts and ratios from the first traced pass, times as medians over passes.

    Returns (metrics, names of count metrics that differed between passes).
    """
    first = passes[0]
    out, unsteady = {}, []
    for name, (value, unit) in first.items():
        values = [p[name][0] for p in passes if name in p]
        if unit == "s":
            out[name] = (statistics.median(values), unit)
        else:
            out[name] = (value, unit)
            if any(v != value for v in values):
                unsteady.append(name)
    return out, unsteady
