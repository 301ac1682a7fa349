"""Outside-in spans for the benchmark's traced run.

The tracer wraps bgnf's public callables where their callers look them up:
a name bound with ``from .poly import x`` is patched in the importing module,
a method on its class.  Each span records name, start, end, parent span and
job id; spans stay in memory until the pass is summarised.  The program is
single-threaded and has no queue, so no layer ever waits on another and no
waiting time is reported.
"""

from __future__ import annotations

import json
import statistics
import types
from time import perf_counter

NAME, START, END, PARENT, JOB, PAYLOAD = range(6)

# Layers with a self-time metric; "verb" spans are the benchmark's own job
# clocks.
LAYERS = ("poly", "normalform", "models", "hopf", "series", "numeric", "cli")
# Entry points that wrap a whole job or step list.  Whatever bgnf time no
# inner span catches lands in their self time, so coverage leaves it out:
# a missing wrapper shows up as lost coverage.
ENTRY_POINTS = ("cli.main", "numeric.report", "models.normal_form",
                "models.analysis_form", "normalform.normalize",
                "normalform.verify")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = None
        self.normal_forms: list = []
        self._saved: list = []

    # -- recording -----------------------------------------------------------

    def wrap(self, fn, name, after=None, name_of=None):
        """``fn`` recording one span per call; ``after(args, out)`` returns
        the span's payload (a count or a label)."""
        def traced(*args, **kwargs):
            rec = self.open(name_of(args) if name_of else name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(rec)
            if after is not None:
                rec[PAYLOAD] = after(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def open(self, name):
        rec = [name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1,
               self.job, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close(self, rec):
        rec[END] = perf_counter()
        self.stack.pop()

    def take(self):
        spans, self.spans[:] = list(self.spans), []
        nfs, self.normal_forms[:] = list(self.normal_forms), []
        return spans, nfs

    # -- patching -------------------------------------------------------------

    def patch(self, owner, attr, name, **hooks):
        old = getattr(owner, attr)
        self._saved.append((owner, attr, old))
        setattr(owner, attr, self.wrap(old, name, **hooks))

    def install(self):
        from bgnf import cli, hopf, models, normalform, numeric, poly, series

        Poly, Series, Bundle = poly.Polynomial, series.SeriesE, models.ModelBundle

        def pairs(args, _out):
            a, b = args
            return len(a.coeffs) * len(b.coeffs) if isinstance(b, Poly) else 0

        self.patch(Poly, "__mul__", "poly.mul", after=pairs)
        self.patch(Poly, "diff", "poly.diff")
        self.patch(poly, "compose_many", "poly.compose_many")
        self.patch(poly, "sum_of_products", "poly.sum_of_products")
        for mod in (poly, normalform, models, cli):
            for fn in ("to_complex", "to_real"):
                if fn in vars(mod):
                    self.patch(mod, fn, "poly.chart")
        for mod in (poly, normalform):
            self.patch(mod, "linear_substitute", "poly.linear_substitute")

        def keep_nf(_args, out):
            self.normal_forms.append(out)

        for mod in (normalform, models):
            self.patch(mod, "normalize", "normalform.normalize", after=keep_nf)
        self.patch(normalform, "split_ker_im", "normalform.split_solve")
        self.patch(normalform, "solve_homological", "normalform.split_solve")
        self.patch(normalform, "invert_generating", "normalform.invert")
        self.patch(normalform, "compose_map", "normalform.compose_map")
        self.patch(normalform, "compose_maps", "normalform.fold")
        self.patch(normalform, "verify", "normalform.verify")

        builders = models.MODEL_BUILDERS
        for key, fn in list(builders.items()):
            self._saved.append((builders, key, fn))
            builders[key] = self.wrap(fn, "models.build")
        self.patch(Bundle, "normal_form", "models.normal_form")
        self.patch(Bundle, "analysis_form", "models.analysis_form",
                   name_of=lambda a: ("models.psi" if a[0].route == "psi"
                                      else "models.analysis_form"))

        self.patch(hopf, "analyze", "hopf.analyze")
        for fn in ("frequency_series", "amplitude_series", "case_quantities"):
            self.patch(hopf, fn, f"hopf.{fn}")

        self.patch(Series, "__mul__", "series.mul")
        self.patch(Series, "__rmul__", "series.mul")
        for fn in ("substitute", "divide", "sqrt", "inverse"):
            self.patch(Series, fn, f"series.{fn}")

        self.patch(cli, "series_vs_numeric_report", "numeric.report")
        self.patch(numeric, "find_periodic_orbit", "numeric.shoot")
        self.patch(numeric, "flow_with_stm", "numeric.stm")
        self.patch(numeric, "rotation_number_numeric", "numeric.rotation",
                   after=lambda _a, out: out.method)
        self.patch(numeric, "solve_ivp", "numeric.solve_ivp",
                   after=lambda _a, out: int(out.nfev))

        self.patch(cli, "main", "cli.main")
        self.patch(cli, "write_polynomial", "cli.emit")
        dumps = self.wrap(cli.json.dumps, "cli.emit")
        self._saved.append((cli, "json", cli.json))
        cli.json = types.SimpleNamespace(dumps=dumps)

    def uninstall(self):
        while self._saved:
            owner, attr, old = self._saved.pop()
            if isinstance(owner, dict):
                owner[attr] = old
            else:
                setattr(owner, attr, old)

    # -- output -----------------------------------------------------------------

    @staticmethod
    def dump(spans, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in spans:
                fh.write(json.dumps(s) + "\n")


# -- per-layer metrics ----------------------------------------------------------

VERBS = ("normalize", "analyze", "certify", "verify")
ROTATION_METHODS = ("snap-elliptic", "snap-hyperbolic", "richardson")

# (metric, unit) in report order; unit "s" marks a time, anything else a
# count that must repeat exactly from run to run.
PER_LAYER = (
    [(f"verb.{v}.s", "s") for v in VERBS]
    + [("poly.mul.s", "s"), ("poly.mul.calls", "count"),
       ("poly.mul.term_pairs", "count"), ("poly.diff.s", "s"),
       ("poly.diff.calls", "count"), ("poly.compose_many.s", "s"),
       ("poly.compose_many.calls", "count"), ("poly.sum_of_products.s", "s"),
       ("poly.chart.s", "s"), ("poly.linear_substitute.s", "s"),
       ("scalars.coef_bits_max", "bits"),
       ("normalform.normalize.s", "s"), ("normalform.split_solve.s", "s"),
       ("normalform.invert.s", "s"), ("normalform.recompose.s", "s"),
       ("normalform.fold.s", "s"), ("normalform.verify.s", "s"),
       ("normalform.terms.h_n", "count"), ("normalform.terms.G", "count"),
       ("normalform.terms.transform", "count"),
       ("models.build.s", "s"), ("models.psi.s", "s"),
       ("models.psi.calls", "count"), ("models.analyses_per_verify", "count"),
       ("hopf.analyze.s", "s"), ("hopf.frequency_series.calls", "count"),
       ("hopf.amplitude_series.calls", "count"),
       ("hopf.case_quantities.calls", "count")]
    + [(f"series.{op}.{what}", unit)
       for op in ("mul", "substitute", "divide", "sqrt", "inverse")
       for what, unit in (("s", "s"), ("calls", "count"))]
    + [("numeric.shoot.s", "s"), ("numeric.newton.iters", "count"),
       ("numeric.stm.calls", "count"), ("numeric.stm.nfev", "count"),
       ("numeric.monodromy.recomputed", "count"), ("numeric.winding.s", "s"),
       ("numeric.winding.nfev", "count")]
    + [(f"numeric.rotation.{m}", "count") for m in ROTATION_METHODS]
    + [("cli.emit.s", "s")]
    + [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [("trace.coverage_pct", "%"), ("trace.overhead_pct", "%")]
)


def _bits(x) -> int:
    if hasattr(x, "d"):                       # QuadExt a + b sqrt(d)
        return max(_bits(x.a), _bits(x.b))
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def _nf_counters(nfs) -> dict:
    out = {"scalars.coef_bits_max": 0, "normalform.terms.h_n": 0,
           "normalform.terms.G": 0, "normalform.terms.transform": 0}
    for nf in nfs:
        comps = nf.transform.components
        out["normalform.terms.h_n"] += len(nf.h_n.coeffs)
        out["normalform.terms.G"] += sum(len(g.coeffs) for g in nf.generators)
        out["normalform.terms.transform"] += sum(len(c.coeffs) for c in comps)
        coeffs = list(nf.table.values())
        for c in comps:
            coeffs.extend(c.coeffs.values())
        for c in coeffs:
            out["scalars.coef_bits_max"] = max(
                out["scalars.coef_bits_max"], _bits(c.re), _bits(c.im))
    return out


def summarise(spans, nfs) -> dict:
    """Per-layer metrics of one traced pass (times in s, counts exact)."""
    n = len(spans)
    dur = [s[END] - s[START] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child[s[PARENT]] += dur[i]

    def parent_name(i):
        p = spans[i][PARENT]
        return spans[p][NAME] if p >= 0 else None

    def ancestors(i):
        p = spans[i][PARENT]
        while p >= 0:
            yield spans[p][NAME]
            p = spans[p][PARENT]

    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)

    def pick(name, parent=None, under=None):
        return [i for i in by_name.get(name, ())
                if name not in ancestors(i)
                and (parent is None or parent_name(i) == parent)
                and (under is None or under in ancestors(i))]

    def total(name, **where):
        return sum(dur[i] for i in pick(name, **where))

    def calls(name, **where):
        return len(by_name.get(name, ())) if not where else len(pick(name, **where))

    def payload(name, **where):
        return sum(spans[i][PAYLOAD] or 0 for i in pick(name, **where))

    m = {f"verb.{v}.s": total(f"verb.{v}") for v in VERBS}
    for op in ("mul", "diff", "compose_many"):
        m[f"poly.{op}.s"] = total(f"poly.{op}")
        m[f"poly.{op}.calls"] = calls(f"poly.{op}")
    m["poly.mul.term_pairs"] = payload("poly.mul")
    for op in ("sum_of_products", "chart", "linear_substitute"):
        m[f"poly.{op}.s"] = total(f"poly.{op}")
    m.update(_nf_counters(nfs))
    for op in ("normalize", "split_solve", "invert", "fold", "verify"):
        m[f"normalform.{op}.s"] = total(f"normalform.{op}")
    m["normalform.recompose.s"] = total("normalform.compose_map",
                                        under="normalform.normalize")
    m["models.build.s"] = total("models.build")
    psi = pick("models.psi")
    psi_set = set(psi)
    m["models.psi.s"] = sum(dur[i] for i in psi) - sum(
        dur[j] for j in by_name.get("models.normal_form", ())
        if spans[j][PARENT] in psi_set)
    m["models.psi.calls"] = len(psi)
    verifies = calls("verb.verify")
    m["models.analyses_per_verify"] = (
        calls("hopf.analyze", under="verb.verify") / verifies if verifies else 0)
    m["hopf.analyze.s"] = total("hopf.analyze")
    for fn in ("frequency_series", "amplitude_series", "case_quantities"):
        m[f"hopf.{fn}.calls"] = calls(f"hopf.{fn}")
    for op in ("mul", "substitute", "divide", "sqrt", "inverse"):
        m[f"series.{op}.s"] = total(f"series.{op}")
        m[f"series.{op}.calls"] = calls(f"series.{op}")
    m["numeric.shoot.s"] = total("numeric.shoot")
    m["numeric.newton.iters"] = calls("numeric.stm", parent="numeric.shoot")
    m["numeric.stm.calls"] = calls("numeric.stm")
    m["numeric.stm.nfev"] = payload("numeric.solve_ivp", parent="numeric.stm")
    m["numeric.monodromy.recomputed"] = calls("numeric.stm",
                                              under="numeric.rotation")
    m["numeric.winding.s"] = total("numeric.solve_ivp",
                                   parent="numeric.rotation")
    m["numeric.winding.nfev"] = payload("numeric.solve_ivp",
                                        parent="numeric.rotation")
    methods = [spans[i][PAYLOAD] for i in by_name.get("numeric.rotation", ())]
    for meth in ROTATION_METHODS:
        m[f"numeric.rotation.{meth}"] = methods.count(meth)
    m["cli.emit.s"] = total("cli.emit")

    own = dict.fromkeys(LAYERS, 0.0)
    covered = 0.0
    for i, s in enumerate(spans):
        layer = s[NAME].split(".", 1)[0]
        if layer in own:
            own[layer] += dur[i] - child[i]
            if s[NAME] not in ENTRY_POINTS:
                covered += dur[i] - child[i]
    for layer, t in own.items():
        m[f"{layer}.self_s"] = t
    timed = sum(dur[i] for v in VERBS for i in by_name.get(f"verb.{v}", ()))
    m["trace.coverage_pct"] = 100.0 * covered / timed if timed else 0.0
    return m


def combine(per_pass: list[dict], overhead_pct: float) -> dict:
    """Median of each time over the traced passes; counts from the first."""
    out = {}
    for name, unit in PER_LAYER:
        if name == "trace.overhead_pct":
            value = overhead_pct
        elif unit in ("s", "%"):
            value = statistics.median(p[name] for p in per_pass)
        else:
            value = per_pass[0][name]
        out[name] = {"value": value, "unit": unit}
    return out
