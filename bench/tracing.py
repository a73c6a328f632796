"""In-memory span tracing of polyrad's layers, patched in from outside.

Every wrapper is installed on the module that *looks the name up* at call
time (``polyrad.membership.solve_lp``, ``polyrad.engine.iterate``, ...):
the package binds imported names into each caller's namespace, so patching
the defining module would record nothing.  A span is
``[name, start, end, parent, problem]``; self time is a span's duration
minus the time covered by its direct children.
"""

from __future__ import annotations

import json
import math
import sys
import time
from collections import defaultdict

_clock = time.perf_counter

# (span name, module that looks the name up, attribute).  A span name
# starts with the layer it measures.
PATCH_SITES = (
    ("simplex.solve_lp", "polyrad.membership", "solve_lp"),
    ("membership.P", "polyrad.engine", "norm_membership_P"),
    ("membership.R", "polyrad.engine", "norm_membership_R"),
    ("membership.L", "polyrad.engine", "antinorm_membership_L"),
    ("membership.ext", "polyrad.engine", "antinorm_membership_ext"),
    ("membership.P", "polyrad.certificates", "norm_membership_P"),
    ("membership.R", "polyrad.certificates", "norm_membership_R"),
    ("membership.ext", "polyrad.certificates", "antinorm_membership_ext"),
    ("engine.iterate", "polyrad.engine", "iterate"),
    ("candidates.enumerate", "polyrad.engine", "enumerate_candidates"),
    ("candidates.root", "polyrad.engine", "build_cyclic_root"),
    ("candidates.restart", "polyrad.engine", "restart_product"),
    ("matrices.word_matrix", "polyrad.candidates", "word_matrix"),
    ("matrices.eig", "polyrad.candidates", "spectral_radius"),
    ("matrices.eig", "polyrad.candidates", "leading_eigen_analysis"),
    ("cone.negotiate", "polyrad.engine", "negotiate_cone"),
    ("cone.margin", "polyrad.cone", "cone_ray_margin"),
    ("certificates.margin", "polyrad.certificates", "cone_ray_margin"),
    ("datasets.build", "polyrad.datasets", "euler_binary"),
    ("datasets.build", "polyrad.datasets", "pascal_rhombus"),
    ("datasets.build", "polyrad.datasets", "overlap_free"),
    ("datasets.build", "polyrad.datasets", "euler_ternary_14"),
    ("datasets.build", "polyrad.datasets", "random_family"),
)

def tableau_bytes(lp) -> int:
    """Bytes of the dense phase-1 tableau ``solve_lp`` allocates for ``lp``.

    Computed from the LP's shape the way ``solve_lp`` lays it out: one
    column per nonnegative variable (two per free one), one slack per
    inequality row, one artificial per row, and the right-hand side.
    """
    ncols = 0
    extra_rows = 0
    for lo, hi in lp.bounds:
        lo = -math.inf if lo is None else lo
        hi = math.inf if hi is None else hi
        ncols += 2 if (lo == -math.inf and hi == math.inf) else 1
        if lo > -math.inf and hi < math.inf:
            extra_rows += 1
    m = len(lp.rows) + extra_rows
    nslack = extra_rows + sum(1 for _, rel, _ in lp.rows if rel != "=")
    return 8 * m * (ncols + nslack + m + 1)


class Tracer:
    """Records spans and layer counters while installed.

    ``problem`` tags new spans with the problem being run; ``reset`` starts
    a new pass.  Counters not derivable from span names (LP shapes, ``inf``
    results, pairs on entry to ``iterate``) are kept in ``counts``.
    """

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.problem = None
        self._stack = []
        self._saved = []

    def reset(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span; exceptions are counted and re-raised."""
        index = len(self.spans)
        record = [name, _clock(), 0.0, self._stack[-1] if self._stack else -1,
                  self.problem]
        self.spans.append(record)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        except BaseException:
            self.counts["errors." + name] += 1
            raise
        finally:
            self._stack.pop()
            record[2] = _clock()

    def install(self):
        """Patch every site in ``PATCH_SITES`` (the modules are imported)."""
        for name, module_name, attr in PATCH_SITES:
            module = sys.modules[module_name]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved = []

    def _wrap(self, name, fn):
        tracer = self
        if name == "simplex.solve_lp":
            def wrapper(lp, *args, **kwargs):
                outcome = tracer.span(name, fn, lp, *args, **kwargs)
                counts = tracer.counts
                counts["rows"] += len(lp.rows)
                counts["cols"] += len(lp.objective)
                counts["tableau_bytes"] += tableau_bytes(lp)
                if outcome.status == "infeasible":
                    counts["infeasible"] += 1
                return outcome
        elif name.startswith("membership."):
            def wrapper(*args, **kwargs):
                t = tracer.span(name, fn, *args, **kwargs)
                if math.isinf(t):
                    tracer.counts["membership_inf"] += 1
                return t
        elif name == "engine.iterate":
            def wrapper(state, *args, **kwargs):
                tracer.counts["pairs"] += len(state.R)
                tracer.span(name, fn, state, *args, **kwargs)
                tracer.counts["new_vertices"] += len(state.U)
        elif name == "cone.negotiate":
            def wrapper(*args, **kwargs):
                extension = tracer.span(name, fn, *args, **kwargs)
                if extension is not None:
                    tracer.counts["cone_accepted"] += 1
                return extension
        else:
            def wrapper(*args, **kwargs):
                return tracer.span(name, fn, *args, **kwargs)
        return wrapper

    def self_times(self):
        """Self seconds per span name over the recorded spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += (end - start) - child[i]
        return totals

    def names(self):
        counts = defaultdict(int)
        for record in self.spans:
            counts[record[0]] += 1
        return counts

    def lps_under(self, ancestor):
        """Number of LP spans nested anywhere inside ``ancestor``."""
        inside = [False] * len(self.spans)
        total = 0
        for i, (name, _, _, parent, _) in enumerate(self.spans):
            inside[i] = name == ancestor or (parent >= 0 and inside[parent])
            if name == "simplex.solve_lp" and inside[i]:
                total += 1
        return total

    def layer_metrics(self, cert_bytes: int, rejected: int):
        """Per-pass layer metrics from the spans and counters of one pass."""
        n = self.names()
        selfs = self.self_times()
        c = self.counts
        lps = n["simplex.solve_lp"]
        pairs = c["pairs"]
        return {
            "simplex.lps": lps,
            "simplex.lp_s": selfs["simplex.solve_lp"],
            "simplex.rows_mean": c["rows"] / lps if lps else 0.0,
            "simplex.cols_mean": c["cols"] / lps if lps else 0.0,
            "simplex.tableau_mb": (c["tableau_bytes"] / lps / 2 ** 20
                                   if lps else 0.0),
            "simplex.infeasible": c["infeasible"],
            "simplex.errors": c["errors.simplex.solve_lp"],
            "membership.calls_P": n["membership.P"],
            "membership.calls_R": n["membership.R"],
            "membership.calls_L": n["membership.L"],
            "membership.calls_ext": n["membership.ext"],
            "membership.self_s": sum(v for k, v in selfs.items()
                                     if k.startswith("membership.")),
            "membership.inf": c["membership_inf"],
            "engine.iterations": n["engine.iterate"],
            "engine.pairs": pairs,
            "engine.new_vertices": c["new_vertices"],
            "engine.alive_ratio": c["new_vertices"] / pairs if pairs else 0.0,
            "engine.iterate_self_s": selfs["engine.iterate"],
            "candidates.enumerate_s": selfs["candidates.enumerate"],
            "candidates.root_s": selfs["candidates.root"],
            "candidates.restarts": n["candidates.restart"],
            "candidates.restart_s": selfs["candidates.restart"],
            "matrices.word_products": n["matrices.word_matrix"],
            "matrices.word_product_s": selfs["matrices.word_matrix"],
            "matrices.eig_calls": n["matrices.eig"],
            "matrices.eig_s": selfs["matrices.eig"],
            "cone.negotiations": n["cone.negotiate"],
            "cone.negotiate_s": selfs["cone.negotiate"] + selfs["cone.margin"],
            "cone.margin_lps": n["cone.margin"],
            "cone.accepted": c["cone_accepted"],
            "certificates.verify_s": (selfs["certificates.verify"]
                                      + selfs["certificates.margin"]),
            "certificates.verify_lps": self.lps_under("certificates.verify"),
            "certificates.serialize_s": selfs["certificates.serialize"],
            "certificates.deserialize_s": selfs["certificates.deserialize"],
            "certificates.kb": cert_bytes / 1024.0,
            "certificates.rejected": rejected,
        }


def dump(passes, path):
    """Write spans as JSON arrays ``[pass, name, start, end, parent,
    problem]``, one per line; ``parent`` indexes spans of the same pass."""
    with open(path, "w", encoding="utf-8") as handle:
        for number, spans in enumerate(passes):
            for name, start, end, parent, problem in spans:
                handle.write(json.dumps([number, name, start, end, parent, problem]))
                handle.write("\n")
