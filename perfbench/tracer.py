"""Per-layer tracing from outside the program.

``Tracer.install`` wraps the public functions of each bicheb layer by
rebinding every module attribute that refers to them (so
``bicheb.elliptic.real_roots`` and ``bicheb.roots.real_roots`` both
reach the wrapper) and two ``Poly`` methods.  Spans (name, start, end,
parent) and counters are kept in memory while ``active`` is set and
written out by ``dump``; ``uninstall`` restores every binding.

A span's self time is its duration minus the durations of its direct
children; the wrappers nest, so children never overlap.  A function
calling itself directly (``simplest_in_interval``) gets one span per
outermost call.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from collections import defaultdict
from fractions import Fraction

from metrics import LAYERS


# (module, function): timed as spans
SPANNED = [
    ("roots", "real_roots"),
    ("roots", "isolate_squarefree"),
    ("roots", "squarefree_decomposition"),
    ("roots", "sturm_chain"),
    ("scalars", "simplest_in_interval"),
    ("bipartite", "coefficients_from_recurrence"),
    ("bipartite", "build_solution"),
    ("bipartite", "compose_outer"),
    ("bipartite", "identity_residual"),
    ("elliptic", "decide"),
    ("elliptic", "sign_regions"),
    ("elliptic", "render"),
    ("elliptic", "render_refusal"),
    ("elliptic", "numeric_check"),
    ("elliptic", "complete_coefficient"),
    ("quadrature", "integrate_adaptive"),
    ("partitions", "fk_table_by_recurrence"),
    ("partitions", "format_fk"),
    ("multipartite", "coefficients_general"),
    ("multipartite", "solvability_residuals"),
    ("multipartite", "integration_constant"),
    ("cli", "main"),
]
# (module, function): call counts only, too frequent for a span each
COUNTED = [("roots", "sign_at"), ("partitions", "distinct_perms")]
# Poly methods, timed as spans (__floordiv__, __mod__ and gcd reach divmod)
POLY_METHODS = ("__mul__", "divmod")


def coeff_bits(p) -> int:
    """Largest numerator or denominator bit length among p's coefficients."""
    best = 0
    for c in p.coeffs:
        c = Fraction(c)
        best = max(best, c.numerator.bit_length(), c.denominator.bit_length())
    return best


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []  # [name index, start, end, parent span index]
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.active = False
        self._patches: list = []  # (owner, attribute, original)

    # -- spans ----------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around harness code, such as one whole operation."""
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, nid: int) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([nid, time.perf_counter(), 0.0, parent])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def _spanned(self, name: str, fn, after=None):
        tracer, nid = self, self._name_id(name)

        def wrapper(*args, **kwargs):
            # a direct recursive call stays inside its caller's span
            if not tracer.active or (tracer.stack and tracer.spans[tracer.stack[-1]][0] == nid):
                return fn(*args, **kwargs)
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name: str, fn, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if tracer.active:
                tracer.counts[name + ".calls"] += 1
                if after is not None:
                    result = after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- per-function extras ------------------------------------------------------

    def _after_real_roots(self, args, roots) -> None:
        p = args[0]
        c = self.counts
        c["roots.real_roots.roots_out"] += len(roots)
        c["roots.real_roots.exact_out"] += sum(1 for r in roots if r.exact)
        c["roots.real_roots.max_degree"] = max(c["roots.real_roots.max_degree"], p.degree)
        c["roots.real_roots.max_coeff_bits"] = max(
            c["roots.real_roots.max_coeff_bits"], coeff_bits(p)
        )

    def _after_identity_residual(self, args, _result) -> None:
        key = "bipartite.identity_residual.max_degree"
        self.counts[key] = max(self.counts[key], args[0].degree)

    def _after_decide(self, _args, out) -> None:
        self.counts["elliptic.decide.divisors_scanned"] += len(out.divisors)

    def _after_distinct_perms(self, _args, seqs):
        if isinstance(seqs, (list, tuple)):
            self.counts["partitions.distinct_perms.items"] += len(seqs)
            return seqs
        return self._counting_iter(seqs)

    def _counting_iter(self, seqs):
        for item in seqs:
            self.counts["partitions.distinct_perms.items"] += 1
            yield item

    # -- installation ---------------------------------------------------------------

    def install(self) -> None:
        mods = {name: sys.modules[f"bicheb.{name}"] for name in LAYERS}
        after = {
            "roots.real_roots": self._after_real_roots,
            "bipartite.identity_residual": self._after_identity_residual,
            "elliptic.decide": self._after_decide,
            "partitions.distinct_perms": self._after_distinct_perms,
        }
        replace = {}
        for mod, fn_name in SPANNED + COUNTED:
            name = f"{mod}.{fn_name}"
            original = getattr(mods[mod], fn_name)
            make = self._spanned if (mod, fn_name) in SPANNED else self._counted
            replace[id(original)] = (original, make(name, original, after.get(name)))
        owners = [m for name, m in sys.modules.items() if name.split(".")[0] == "bicheb"]
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((owner, attr, value))
                    setattr(owner, attr, hit[1])
        poly_cls = mods["poly"].Poly
        for meth in POLY_METHODS:
            original = poly_cls.__dict__[meth]
            self._patches.append((poly_cls, meth, original))
            setattr(poly_cls, meth, self._spanned(f"poly.Poly.{meth}", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ------------------------------------------------------------------------

    def span_stats(self) -> dict[str, dict[str, float]]:
        """Per name: calls, total seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for nid, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for i, (nid, start, end, _parent) in enumerate(self.spans):
            st = stats[self.names[nid]]
            st["calls"] += 1
            st["total_s"] += end - start
            st["self_s"] += end - start - child[i]
        return stats

    def dump(self, path) -> None:
        """Write the names and every span as JSON."""
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh)
