"""Metric names, units and the statistics the benchmark reports.

Shared by run.py (which imports no bicheb code) and worker.py; the
tests hold BENCHMARK.json to these tables.
"""

from __future__ import annotations

WORKLOADS = ("decide_yes", "refuse_scan", "complete_sweep", "multi_fk")

# name -> unit; the end-to-end metrics of the untraced run
END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "ok_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

LAYERS = (
    "scalars", "poly", "roots", "partitions", "bipartite",
    "multipartite", "elliptic", "quadrature", "cli",
)

CHECK_TAGS = (
    "verdict_wrong", "residual_nonzero", "sigma_mismatch", "piece_outside_region",
    "verify_over_tol", "refusal_triple_mismatch", "completion_root_wrong",
    "table_mismatch", "nondeterministic", "raised",
)

PER_PASS = "s/pass"
CALLS = "count/pass"

# name -> unit; the per-layer metrics of the traced run.  Times and
# counts are per pass over the workload's pool of inputs, so they compare
# across versions that finish different numbers of passes in a run.
PER_LAYER = {
    "roots.real_roots.calls": CALLS,
    "roots.real_roots.self_s": PER_PASS,
    "roots.real_roots.roots_out": CALLS,
    "roots.real_roots.exact_ratio": "ratio",
    "roots.real_roots.max_degree": "degree",
    "roots.real_roots.max_coeff_bits": "bits",
    "roots.isolate_squarefree.self_s": PER_PASS,
    "roots.squarefree_decomposition.self_s": PER_PASS,
    "roots.sturm_chain.self_s": PER_PASS,
    "roots.sign_at.calls": CALLS,
    "scalars.simplest_in_interval.calls": CALLS,
    "scalars.simplest_in_interval.self_s": PER_PASS,
    "bipartite.coefficients_from_recurrence.calls": CALLS,
    "bipartite.coefficients_from_recurrence.self_s": PER_PASS,
    "bipartite.build_solution.self_s": PER_PASS,
    "bipartite.compose_outer.self_s": PER_PASS,
    "bipartite.identity_residual.self_s": PER_PASS,
    "bipartite.identity_residual.max_degree": "degree",
    "poly.Poly.__mul__.calls": CALLS,
    "poly.Poly.divmod.calls": CALLS,
    "bipartite.fk_table.hits": CALLS,
    "bipartite.fk_table.misses": CALLS,
    "elliptic.decide.calls": CALLS,
    "elliptic.decide.self_s": PER_PASS,
    "elliptic.decide.divisors_scanned": CALLS,
    "elliptic.sign_regions.self_s": PER_PASS,
    "elliptic.render.self_s": PER_PASS,
    "elliptic.render_refusal.self_s": PER_PASS,
    "elliptic.numeric_check.self_s": PER_PASS,
    "elliptic.complete_coefficient.self_s": PER_PASS,
    "quadrature.integrate_adaptive.calls": CALLS,
    "quadrature.integrate_adaptive.self_s": PER_PASS,
    "partitions.fk_table_by_recurrence.self_s": PER_PASS,
    "partitions.format_fk.self_s": PER_PASS,
    "partitions.distinct_perms.calls": CALLS,
    "partitions.distinct_perms.items": CALLS,
    "multipartite.coefficients_general.self_s": PER_PASS,
    "multipartite.solvability_residuals.self_s": PER_PASS,
    "multipartite.integration_constant.self_s": PER_PASS,
    "cli.main.self_s": PER_PASS,
    **{f"layer.{layer}.self_s": PER_PASS for layer in LAYERS},
    "layer.harness.self_s": PER_PASS,
    "layer.roots.share": "ratio",
    "setup.import_s": "s",
    "setup.inputs_s": "s",
    "setup.warmup_s": "s",
    **{f"check.{tag}": "ratio" for tag in CHECK_TAGS},
    "trace.passes": "count",
    "trace.spans": CALLS,
    "trace.overhead_ratio": "ratio",
}

TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


def percentile(values: list[float], pct: float) -> float:
    """Harrell-Davis estimate of the pct-th percentile (0 < pct < 100).

    A weighted mean of all order statistics with weights from the
    Beta(p (n + 1), (1 - p)(n + 1)) distribution (Harrell and Davis,
    Biometrika 69, 1982).  When machine noise swaps two neighbouring
    samples the estimate moves a little; a single interpolated order
    statistic would jump by the whole gap between them.
    """
    from scipy.special import betainc

    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    p = pct / 100
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [betainc(a, b, i / n) for i in range(n + 1)]
    return float(sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs)))


def tail_percentile(count: int) -> float:
    """Highest ladder percentile with at least ten samples beyond it."""
    for pct in TAIL_LADDER:
        if count * (100 - pct) / 100 >= TAIL_MIN_BEYOND:
            return pct
    return TAIL_LADDER[-1]
