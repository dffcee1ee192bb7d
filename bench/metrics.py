"""The benchmark's metric definitions, which ``BENCHMARK.json`` mirrors.

End-to-end metrics are measured with tracing off.  Per-layer metrics come
from a separate traced run; each names the end-to-end metric it should
move and the workload it should move on, with the workloads where it
should stay near zero in parentheses.  Per-layer counts, times and bytes
are totals over one pass of the traced request list.  "computed" figures
come from array shapes, not from hardware counters.
"""

from __future__ import annotations

from typing import NamedTuple


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float


class Layer(NamedTuple):
    name: str
    unit: str
    better: str
    moves: str
    on: str
    source: str = ""  # key in spans.per_layer output when it differs from name


END_TO_END = (
    # requests per second of request time, median over windows of 100+ requests
    EndToEnd("throughput_rps", "1/s", "higher", 0.25),
    # median wall time per request, median over the same windows
    EndToEnd("latency_p50_ms", "ms", "lower", 0.25),
    # 90th percentile wall time over all requests, at least 10 samples above
    EndToEnd("latency_p90_ms", "ms", "lower", 0.25),
    # import plus the median of three rounds of input generation and warm-up
    EndToEnd("setup_s", "s", "lower", 0.25),
    # ru_maxrss of the benchmark process, or of its children for cli-oneshot
    EndToEnd("peak_rss_mb", "MB", "lower", 0.1),
)

_LIB = "cobweb-session, general-dag (cli-oneshot)"
_CLI = "cli-oneshot (cobweb-session, general-dag)"
_SESSION = "cobweb-session (general-dag except count_paths)"
_DAG = "general-dag (cobweb-session)"

PER_LAYER = (
    Layer("boolmat.bool_product.calls", "count", "lower", "throughput_rps", _LIB),
    Layer("boolmat.bool_product.self_ms", "ms", "lower", "throughput_rps, latency_p50_ms", _LIB),
    Layer("boolmat.bool_product.ops_computed", "ops", "lower", "throughput_rps", _LIB),
    Layer("boolmat.bool_product.bytes_computed", "B", "lower", "throughput_rps", _LIB),
    Layer("boolmat.closure_series.calls", "count", "lower", "throughput_rps", _LIB),
    Layer("boolmat.closure_series.self_ms", "ms", "lower", "throughput_rps, latency_p50_ms", _LIB),
    Layer("boolmat.closure_series.products_per_call", "ratio", "lower", "throughput_rps", _LIB),
    Layer("boolmat.int_power.calls", "count", "lower", "latency_p90_ms",
          "cobweb-session tail (cli-oneshot)"),
    Layer("boolmat.int_power.self_ms", "ms", "lower", "latency_p90_ms, peak_rss_mb",
          "cobweb-session tail (cli-oneshot)"),
    Layer("boolmat.int_power.ops_computed", "ops", "lower", "latency_p90_ms",
          "cobweb-session tail (cli-oneshot)"),
    Layer("boolmat.int_matrix.self_ms", "ms", "lower", "latency_p90_ms, peak_rss_mb",
          "cobweb-session tail (cli-oneshot)"),
    Layer("boolmat.to_text.self_ms", "ms", "lower", "latency_p50_ms", _CLI),
    Layer("boolmat.to_text.bytes_out", "B", "lower", "latency_p50_ms", _CLI),
    Layer("digraph.Poset.self_ms", "ms", "lower", "throughput_rps",
          "general-dag, cli-oneshot (cobweb-session)"),
    Layer("digraph.transitive_closure.self_ms", "ms", "lower", "throughput_rps", _DAG),
    Layer("digraph.transitive_reduction.self_ms", "ms", "lower", "throughput_rps", _DAG),
    Layer("digraph.global_adjacency.self_ms", "ms", "lower", "throughput_rps", _DAG),
    Layer("digraph.to_dot.self_ms", "ms", "lower", "latency_p50_ms", "cli-oneshot"),
    Layer("digraph.digraph_to_json.self_ms", "ms", "lower", "latency_p50_ms", "cli-oneshot"),
    Layer("digraph.digraph_from_json.self_ms", "ms", "lower", "latency_p50_ms", "cli-oneshot"),
    Layer("cobweb.zeta_fill.calls", "count", "lower", "throughput_rps, latency_p90_ms", _SESSION),
    Layer("cobweb.zeta_fill.self_ms", "ms", "lower", "throughput_rps, latency_p90_ms", _SESSION),
    Layer("cobweb.count_paths.self_ms", "ms", "lower", "throughput_rps, latency_p90_ms",
          "cobweb-session, general-dag"),
    Layer("cobweb.verify_dim2.self_ms", "ms", "lower", "throughput_rps, latency_p90_ms", _SESSION),
    Layer("cobweb.leq.self_ms", "ms", "lower", "throughput_rps, latency_p90_ms", _SESSION),
    Layer("cobweb.build_cobweb.self_ms", "ms", "lower", "throughput_rps, latency_p90_ms", _SESSION),
    Layer("cobweb.delete_arcs.self_ms", "ms", "lower", "throughput_rps", "general-dag"),
    Layer("cobweb.fibonacci_tree.self_ms", "ms", "lower", "throughput_rps", "general-dag"),
    Layer("ferrers.has_perm2x2.calls", "count", "lower", "throughput_rps", "general-dag"),
    Layer("ferrers.has_perm2x2.self_ms", "ms", "lower", "throughput_rps", "general-dag"),
    Layer("ferrers.has_perm2x2.hit_ratio", "ratio", "higher", "throughput_rps",
          "general-dag; on cobweb-session it is 0 and every scan is wasted work"),
    Layer("ferrers.chain_is_ferrers.self_ms", "ms", "lower", "throughput_rps", "general-dag"),
    Layer("ferrers.is_ferrers.self_ms", "ms", "lower", "latency_p50_ms",
          "cli-oneshot check-ferrers (library workloads)"),
    Layer("ferrers.strict_order_is_ferrers.self_ms", "ms", "lower", "latency_p50_ms",
          "cli-oneshot check-ferrers (library workloads)"),
    Layer("ferrers.staircase_profile.self_ms", "ms", "lower", "throughput_rps",
          "cobweb-session (general-dag)"),
    Layer("njoin.njoin_relations.self_ms", "ms", "lower", "throughput_rps", _DAG),
    Layer("njoin.njoin_relations.tuples_out", "count", "higher", "throughput_rps", _DAG),
    Layer("njoin.compose_relations.self_ms", "ms", "lower", "throughput_rps", _DAG),
    Layer("njoin.is_join_decomposable.self_ms", "ms", "lower", "throughput_rps", _DAG),
    Layer("njoin.njoin_fold.self_ms", "ms", "lower", "throughput_rps", _DAG),
    Layer("njoin.reduced_composition.self_ms", "ms", "lower", "throughput_rps", _DAG),
    Layer("njoin.relation_from_json.self_ms", "ms", "lower", "latency_p50_ms", _CLI),
    Layer("njoin.nary_to_json.self_ms", "ms", "lower", "latency_p50_ms", _CLI),
    Layer("fseq.level_sizes.calls", "count", "lower", "setup_s, latency_p50_ms",
          "none expected; guards generating level sizes under the vertex cap"),
    Layer("fseq.level_sizes.self_ms", "ms", "lower", "setup_s, latency_p50_ms",
          "none expected; guards generating level sizes under the vertex cap"),
    Layer("cli.process_ms", "ms", "lower", "latency_p50_ms, latency_p90_ms", _CLI,
          "cli.process.total_ms"),
    Layer("cli.import_ms", "ms", "lower", "latency_p50_ms, latency_p90_ms", _CLI,
          "cli.import.total_ms"),
    Layer("cli.main.self_ms", "ms", "lower", "latency_p50_ms, latency_p90_ms", _CLI),
    Layer("cli.build_parser.self_ms", "ms", "lower", "latency_p50_ms, latency_p90_ms", _CLI),
    Layer("cli.output_bytes", "B", "lower", "latency_p50_ms, latency_p90_ms", _CLI,
          "cli.process.output_bytes"),
    Layer("trace.overhead_pct", "%", "lower", "none (traced vs untraced throughput_rps)",
          "all"),
)


def benchmark_spec() -> dict:
    """The metric part of ``BENCHMARK.json``."""
    return {
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
                       for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }
