"""Benchmark of the cobwebs package: seeded closed-loop workloads.

Usage (from the repository root):

    python3 bench/run.py --workload cobweb-session --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --seed 1 --seconds 30      # every workload in turn

Workloads (see ``workloads.py``):

    cobweb-session  library calls on complete cobwebs, one session per poset
    general-dag     library calls on inputs with no cobweb closed form
    cli-oneshot     one ``python -m cobwebs.cli`` process per request

Each run is a single client in a closed loop: it sends the next request of
the seeded list when the previous one has returned, in whole decks until
``--seconds`` seconds and at least 100 requests have passed, and checks
every answer against an independent oracle outside the timed call.  With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it runs
the first deck with the span wrappers of ``spans.py`` and without them,
group by group, and prints the per-layer metrics and the tracing overhead.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full result, with the input manifest and
an environment stamp, goes to ``.bench_out/`` in the repository root.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from itertools import cycle  # noqa: E402
from typing import Optional  # noqa: E402

import metrics  # noqa: E402
import spans  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

MIN_REQUESTS = 100  # so that at least 10 samples lie above the 90th percentile
SETUP_ROUNDS = 3
WARMUP_SEED = 0
# Decks generated per run: enough that a run at the current speed does not
# wrap around; a faster program cycles through them again.
DECK_COUNT = {"cobweb-session": 4, "general-dag": 16, "cli-oneshot": 12}


@dataclass
class Tally:
    latencies: list[float] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    per_kind: dict[str, list[float]] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)


def execute(groups, tally: Tally, tracer=None, limit: Optional[int] = None) -> None:
    """Send the groups' requests one after another, at most ``limit`` of them.

    Only ``call`` is timed; a raised exception or an oracle mismatch counts
    as a failed request.
    """
    for group in groups:
        state: dict = {}
        for req in group.requests:
            if limit is not None and tally.attempted >= limit:
                return
            if tracer is not None:
                tracer.request = str(tally.attempted)
                idx = tracer.begin(f"request.{req.kind}")
            t0 = time.perf_counter()
            try:
                answer, problem = req.call(state), None
            except Exception as exc:  # a program failure is a measured outcome
                answer, problem = None, f"raised {type(exc).__name__}: {exc}"
            tally.latencies.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.end(idx)
            tally.per_kind.setdefault(req.kind, []).append(tally.latencies[-1])
            if problem is None:
                try:
                    problem = req.check(answer, state)
                except Exception as exc:  # a malformed answer can break the check
                    problem = f"check raised {type(exc).__name__}: {exc}"
            if problem:
                tally.errors.append(f"request {tally.attempted - 1} {req.kind}: {problem}")


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def _blas() -> dict:
    import ctypes

    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                      "numpy.libs", "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.restype = ctypes.c_int
                threads = getter()
                break
    return {"name": info.get("name"), "version": info.get("version"), "threads": threads,
            "env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                               "MKL_NUM_THREADS") if k in os.environ}}


def _git_commit() -> Optional[str]:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _cpu_model() -> Optional[str]:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment() -> dict:
    """Where and on what the run happened, so a busy or different host shows."""
    import numpy as np

    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "cobwebs", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(os.path.basename(path).encode() + fh.read())
    return {"git_commit": _git_commit(), "source_sha256": digest.hexdigest(),
            "python": platform.python_version(), "numpy": np.__version__, "blas": _blas(),
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(), "loadavg_start": list(os.getloadavg())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="a workload name, or 'all' to run each in its own process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "cobwebs")):
        print(f"error: no cobwebs package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads  # imports numpy and cobwebs, which setup_s counts

    if args.workload == "all":
        status = 0
        for name in workloads.WORKLOADS:
            argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(args.trace)]
            status = max(status, subprocess.run(argv, cwd=ROOT).returncode)
        return status

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - STARTED
    env = environment()

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        cli = workloads.CliRunner(ROOT, workdir) if args.workload == "cli-oneshot" else None
        rounds = []
        for _ in range(SETUP_ROUNDS):
            t0 = time.perf_counter()
            decks = workloads.generate(args.workload, args.seed, DECK_COUNT[args.workload],
                                       cli=cli)
            # One untimed pass over a tiny deck; for cli-oneshot one request,
            # since each CLI request starts a fresh process anyway.
            execute(workloads.generate(args.workload, WARMUP_SEED, 1, tiny=True, cli=cli)[0],
                    Tally(), limit=1 if cli is not None else None)
            rounds.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(rounds)
        run = measure if args.trace == 0 else measure_traced
        result = run(args, decks, cli)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env["loadavg_end"] = list(os.getloadavg())
    tally: Tally = result.pop("tally")
    if args.trace == 0:
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
        result["setup"] = {"import_s": import_s, "rounds_s": rounds}
    all_groups = [g for deck in decks for g in deck]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env,
        "manifest": {**workloads.manifest(args.seed, all_groups),
                     "executed_per_kind": {
                         k: {"requests": len(v), "median_ms": statistics.median(v) * 1000,
                             "total_s": sum(v)} for k, v in sorted(tally.per_kind.items())}},
        "attempted": tally.attempted, "failed": len(tally.errors),
        "error_rate": len(tally.errors) / tally.attempted,
        "errors": tally.errors[:50], **result,
    }
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)

    names = [m.name for m in (metrics.END_TO_END if args.trace == 0 else metrics.PER_LAYER)]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"digest {record['manifest']['digest'][:16]}")
    print(f"  error_rate = {record['error_rate']} ({len(tally.errors)} of "
          f"{tally.attempted} requests)")
    for problem in tally.errors[:5]:
        print(f"  failed: {problem}")
    for name in names:
        m = result["metrics"][name]
        note = f"  ({m['note']})" if "note" in m else ""
        print(f"  {name} = {m['value']:.6g} {m['unit']}{note}")
    print(f"  full result: {os.path.relpath(path, ROOT)}")
    final = {"correct": not tally.errors, "attempted": tally.attempted,
             "failed": len(tally.errors),
             "metrics": {n: {"value": result["metrics"][n]["value"],
                             "unit": result["metrics"][n]["unit"]} for n in names}}
    print(json.dumps(final))
    return 0


def measure(args, decks, cli) -> dict:
    """Untraced closed loop over whole decks until ``--seconds`` have passed.

    Stopping only between decks keeps the mix of cheap and costly requests
    the same from run to run, whatever the seed's order within a deck.  The
    run is cut into windows of whole decks holding at least MIN_REQUESTS
    requests; throughput and the median latency are medians over windows,
    so a burst of load on the host during one window does not move them.
    The 90th percentile is taken over all requests, for its sample count.
    """
    tally = Tally()
    t0 = time.perf_counter()
    cuts = [0]
    for deck in cycle(decks):
        execute(deck, tally)
        if tally.attempted - cuts[-1] >= MIN_REQUESTS:
            cuts.append(tally.attempted)
        if time.perf_counter() - t0 >= args.seconds and tally.attempted >= MIN_REQUESTS:
            break
    cuts[-1] = tally.attempted  # a short last window joins the one before
    wall_s = time.perf_counter() - t0
    ms = [v * 1000 for v in tally.latencies]
    windows = [ms[a:b] for a, b in zip(cuts, cuts[1:])]
    p90 = statistics.quantiles(ms, n=10)[-1]
    per_window = f"median of {len(windows)} windows of {min(map(len, windows))}+ requests"
    values = {
        "throughput_rps": (statistics.median(len(w) * 1000 / sum(w) for w in windows),
                           f"{per_window}; {tally.busy_s:.2f} s of request time, "
                           f"{wall_s:.2f} s wall"),
        "latency_p50_ms": (statistics.median(statistics.median(w) for w in windows),
                           per_window),
        "latency_p90_ms": (p90, f"{len(ms)} requests, {sum(v > p90 for v in ms)} above"),
        "peak_rss_mb": (peak_rss_mb(children=cli is not None),
                        "children" if cli is not None else "benchmark process"),
    }
    units = {m.name: m.unit for m in metrics.END_TO_END}
    return {"tally": tally, "wall_s": wall_s, "window_cuts": cuts, "latencies_ms": ms,
            "metrics": {k: {"value": v, "unit": units[k], "note": note}
                        for k, (v, note) in values.items()}}


def measure_traced(args, decks, cli) -> dict:
    """Passes over the first deck, each group run traced and untraced in turn.

    Alternating per group, with the order flipped each time, exposes both
    runs to the same host conditions, so their difference is the tracing
    overhead rather than drift.  Passes repeat while one more would still
    fit in ``--seconds`` of request time.
    """
    tracer = spans.Tracer()
    traced, plain = Tally(), Tally()

    def run_traced(group) -> None:
        uninstall = spans.install(tracer)
        if cli is not None:
            cli.tracer = tracer
        try:
            execute([group], traced, tracer=tracer)
        finally:
            uninstall()
            if cli is not None:
                cli.tracer = None

    passes = 0
    while passes == 0 or (traced.busy_s + plain.busy_s) * (passes + 1) / passes <= args.seconds:
        for i, group in enumerate(decks[0]):
            if (i + passes) % 2:
                execute([group], plain)
                run_traced(group)
            else:
                run_traced(group)
                execute([group], plain)
        passes += 1
    tracer.write(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-spans.jsonl"))

    derived = spans.per_layer(tracer.spans, passes)
    derived["trace.overhead_pct"] = (traced.busy_s / plain.busy_s - 1) * 100
    tally = Tally(traced.latencies + plain.latencies, traced.errors + plain.errors,
                  {k: traced.per_kind.get(k, []) + plain.per_kind.get(k, [])
                   for k in set(traced.per_kind) | set(plain.per_kind)})
    return {"tally": tally, "passes": passes, "spans": len(tracer.spans),
            "traced_busy_s": traced.busy_s, "untraced_busy_s": plain.busy_s,
            "metrics": {m.name: {"value": derived.get(m.source or m.name, 0), "unit": m.unit}
                        for m in metrics.PER_LAYER}}


if __name__ == "__main__":
    sys.exit(main())
