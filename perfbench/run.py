"""The braidbracket benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload bracket --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload homology --seed 1 --seconds 40 --trace 1
    python3 perfbench/run.py --workload verify --seed 0 --record-digests
    python3 perfbench/selftest.py

One client in one process sends the workload's requests one after another
(a closed loop): ``braidbracket.cli.main(argv)`` for the CLI workloads and
public library calls for the move-engine walks of ``verify``.  A pass
sends the workload's fixed batch once; passes repeat while the next one is expected to end within
``--seconds`` (at least ``MIN_PASSES``).

End-to-end metrics: ``wall_s`` is the median over passes of the batch's
time, the sum of its request latencies; ``op_p50_s`` is the median of all
request latencies of the run and ``op_tail_s`` the highest percentile of
them with at least ten requests beyond it in every run (``MIN_PASSES``
passes), printed with the sample count; ``setup_s`` is the median of
``SETUP_PROBES`` fresh-interpreter set-ups; ``peak_rss_mb`` is the
process's peak resident memory after the passes.  The speed of the shared
2-core machine this was tuned on drifts by 20-45% over phases of seconds
to minutes, so every time is reported in nominal seconds: scaled by the
time of a fixed reference computation run next to it (see
``calibrate.py``).  The info line gives the same figures in measured
seconds (``measured_s``) and the median scale.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics: self times of
the layers' public functions (see ``tracing.py``), counts taken from their
arguments and results, and the tracing overhead.  The spans are written to
``perfbench/out/``.

Every output is checked after the timed passes; a failed request is
counted and never stops the run.  Lines before the last describe the run
(machine, seed, input histogram, percentile used); the last line is the
JSON result.  Without the library sources under ``src/`` the run exits
with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

import calibrate
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
DIGESTS = HERE / "digests.json"

MIN_PASSES = 4         # untraced passes in a --trace 0 run
MIN_TRACED_PASSES = 2  # of each kind in a --trace 1 run
SETUP_PROBES = 7
DEFAULT_SEED = 0
LADDER = (99.9, 99.0, 90.0, 75.0, 50.0)


def load_library():
    """Import braidbracket from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "braidbracket" / "__init__.py").is_file():
        raise ImportError(f"no braidbracket sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import braidbracket
    import braidbracket.cli  # noqa: F401  (the CLI requests call it)

    if SRC not in Path(braidbracket.__file__).resolve().parents:
        raise ImportError(f"braidbracket imported from {braidbracket.__file__}")


def tail_percentile(samples: int) -> float:
    """Highest ladder percentile with at least ten samples beyond it."""
    for p in LADDER:
        if samples * (100.0 - p) / 100.0 >= 10:
            return p
    return LADDER[-1]


def percentile(values, p: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def probe_setup(workload: str, seed: int, tiny: bool):
    """Set-up time measured in a fresh interpreter by ``setup_probe.py``.

    Returns (nominal seconds, measured seconds); the probe times the
    reference right after the set-up.
    """
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    if tiny:
        cmd.append("--tiny")
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
    setup, ref = map(float, done.stdout.split()[-2:])
    return setup * calibrate.NOMINAL_S / ref, setup


class Pass(NamedTuple):
    wall: float        # the batch's time in nominal seconds (see calibrate.py)
    raw_wall: float    # the same in measured seconds
    scale: float       # nominal / measured seconds over the whole pass
    results: list


def run_pass(requests, tracer=None, keep_extra=False) -> Pass:
    """Send the batch once, with a reference call before and after each request.

    A request's latency is scaled by ``calibrate.NOMINAL_S`` over the mean
    time of the two reference calls around it; a pass's wall time is the
    sum of its requests' latencies (the reference calls are not counted).
    """
    results = []
    refs = [calibrate.time_reference()]
    if tracer is not None:
        tracer.install()
    try:
        for i, req in enumerate(requests):
            if tracer is not None:
                tracer.begin_request(i)
            t0 = time.perf_counter()
            try:
                out, code, extra = workloads.execute(req)
                err = None
            except (Exception, SystemExit) as exc:  # counted, never fatal
                out, code, extra = None, None, None
                err = "".join(traceback.format_exception_only(type(exc), exc)).strip()
            latency = time.perf_counter() - t0
            if tracer is not None:
                tracer.end_request()
            refs.append(calibrate.time_reference())
            results.append({"latency": latency,
                            "norm": latency * calibrate.scale(refs[-2:]),
                            "out": out, "code": code, "err": err,
                            "extra": extra if keep_extra else None})
    finally:
        if tracer is not None:
            tracer.uninstall()
    return Pass(sum(r["norm"] for r in results), sum(r["latency"] for r in results),
                calibrate.scale(refs), results)


def count_failures(requests, passes, stored):
    """Check the first pass's outputs; later passes must repeat them exactly.

    Returns (attempted, failed, keys of failed requests).
    """
    first = passes[0].results
    good = []
    for req, res in zip(requests, first):
        good.append(res["err"] is None and workloads.check(
            req, res["out"], res["code"], res["extra"], stored.get(req.key)))
    attempted = failed = 0
    bad_keys = []
    for p in passes:
        for i, res in enumerate(p.results):
            attempted += 1
            same = (res["err"] is None and res["out"] == first[i]["out"]
                    and res["code"] == first[i]["code"])
            if not (good[i] and same):
                failed += 1
                if requests[i].key not in bad_keys:
                    bad_keys.append(requests[i].key)
    return attempted, failed, bad_keys


def layer_metrics(tracers, walls_untraced, walls_traced):
    """Per-layer metrics from the traced passes, keyed by metric name.

    ``tracers`` pairs each traced pass's tracer with the pass's scale to
    nominal seconds; self times are scaled by it.
    """
    names = list(dict.fromkeys(name for name, _, _ in tracing.TARGETS))
    per_pass = []
    overrun = 0
    for tr, scale in tracers:
        selfs = tr.self_times()
        by_name = dict.fromkeys(names, 0)
        request_layers = {}
        request_wall = {}
        for (name, t0, t1, _, request), st in zip(tr.spans, selfs):
            if name == tracing.REQUEST:
                request_wall[request] = t1 - t0
            else:
                by_name[name] += st
                request_layers[request] = request_layers.get(request, 0) + st
        overrun += sum(1 for r, s in request_layers.items() if s > request_wall[r])
        per_pass.append({n: t * scale for n, t in by_name.items()})
    metrics = {}
    for name in names:
        metrics[f"{name}_s"] = (statistics.median(p[name] for p in per_pass) / 1e9, "s")
    tracer = tracers[-1][0]
    counts = tracer.counts
    for name, value in counts.items():
        if name != "bracket.repeat_calls":
            metrics[name] = (value, "count")

    def ratio(a, b):
        return a / b if b else 0.0

    metrics["bracket.us_per_state"] = (
        ratio(metrics["bracket.bracket_br_s"][0] * 1e6, counts["states.states_summed"]), "us")
    metrics["bracket.repeat_ratio"] = (
        ratio(counts["bracket.repeat_calls"], counts["bracket.bracket_br_calls"]), "ratio")
    metrics["moves.site_yield"] = (
        ratio(counts["moves.moves_applied"], counts["moves.sites_found"]), "ratio")
    metrics["trace.overhead_ratio"] = (
        statistics.median(walls_traced) / statistics.median(walls_untraced), "ratio")

    lost = tracer.missing_spans()
    lost_counts = {c for c, span in tracing.COUNTS.items() if span in lost}
    missing = sorted({f"{n}_s" for n in lost} | lost_counts)
    derived = {"bracket.us_per_state": {"bracket.bracket_br_s", "states.states_summed"},
               "bracket.repeat_ratio": {"bracket.bracket_br_calls"},
               "moves.site_yield": {"moves.moves_applied", "moves.sites_found"}}
    missing += sorted(m for m, deps in derived.items() if deps & set(missing))
    for m in missing:
        metrics.pop(m, None)
    bases = {k: counts[k] for k in ("states.states_summed", "bracket.bracket_br_calls",
                                    "bracket.repeat_calls", "moves.sites_found")}
    return metrics, missing, overrun, bases


def histogram(requests):
    hist = {}
    for req in requests:
        key = f"{req.kind}:strands={req.strands},crossings={len(req.letters)}"
        hist[key] = hist.get(key, 0) + 1
    return dict(sorted(hist.items()))


def load_digests(workload, seed, tiny):
    if seed != DEFAULT_SEED or tiny or not DIGESTS.is_file():
        return {}
    return json.loads(DIGESTS.read_text()).get(workload, {})


def record_digests(workload, requests):
    """Store the digest of every output of the default-seed batch."""
    results = run_pass(requests, keep_extra=True).results
    for req, res in zip(requests, results):
        if res["err"] is not None or not workloads.check(
                req, res["out"], res["code"], res["extra"]):
            raise SystemExit(f"not recording: request failed: {req.key}")
    table = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    table[workload] = {req.key: workloads.digest(res["out"])
                       for req, res in zip(requests, results)}
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(requests)} digests for {workload} in {DIGESTS.name}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the self-test")
    parser.add_argument("--record-digests", action="store_true",
                        help="store output digests of the default-seed batch")
    args = parser.parse_args(argv)

    try:
        load_library()
    except ImportError as exc:
        print(f"perfbench: cannot load the library: {exc}", file=sys.stderr)
        return 2
    requests = workloads.generate(args.workload, args.seed, tiny=args.tiny)
    if args.record_digests:
        if args.seed != DEFAULT_SEED or args.tiny:
            parser.error("--record-digests needs the default seed and full size")
        record_digests(args.workload, requests)
        return 0

    setups = [probe_setup(args.workload, args.seed, args.tiny)
              for _ in range(SETUP_PROBES)]

    passes, untraced, traced_passes, tracers = [], [], [], []
    origin_ns = time.perf_counter_ns()
    while True:
        traced = bool(args.trace) and len(traced_passes) < len(untraced)
        tracer = tracing.Tracer() if traced else None
        t0 = time.perf_counter()
        p = run_pass(requests, tracer, keep_extra=not passes)
        took = time.perf_counter() - t0
        passes.append(p)
        (traced_passes if traced else untraced).append(p)
        if traced:
            tracers.append((tracer, p.scale))
        # stop before a pass (a pair of passes when tracing) would end late
        elapsed = (time.perf_counter_ns() - origin_ns) / 1e9
        if args.trace:
            if (len(traced_passes) == len(untraced) >= MIN_TRACED_PASSES
                    and elapsed + 2 * took > args.seconds):
                break
        elif len(passes) >= MIN_PASSES and elapsed + took > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted, failed, bad_keys = count_failures(
        requests, passes, load_digests(args.workload, args.seed, args.tiny))
    correct = failed == 0
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "loop": "closed, 1 client, requests sent one after another",
        "requests_per_pass": len(requests),
        "passes_untraced": len(untraced),
        "passes_traced": len(traced_passes),
        "histogram": histogram(requests),
        "fail_rate": failed / attempted,
        "failed_requests": bad_keys[:10],
    }
    if args.trace == 0:
        tail_p = tail_percentile(MIN_PASSES * len(requests))

        def summary(wall, latency, setup):
            lat = [r[latency] for p in passes for r in p.results]
            return {"setup_s": statistics.median(s[setup] for s in setups),
                    "wall_s": statistics.median(getattr(p, wall) for p in passes),
                    "op_p50_s": statistics.median(lat),
                    "op_tail_s": percentile(lat, tail_p)}

        metrics = {k: (v, "s") for k, v in summary("wall", "norm", 0).items()}
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
        info.update({"tail_percentile": tail_p,
                     "latency_samples": len(passes) * len(requests),
                     "measured_s": summary("raw_wall", "latency", 1),
                     "nominal_per_measured_s": statistics.median(p.scale for p in passes)})
    else:
        metrics, missing, overrun, bases = layer_metrics(
            tracers, [p.wall for p in untraced], [p.wall for p in traced_passes])
        correct = correct and overrun == 0
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
        with open(trace_path, "w", encoding="utf-8") as fh:
            for n, (tr, _) in enumerate(tracers):
                tr.write(fh, n, origin_ns)
        info.update({"missing": missing, "self_time_overruns": overrun,
                     "ratio_bases": bases,
                     "spans_file": str(trace_path.relative_to(ROOT)),
                     "spans": sum(len(tr.spans) for tr, _ in tracers)})
    print("perfbench " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
