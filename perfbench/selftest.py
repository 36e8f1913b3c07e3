"""Self-test of the benchmark, on tiny inputs.

Run from the repository root: ``python3 perfbench/selftest.py``.  Exits 0
when every check holds:

* each workload prints every metric named in ``BENCHMARK.json`` with its
  unit, traced and untraced, and reports no failed request;
* a corrupted output of each request is counted as a failure;
* traced and untraced passes produce byte-identical outputs, and tracing
  leaves no wrapper behind;
* a traced function that cannot be found is reported missing, not fatal.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def corrupt(kind: str, out: str) -> str:
    """A one-token change to an output that a correct check must notice."""
    if kind == "bracket":  # flip one refined-bracket coefficient
        obj = json.loads(out)
        poly = obj["bracket"]["terms"][0]["poly"]
        e = sorted(poly)[0]
        poly[e] = str(-int(poly[e]))
        return json.dumps(obj, sort_keys=True) + "\n"
    if kind == "homology":  # add one to a Betti number
        obj = json.loads(out)
        obj["groups"][0]["betti"] += 1
        return json.dumps(obj, sort_keys=True) + "\n"
    if kind == "homology_verify":  # report the Euler check as failed
        return out.replace("OK", "FAIL", 1)
    if kind in ("battery", "control"):  # report one check as failed
        return out.replace("true", "false", 1)
    text, code = out[:-1].rsplit("\n", 1)  # rewrite: alter the canonical code
    return text + "\n" + code[:-1] + ("0" if code[-1] != "0" else "1") + "\n"


def check_printed_metrics(workload: str, trace: int) -> None:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result
    assert result["correct"] is True and result["failed"] == 0, result
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in spec), (
        workload, trace, sorted(result["metrics"]))
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m, got)
        assert isinstance(got["value"], (int, float)), (m, got)


def check_corruption_and_tracing(workload: str) -> None:
    requests = workloads.generate(workload, 0, tiny=True)
    plain = run.run_pass(requests, keep_extra=True)
    tracer = tracing.Tracer()
    traced = run.run_pass(requests, tracer, keep_extra=True)
    assert not tracer.missing, tracer.missing
    assert [r["out"] for r in plain.results] == [r["out"] for r in traced.results], workload
    assert run.count_failures(requests, [plain, traced], {})[1] == 0, workload
    for i, (req, res) in enumerate(zip(requests, plain.results)):
        bad = dict(res, out=corrupt(req.kind, res["out"]))
        broken = plain._replace(results=plain.results[:i] + [bad] + plain.results[i + 1:])
        attempted, failed, keys = run.count_failures(requests, [broken], {})
        assert failed == 1 and keys == [req.key], (workload, req.kind, failed, keys)
    import braidbracket.cli
    import braidbracket.diagram
    assert not hasattr(braidbracket.cli.main, "__wrapped__"), "wrapper left installed"
    assert not hasattr(braidbracket.diagram.DiagramBuilder.build, "__wrapped__")


def check_missing_target() -> None:
    requests = workloads.generate("bracket", 0, tiny=True)
    saved = tracing.TARGETS
    tracing.TARGETS = saved + (("diagram.parse", "braidbracket.diagram", "no_such_name"),)
    try:
        tracer = tracing.Tracer()
        traced = run.run_pass(requests, tracer)
    finally:
        tracing.TARGETS = saved
    plain = run.run_pass(requests)
    metrics, missing, overrun, _ = run.layer_metrics(
        [(tracer, traced.scale)], [plain.wall], [traced.wall])
    assert missing == ["diagram.parse_s"], missing
    assert "diagram.parse_s" not in metrics and "bracket.bracket_br_s" in metrics
    assert overrun == 0


def main() -> int:
    run.load_library()
    for workload in workloads.WORKLOADS:
        check_corruption_and_tracing(workload)
        for trace in (0, 1):
            check_printed_metrics(workload, trace)
        print(f"selftest {workload}: ok")
    check_missing_target()
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
