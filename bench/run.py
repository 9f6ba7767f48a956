"""chainlife benchmark: seeded CLI workloads, checked outputs, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Run from the repository root.  With --trace 0 it prints the end-to-end
metrics, with --trace 1 the per-layer metrics of a traced run; "all" runs
every workload both ways.  The last stdout line is one JSON object with the
keys correct, attempted, failed and metrics; the lines before it are a
readable report with units, sample counts and the environment.  Work files go
to .bench_run/ at the root.  Exit code 2 means the program sources are
missing, 1 that the checker's self-test or the workload process failed.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

import selftest
import workloads
from check import Checker

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"

MIN_PASSES = 5        # sets the tail percentile, see _tail
MAX_PASSES = 100      # bounds the output files one run leaves to check
TRACE_PASSES = 3
SETUP_SAMPLES = 15
TAIL_BEYOND = 10
WORKER_TIMEOUT_S = 170
BLAS_PIN = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def _env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), **BLAS_PIN)
    env.pop("PYTHONSTARTUP", None)
    return env


# ---------------------------------------------------------------------------
# plan, worker, checks

def _prepare(workload: str, seed: int, trace: bool) -> tuple[dict, list, Path]:
    run_dir = WORK / workload
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "in").mkdir(parents=True)
    (run_dir / "out").mkdir()
    sets = [workloads.input_set(workload, seed, k) for k in range(workloads.INPUT_SETS)]
    plan_sets = []
    for k, inset in enumerate(sets):
        for key, doc in inset.inputs.items():
            with open(run_dir / "in" / f"s{k}-{key}.json", "w", encoding="utf-8") as handle:
                json.dump(doc, handle)
        plan_sets.append([
            {
                "name": op.name,
                "argv": [op.command, "--input", str(run_dir / "in" / f"s{k}-{op.input}.json"),
                         "--output", "{output}", "--format", op.fmt, *op.extra],
                "output": str(run_dir / "out" / f"p{{p:03d}}-{op.name}.{op.fmt}"),
            }
            for op in inset.ops
        ])
    plan = {
        "src": str(SRC),
        "mode": "trace" if trace else "plain",
        "setup_samples": SETUP_SAMPLES,
        "min_passes": MIN_PASSES,
        "max_passes": MAX_PASSES,
        "trace_passes": TRACE_PASSES,
        "sets": plan_sets,
        "results": str(run_dir / "worker.json"),
        "spans": str(run_dir / "spans.bin"),
        "ladder": _ladder_inputs(seed) if trace else None,
    }
    return plan, sets, run_dir


def _ladder_inputs(seed: int) -> dict:
    rng = random.Random(f"ladder:{seed}")
    lam = rng.uniform(0.2, 0.8)
    sizes = (10, 100, 1000, 10000)
    return {
        "terms": [[lam, rng.uniform(1.0, 2.0)], [1.0 - lam, rng.uniform(2.0, 3.0)]],
        "volumes": {n: workloads.unit_region_volumes(rng, n) for n in sizes},
        "shifts": {n: [rng.uniform(-1e-4, 1e-4) for _ in range(n)] for n in sizes},
    }


def run_worker(plan: dict, run_dir: Path, seconds: int) -> dict:
    plan = dict(plan, seconds=seconds)
    plan_path = run_dir / "plan.json"
    with open(plan_path, "w", encoding="utf-8") as handle:
        json.dump(plan, handle)
    # a session of its own, so that a timeout also ends the interpreters the
    # worker starts to time set-up
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).with_name("worker.py")), str(plan_path)],
        cwd=ROOT, env=_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        _, stderr = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"workload process still running after {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"workload process exited {proc.returncode}: {stderr[-2000:]}")
    with open(plan["results"], encoding="utf-8") as handle:
        return json.load(handle)


def _known_failures(workload: str) -> dict[str, str]:
    with open(Path(__file__).with_name("known_failures.json"), encoding="utf-8") as handle:
        rows = json.load(handle)
    return {row["op"]: row["defect"] for row in rows if row["workload"] == workload}


def check_records(sets: list, records: list) -> tuple[list, Checker]:
    """Failed ops as (record, reason); the checker keeps accuracy readings."""
    checker = Checker()
    ops = [{op.name: op for op in inset.ops} for inset in sets]
    failed = []
    for rec in records:
        op = ops[rec["set"]][rec["name"]]
        reason = checker.check(op, sets[rec["set"]].inputs[op.input], rec)
        if reason is not None:
            failed.append((rec, reason))
    return failed, checker


# ---------------------------------------------------------------------------
# metrics

def _p50(records: list) -> float:
    """Median op latency: the median over the workload's ops of each op's
    mean latency over the passes.

    Every op contributes one sample per pass, so in the pooled samples the
    50th percentile falls on the edge between two ops' blocks and reads the
    slowest sample of one op or the fastest of the next: extremes.  The
    machine's speed drifts by a fifth over tens of seconds, so an op's
    samples cluster by the spell they ran in; a mean follows the share of
    time spent in each spell smoothly where a median would jump between them.
    """
    by_op: dict[str, list[float]] = {}
    for rec in records:
        by_op.setdefault(rec["name"], []).append(rec["latency"])
    return statistics.median(statistics.fmean(samples) for samples in by_op.values())


def _tail(latencies: list[float], ops_per_pass: int) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the op-latency tail.

    The percentile is fixed per workload: the highest one with at least ten
    samples beyond it at MIN_PASSES passes, moved to the middle of one op's
    block of samples (every op contributes one sample per pass).  A fixed
    percentile keeps the tail on the same op when a faster program fits more
    passes in a run; the middle of a block keeps it off the edge between two
    ops, where run-to-run noise would decide which op it reads.
    """
    blocks = math.ceil(TAIL_BEYOND / MIN_PASSES) + 0.5
    fraction = max(0.5, 1.0 - blocks / ops_per_pass)
    ordered = sorted(latencies)
    rank = math.ceil(fraction * len(ordered))
    return ordered[rank - 1], 100.0 * fraction, len(ordered) - rank


def _environment(seed: int, workload: str, numpy_version: str) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        top, commit = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.splitlines() or (None, None)
    except (OSError, subprocess.SubprocessError, ValueError):
        top = commit = None
    if top is None or Path(top).resolve() != ROOT:  # not a checkout of its own
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "chainlife").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        why = {w["name"]: w["why"] for w in json.load(handle)["workloads"]}
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas_threads": BLAS_PIN,
        "seed": seed,
        "git_commit": commit or "none (not a git checkout)",
        "source_sha256": digest.hexdigest(),
        "workload": workload,
        "why": why.get(workload, ""),
        "load": "closed loop, one client in one process, in-process chainlife.cli.main calls",
    }


def end_to_end(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    plan, sets, run_dir = _prepare(workload, seed, trace=False)
    result = run_worker(plan, run_dir, seconds)
    setup = result["setup"]
    failed, _ = check_records(sets, result["records"])
    latencies = [rec["latency"] for rec in result["records"]]
    tail, percentile, beyond = _tail(latencies, len(sets[0].ops))
    attempted = len(latencies)
    metrics = {
        "setup_s": (statistics.median(setup), "s", f"median of {len(setup)} fresh imports spread over "
                    f"the run; bare interpreter {result['bare']:.4f} s"),
        "run_s": (statistics.fmean(p["seconds"] for p in result["passes"]), "s",
                  f"mean of {len(result['passes'])} passes"),
        "op_p50_s": (_p50(result["records"]), "s",
                     f"median over {len(sets[0].ops)} ops of each op's mean; {attempted} samples"),
        "op_tail_s": (tail, "s", f"p{percentile:g}: {beyond} of {attempted} samples beyond"),
        "ok_ratio": (1.0 - len(failed) / attempted, "ratio",
                     f"fail_ratio {len(failed) / attempted:.6g} = {len(failed)} of {attempted} ops"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "MB", "worker process"),
    }
    return _outcome(workload, seed, result, failed, metrics, run_dir, trace=False)


def per_layer(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    plan, sets, run_dir = _prepare(workload, seed, trace=True)
    result = run_worker(plan, run_dir, seconds)
    failed, checker = check_records(sets, result["records"])
    names = result["trace"]["names"]
    k = float(TRACE_PASSES)

    def layer(prefix: str, field: str = "self_s") -> float:
        return sum(row[field] for name, row in names.items()
                   if name.split(":")[0] == prefix) / k

    intervals = names.get("perturbed.interval:numeric_d_interval", {}).get("calls", 0)
    plain = sum(p["seconds"] for p in result["passes"] if not p["traced"])
    traced = sum(p["seconds"] for p in result["passes"] if p["traced"])
    per = f"per pass, mean of {TRACE_PASSES} traced passes"
    metrics = {
        "cli.ops": (layer("cli", "calls"), "count", per),
        "cli.self_s": (layer("cli"), "s", per),
        "documents.parse_s": (layer("documents.parse"), "s", per),
        "documents.emit_s": (layer("documents.emit"), "s", per),
        "documents.bytes_out": (layer("documents.emit", "value"), "B", per),
        "regular.solve_s": (layer("regular.solve"), "s", per),
        "regular.bounds_s": (layer("regular.bounds"), "s", per),
        "regular.calls": (layer("regular.solve", "calls") + layer("regular.bounds", "calls"),
                          "count", per),
        "perturbed.solve_s": (layer("perturbed.solve"), "s", per),
        "perturbed.interval_s": (layer("perturbed.interval"), "s", per),
        "perturbed.assemble_s": (layer("perturbed.assemble"), "s", per),
        "perturbed.systems": (layer("perturbed.assemble", "calls"), "count", per),
        "perturbed.probes_per_interval": (
            result["trace"]["interval_probes"] / intervals if intervals else 0.0,
            "probes/interval", f"{intervals / k:g} intervals per pass"),
        "cost.calls": (layer("cost", "calls"), "count", per),
        "cost.busy_s": (layer("cost"), "s", per),
        "oracle.formulate_s": (layer("oracle.formulate"), "s", per),
        "oracle.solve_s": (layer("oracle.solve"), "s", per),
        "oracle.pivots": (layer("oracle.solve", "value"), "count", per + "; solves that returned"),
        "oracle.instances": (layer("oracle.solve", "calls"), "count", per),
        "oracle.bad_rows": ((result["trace"]["bad_rows"]
                             + sum(row["raised"] for name, row in names.items()
                                   if name.startswith("oracle.solve:"))) / k,
                            "count", per + "; non-optimal verify rows plus stalls"),
        "check.max_energy_spread": (checker.max_energy_spread, "ratio", "checker, all ops"),
        "check.max_flow_error": (checker.max_flow_error, "ratio", "checker, all ops"),
        "trace.overhead_ratio": (traced / plain, "ratio",
                                 f"{TRACE_PASSES} traced over {TRACE_PASSES} untraced passes"),
    }
    skipped = failed_sizes = 0
    for name, data in result["ladder"].items():
        for row in data["sizes"]:
            ok = row["status"] == "ok"
            skipped += row["status"].startswith("skipped")
            failed_sizes += row["status"].startswith("failed")
            metrics[f"{name}.n{row['n']}_s"] = (
                row["seconds"] if ok else -1.0, "s",
                f"median of {row['samples']} calls" if ok else row["status"] + " (-1 = not measured)")
        exp = data["scale_exp"]
        metrics[f"{name}.scale_exp"] = (-1.0 if exp is None else exp, "exp",
                                        "log-log slope over sizes >= 100 when two were measured")
    metrics["ladder.skipped"] = (float(skipped), "count", "sizes over the per-call cap")
    metrics["ladder.failed"] = (float(failed_sizes), "count", "sizes that raised")
    return _outcome(workload, seed, result, failed, metrics, run_dir, trace=True)


def _outcome(workload, seed, result, failed, metrics, run_dir, trace) -> tuple[dict, dict]:
    known = _known_failures(workload)
    unexpected = [rec for rec, _ in failed if rec["name"] not in known]
    line = {
        "correct": not unexpected,
        "attempted": len(result["records"]),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    report = {
        "environment": _environment(seed, workload, result["numpy"]),
        "trace": trace,
        "metrics": {name: {"value": v, "unit": u, "note": note}
                    for name, (v, u, note) in metrics.items()},
        "failures": [{"pass": rec["pass"], "op": rec["name"], "known": known.get(rec["name"]),
                      "reason": reason} for rec, reason in failed],
        "no_wait_metrics": "single-threaded program without queues: no layer waits on another",
    }
    if trace:
        report["ladder"] = result["ladder"]
        report["spans_file"] = str((run_dir / "spans.bin").relative_to(ROOT))
    with open(run_dir / f"result-seed{seed}-trace{int(trace)}.json", "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
    return line, report


def _print_report(workload: str, report: dict, line: dict) -> None:
    env = report["environment"]
    print(f"== {workload}  seed {env['seed']}  trace {int(report['trace'])}")
    print(f"   why: {env['why']}")
    print(f"   env: {env['cpu']}; nproc {env['nproc']}; python {env['python']}; "
          f"numpy {env['numpy']}; BLAS threads 1; commit {env['git_commit']}; "
          f"src sha256 {env['source_sha256'][:12]}")
    for name, m in report["metrics"].items():
        print(f"   {name:<34} {m['value']:<14.6g} {m['unit']:<16} {m['note']}")
    grouped: dict[str, list] = {}
    for fail in report["failures"]:
        grouped.setdefault(fail["op"], []).append(fail)
    for op, fails in grouped.items():
        tag = "known defect" if fails[0]["known"] else "UNEXPECTED"
        print(f"   failed op ({tag}) {op} in {len(fails)} passes: {fails[0]['reason']}")
    if report["trace"]:
        print(f"   waits: none measured, {report['no_wait_metrics']}")
    print(f"   correct {line['correct']}; {line['failed']} of {line['attempted']} ops failed")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "chainlife" / "cli.py").is_file():
        print(f"error: no chainlife sources under {SRC}", file=sys.stderr)
        return 2
    problems = selftest.run(WORK / "selftest")
    if problems:
        print("error: checker self-test failed: " + "; ".join(problems), file=sys.stderr)
        return 1
    runs = ([(w, t) for w in workloads.WORKLOADS for t in (False, True)]
            if args.workload == "all" else [(args.workload, bool(args.trace))])
    lines = []
    try:
        for workload, trace in runs:
            measure = per_layer if trace else end_to_end
            line, report = measure(workload, args.seed, args.seconds)
            _print_report(workload, report, line)
            lines.append((workload, line))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(lines) == 1:
        print(json.dumps(lines[0][1]))
    else:
        print(json.dumps({
            "correct": all(line["correct"] for _, line in lines),
            "attempted": sum(line["attempted"] for _, line in lines),
            "failed": sum(line["failed"] for _, line in lines),
            "metrics": {f"{w}/{name}": m for w, line in lines for name, m in line["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
