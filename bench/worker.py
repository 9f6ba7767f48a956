"""Workload process: runs a plan of CLI ops in-process through chainlife.cli.main.

run.py starts it as a fresh interpreter, so its peak resident memory is the
workload's own.  It times ops and records what each did; the parent checks
the outputs after this process has ended.

    python3 bench/worker.py PLAN.json

Plain mode repeats passes over the op list (one client, closed loop: each op
starts when the previous one returns) for the plan's seconds, and at least
min_passes times; between passes it times fresh interpreters importing
chainlife.cli (set-up time).  Trace mode alternates an untraced and a traced pass over
the same inputs trace_passes times, then times single layers directly at
growing chain sizes (the size ladder).
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
import threading
import traceback
from time import perf_counter

import reference
from check import file_stat
from spans import Tracer

LADDER_SIZES = (10, 100, 1000, 10000)
ORACLE_SIZES = (5, 10, 20)
CALL_CAP_S = 3.0
REPEAT_BUDGET_S = 0.5


def run_pass(cli, ops: list, pass_index: int, set_index: int, records: list,
             tracer: Tracer | None = None) -> float:
    begin = perf_counter()
    for op in ops:
        output = op["output"].format(p=pass_index)
        argv = [output if arg == "{output}" else arg for arg in op["argv"]]
        pre = file_stat(output)
        err = io.StringIO()
        rc = exc = None
        if tracer is not None:
            tracer.op_id = len(records)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            start = perf_counter()
            try:
                rc = cli.main(argv)
            except (Exception, SystemExit) as error:  # an escaped exception fails the op
                exc = "".join(traceback.format_exception_only(error)).strip()
            latency = perf_counter() - start
        records.append({
            "pass": pass_index, "set": set_index, "name": op["name"], "latency": latency,
            "rc": rc, "exc": exc, "stderr": err.getvalue()[-400:], "output": output,
            "pre": pre, "post": file_stat(output),
        })
    return perf_counter() - begin


def start_seconds(code: str) -> float:
    """Wall time of a fresh interpreter running code, in this process's
    environment (the program's sources on the path, BLAS pinned)."""
    # a blocking wait, not wait(timeout=...), which polls in steps of up to
    # 50 ms and would quantize the reading; a timer kills a hung interpreter
    begin = perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.DEVNULL)
    watchdog = threading.Timer(60.0, proc.kill)
    watchdog.start()
    try:
        rc = proc.wait()
    finally:
        watchdog.cancel()
    elapsed = perf_counter() - begin
    if rc != 0:
        raise RuntimeError(f"python -c {code!r} exited {rc}")
    return elapsed


class _OverCap(Exception):
    pass


def _raise_over_cap(signum, frame):
    raise _OverCap


def _time_call(fn, arg) -> float:
    previous = signal.signal(signal.SIGALRM, _raise_over_cap)
    signal.setitimer(signal.ITIMER_REAL, CALL_CAP_S)
    try:
        start = perf_counter()
        fn(arg)
        return perf_counter() - start
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _slope(points) -> float | None:
    if len(points) < 2:
        return None
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def _predict(measured, n: int) -> float:
    # extrapolate from the last size with the last local exponent, held to
    # [2, 3] so a size that would blow the cap is not even started
    if not measured:
        return 0.0
    exponent = _slope(measured[-2:]) or 3.0
    last_n, last_t = measured[-1]
    return last_t * (n / last_n) ** min(3.0, max(2.0, exponent))


def run_ladder(spec: dict, cl) -> dict:
    from chainlife.cost import build_cost_series, single_exponent_series

    terms = [tuple(t) for t in spec["terms"]]
    series = build_cost_series(terms)
    volumes = {int(n): v for n, v in spec["volumes"].items()}
    shifts = {int(n): v for n, v in spec["shifts"].items()}

    def regular(n):
        return cl.RegularNetwork(n, tuple(volumes[n]), series)

    def solution(n):
        ref = reference.solve(n, volumes[n], terms)
        return cl.EqualEnergySolution(cl.FlowMatrix(n, ref.flows), (ref.energy,) * n, ref.energy)

    def lp(n):
        return cl.oracle.formulate(cl.RegularNetwork(n, (1.0,) * n, single_exponent_series(2.0)))

    layers = {
        "regular.solve": (LADDER_SIZES, regular, cl.flow_closed_form),
        "regular.bounds": (LADDER_SIZES, regular, lambda net: cl.q_i_max(net, max(1, net.n // 2))),
        "perturbed.solve": (
            LADDER_SIZES,
            lambda n: cl.PerturbedNetwork(n, tuple(shifts[n]), tuple(volumes[n]), series),
            cl.solve_equal_energy,
        ),
        "documents.emit": (
            LADDER_SIZES, solution,
            lambda sol: cl.documents.json_dumps(cl.documents.solution_document(sol)),
        ),
        "oracle.solve": (ORACLE_SIZES, lp, cl.oracle.solve),
    }
    out = {}
    for layer, (sizes, build, fn) in layers.items():
        rows, measured = [], []
        for n in sizes:
            row = {"n": n}
            predicted = _predict(measured, n)
            if any(r["status"] != "ok" for r in rows):
                row["status"] = "skipped: a smaller size was skipped or failed"
            elif predicted > CALL_CAP_S:
                row["status"] = f"skipped: predicted {predicted:.3g} s, over the {CALL_CAP_S} s cap"
            else:
                try:
                    arg = build(n)
                    samples = [_time_call(fn, arg)]
                    for _ in range(min(20, int(REPEAT_BUDGET_S / samples[0]))):
                        samples.append(_time_call(fn, arg))
                    row.update(status="ok", seconds=statistics.median(samples),
                               samples=len(samples))
                    measured.append((n, row["seconds"]))
                except _OverCap:
                    row["status"] = f"skipped: over the {CALL_CAP_S} s cap"
                except Exception as error:  # recorded as a failed size, never dropped
                    row["status"] = f"failed: {type(error).__name__}: {error}"
            rows.append(row)
        big = [p for p in measured if p[0] >= 100]
        out[layer] = {"sizes": rows, "scale_exp": _slope(big if len(big) >= 2 else measured)}
    return out


def _peak_rss_kb() -> int:
    # VmHWM covers this process image alone; ru_maxrss would also count the
    # parent's memory, which a spawned child shares until it execs
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(plan_path: str) -> None:
    with open(plan_path, encoding="utf-8") as handle:
        plan = json.load(handle)
    sys.path.insert(0, plan["src"])
    import chainlife
    import chainlife.cli as cli
    import numpy

    sets = plan["sets"]
    records: list = []
    passes: list = []
    summary = ladder = bare = None
    setup: list = []
    if plan["mode"] == "plain":
        start_seconds("import chainlife.cli")  # writes bytecode caches, not timed
        bare = statistics.median(start_seconds("pass") for _ in range(3))
        want, busy, p = plan["setup_samples"], 0.0, 0
        while p < plan["max_passes"] and (p < plan["min_passes"] or busy < plan["seconds"]):
            s = p % len(sets)
            seconds = run_pass(cli, sets[s], p, s, records)
            passes.append({"set": s, "traced": False, "seconds": seconds})
            busy += seconds
            p += 1
            # set-up samples spread evenly over the run, so that they see the
            # same spells of faster and slower machine speed as the passes
            while len(setup) < want * min(1.0, busy / plan["seconds"]):
                setup.append(start_seconds("import chainlife.cli"))
        while len(setup) < want:
            setup.append(start_seconds("import chainlife.cli"))
    else:
        tracer = Tracer()
        for k in range(plan["trace_passes"]):
            s = k % len(sets)
            passes.append({"set": s, "traced": False,
                           "seconds": run_pass(cli, sets[s], 2 * k, s, records)})
            tracer.install(chainlife)
            try:
                seconds = run_pass(cli, sets[s], 2 * k + 1, s, records, tracer)
            finally:
                tracer.uninstall()
            passes.append({"set": s, "traced": True, "seconds": seconds})
        tracer.write(plan["spans"])
        summary = tracer.summary()
        ladder = run_ladder(plan["ladder"], chainlife)
    result = {
        "records": records,
        "passes": passes,
        "peak_rss_kb": _peak_rss_kb(),
        "setup": setup,
        "bare": bare,
        "numpy": numpy.__version__,
        "trace": summary,
        "ladder": ladder,
    }
    with open(plan["results"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main(sys.argv[1])
