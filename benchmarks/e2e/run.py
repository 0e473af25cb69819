"""End-to-end benchmark driver: seven paper workloads on the host clock.

Two ways to run it (both from the repository root)::

    python3 benchmarks/e2e/run.py --seed 0            # the whole suite
    python3 benchmarks/e2e/run.py --workload bft_counter --seed 0 \
        --seconds 10 --trace 0                          # one measured run

*One measured run* (``--trace`` given) measures a single workload in this
process and prints, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The names, units
and bounds live in ``BENCHMARK.json``; this file computes the values.

*The suite* (no ``--trace``) runs both passes of every selected workload,
each as a fresh subprocess of the form above, prints the host fingerprint
and every metric with its quartiles, and rewrites ``RESULTS.json``.
``--agree`` runs the suite twice and compares the two sets.

Host metrics are wall/CPU time of the simulator.  Virtual results
(``model.*``) are deterministic per seed and must repeat exactly.
"""

from __future__ import annotations

import time

#: ``setup_s`` starts here, before the program under test is imported.
_PROCESS_START = time.perf_counter()

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
RESULTS = HERE / "RESULTS.json"

#: Fresh subprocesses timed for ``setup_s`` in one untraced run, before
#: and after the repetitions so that one slow spell of the host cannot
#: cover most of them.
SETUP_SAMPLES_BEFORE = 6
SETUP_SAMPLES_AFTER = 7
#: Shares of ``--seconds`` a traced run spends on its untraced baseline
#: and on traced repetitions (probes and the counting rep come on top).
BASELINE_SHARE = 0.3
TRACED_SHARE = 0.5
#: The calibration loop (:func:`calibrate`) and the time it takes on the
#: reference host — the committing host when nothing else runs on it.
CALIBRATION_STEPS = 240_000
REFERENCE_CALIBRATION_S = 0.100
#: Beyond these the ledger of a workload is reported as unresolved.
MAX_TRACE_OVERHEAD_PCT = 50.0
MAX_UNATTRIBUTED_SHARE = 0.40


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def load_workloads():
    """Import the workload definitions, and with them the program."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    try:
        import workloads
    except ModuleNotFoundError as exc:
        sys.exit(f"cannot import the program under test from {src}: {exc}")
    return workloads


def scaled_ops(workload, scale: float) -> int:
    """Operations in one repetition at ``--scale``."""
    return max(1, round(workload.ops_per_rep * scale))


def summary(values: list[float], raw: list[float] | None = None) -> dict[str, float]:
    """Median, quartiles and count of one metric's samples; with *raw*,
    also the median of the same samples before host-speed scaling."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    row = {"value": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}
    if raw is not None:
        row["raw_median"] = statistics.median(raw)
    return row


# ----------------------------------------------------------------------
# Host speed: a calibration loop beside every timed sample
# ----------------------------------------------------------------------
class _Cell:
    __slots__ = ("value", "next")

    def __init__(self, value: int, next: "_Cell | None") -> None:
        self.value = value
        self.next = next


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes on this host right now.

    Dict updates, small-object allocation and int/str work in the
    interpreter — the instruction mix of the simulator — and nothing of
    the program under test, so no change to the program can move it.
    """
    start = time.perf_counter()
    table: dict[int, int] = {}
    head = None
    digits = 0
    for step in range(CALIBRATION_STEPS):
        key = (step * 2654435761) & 4095
        table[key] = table.get(key, 0) + step
        head = _Cell(step, head if step & 63 else None)
        digits += len(str(step))
    return time.perf_counter() - start


def host_speed(*calibrations: float) -> float:
    """Speed of the host relative to the reference host (1.0 = equal),
    from the calibration readings taken around a timed sample."""
    return REFERENCE_CALIBRATION_S / statistics.fmean(calibrations)


# ----------------------------------------------------------------------
# One repetition, and a timed series of them
# ----------------------------------------------------------------------
def one_rep(W, workload, seed: int, inputs, run: Callable | None = None,
            before: Callable | None = None) -> dict:
    """Fresh system, empty caches, collected heap, then the stopwatch."""
    system = workload.construct(seed, inputs)
    # An empty verification cache makes the hit rate a property of the
    # workload and not of the previous repetition.
    W.crypto.reset_verification_cache()
    gc.collect()
    if before is not None:
        before(system)
    run = run or workload.run
    cpu_start = time.process_time()
    wall_start = time.perf_counter()
    outcome = run(system, inputs)
    wall = time.perf_counter() - wall_start
    cpu = time.process_time() - cpu_start
    cache = W.crypto.verification_cache_stats()
    report = workload.report(system, inputs, outcome)
    lookups = cache["hits"] + cache["misses"]
    return {
        "wall": wall, "cpu": cpu, "report": report,
        "cache_hit_rate": cache["hits"] / lookups if lookups else 0.0,
    }


def timed_reps(W, workload, seed: int, inputs, seconds: float, min_reps: int,
               each: Callable | None = None, **rep_options) -> list[dict]:
    """One discarded warm-up, then repetitions for *seconds*, each
    between two calibration readings that give its ``speed``."""
    one_rep(W, workload, seed, inputs, **rep_options)
    reps: list[dict] = []
    started = time.perf_counter()
    reading = calibrate()
    while len(reps) < min_reps or time.perf_counter() - started < seconds:
        rep = one_rep(W, workload, seed, inputs, **rep_options)
        previous, reading = reading, calibrate()
        rep["speed"] = host_speed(previous, reading)
        reps.append(rep)
        if each is not None:
            each(rep)
    return reps


def scaled_median(reps: list[dict], key: str) -> float:
    """Median of ``rep[key]`` at reference host speed."""
    return statistics.median(rep[key] * rep["speed"] for rep in reps)


def tally(reps: list[dict]) -> tuple[int, int, list[str], dict]:
    """``attempted, failed, errors, model`` over *reps*; differing
    virtual results between repetitions of one seed are an error."""
    attempted = sum(rep["report"].attempted for rep in reps)
    failed = attempted - sum(rep["report"].ok for rep in reps)
    errors = [error for rep in reps for error in rep["report"].errors]
    model = reps[0]["report"].model
    if any(rep["report"].model != model for rep in reps):
        errors.append("model.* differs between repetitions of one seed")
    return attempted, failed, errors, model


# ----------------------------------------------------------------------
# The untraced pass: end-to-end metrics
# ----------------------------------------------------------------------
def setup_probe(args) -> None:
    """Child of :func:`untraced`: import, inputs, first construction."""
    W = load_workloads()
    workload = W.BY_NAME[args.workload[0]]
    inputs = workload.inputs(args.seed, scaled_ops(workload, args.scale))
    workload.construct(args.seed, inputs)
    elapsed = time.perf_counter() - _PROCESS_START
    print(json.dumps([elapsed, calibrate()]))


def measure_setup(args, samples: int) -> list[list[float]]:
    """``[seconds, host speed]`` of *samples* fresh set-ups.

    Each child reads the calibration loop after its set-up, so a
    set-up sits between the previous child's reading (the parent's own
    for the first) and its own, as a repetition does.
    """
    command = [sys.executable, str(HERE / "run.py"), "--setup-probe",
               "--workload", args.workload[0], "--seed", str(args.seed),
               "--scale", repr(args.scale)]
    times = []
    reading = calibrate()
    for _ in range(samples):
        done = subprocess.run(command, capture_output=True, text=True, check=True)
        previous = reading
        seconds, reading = json.loads(done.stdout.strip().splitlines()[-1])
        times.append([seconds, host_speed(previous, reading)])
    return times


def untraced(W, workload, args) -> dict:
    setups = measure_setup(args, SETUP_SAMPLES_BEFORE)
    ops = scaled_ops(workload, args.scale)
    inputs = workload.inputs(args.seed, ops)
    reps = timed_reps(W, workload, args.seed, inputs, args.seconds, min_reps=3)
    setups += measure_setup(args, SETUP_SAMPLES_AFTER)
    attempted, failed, errors, model = tally(reps)
    if "layers" in sys.modules:
        errors.append("the untraced pass imported the patcher")
    metrics = {
        "host_ops_per_s": summary(
            [ops / (rep["wall"] * rep["speed"]) for rep in reps],
            raw=[ops / rep["wall"] for rep in reps]),
        "host_cpu_us_per_op": summary(
            [rep["cpu"] * rep["speed"] / ops * 1e6 for rep in reps],
            raw=[rep["cpu"] / ops * 1e6 for rep in reps]),
        "peak_rss_mib": summary(
            [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]),
        "setup_s": summary([seconds * speed for seconds, speed in setups],
                           raw=[seconds for seconds, _ in setups]),
    }
    return {"attempted": attempted, "failed": failed, "errors": errors,
            "model": model, "metrics": metrics}


# ----------------------------------------------------------------------
# The traced pass: per-layer metrics
# ----------------------------------------------------------------------
def traced(W, workload, args) -> dict:
    from repro.telemetry.profiler import Profiler

    ops = scaled_ops(workload, args.scale)
    inputs = workload.inputs(args.seed, ops)
    seed = args.seed

    # Untraced baseline in this same process: overhead and us/event.
    baseline = timed_reps(W, workload, seed, inputs,
                          args.seconds * BASELINE_SHARE, min_reps=2)
    attempted, failed, errors, model = tally(baseline)
    wall_untraced = scaled_median(baseline, "wall")

    # Exact counts: one unwrapped repetition under the program's own
    # profiler (its clock reads would disturb a timed one).
    attached: list = []
    counted = one_rep(
        W, workload, seed, inputs,
        before=lambda system: attached.append(Profiler.attach(W.sim_of(system))))
    # pop(): the profiler would keep that whole system alive under the GC.
    events = sum(row["events"] for row in attached.pop().sim_report().values())
    counts = counted["report"].counts

    import layers

    reading = calibrate()
    probes = layers.run_probes(args.scale)
    speed = host_speed(reading, calibrate())
    probes = {name: value / speed if name.endswith("_keps") else value * speed
              for name, value in probes.items()}
    tracer = layers.Tracer()
    patcher = layers.Patcher(tracer)
    ledgers: list[dict] = []
    spans: dict = {}

    def collect(rep: dict) -> None:
        ledgers.append({"host_speed": rep["speed"], **tracer.ledger()})
        if not spans:
            spans.update(tracer.spans())

    patcher.install(extra_modules=(W,))
    try:
        traced_reps = timed_reps(
            W, workload, seed, inputs, args.seconds * TRACED_SHARE, min_reps=2,
            each=collect,
            run=tracer.wrap(workload.run, layers.DRIVER, "rep"),
            before=lambda system: tracer.reset())
    finally:
        patcher.restore()
    t_attempted, t_failed, t_errors, t_model = tally(traced_reps)
    attempted += t_attempted
    failed += t_failed
    errors += t_errors
    if t_model != model or counted["report"].model != model:
        errors.append("model.* of the traced pass differs from the untraced one")
    wall_traced = scaled_median(traced_reps, "wall")

    def per_rep(key: str, layer: str) -> list[float]:
        return [ledger[key].get(layer, 0) for ledger in ledgers]

    metrics: dict[str, float] = {}
    for layer in layers.LAYERS:
        calls = per_rep("calls", layer)
        if len(set(calls)) > 1:
            errors.append(f"{layer}: span count differs between repetitions")
        metrics[f"{layer}.calls_per_op"] = calls[0] / ops
        metrics[f"{layer}.self_us_per_op"] = statistics.median(
            ledger["self_ns"].get(layer, 0) * ledger["host_speed"]
            for ledger in ledgers) / ops / 1e3
        metrics[f"{layer}.self_share"] = statistics.median(
            ledger["self_ns"].get(layer, 0) / ledger["total_ns"]
            for ledger in ledgers)
    for ledger in ledgers:
        # Every span nests under the rep span, so this is exact unless
        # the tracer lost one.
        if abs(sum(ledger["self_ns"].values()) - ledger["total_ns"]) \
                > 0.02 * ledger["total_ns"]:
            errors.append("layer self times do not sum to the rep span")
    metrics["sim.events_per_op"] = events / ops
    metrics["sim.host_us_per_event"] = wall_untraced / events * 1e6
    metrics["sim.resumes_per_op"] = ledgers[0]["resumes"] / ops
    metrics["crypto.verify_cache_hit_rate"] = counted["cache_hit_rate"]
    for name in ("core.attests", "core.verifies", "core.rejections",
                 "core.dma_bytes", "systems.msgs", "roce.packets",
                 "roce.retransmissions", "roce.duplicates_dropped",
                 "net.delivered", "net.dropped", "net.wire_bytes"):
        metrics[f"{name}_per_op"] = counts.get(name, 0) / ops
    if counts.get("core.rejections"):
        errors.append("attestation rejections on a fault-free key")
    metrics.update(probes)
    metrics.update(model)
    metrics["trace.overhead_pct"] = (wall_traced / wall_untraced - 1.0) * 100.0
    metrics["trace.unattributed_share"] = statistics.median(
        ledger["run_self_ns"] / ledger["total_ns"] for ledger in ledgers)
    unresolved = (metrics["trace.overhead_pct"] > MAX_TRACE_OVERHEAD_PCT
                  or metrics["trace.unattributed_share"] > MAX_UNATTRIBUTED_SHARE)

    OUT.mkdir(exist_ok=True)
    with open(OUT / f"trace_{workload.name}.json", "w") as handle:
        json.dump({"workload": workload.name, "seed": seed, "ops": ops,
                   "rep": 1, "ledgers": ledgers, "spans": spans}, handle)
    return {"attempted": attempted, "failed": failed, "errors": errors,
            "model": model, "unresolved": unresolved,
            "metrics": {name: {"value": value} for name, value in metrics.items()}}


# ----------------------------------------------------------------------
# One measured run (the form the benchmark contract calls)
# ----------------------------------------------------------------------
def single(args) -> int:
    spec = load_spec()
    W = load_workloads()
    workload = W.BY_NAME[args.workload[0]]
    result = traced(W, workload, args) if args.trace else untraced(W, workload, args)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    for entry in declared:
        result["metrics"][entry["name"]]["unit"] = entry["unit"]
    extra = set(result["metrics"]) - {entry["name"] for entry in declared}
    if extra:
        raise AssertionError(f"metrics not declared in BENCHMARK.json: {sorted(extra)}")
    correct = not result["errors"] and result["failed"] == 0
    result.update(workload=workload.name, seed=args.seed, scale=args.scale,
                  seconds=args.seconds, trace=args.trace, correct=correct,
                  ops_per_rep=scaled_ops(workload, args.scale))
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"run_{workload.name}_trace{args.trace}.json", "w") as handle:
        json.dump(result, handle, indent=1)
    for error in result["errors"]:
        print(f"ORACLE VIOLATED [{workload.name}]: {error}")
    print_rows(workload.name, result["metrics"])
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": row["value"], "unit": row["unit"]}
                    for name, row in result["metrics"].items()},
    }))
    return 0 if correct else 1


def print_rows(workload: str, metrics: dict) -> None:
    for name, row in metrics.items():
        line = f"{workload:<18} {name:<30} {row['unit']:<8} {row['value']:>14.6g}"
        if "n" in row:
            line += f"  q1 {row['q1']:.6g}  q3 {row['q3']:.6g}  n {row['n']}"
        if "raw_median" in row:
            line += f"  unscaled {row['raw_median']:.6g}"
        print(line)


# ----------------------------------------------------------------------
# The suite: every workload, both passes, each in its own subprocess
# ----------------------------------------------------------------------
def host_fingerprint() -> dict:
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        if git.returncode == 0:
            commit = git.stdout.strip()
    except OSError:
        pass
    return {
        "cpu_model": cpu_model,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "git_commit": commit,
        "loadavg_1min_start": os.getloadavg()[0],
    }


def run_pass(args, name: str, trace: int) -> dict | None:
    """One measured run in a fresh subprocess; its detail record, or
    ``None`` when it died before writing one."""
    detail = OUT / f"run_{name}_trace{trace}.json"
    detail.unlink(missing_ok=True)
    command = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--scale", repr(args.scale), "--trace", str(trace)]
    done = subprocess.run(command, capture_output=True, text=True)
    for line in done.stdout.splitlines()[:-1]:
        print(line)
    if done.returncode:
        print(f"{name}: pass --trace {trace} exited {done.returncode}")
        sys.stdout.write(done.stderr)
    if not detail.exists():
        return None
    with open(detail) as handle:
        return json.load(handle)


def run_suite(W, args, names: list[str]) -> dict:
    """Both passes of every workload in *names*; returns the result set."""
    host = host_fingerprint()
    print("host " + json.dumps(host))
    results: dict[str, Any] = {}
    ok = True
    for name in names:
        passes = [run_pass(args, name, trace) for trace in (0, 1)]
        if None in passes:
            ok = False
            continue
        plain, layered = passes
        attempted = plain["attempted"]
        share = plain["failed"] / attempted
        print(f"{name:<18} {'failed_ops_share':<30} {'fraction':<8} {share:>14.6g}"
              f"  failed {plain['failed']} of {attempted}")
        if layered["unresolved"]:
            print(f"{name}: layer ledger UNRESOLVED (tracing overhead "
                  f"{layered['metrics']['trace.overhead_pct']['value']:.1f} %, "
                  f"unattributed share "
                  f"{layered['metrics']['trace.unattributed_share']['value']:.2f})")
        if plain["model"] != layered["model"]:
            ok = False
            print(f"{name}: model.* differs between the two passes")
        workload = W.BY_NAME[name]
        results[name] = {
            "parameters": {
                "ops_per_rep": plain["ops_per_rep"], "window": workload.window,
                **{key: value for key, value in vars(workload).items()
                   if key in ("payload_bytes", "fault")},
            },
            "correct": plain["correct"] and layered["correct"],
            "attempted": attempted,
            "failed": plain["failed"],
            "failed_ops_share": share,
            "ledger_unresolved": layered["unresolved"],
            "end_to_end": plain["metrics"],
            "per_layer": {key: row["value"]
                          for key, row in layered["metrics"].items()},
        }
        ok = ok and results[name]["correct"]
    host["loadavg_1min_end"] = os.getloadavg()[0]
    return {"claim": None, "seed": args.seed, "seconds": args.seconds,
            "scale": args.scale, "ok": ok, "host": host, "workloads": results}


def compare(spec: dict, first: dict, second: dict) -> tuple[bool, dict]:
    """Does set B agree with set A within the benchmark's own bounds?"""
    agreed = True
    drift: dict[str, dict[str, float]] = {}
    #: Per-layer metrics that are counts of a seeded simulation.
    exact = {entry["name"] for entry in spec["per_layer"]
             if entry["unit"] in ("count", "bytes")
             or entry["name"].startswith("model.")
             or entry["name"] == "crypto.verify_cache_hit_rate"}
    for name, a in first["workloads"].items():
        b = second["workloads"][name]
        drift[name] = {}
        for entry in spec["end_to_end"]:
            metric = entry["name"]
            base = a["end_to_end"][metric]["value"]
            worse = (b["end_to_end"][metric]["value"] - base) / base
            if entry["better"] == "higher":
                worse = -worse
            drift[name][metric] = worse
            verdict = "ok" if worse <= entry["bound"] else "DISAGREE"
            agreed = agreed and verdict == "ok"
            print(f"agree {name:<18} {metric:<22} B worse than A by "
                  f"{worse * 100:+6.2f} % (bound {entry['bound'] * 100:.0f} %) {verdict}")
        for metric, value in a["per_layer"].items():
            if metric in exact and b["per_layer"][metric] != value:
                agreed = False
                print(f"agree {name:<18} {metric} not identical: "
                      f"{value!r} vs {b['per_layer'][metric]!r}")
        if a["failed"] or b["failed"]:
            agreed = False
            print(f"agree {name}: failed operations")
    return agreed, drift


def suite(args) -> int:
    spec = load_spec()
    W = load_workloads()
    names = args.workload or [workload.name for workload in W.WORKLOADS]
    unknown = [name for name in names if name not in W.BY_NAME]
    if unknown:
        sys.exit(f"unknown workload(s) {unknown}; known: {sorted(W.BY_NAME)}")
    OUT.mkdir(exist_ok=True)
    first = run_suite(W, args, names)
    ok = first.pop("ok")
    if args.agree:
        second = run_suite(W, args, names)
        ok = ok and second.pop("ok")
        agreed, first["agreement_b_worse_than_a"] = compare(spec, first, second)
        ok = ok and agreed
    full = args.scale == 1.0 and len(names) == len(W.WORKLOADS)
    if full and ok:
        with open(RESULTS, "w") as handle:
            json.dump(first, handle, indent=1)
            handle.write("\n")
        print(f"wrote {RESULTS.relative_to(ROOT)}")
    elif full:
        print("results not written: a check failed")
    print("suite " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of every generated input")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time of one pass (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies every repetition's operation count; "
                             "results at another scale are never written")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="measure one workload here: 0 end-to-end, 1 per-layer")
    parser.add_argument("--agree", action="store_true",
                        help="run the suite twice and compare the two sets")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(load_spec()["run_seconds"])
    if args.setup_probe:
        setup_probe(args)
        return 0
    if args.trace is None:
        return suite(args)
    if not args.workload or len(args.workload) != 1:
        parser.error("--trace measures exactly one --workload")
    if args.workload[0] not in load_workloads().BY_NAME:
        parser.error(f"unknown workload {args.workload[0]!r}")
    return single(args)


if __name__ == "__main__":
    sys.exit(main())
