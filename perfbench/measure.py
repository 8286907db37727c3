"""The timed loops behind ``run.py``: set-up, the untraced and traced runs, the result.

``run.py`` pins the BLAS threads and puts the checkout's ``src/`` on the
path before importing this module.
"""

import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import checks
import workloads

SETUP_REPEATS = 5
TRACED_MIN_ITEMS = 2
MAX_REPORTED_FAILURES = 5
# How per-item values of a per-layer metric combine, by unit; times and
# rates take the median.
AGGREGATE = {"count": statistics.fmean, "bytes": statistics.fmean, "norm": max}


def environment():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


class QuietCpu:
    """Moves the process to the usable CPU where a fixed spin runs fastest.

    On a shared host a vCPU slows by up to about 1.6x while a neighbour
    contends for its core, for seconds at a time, and the vCPUs of a small
    VM mostly slow at different times.  Probing them between the calls of an
    item, outside its time, keeps much of that slowdown out of the
    measurement.  Probes at most every ``interval`` seconds; with one usable
    CPU it does nothing.
    """

    def __init__(self, interval=0.25):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.interval = interval
        self.last = -math.inf

    @staticmethod
    def _spin():
        start = time.perf_counter()
        x = 0
        for i in range(20000):
            x += i * i
        return time.perf_counter() - start

    def settle(self):
        if len(self.cpus) < 2 or time.perf_counter() - self.last < self.interval:
            return
        speed = {}
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            speed[cpu] = min(self._spin(), self._spin())
        os.sched_setaffinity(0, {min(speed, key=speed.get)})
        self.last = time.perf_counter()

    def release(self):
        os.sched_setaffinity(0, self.cpus)


def set_up(workload, seed, workdir, repeats, root, cpu):
    """Import the package in a fresh interpreter and build the inputs, ``repeats`` times.

    Returns the median set-up seconds and the inputs of the last repeat.
    """
    path = [str(root / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    times = []
    for _ in range(repeats):
        cpu.settle()
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import atomqc"], cwd=root, env=env, check=True,
                       timeout=120, stdout=subprocess.DEVNULL)
        items = workload.make(seed, workdir)
        times.append(time.perf_counter() - start)
    return statistics.median(times), items


class Failures:
    """Counts failed items and reports the first few on standard error."""

    def __init__(self):
        self.count = 0

    def add(self, index, reasons):
        self.count += 1
        if self.count <= MAX_REPORTED_FAILURES:
            print(f"perfbench: item {index} failed: {'; '.join(reasons)}", file=sys.stderr)


def run_checked(fn, *args):
    """``(result, [])``, or ``(None, [traceback])`` if ``fn`` raised.

    An exception fails the item, not the run.
    """
    try:
        return fn(*args), []
    except Exception:  # the loop must keep running; the failure is counted
        return None, [traceback.format_exc(limit=3)]


def run_item(workload, item, spans, split=False):
    """Run one item; returns (outputs or None, seconds on the path, reasons).

    The seconds leave out the CPU probes made between the item's calls.
    """
    t0 = time.perf_counter()
    out, reasons = run_checked(workload.path, item, spans, split)
    return out, time.perf_counter() - t0 - spans.paused, reasons


def checked(item, out, reasons, span):
    """``reasons`` plus the checks ``out`` fails (nothing to check if the path raised)."""
    if out is None:
        return reasons
    problems, raised = run_checked(checks.check, item, out, span)
    return reasons + (problems or []) + raised


def finite(x):
    return x if math.isfinite(x) else None


def nearest_rank(ordered, q):
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def best_round(latencies, busy, passed, size):
    """(lowest round median latency, highest round throughput) over rounds of ``size`` items.

    A round is ``size`` consecutive items, a fixed slice of the item pool.
    The host swings between a fast and a ~1.6x slower state for seconds at
    a time, so a whole-run median of items of a few milliseconds flips with
    the share of the run spent slow; the fastest round, as ``timeit`` takes
    its fastest repeat, is the program's own speed.  With ``size`` equal to
    the item count the whole run is one round.
    """
    medians, rates = [], []
    for r in range(0, len(latencies) - size + 1, size):
        medians.append(statistics.median(latencies[r:r + size]))
        rates.append(sum(passed[r:r + size]) / sum(busy[r:r + size]))
    return min(medians), max(rates)


def untraced(workload, items, seconds, cpu):
    """The timed closed loop; returns (metrics, attempted, failed, extra).

    It ends on a round boundary, after at least ``seconds`` and the count prefix.
    """
    latencies, busy, passed, ent, pulses = [], [], [], [], []
    failures = Failures()
    size = workload.round_items
    start = time.perf_counter()
    i = 0
    while (i < workload.count_items or (size and i % size)
           or time.perf_counter() - start < seconds):
        item = items[i % len(items)]
        out, dt, reasons = run_item(workload, item, workloads.Spans(cpu.settle))
        reasons = checked(item, out, reasons, workloads.no_span)
        busy.append(dt)
        if out is not None and i < workload.count_items:
            ent.append(checks.count(out.native, {"CZ", "CCZ"}))
            pulses.append(checks.count(out.native, {"C"}))
        passed.append(not reasons)
        if reasons:
            failures.add(i, reasons)
            latencies.append(math.inf)  # a failed item misses any latency limit
        else:
            latencies.append(dt)
        i += 1
    size = size or i
    p50, rate = best_round(latencies, busy, passed, size)
    ordered = sorted(latencies)
    p90 = nearest_rank(ordered, 0.9)
    metrics = {
        "throughput_per_s": rate,
        "latency_p50_s": min(p50, seconds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "entangling_gates": statistics.fmean(ent) if ent else 0.0,
        "c_pulses": statistics.fmean(pulses) if pulses else 0.0,
        "passed_share": sum(passed) / i,
    }
    extra = {"rounds": i // size,
             "run_latency_p50_s": finite(statistics.median(ordered)),
             "run_throughput_per_s": sum(passed) / sum(busy),
             "latency_p90_s": finite(p90),
             "samples_beyond_p90": sum(x > p90 for x in ordered)}
    return metrics, i, failures.count, extra


def same_program(plain, traced):
    """Reasons the split (traced) pipeline's outputs differ from the unsplit ones."""
    reasons = []
    for name in ("compiled", "native"):
        a, b = getattr(plain, name), getattr(traced, name)
        if a.gates != b.gates or a.global_phase != b.global_phase:
            reasons.append(f"split pipeline changed the {name} circuit")
    if plain.text != traced.text:
        reasons.append("split pipeline changed the SEQUENCE text")
    return reasons


def pulse_runs(native):
    """Numbers of C-pulse runs of length 1 and 2 (runs end at an entangling gate)."""
    open_runs, lengths = {}, []
    for g in native.gates:
        if g.kind == "C":
            open_runs[g.qubits[0]] = open_runs.get(g.qubits[0], 0) + 1
        else:
            lengths.extend(open_runs.pop(q) for q in g.qubits if q in open_runs)
    lengths.extend(open_runs.values())
    return lengths.count(1), lengths.count(2)


def layer_sample(item, out, path_spans, side_spans, side_counts, traced_s, plain_s):
    """Per-layer values of one traced item."""
    sample = {f"{name}_s": sec for name, sec in side_spans.seconds.items()}
    sample.update({f"{name}_s": sec for name, sec in path_spans.seconds.items()})
    sample.update(side_counts)
    if out.unlowered is not None:
        sample.update(workloads.qrd_counts(out.unlowered, out.compiled))
    if item.method == "qsd":
        sample.update(workloads.qsd_counts(out.compiled))
    if item.method == "qasm":
        sample["formats.qasm_bytes"] = out.qasm_bytes
    runs1, runs2 = pulse_runs(out.native)
    gates_in = len(out.compiled.gates)
    sample.update({
        "retarget.gates_in": gates_in,
        "retarget.native_gates": len(out.native.gates),
        "retarget.us_per_gate_in": 1e6 * sample["retarget.retarget_s"] / max(1, gates_in),
        "retarget.runs_1pulse": runs1,
        "retarget.runs_2pulse": runs2,
        "simulate.us_per_gate": 1e6 * sample["simulate.verify_s"] / max(1, len(out.native.gates)),
        "simulate.max_distance": out.distance,
        "formats.sequence_bytes": len(out.text.encode()),
        "trace.coverage": sum(path_spans.seconds.values()) / traced_s,
        "trace.overhead": traced_s / plain_s,
    })
    return sample


def traced(workload, items, seconds, declared, cpu):
    """Each item untraced, then split into spans; returns per-layer metrics.

    Each metric combines the items that ran its layer, as ``AGGREGATE``
    says for its declared unit.
    """
    samples = []
    failures = Failures()
    start = time.perf_counter()
    i = 0
    while i < TRACED_MIN_ITEMS or time.perf_counter() - start < seconds:
        item = items[i % len(items)]
        plain, plain_s, reasons = run_item(workload, item, workloads.Spans(cpu.settle))
        path_spans = workloads.Spans(cpu.settle)
        out, traced_s, traced_reasons = run_item(workload, item, path_spans, split=True)
        reasons += traced_reasons
        side_spans = workloads.Spans(cpu.settle)
        reasons = checked(item, out, reasons, side_spans)
        if plain is not None and out is not None:
            reasons += same_program(plain, out)
            side_counts, raised = run_checked(workload.side, item, out, side_spans)
            reasons += raised
            if not raised:
                samples.append(layer_sample(item, out, path_spans, side_spans,
                                            side_counts, traced_s, plain_s))
        if reasons:
            failures.add(i, reasons)
        i += 1
    metrics = {}
    for m in declared:
        values = [s[m["name"]] for s in samples if m["name"] in s]
        if values:
            metrics[m["name"]] = AGGREGATE.get(m["unit"], statistics.median)(values)
    return metrics, i, failures.count, {"traced_items": len(samples)}


def main(args, root):
    """Run one workload; print the ``env`` and ``extra`` lines, then the result.

    Returns the exit code: 0 with a result, 2 or 3 (and no result) otherwise.
    """
    problems = checks.self_test()
    if problems:
        print("perfbench: checker self-test failed: " + "; ".join(problems), file=sys.stderr)
        return 3
    if args.self_test:
        print("checker self-test: ok")
        return 0
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    workdir = root / "perfbench" / ".work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    cpu = QuietCpu()
    try:
        setup_s, items = set_up(workload, args.seed, workdir, 1 if args.trace else SETUP_REPEATS,
                                root, cpu)
        if args.trace:
            values, attempted, failed, extra = traced(workload, items, args.seconds, declared, cpu)
        else:
            values, attempted, failed, extra = untraced(workload, items, args.seconds, cpu)
            values["setup_s"] = setup_s
    finally:
        cpu.release()
        shutil.rmtree(workdir, ignore_errors=True)

    missing = {m["name"] for m in declared} - set(values)
    if missing:
        print(f"perfbench: metrics not measured: {sorted(missing)}", file=sys.stderr)
        return 2
    print("env " + json.dumps(environment()))
    print("extra " + json.dumps({"workload": args.workload, "seed": args.seed, **extra}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0
