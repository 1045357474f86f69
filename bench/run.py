"""cylkit benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload expand-cold --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; ``cylkit`` is imported from its ``src/``.
One process drives a closed loop with one client: each op starts when the
previous one has finished.  Ops run in forked children of this
(single-threaded) process, so every unit of work starts from the memo state
of a fresh import:

- ``expand-cold``: one child per op, empty memo tables, as a CLI call;
- ``gw-table`` and ``oracle``: one child per pass over all ops, with memo
  tables warm and shared across the ops of that pass.

Passes repeat, each in a new seeded order, while another pass still fits in
``--seconds``; the first pass always runs whole.  Every op's output is
hashed and compared with ``goldens.json``; a mismatch, an exception or a
non-zero exit is a failed op.

Every time reported by ``--trace 0`` (and ``trace.overhead_frac``) is the
CPU time of the op or set-up (its wall time less any time the host held the
process off the CPU; see ``op_time``), scaled to a fixed reference speed of
the host by the probes of ``speed.py``, which are taken in the processes
that run the ops.  The raw wall-time medians are printed above the result.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one pass
untraced, traced (wrappers from ``tracer.py``) and untraced again, and
prints the per-layer metrics.  The last line of standard output is the
JSON result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import pickle
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_out"
# Set-up is measured SETUP_RUNS times before the timed passes and as many
# times after them, so that its median spans the run as the ops do.
SETUP_RUNS = 5

sys.path.insert(0, str(BENCH_DIR))
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def import_cylkit(workload: str) -> None:
    """Import ``cylkit`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "cylkit" / "__init__.py").is_file():
        raise SystemExit(f"error: no cylkit sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import cylkit

    if Path(cylkit.__file__).resolve().parent != SRC / "cylkit":
        raise SystemExit(f"error: imported cylkit from {cylkit.__file__}")
    for name in workloads.IMPORTS[workload]:
        importlib.import_module(name)


def setup(workload: str, seed: int) -> list[tuple]:
    import_cylkit(workload)
    return workloads.make_ops(workload, seed)


def setup_times(workload: str, seed: int, runs: int) -> list[tuple[float, float]]:
    """(Scaled, raw) set-up times of ``runs`` fresh interpreters, one after
    another."""
    times = []
    for _ in range(runs):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT, check=False)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up failed:\n{proc.stderr}")
        times.append(tuple(map(float, proc.stdout.split()[-2:])))
    return times


# -- running ops in children ----------------------------------------------------


def op_time(wall: float, cpu: float) -> float:
    """The time an op is charged: its wall time less any stretch the host
    held the process off the CPU, i.e. its CPU time, which for this
    single-threaded code never exceeds its wall time (the ``min`` keeps
    work spread over threads from being charged more than its wall time)."""
    return min(wall, cpu)


def _send(pipe, kind: str, value) -> None:
    pickle.dump((kind, value), pipe)
    pipe.flush()


def _probe(pipe, times: int = 1) -> float:
    for _ in range(times):
        _send(pipe, "probe", (perf_counter(), speed.probe()))
    return perf_counter()


def _work(ops, goldens, trace, pipe) -> None:
    """Body of a child: run ``ops`` in order, time and check each, and send
    each op's result down ``pipe`` as soon as it is known, with the speed
    probes taken between ops."""
    probed = _probe(pipe, speed.AROUND)
    for op in ops:
        if trace is not None:
            trace.reset()
        start, start_cpu = perf_counter(), process_time()
        try:
            out = workloads.run_op(op)
        # Every op failure is counted, not raised; SystemExit included, as
        # cli.main lets argparse's exit through.
        except (Exception, SystemExit) as exc:
            elapsed = perf_counter() - start
            cpu = process_time() - start_cpu
            print(f"op {op[0]} failed: {exc!r}", file=sys.stderr)
            ok = False
        else:
            elapsed = perf_counter() - start
            cpu = process_time() - start_cpu
            ok = workloads.digest(out) == goldens.get(op[0])
            if not ok:
                print(f"op {op[0]}: digest mismatch", file=sys.stderr)
        layers = trace.aggregate() if trace is not None else None
        spans = trace.spans() if trace is not None else None
        _send(pipe, "op", (op[0], start, elapsed, cpu, ok, layers, spans))
        if perf_counter() - probed >= speed.EVERY_S:
            probed = _probe(pipe)
    _probe(pipe, speed.AROUND)
    _send(pipe, "memo_entries", tracer.memo_entries())


def run_in_child(ops, goldens, trace):
    """Fork, run ``ops`` in the child; return the results of the ops it
    finished, its speed probes, its memo size at the end (None if it died
    before) and its peak resident set in KiB.  A result is ``(op_id, start,
    wall seconds, CPU seconds, ok, layers, spans)``."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        status = 1
        try:
            with os.fdopen(write_fd, "wb") as pipe:
                _work(ops, goldens, trace, pipe)
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(status)
    os.close(write_fd)
    results, probes, memo = [], [], None
    with os.fdopen(read_fd, "rb") as pipe:
        while True:
            try:
                kind, value = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):  # end, or a cut record
                break
            if kind == "op":
                results.append(value)
            elif kind == "probe":
                probes.append(value)
            else:
                memo = value
    _, status, usage = os.wait4(pid, 0)
    if status != 0:
        memo = None
    return results, probes, memo, usage.ru_maxrss


class Tally:
    """Everything measured over a set of units."""

    def __init__(self):
        self.latencies: list[float] = []  # scaled to the reference speed
        self.raw_latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.peak_rss_kib = 0
        self.memo_entries = 0
        self.layers: dict[str, float] = {}
        self.per_op_layers: dict[str, dict] = {}
        self.spans: list[bytes] = []

    def add(self, ops, results, memo_entries, rss_kib):
        """``results`` are ``(op_id, wall seconds, scaled seconds, ok,
        layers, spans)``."""
        self.attempted += len(ops)
        self.peak_rss_kib = max(self.peak_rss_kib, rss_kib)
        if memo_entries is None:
            print(f"a child died after {len(results)} of its {len(ops)} ops",
                  file=sys.stderr)
        else:
            self.memo_entries += memo_entries
        for op_id, elapsed, scaled, ok, layers, spans in results:
            self.raw_latencies.append(elapsed)
            self.latencies.append(scaled)
            self.failed += not ok
            if layers is not None:
                self.per_op_layers[op_id] = layers
                for key, value in layers.items():
                    self.layers[key] = self.layers.get(key, 0) + value
                self.spans.append(spans)
        self.failed += len(ops) - len(results)


def run_pass(workload: str, order, goldens, tally: Tally, trace=None):
    if workload == "expand-cold":
        units = [[op] for op in order]
    else:
        units = [order]
    done, probes = [], []
    for unit in units:
        if tracer.memo_entries():
            raise SystemExit("error: memo tables not empty before a fork")
        results, unit_probes, memo, rss = run_in_child(unit, goldens, trace)
        probes += unit_probes
        done.append((unit, results, memo, rss))
    # Scaled once the pass is over, so that an op's speed can draw on the
    # probes of the children next to its own.
    scale = speed.Scale(probes)
    for unit, results, memo, rss in done:
        tally.add(unit, [
            (op_id, wall, op_time(wall, cpu) * scale.factor(start, start + wall),
             *rest)
            for op_id, start, wall, cpu, *rest in results], memo, rss)


def run_timed(workload, ops, seed, seconds, goldens) -> tuple[Tally, int]:
    """Whole passes while the next one still fits in ``seconds``."""
    tally = Tally()
    orders = workloads.pass_orders(ops, seed)
    passes = 0
    begin = perf_counter()
    while True:
        start = perf_counter()
        run_pass(workload, next(orders), goldens, tally)
        passes += 1
        now = perf_counter()
        if now - begin + (now - start) > seconds:
            return tally, passes


def run_traced(workload, order, goldens):
    """The same pass untraced, traced and untraced again.  The untraced
    passes on both sides let ``trace.overhead_frac`` cancel a steady drift
    of the machine's speed."""
    plain = [Tally(), Tally()]
    run_pass(workload, order, goldens, plain[0])
    trace = tracer.Tracer()
    trace.install()
    traced = Tally()
    try:
        run_pass(workload, order, goldens, traced, trace)
    finally:
        trace.uninstall()
    run_pass(workload, order, goldens, plain[1])
    return plain, traced, trace.absent


# -- reporting ----------------------------------------------------------------------


def e2e_metrics(tally: Tally, setup_s: float) -> dict:
    """The end-to-end metrics.  If no op was timed (every child died) the
    timings read 0; the run is then reported as not correct anyway."""
    lat_ms = sorted(x * 1000 for x in tally.latencies) or [0.0]
    op_s = sum(tally.latencies)
    return {
        "setup_s": (setup_s, "s"),
        "latency_p50_ms": (statistics.median(lat_ms), "ms"),
        "latency_p90_ms": (statistics.quantiles(lat_ms, n=10, method="inclusive")[8]
                           if len(lat_ms) > 1 else lat_ms[0], "ms"),
        "ops_per_s": (len(tally.latencies) / op_s if op_s else 0.0, "1/s"),
        "peak_rss_mb": (tally.peak_rss_kib / 1024, "MB"),
    }


def layer_metrics(plain: list[Tally], traced: Tally) -> dict:
    out = {key: (value, tracer.unit_of(key)) for key, value in traced.layers.items()}
    out["memo.entries"] = (traced.memo_entries, "count")
    plain_s = statistics.mean(sum(t.latencies) for t in plain)
    out["trace.overhead_frac"] = (
        sum(traced.latencies) / plain_s - 1 if plain_s else 0.0, "fraction")
    return out


def write_spans(workload: str, tally: Tally) -> Path:
    """Write the traced pass's spans, one length-prefixed blob per op; the
    file is overwritten by the next traced run of the workload."""
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"spans-{workload}.bin"
    with open(path, "wb") as out:
        for blob in tally.spans:
            out.write(len(blob).to_bytes(8, "little"))
            out.write(blob)
    return path


def load_goldens(path: Path) -> dict[str, str]:
    with open(path) as f:
        return json.load(f)["digests"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="print the set-up time of this process and exit")
    args = parser.parse_args(argv)

    if args.setup_only:
        probes = [(perf_counter(), speed.probe()) for _ in range(speed.AROUND)]
        start, start_cpu = perf_counter(), process_time()
        setup(args.workload, args.seed)
        elapsed, cpu = perf_counter() - start, process_time() - start_cpu
        probes += [(perf_counter(), speed.probe()) for _ in range(speed.AROUND)]
        factor = speed.Scale(probes).factor(start, start + elapsed)
        print(op_time(elapsed, cpu) * factor, elapsed)
        return 0

    goldens = load_goldens(BENCH_DIR / "goldens.json")
    if not args.trace:
        setup_times(args.workload, args.seed, 1)  # writes the bytecode caches
        setup_before = setup_times(args.workload, args.seed, SETUP_RUNS)
    ops = setup(args.workload, args.seed)
    print(f"cylkit: {sys.modules['cylkit'].__file__}")

    if args.trace:
        order = next(workloads.pass_orders(ops, args.seed))
        plain, traced, absent = run_traced(args.workload, order, goldens)
        attempted = sum(t.attempted for t in plain) + traced.attempted
        failed = sum(t.failed for t in plain) + traced.failed
        metrics = layer_metrics(plain, traced)
        print(f"{args.workload} seed {args.seed}: traced pass of "
              f"{traced.attempted} ops; spans in "
              f"{write_spans(args.workload, traced)}")
        if absent:
            print(f"absent (target gone): {', '.join(absent)}")
    else:
        begin = perf_counter()
        tally, passes = run_timed(args.workload, ops, args.seed, args.seconds,
                                  goldens)
        timed_s = perf_counter() - begin
        attempted, failed = tally.attempted, tally.failed
        setups = setup_before + setup_times(args.workload, args.seed, SETUP_RUNS)
        metrics = e2e_metrics(tally, statistics.median(s for s, _ in setups))
        print(f"{args.workload} seed {args.seed}: {attempted} ops in {passes} "
              f"pass(es) of {attempted // passes} in {timed_s:.1f} s, closed loop, "
              "1 client")
        raw_ms = statistics.median(tally.raw_latencies or [0.0]) * 1000
        print(f"  raw wall-time medians: setup "
              f"{statistics.median(r for _, r in setups):.6g} s, latency "
              f"{raw_ms:.6g} ms")
        print(f"  {'error_rate':32s} {failed / attempted:.6g} fraction")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
