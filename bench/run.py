"""Benchmark of the smelloc pipeline, driven through its command line.

    python3 bench/run.py --workload retrieve --seed 1 --seconds 30 --trace 0

It runs ``src/smelloc`` of the source tree it sits in and works under
``.bench_work/`` there. Inputs come from the seed alone.

With ``--trace 0`` each command runs as its own process, one at a time
(a closed loop with one client, ``--jobs 1``). The workload's set-up is run
several times and timed; then timed passes repeat while another one fits
in ``--seconds`` (at least two run). End-to-end metrics are medians over
set-up rounds and passes.

With ``--trace 1`` set-up plus one pass run in this process through
``smelloc.cli.main``, repeated while another fits in ``--seconds``. Each
command runs untraced and traced back to back. The traced calls wrap the
public functions at each layer boundary and give per-layer self times and
counts, whose medians are reported, plus the tracing overhead. Spans go
only to ``.bench_work/traces/``.

Every command's exit code and outputs are checked; the last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import statistics
import sys
import time
from pathlib import Path

from tracing import CALL_METRICS, COUNT_METRICS, ROOT_SPAN, TIME_METRICS, Tracer
from workloads import WORKLOADS, InProcessExecutor, ProcessExecutor, digests

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_ROUNDS = 3
MIN_PASSES = 2
# Stop starting new work after this many seconds, so a run ends within 180.
TIME_LIMIT = 150.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

# Printed for the workloads they apply to, with error_rate for all.
DETAIL_UNITS = {
    "rank_reports_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_tail_ms": "ms",
    "sweep_reports_per_s": "1/s",
    "search_pairs_per_s": "1/s",
}

BYTE_COUNTS = {"cli.bytes_written", "corpus.bytes", "index.cache_bytes",
               "manifest.bytes_hashed"}
PER_LAYER = {name: "s" for name in TIME_METRICS}
PER_LAYER.update({name: "count" for name in CALL_METRICS})
PER_LAYER.update({name: "bytes" if name in BYTE_COUNTS else "count"
                  for name in COUNT_METRICS})
PER_LAYER["trace.overhead_ratio"] = "ratio"


class Ledger:
    """Every operation of a run, and whether outputs repeat exactly."""

    def __init__(self, work: Path):
        self.work = work
        self.ops = []
        self.reference: dict[str, str] = {}

    def add(self, ops) -> None:
        """Record ops; an output differing from its first version fails."""
        self.ops += ops
        for op in ops:
            for name, digest in digests([op], self.work).items():
                first = self.reference.setdefault(name, digest)
                if digest != first:
                    op.fail(f"{name} differs from its first version in this run")

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if not op.ok)

    def outputs_sha256(self) -> str:
        joined = "".join(f"{n} {d}\n" for n, d in sorted(self.reference.items()))
        return hashlib.sha256(joined.encode("utf-8")).hexdigest()


def _median(values):
    return statistics.median(values) if values else 0.0


def _room(t0: float, lengths: list[float], seconds: int, started: float) -> bool:
    """Whether one more pass of typical length still fits in the run."""
    now = time.monotonic()
    return (now - started < TIME_LIMIT
            and now - t0 + statistics.median(lengths) <= seconds)


def untraced(workload, seconds: int, started: float, log: Path):
    run = ProcessExecutor(SRC, log, started + TIME_LIMIT + 20)
    ledger = Ledger(workload.work)
    setup_walls = []
    for _ in range(SETUP_ROUNDS):
        ops = workload.setup(run)
        ledger.add(ops)
        setup_walls.append(sum(op.wall for op in ops))
    passes, lengths = [], []
    t0 = time.monotonic()
    while len(passes) < MIN_PASSES or _room(t0, lengths, seconds, started):
        t = time.monotonic()
        ops = workload.timed(run)
        ledger.add(ops)
        passes.append(ops)
        lengths.append(time.monotonic() - t)
    metrics = {
        "setup_s": _median(setup_walls),
        "wall_s": _median([sum(op.wall for op in ops) for ops in passes]),
        "cpu_s": _median([sum(op.cpu for op in ops) for ops in passes]),
        "peak_rss_mb": max(op.rss_kb for op in ledger.ops) / 1024,
    }
    details = {}
    rates = [workload.rates(ops) for ops in passes if all(op.ok for op in ops)]
    for key in rates[0] if rates else ():
        if key == "query_ms":
            latencies = [ms for r in rates for ms in r[key]]
            # At least MIN_PASSES * QUERIES = 40 samples, so at least ten
            # lie above the 75th percentile.
            details["query_p50_ms"] = statistics.median(latencies)
            details["query_tail_ms"] = statistics.quantiles(latencies, n=4)[2]
            details["query_samples"] = len(latencies)
        else:
            details[key] = _median([r[key] for r in rates])
    return ledger, metrics, details, len(passes)


def traced(workload, seconds: int, started: float, trace_path: Path):
    sys.path.insert(0, str(SRC))
    import smelloc.cli

    if not Path(smelloc.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: imported smelloc from {smelloc.cli.__file__}, "
                         f"not from {SRC}")
    tracer = Tracer()
    plain = InProcessExecutor(smelloc.cli.main)
    spanned = InProcessExecutor(tracer.span(ROOT_SPAN, smelloc.cli.main))
    ledger = Ledger(workload.work)
    plain_ops = []

    def paired(argv, outputs):
        """Run a command untraced and traced back to back, alternating which
        goes first, so drift in machine speed cancels out of the overhead."""
        order = (False, True) if len(plain_ops) % 2 == 0 else (True, False)
        for traced_now in order:
            if traced_now:
                tracer.install()
                try:
                    op = spanned(argv, outputs)
                finally:
                    tracer.uninstall()
            else:
                plain_ops.append(plain(argv, outputs))
        return op

    overheads, layers, lengths = [], [], []
    t0 = time.monotonic()
    while not layers or _room(t0, lengths, seconds, started):
        t = time.monotonic()
        tracer.new_run()
        plain_ops.clear()
        ops = workload.setup(paired) + workload.timed(paired)
        ledger.add(plain_ops + ops)
        overheads.append(sum(op.wall for op in ops) / sum(op.wall for op in plain_ops))
        tracer.counts["cli.bytes_written"] = sum(op.bytes_written for op in ops)
        layers.append(tracer.finish_run())
        lengths.append(time.monotonic() - t)
    tracer.write(trace_path)
    if tracer.missing:
        print(f"warning: boundaries not found, left untraced: {tracer.missing}",
              file=sys.stderr)
    metrics = {name: _median([layer[name] for layer in layers])
               for name in PER_LAYER if name != "trace.overhead_ratio"}
    metrics["trace.overhead_ratio"] = _median(overheads)
    return ledger, metrics, {}, len(layers)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "smelloc" / "cli.py").is_file():
        print(f"error: no smelloc sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    started = time.monotonic()
    tag = f"{args.workload}-{args.seed}"
    work = WORK / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    log = WORK / "logs" / f"{tag}.log"
    log.parent.mkdir(parents=True, exist_ok=True)
    log.write_bytes(b"")
    try:
        workload = WORKLOADS[args.workload](work, args.seed)
        if args.trace:
            ledger, metrics, details, passes = traced(
                workload, args.seconds, started, WORK / "traces" / f"{tag}.tsv.gz")
            units = PER_LAYER
        else:
            ledger, metrics, details, passes = untraced(
                workload, args.seconds, started, log)
            units = END_TO_END
        quality = workload.quality() if ledger.failed == 0 else {}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = len(ledger.ops), ledger.failed
    mode = "traced in-process" if args.trace else "closed loop, 1 client, --jobs 1"
    print(f"# workload {args.workload} seed {args.seed}, {mode}, passes: {passes}")
    print("# data " + " ".join(f"{k}={v}" for k, v in workload.stats.items()))
    print("# quality " + " ".join(f"{k}={v:.4f}" for k, v in quality.items()))
    print(f"# outputs sha256 {ledger.outputs_sha256()}")
    for op in ledger.ops:
        if not op.ok:
            print(f"# FAILED (exit {op.code}) {op.argv[0]}: {op.problem or ''}")
    for name, value in metrics.items():
        print(f"{name:30} {value:14.6f} {units[name]}")
    for name, value in details.items():
        print(f"{name:30} {value:14.6f} {DETAIL_UNITS.get(name, 'count')}")
    print(f"{'error_rate':30} {failed / attempted:14.6f} ratio ({failed}/{attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
