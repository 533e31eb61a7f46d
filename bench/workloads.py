"""The benchmark's workloads: inputs, commands and output checks.

Each workload generates its inputs from the seed, names the set-up commands
that build the files its timed commands reuse, and runs one timed pass of
commands through an executor: a separate process per command, or
``smelloc.cli.main`` in-process for the traced run. Every command is one
operation; an operation fails when it exits non-zero or fails a check.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import resource
import subprocess
import sys
import threading
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import gen


@dataclass
class Op:
    """One command invocation and what it cost."""

    argv: list[str]
    outputs: list[Path]
    code: int
    wall: float
    cpu: float
    rss_kb: int
    bytes_written: int
    problem: str | None = None

    @property
    def ok(self) -> bool:
        return self.code == 0 and self.problem is None

    def fail(self, problem: str) -> None:
        if self.problem is None:
            self.problem = problem


def _written(outputs: list[Path]) -> int:
    total = 0
    for out in outputs:
        for path in (out, Path(f"{out}.manifest.json")):
            if path.exists():
                total += path.stat().st_size
    return total


class ProcessExecutor:
    """Runs each command as its own ``python -m smelloc.cli`` process.

    CPU time and peak resident set come from ``wait4`` on that child. A
    watchdog kills a command that outlives the deadline.
    """

    def __init__(self, src: Path, log: Path, deadline: float):
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.log = log
        self.deadline = deadline

    def __call__(self, argv: list[str], outputs: list[Path]) -> Op:
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(self.log, "ab") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "smelloc.cli", *argv],
                                    stdout=log, stderr=log, env=self.env)
            watchdog = threading.Timer(timeout, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        return Op(argv, outputs, code, wall, usage.ru_utime + usage.ru_stime,
                  usage.ru_maxrss, _written(outputs))


class InProcessExecutor:
    """Calls a ``main(argv)`` entry point in this process."""

    def __init__(self, main):
        self.main = main

    def __call__(self, argv: list[str], outputs: list[Path]) -> Op:
        saved = sys.argv
        sys.argv = ["smelloc", *argv]
        t0 = time.perf_counter()
        c0 = time.process_time()
        try:
            with redirect_stdout(io.StringIO()):
                code = self.main(argv)
        except SystemExit as exc:  # argparse rejects bad flags this way
            code = exc.code if isinstance(exc.code, int) else 1
        finally:
            sys.argv = saved
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return Op(argv, outputs, code, wall, cpu, rss, _written(outputs))


def body_digest(path: Path) -> str:
    """SHA-256 of a report body with its manifest removed.

    JSON reports embed the manifest; it is dropped and the rest re-serialized
    in the writer's own layout. Other reports keep their manifest in a
    sidecar file, so their bytes are hashed as they are.
    """
    data = path.read_bytes()
    if path.suffix == ".json":
        doc = json.loads(data)
        if isinstance(doc, dict) and "manifest" in doc:
            del doc["manifest"]
            data = (json.dumps(doc, indent=2) + "\n").encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def digests(ops: list[Op], work: Path) -> dict[str, str]:
    """Body digest of every output of ops, keyed by its path under work."""
    out = {}
    for op in ops:
        for path in op.outputs:
            if path.exists():
                out[path.relative_to(work).as_posix()] = body_digest(path)
    return out


def _dump_lines(path: Path) -> dict[str, list[str]]:
    by_bug: dict[str, list[str]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            by_bug.setdefault(json.loads(line)["bug"], []).append(line)
    return by_bug


class Workload:
    """Inputs generated into ``work`` from ``seed``, and the commands run on
    them; ``run`` is an executor taking (argv, output paths)."""

    name = ""

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.stats: dict = {}  # data statistics printed with every run

    def setup(self, run) -> list[Op]:
        raise NotImplementedError

    def timed(self, run) -> list[Op]:
        raise NotImplementedError

    def rates(self, ops: list[Op]) -> dict[str, float]:
        """Workload-specific figures of one pass, keyed by metric name."""
        raise NotImplementedError

    def quality(self) -> dict[str, float]:
        """Baseline retrieval quality read from the last pass's reports."""
        raise NotImplementedError

    def p(self, name: str) -> str:
        """Path of an input or output, as a command-line argument."""
        return str(self.work / name)


class Retrieve(Workload):
    """Tokenizing and the index build in set-up, the cache load in each
    single query, scoring, sorting and dump writing in each batch; no smell
    work, so a combine-only change should not move it."""

    name = "retrieve"
    FILES = 160
    REPORTS = 100
    QUERIES = 20

    def __init__(self, work, seed):
        super().__init__(work, seed)
        self.stats = gen.gen_retrieve(work, seed, self.FILES, self.REPORTS)
        ids = [b["id"] for b in json.loads((work / "bugs.json").read_text())]
        self.query_ids = random.Random(f"queries:{seed}").sample(ids, self.QUERIES)

    def setup(self, run):
        return [run(["index", "--snapshot", self.p("src"), "--out", self.p("index.json"),
                     "--jobs", "1"], [self.work / "index.json"])]

    def _rank(self, run, technique, out, bug=None):
        argv = ["rank", "--technique", technique, "--bugs", self.p("bugs.json"),
                "--index", self.p("index.json"), "--out", self.p(out), "--jobs", "1"]
        if bug is not None:
            argv += ["--bug", bug]
        return run(argv, [self.work / out])

    def timed(self, run):
        rvsm = self._rank(run, "rvsm", "rvsm.jsonl")
        vsm = self._rank(run, "vsm", "vsm.jsonl")
        evaluate = run(["evaluate", "--rankings", self.p("rvsm.jsonl"),
                        "--bugs", self.p("bugs.json"), "--compare", self.p("vsm.jsonl"),
                        "--format", "json", "--out", self.p("eval.json"), "--jobs", "1"],
                       [self.work / "eval.json"])
        queries = [self._rank(run, "rvsm", f"query{k}.jsonl", bug)
                   for k, bug in enumerate(self.query_ids)]
        batch = _dump_lines(self.work / "rvsm.jsonl") if rvsm.ok else {}
        for bug, op in zip(self.query_ids, queries):
            if op.code != 0:
                continue
            single = op.outputs[0].read_text(encoding="utf-8").splitlines(keepends=True)
            if single != batch.get(bug):
                op.fail(f"rank --bug {bug} differs from the batch dump")
        return [rvsm, vsm, evaluate] + queries

    def rates(self, ops):
        latencies = [op.wall * 1000 for op in ops[3:]]
        return {"rank_reports_per_s": self.REPORTS / ops[0].wall,
                "query_ms": latencies}

    def quality(self):
        report = json.loads((self.work / "eval.json").read_text())
        return {"rvsm_map": report["map"]}


class Sweep(Workload):
    """One large sort-based alpha sweep, with score dumps big enough to load
    dataio, manifest hashing and dump writing; no tokenizing or index work,
    so it is the bypass workload for corpus and index changes."""

    name = "sweep"
    MODULES = 1000
    REPORTS = 60
    CONFIG = "g3,a5,s4"

    def __init__(self, work, seed):
        super().__init__(work, seed)
        self.stats = gen.gen_sweep(work, seed, self.MODULES, self.REPORTS)

    def setup(self, run):
        return [run(["risk", "--smells", self.p("smells.json"),
                     "--modules", self.p("modules.txt"), "--bugs", self.p("bugs.json"),
                     "--out", self.p("risk.csv"),
                     "--selectors-out", self.p("selectors.json"), "--jobs", "1"],
                    [self.work / "risk.csv", self.work / "selectors.json"])]

    def _combine(self, run, *flags, out):
        return run(["combine", "--scores", self.p("scores.jsonl"),
                    "--smells", self.p("smells.json"), "--bugs", self.p("bugs.json"),
                    "--config", self.CONFIG, "--selectors", self.p("selectors.json"),
                    *flags, "--out", self.p(out), "--jobs", "1"], [self.work / out])

    def timed(self, run):
        sweep = self._combine(run, "--sweep", "--metric", "map", "--format", "json",
                              out="sweep.json")
        if sweep.code != 0:
            return [sweep]
        result = json.loads((self.work / "sweep.json").read_text())
        blend = self._combine(run, "--alpha", repr(result["best_alpha"]),
                              out="blend.jsonl")
        evaluate = run(["evaluate", "--rankings", self.p("blend.jsonl"),
                        "--bugs", self.p("bugs.json"), "--compare", self.p("scores.jsonl"),
                        "--format", "json", "--out", self.p("eval.json"), "--jobs", "1"],
                       [self.work / "eval.json"])
        if evaluate.code == 0:
            value = json.loads((self.work / "eval.json").read_text())["map"]
            # The sweep sums average precisions with sum, evaluate with fsum.
            if abs(value - result["best_value"]) > 1e-9 * max(1.0, abs(value)):
                evaluate.fail(f"evaluate map {value!r} at the best alpha differs "
                              f"from the sweep's best value {result['best_value']!r}")
        return [sweep, blend, evaluate]

    def rates(self, ops):
        return {"sweep_reports_per_s": self.REPORTS / ops[0].wall}

    def quality(self):
        result = json.loads((self.work / "sweep.json").read_text())
        return {"input_map": result["values"][0], "blend_map": result["best_value"],
                "best_alpha": result["best_alpha"]}


class Search(Workload):
    """Many small sweeps, one per distinct smell map of the 150
    configurations, plus system loading, filtering and the pooled risk
    table; shows fixed costs per sweep and gains that need many modules."""

    name = "search"
    SYSTEMS = 3
    FILES = 60
    REPORTS = 10
    CONFIGS = 150

    def __init__(self, work, seed):
        super().__init__(work, seed)
        self.stats = gen.gen_search(work, seed, self.SYSTEMS, self.FILES, self.REPORTS)
        self.systems = [f"sys{s + 1}" for s in range(self.SYSTEMS)]

    def setup(self, run):
        return [run(["risk", "--smells", self.p(f"{s}/smells.json"),
                     "--snapshot", self.p(f"{s}/src"), "--bugs", self.p(f"{s}/bugs.json"),
                     "--out", self.p(f"{s}/risk.csv"), "--jobs", "1"],
                    [self.work / s / "risk.csv"])
                for s in self.systems]

    def timed(self, run):
        op = run(["config-search", "--systems",
                  *(self.p(f"{s}/system.json") for s in self.systems),
                  "--technique", "rvsm", "--format", "json",
                  "--out", self.p("search.json"), "--jobs", "1"],
                 [self.work / "search.json"])
        if op.code == 0:
            report = json.loads((self.work / "search.json").read_text())
            rows = report["rows"]
            if len(rows) != self.CONFIGS:
                op.fail(f"config-search returned {len(rows)} rows, not {self.CONFIGS}")
            for row in rows:
                for metric, outcome in row["metrics"].items():
                    if outcome["value"] > report["ideal"][metric]:
                        op.fail(f"ideal {metric} is below configuration {row['config']}")
        return [op]

    def rates(self, ops):
        return {"search_pairs_per_s": self.SYSTEMS * self.CONFIGS / ops[0].wall}

    def quality(self):
        report = json.loads((self.work / "search.json").read_text())
        row = report["rows"][0]
        # Alpha 0 is the plain rvsm ranking, the same in every row.
        baseline = sum(curves["map"][0] for curves in row["curves"].values())
        return {"rvsm_map": baseline / len(row["curves"]),
                "best_map": row["metrics"]["map"]["value"],
                "ideal_map": report["ideal"]["map"]}


WORKLOADS = {w.name: w for w in (Retrieve, Sweep, Search)}
