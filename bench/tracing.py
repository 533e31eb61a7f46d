"""Span tracing around the public functions at smelloc's layer boundaries.

The tracer replaces each boundary function with a wrapper, both in its
defining module and wherever ``cli``, ``dataio`` or ``combine`` imported it
by name, and restores the originals on ``uninstall``. Spans (name, start,
end, parent, run id) are kept in memory in flat arrays and written to a
trace file at the end. Per-token helpers such as ``stem`` are not wrapped;
their cost stays in the enclosing span's self time.

Counts are computed here from the wrapped functions' arguments and return
values, after the span has closed, never from counters inside the package.
"""

from __future__ import annotations

import gzip
import importlib
import os
from array import array
from collections import Counter
from functools import wraps
from pathlib import Path
from time import perf_counter_ns

# (span name, defining module, attribute, modules that import it by name)
BOUNDARIES = (
    ("corpus.build_corpus", "corpus", "build_corpus", ("cli", "dataio")),
    ("corpus.split_identifiers", "corpus", "split_identifiers", ()),
    ("corpus.normalize_tokens", "corpus", "normalize_tokens", ()),
    ("corpus.build_query", "corpus", "build_query", ("cli", "dataio")),
    ("index.build_index", "index", "build_index", ("cli", "dataio")),
    ("index.corpus_hash", "index", "corpus_hash", ("cli",)),
    ("index.save_index", "index", "save_index", ("cli",)),
    ("index.load_index", "index", "load_index", ("cli",)),
    ("index.cosine_score", "index", "cosine_score", ("cli", "dataio")),
    ("index.rvsm_score", "index", "rvsm_score", ("cli", "dataio")),
    ("index.rank", "index", "rank", ("cli",)),
    ("dataio.load_bug_reports", "dataio", "load_bug_reports", ()),
    ("dataio.load_smell_report", "dataio", "load_smell_report", ()),
    ("dataio.load_external_scores", "dataio", "load_external_scores", ()),
    ("dataio.load_system", "dataio", "load_system", ()),
    ("dataio.prepare_system", "dataio", "prepare_system", ()),
    ("dataio.filter_dataset", "dataio", "filter_dataset", ()),
    ("smells.smell_values", "smells", "smell_values", ("cli", "combine")),
    ("combine.normalize", "combine", "normalize", ()),
    ("combine.blend", "combine", "blend", ()),
    ("combine.sweep_alpha", "combine", "sweep_alpha", ()),
    ("combine.config_search", "combine", "config_search", ()),
    ("metrics.ranking_stats", "metrics", "ranking_stats", ("combine",)),
    ("metrics.evaluate_ranking", "metrics", "evaluate_ranking", ("cli",)),
    ("metrics.metric_report", "metrics", "metric_report", ("cli",)),
    ("metrics.comparison_stats", "metrics", "comparison_stats", ("cli",)),
    ("metrics.per_report_values", "metrics", "per_report_values", ("cli",)),
    ("risk.relative_risk", "risk", "relative_risk", ()),
    ("risk.derive_selectors", "risk", "derive_selectors", ()),
    ("manifest.hash_file", "manifest", "hash_file", ()),
)

ROOT_SPAN = "cli.main"
HOOK_SPAN = "trace.hook"

# Per-layer time metric -> spans whose self time it sums.
TIME_METRICS = {
    "cli.self_s": (ROOT_SPAN,),
    "corpus.read_s": ("corpus.build_corpus",),
    "corpus.split_s": ("corpus.split_identifiers",),
    "corpus.normalize_s": ("corpus.normalize_tokens",),
    "corpus.query_s": ("corpus.build_query",),
    "index.build_s": ("index.build_index",),
    "index.hash_s": ("index.corpus_hash",),
    "index.save_s": ("index.save_index",),
    "index.load_s": ("index.load_index",),
    "index.score_s": ("index.cosine_score", "index.rvsm_score"),
    "index.rank_s": ("index.rank",),
    "dataio.load_reports_s": ("dataio.load_bug_reports", "dataio.load_smell_report"),
    "dataio.load_scores_s": ("dataio.load_external_scores",),
    "dataio.load_system_s": ("dataio.load_system",),
    "dataio.prepare_s": ("dataio.prepare_system",),
    "dataio.filter_s": ("dataio.filter_dataset",),
    "smells.values_s": ("smells.smell_values",),
    "combine.sweep_s": ("combine.sweep_alpha", "combine.config_search"),
    "combine.normalize_s": ("combine.normalize",),
    "combine.blend_s": ("combine.blend",),
    "metrics.ranking_stats_s": ("metrics.ranking_stats",),
    "metrics.evaluate_s": ("metrics.evaluate_ranking", "metrics.metric_report"),
    "metrics.compare_s": ("metrics.comparison_stats", "metrics.per_report_values"),
    "risk.table_s": ("risk.relative_risk",),
    "risk.selectors_s": ("risk.derive_selectors",),
    "manifest.hash_s": ("manifest.hash_file",),
}

# Call-count metric -> span whose calls it counts.
CALL_METRICS = {
    "smells.values_calls": "smells.smell_values",
    "combine.normalize_calls": "combine.normalize",
    "metrics.ranking_stats_calls": "metrics.ranking_stats",
}

COUNT_METRICS = (
    "cli.bytes_written",
    "corpus.files", "corpus.bytes", "corpus.subtokens", "corpus.distinct_subtokens",
    "corpus.tokens",
    "index.cache_bytes", "index.postings_touched", "index.vocabulary", "index.postings",
    "dataio.score_lines", "dataio.excluded_reports",
    "combine.sweep_sorts", "combine.distinct_smell_maps",
    "combine.configs",
    "manifest.bytes_hashed",
    "trace.spans",
)

# Query tokenizing is charged to corpus.build_query, not to the file-level
# tokenizer spans, so corpus.split_s and corpus.normalize_s cover files only.
_QUERY_SPAN = "corpus.build_query"
_FILE_ONLY = ("corpus.split_identifiers", "corpus.normalize_tokens")


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    """Records spans and counts for the calls made while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.run = array("H")
        self.run_id = 0
        self._run_start = 0
        self._stack = [-1]
        self.counts: Counter = Counter()
        self._subtokens: set[str] = set()
        self._smell_maps: dict[tuple, set] | None = None
        self._saved: list[tuple[object, str, object, object]] | None = None
        self.missing: list[str] = []

    # ------------------------------------------------------------ spans

    def _id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(self, name: str, fn, hook=None):
        """Return fn wrapped so each call records one span named name."""
        nid = self._id(name)
        skip_under = self._id(_QUERY_SPAN) if name in _FILE_ONLY else None
        hook_id = self._id(HOOK_SPAN)
        stack = self._stack
        span_name, start, end, parent, run = (
            self.span_name, self.start, self.end, self.parent, self.run)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            top = stack[-1]
            if skip_under is not None and top >= 0 and span_name[top] == skip_under:
                return fn(*args, **kwargs)
            idx = len(start)
            span_name.append(nid)
            parent.append(top)
            run.append(self.run_id)
            start.append(0)
            end.append(0)
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter_ns()
                start[idx] = t0
                stack.pop()
            if hook is not None:
                # The hook's own span keeps counting work out of the
                # enclosing span's self time.
                h = len(start)
                span_name.append(hook_id)
                parent.append(top)
                run.append(self.run_id)
                end.append(0)
                start.append(perf_counter_ns())
                hook(args, kwargs, result)
                end[h] = perf_counter_ns()
            return result

        return wrapper

    def _patches(self) -> list[tuple[object, str, object, object]]:
        """(module, attribute, original, wrapper) for every boundary found."""
        hooks = self._hooks()
        patches = []
        for name, module, attr, importers in BOUNDARIES:
            original = getattr(importlib.import_module(f"smelloc.{module}"), attr, None)
            if original is None:
                self.missing.append(name)
                continue
            inner = self._config_search(original) if attr == "config_search" else original
            wrapped = self.span(name, inner, hooks.get(name))
            for mod_name in (module,) + importers:
                mod = importlib.import_module(f"smelloc.{mod_name}")
                if getattr(mod, attr, None) is original:
                    patches.append((mod, attr, original, wrapped))
        return patches

    def install(self) -> None:
        """Wrap every boundary function; names not found are listed in missing."""
        if self._saved is None:
            self._saved = self._patches()
        for mod, attr, _, wrapped in self._saved:
            setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for mod, attr, original, _ in self._saved or ():
            setattr(mod, attr, original)

    # ----------------------------------------------------------- counts

    def _hooks(self) -> dict:
        c = self.counts

        def build_corpus(args, kwargs, docs):
            root = Path(_arg(args, kwargs, 0, "root"))
            c["corpus.files"] += len(docs)
            c["corpus.bytes"] += sum(os.path.getsize(root / d.id) for d in docs)

        def split(args, kwargs, subtokens):
            c["corpus.subtokens"] += len(subtokens)
            self._subtokens.update(t.lower() for t in subtokens)

        def normalize_tokens(args, kwargs, tokens):
            c["corpus.tokens"] += len(tokens)

        def index_shape(args, kwargs, index):
            c["index.vocabulary"] = max(c["index.vocabulary"], len(index.vocabulary))
            c["index.postings"] = max(
                c["index.postings"], sum(len(p) for p in index.postings.values()))

        def save_index(args, kwargs, _):
            c["index.cache_bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))

        def cosine_score(args, kwargs, _):
            query = _arg(args, kwargs, 0, "query")
            index = _arg(args, kwargs, 1, "index")
            # Terms in every document have idf 0 and are skipped by the scorer.
            for term in set(query.tokens):
                tid = index.vocabulary.get(term)
                if tid is not None and index.doc_freq[tid] < index.size:
                    c["index.postings_touched"] += len(index.postings.get(tid, ()))

        def load_external_scores(args, kwargs, scores):
            c["dataio.score_lines"] += sum(len(m) for m in scores.by_bug.values())

        def filter_dataset(args, kwargs, result):
            c["dataio.excluded_reports"] += len(result[1].excluded_reports)

        def smell_values(args, kwargs, values):
            if self._smell_maps is not None:
                modules = tuple(_arg(args, kwargs, 0, "modules"))
                self._smell_maps.setdefault(modules, set()).add(
                    tuple(values[m] for m in modules))

        def sweep_alpha(args, kwargs, result):
            system = _arg(args, kwargs, 0, "system")
            c["combine.distinct_smell_maps"] += 1
            c["combine.sweep_sorts"] += len(system.bug_ids) * len(result.values)

        def hash_file(args, kwargs, _):
            c["manifest.bytes_hashed"] += os.path.getsize(_arg(args, kwargs, 0, "path"))

        return {
            "corpus.build_corpus": build_corpus,
            "corpus.split_identifiers": split,
            "corpus.normalize_tokens": normalize_tokens,
            "index.build_index": index_shape,
            "index.load_index": index_shape,
            "index.save_index": save_index,
            "index.cosine_score": cosine_score,
            "dataio.load_external_scores": load_external_scores,
            "dataio.filter_dataset": filter_dataset,
            "smells.smell_values": smell_values,
            "combine.sweep_alpha": sweep_alpha,
            "manifest.hash_file": hash_file,
        }

    def _config_search(self, fn):
        """Wrap config_search so the smell maps it sweeps can be counted.

        Configurations inducing the same smell map share one sweep, so the
        distinct maps per system, times reports and grid points, give the
        number of sorted rankings the sweep builds.
        """
        def counted(systems, configs, *args, **kwargs):
            self._smell_maps = {}
            try:
                report = fn(systems, configs, *args, **kwargs)
            finally:
                maps, self._smell_maps = self._smell_maps, None
            c = self.counts
            c["combine.configs"] += len(configs)
            for system, _ in systems:
                distinct = len(maps.get(tuple(sorted(system.modules)), ()))
                grid = len(report.rows[0].curves[system.name]["map"])
                c["combine.distinct_smell_maps"] += distinct
                c["combine.sweep_sorts"] += distinct * len(system.bug_ids) * grid
            return report

        return counted

    # ---------------------------------------------------------- results

    def new_run(self) -> None:
        self.run_id += 1
        self._run_start = len(self.start)
        self.counts.clear()
        self._subtokens.clear()

    def finish_run(self) -> dict[str, float]:
        """Per-layer self times and counts of the current run."""
        self.counts["corpus.distinct_subtokens"] = len(self._subtokens)
        self_ns = Counter()
        calls = Counter()
        dur: dict[int, int] = {}
        # Children follow their parent, so walking backwards sees every
        # child's duration before its parent's.
        for i in range(len(self.start) - 1, self._run_start - 1, -1):
            d = self.end[i] - self.start[i]
            own = d - dur.pop(i, 0)
            name = self.names[self.span_name[i]]
            self_ns[name] += own
            calls[name] += 1
            p = self.parent[i]
            if p >= 0:
                dur[p] = dur.get(p, 0) + d
        self.counts["trace.spans"] = len(self.start) - self._run_start
        out: dict[str, float] = {}
        for metric, names in TIME_METRICS.items():
            out[metric] = sum(self_ns[n] for n in names) / 1e9
        for metric, name in CALL_METRICS.items():
            out[metric] = float(calls[name])
        for metric in COUNT_METRICS:
            out[metric] = float(self.counts[metric])
        return out

    def write(self, path: Path) -> None:
        """Write every span as tab-separated lines, gzip-compressed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("run\tspan\tparent\tname\tstart_ns\tend_ns\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(f"{self.run[i]}\t{i}\t{self.parent[i]}\t"
                         f"{names[self.span_name[i]]}\t{self.start[i]}\t{self.end[i]}\n")

