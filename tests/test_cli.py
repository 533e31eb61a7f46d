"""End-to-end tests of the command-line interface."""

import csv
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

import smelloc
from smelloc.cli import main
from smelloc.index import load_index
from smelloc.smells import ALL_TYPE_NAMES

from conftest import HBASE_SCORES


def _read_jsonl(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class TestIndexCommand:
    def test_build_and_reuse(self, java_system, tmp_path, capsys):
        cache = tmp_path / "index.bin"
        rc = main(
            ["index", "--snapshot", str(java_system["src"]), "--out", str(cache)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "indexed 5 documents" in out
        loaded = load_index(cache)
        assert loaded.size == 5
        sidecar = _read_json(tmp_path / "index.bin.manifest.json")
        assert sidecar["tool"] == "smelloc"
        assert sidecar["random_free"] is True
        assert any("corpus sha256" in note for note in sidecar["notes"])

    def test_deterministic_rebuild(self, java_system, tmp_path):
        a = tmp_path / "a.bin"
        b = tmp_path / "b.bin"
        assert main(["index", "--snapshot", str(java_system["src"]), "--out", str(a)]) == 0
        assert main(["index", "--snapshot", str(java_system["src"]), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_snapshot(self, tmp_path, capsys):
        rc = main(["index", "--snapshot", str(tmp_path / "nope"), "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "snapshot directory not found" in capsys.readouterr().err

    def test_no_source_files(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        rc = main(["index", "--snapshot", str(empty), "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "no source files" in capsys.readouterr().err


class TestRankCommand:
    def test_vsm_from_snapshot(self, java_system, tmp_path):
        out = tmp_path / "rankings.jsonl"
        rc = main(
            [
                "rank",
                "--technique",
                "vsm",
                "--bugs",
                str(java_system["bugs"]),
                "--snapshot",
                str(java_system["src"]),
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        rows = _read_jsonl(out)
        assert {r["bug"] for r in rows} == {"B-1", "B-2", "B-3", "B-4", "B-5"}
        by_bug = {}
        for row in rows:
            by_bug.setdefault(row["bug"], []).append(row)
        # Five modules ranked per bug, best first.
        for bug_rows in by_bug.values():
            assert len(bug_rows) == 5
            scores = [r["score"] for r in bug_rows]
            assert scores == sorted(scores, reverse=True)
        assert by_bug["B-1"][0]["module"] == "com/app/StoreManager.java"
        assert by_bug["B-2"][0]["module"] == "com/app/HttpConnection.java"

    def test_index_cache_gives_same_rankings(self, java_system, tmp_path):
        cache = tmp_path / "index.bin"
        assert main(["index", "--snapshot", str(java_system["src"]), "--out", str(cache)]) == 0
        from_snapshot = tmp_path / "a.jsonl"
        from_cache = tmp_path / "b.jsonl"
        base = ["rank", "--technique", "rvsm", "--bugs", str(java_system["bugs"])]
        assert main(base + ["--snapshot", str(java_system["src"]), "--out", str(from_snapshot)]) == 0
        assert main(base + ["--index", str(cache), "--out", str(from_cache)]) == 0
        assert from_snapshot.read_bytes() == from_cache.read_bytes()

    def _cache(self, java_system, tmp_path):
        cache = tmp_path / "index.bin"
        assert main(["index", "--snapshot", str(java_system["src"]), "--out", str(cache)]) == 0
        return cache

    def _rank_checked(self, java_system, tmp_path, capsys, cache, extra=()):
        rc = main(["rank", "--technique", "rvsm", "--bugs", str(java_system["bugs"]),
                   "--index", str(cache), "--snapshot", str(java_system["src"]),
                   "--out", str(tmp_path / "r.jsonl")] + list(extra))
        return rc, capsys.readouterr().err

    def test_index_checked_against_snapshot(self, java_system, tmp_path, capsys):
        cache = self._cache(java_system, tmp_path)
        rc, err = self._rank_checked(java_system, tmp_path, capsys, cache)
        assert rc == 0, err

    def test_stale_index_after_source_edit(self, java_system, tmp_path, capsys):
        cache = self._cache(java_system, tmp_path)
        edited = java_system["src"] / "com/app/StoreManager.java"
        edited.write_text(edited.read_text() + "\n// evictionPolicy\n", encoding="utf-8")
        rc, err = self._rank_checked(java_system, tmp_path, capsys, cache)
        assert rc == 2
        assert f"stale index cache {cache}" in err
        assert not (tmp_path / "r.jsonl").exists()

    def test_stale_index_with_other_stopwords(self, java_system, tmp_path, capsys):
        cache = self._cache(java_system, tmp_path)
        words = tmp_path / "stop.txt"
        words.write_text("store\n", encoding="utf-8")
        rc, err = self._rank_checked(
            java_system, tmp_path, capsys, cache, ["--stopwords", str(words)]
        )
        assert rc == 2
        assert f"stale index cache {cache}" in err

    def test_single_bug_filter(self, java_system, tmp_path):
        out = tmp_path / "one.jsonl"
        rc = main(
            [
                "rank",
                "--technique",
                "vsm",
                "--bugs",
                str(java_system["bugs"]),
                "--snapshot",
                str(java_system["src"]),
                "--bug",
                "B-3",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        assert {r["bug"] for r in _read_jsonl(out)} == {"B-3"}

    def test_unknown_bug_id(self, java_system, tmp_path, capsys):
        rc = main(
            [
                "rank",
                "--technique",
                "vsm",
                "--bugs",
                str(java_system["bugs"]),
                "--snapshot",
                str(java_system["src"]),
                "--bug",
                "B-99",
                "--out",
                str(tmp_path / "x"),
            ]
        )
        assert rc == 2
        assert "bug id 'B-99' not found" in capsys.readouterr().err

    def test_external_scores(self, hbase_fixture, tmp_path):
        out = tmp_path / "ext.jsonl"
        rc = main(
            [
                "rank",
                "--technique",
                "external:amalgam",
                "--bugs",
                str(hbase_fixture["bugs"]),
                "--scores",
                str(hbase_fixture["scores"]),
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        rows = _read_jsonl(out)
        assert len(rows) == len(HBASE_SCORES)
        assert rows[0]["module"] == "TestTHLog"
        assert rows[0]["score"] == 1.0

    def test_external_needs_scores_flag(self, hbase_fixture, tmp_path, capsys):
        rc = main(
            [
                "rank",
                "--technique",
                "external:x",
                "--bugs",
                str(hbase_fixture["bugs"]),
                "--out",
                str(tmp_path / "x"),
            ]
        )
        assert rc == 2
        assert "need --scores" in capsys.readouterr().err

    def test_unknown_technique(self, java_system, tmp_path, capsys):
        rc = main(
            [
                "rank",
                "--technique",
                "bm25",
                "--bugs",
                str(java_system["bugs"]),
                "--snapshot",
                str(java_system["src"]),
                "--out",
                str(tmp_path / "x"),
            ]
        )
        assert rc == 2
        assert "unknown technique 'bm25'" in capsys.readouterr().err

    def test_native_needs_snapshot_or_index(self, java_system, tmp_path, capsys):
        rc = main(
            [
                "rank",
                "--technique",
                "vsm",
                "--bugs",
                str(java_system["bugs"]),
                "--out",
                str(tmp_path / "x"),
            ]
        )
        assert rc == 2
        assert "--snapshot or --index" in capsys.readouterr().err


class TestCombineCommand:
    def test_alpha_zero_keeps_baseline_order(self, hbase_fixture, tmp_path):
        out = tmp_path / "blend.jsonl"
        rc = main(
            [
                "combine",
                "--scores",
                str(hbase_fixture["scores"]),
                "--smells",
                str(hbase_fixture["smells"]),
                "--alpha",
                "0",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        rows = _read_jsonl(out)
        want = sorted(HBASE_SCORES, key=lambda m: (-HBASE_SCORES[m], m))
        assert [r["module"] for r in rows] == want
        # Scores are normalized; the leader's raw score is already 1.0.
        assert rows[0]["score"] == 1.0

    def test_alpha_one_ranks_by_smell(self, hbase_fixture, tmp_path):
        out = tmp_path / "blend.jsonl"
        rc = main(
            [
                "combine",
                "--scores",
                str(hbase_fixture["scores"]),
                "--smells",
                str(hbase_fixture["smells"]),
                "--alpha",
                "1",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        rows = _read_jsonl(out)
        # Severity sums: Store 13, HRegion/ServerManager/IndexedRegion 10,
        # HLog 3, everything else 0 (ties then by module id).
        assert rows[0]["module"] == "Store"
        assert [r["module"] for r in rows[1:4]] == [
            "HRegion",
            "IndexedRegion",
            "ServerManager",
        ]
        assert rows[4]["module"] == "HLog"

    def test_alpha_out_of_range(self, hbase_fixture, tmp_path, capsys):
        rc = main(
            [
                "combine",
                "--scores",
                str(hbase_fixture["scores"]),
                "--smells",
                str(hbase_fixture["smells"]),
                "--alpha",
                "1.5",
                "--out",
                str(tmp_path / "x"),
            ]
        )
        assert rc == 2
        assert "outside [0, 1]" in capsys.readouterr().err

    def test_alpha_or_sweep_required(self, hbase_fixture, tmp_path, capsys):
        rc = main(
            [
                "combine",
                "--scores",
                str(hbase_fixture["scores"]),
                "--smells",
                str(hbase_fixture["smells"]),
                "--out",
                str(tmp_path / "x"),
            ]
        )
        assert rc == 2
        assert "--alpha" in capsys.readouterr().err

    def test_sweep_csv(self, hbase_fixture, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = main(
            [
                "combine",
                "--scores",
                str(hbase_fixture["scores"]),
                "--smells",
                str(hbase_fixture["smells"]),
                "--bugs",
                str(hbase_fixture["bugs"]),
                "--sweep",
                "--metric",
                "map",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        rows = _read_csv(out)
        assert rows[0] == ["alpha", "map"]
        assert len(rows) == 102
        assert rows[1][0] == "0.0000"
        assert rows[-1][0] == "1.0000"
        assert all(len(r) == 2 for r in rows[1:])
        assert (tmp_path / "sweep.csv.manifest.json").exists()
        assert "swept g1,a1,s1 on map" in capsys.readouterr().out

    def test_sweep_json_embeds_manifest(self, hbase_fixture, tmp_path):
        out = tmp_path / "sweep.json"
        rc = main(
            [
                "combine",
                "--scores",
                str(hbase_fixture["scores"]),
                "--smells",
                str(hbase_fixture["smells"]),
                "--bugs",
                str(hbase_fixture["bugs"]),
                "--sweep",
                "--format",
                "json",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        payload = _read_json(out)
        assert payload["config"] == "g1,a1,s1"
        assert payload["metric"] == "map"
        assert len(payload["alphas"]) == 101
        assert len(payload["values"]) == 101
        assert payload["shape"] in {"flat", "baseline", "plateau", "mountain"}
        assert payload["best_alpha"] == min(payload["best_alphas"])
        assert payload["manifest"]["tool"] == "smelloc"
        assert not (tmp_path / "sweep.json.manifest.json").exists()

    def test_sweep_needs_bugs(self, hbase_fixture, tmp_path, capsys):
        rc = main(
            [
                "combine",
                "--scores",
                str(hbase_fixture["scores"]),
                "--smells",
                str(hbase_fixture["smells"]),
                "--sweep",
                "--out",
                str(tmp_path / "x"),
            ]
        )
        assert rc == 2
        assert "needs --bugs" in capsys.readouterr().err

    def test_unknown_selector_label(self, hbase_fixture, tmp_path, capsys):
        rc = main(
            [
                "combine",
                "--scores",
                str(hbase_fixture["scores"]),
                "--smells",
                str(hbase_fixture["smells"]),
                "--config",
                "g1,a1,s3",
                "--alpha",
                "0.3",
                "--out",
                str(tmp_path / "x"),
            ]
        )
        assert rc == 2
        assert "not derived" in capsys.readouterr().err

    def test_single_type_selector(self, hbase_fixture, tmp_path):
        out = tmp_path / "blend.jsonl"
        rc = main(
            [
                "combine",
                "--scores",
                str(hbase_fixture["scores"]),
                "--smells",
                str(hbase_fixture["smells"]),
                "--config",
                "g1,a2,God Class",
                "--alpha",
                "1",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        rows = _read_jsonl(out)
        # Only God Class severities count: HRegion and IndexedRegion 10,
        # Store 4; max-aggregator then normalize.
        assert [r["module"] for r in rows[:3]] == ["HRegion", "IndexedRegion", "Store"]


class TestEvaluateCommand:
    def _rank(self, java_system, tmp_path, name="rankings.jsonl"):
        out = tmp_path / name
        assert (
            main(
                [
                    "rank",
                    "--technique",
                    "vsm",
                    "--bugs",
                    str(java_system["bugs"]),
                    "--snapshot",
                    str(java_system["src"]),
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        return out

    def test_json_report(self, java_system, tmp_path):
        rankings = self._rank(java_system, tmp_path)
        out = tmp_path / "eval.json"
        rc = main(
            [
                "evaluate",
                "--rankings",
                str(rankings),
                "--bugs",
                str(java_system["bugs"]),
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        payload = _read_json(out)
        assert payload["reports"] == 5
        assert set(payload["top"]) == {"1", "5", "10"}
        assert set(payload["counts"]) == {"1", "5", "10"}
        assert payload["counts"]["5"] == 5  # five modules total, gold always ranked
        assert 0.0 <= payload["map"] <= 1.0
        assert len(payload["per_report"]) == 5
        assert payload["manifest"]["inputs"]["rankings"]["sha256"]

    def test_csv_report_with_sidecar(self, java_system, tmp_path):
        rankings = self._rank(java_system, tmp_path)
        out = tmp_path / "eval.csv"
        rc = main(
            [
                "evaluate",
                "--rankings",
                str(rankings),
                "--bugs",
                str(java_system["bugs"]),
                "--format",
                "csv",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        rows = _read_csv(out)
        assert rows[0] == ["metric", "value", "count"]
        assert [r[0] for r in rows[1:6]] == ["top1", "top5", "top10", "mrr", "map"]
        assert (tmp_path / "eval.csv.manifest.json").exists()

    def test_compare_identical_is_no_difference(self, java_system, tmp_path):
        rankings = self._rank(java_system, tmp_path)
        out = tmp_path / "eval.json"
        rc = main(
            [
                "evaluate",
                "--rankings",
                str(rankings),
                "--bugs",
                str(java_system["bugs"]),
                "--compare",
                str(rankings),
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        payload = _read_json(out)
        for metric in ("top1", "top5", "top10", "mrr", "map"):
            block = payload["comparison"][metric]
            assert block["p_value"] is None
            assert block["note"] == "no difference"
            assert block["cliffs_delta"] == 0.0

    def test_missing_bug_in_rankings(self, java_system, tmp_path, capsys):
        rankings = self._rank(java_system, tmp_path)
        kept = [
            row for row in _read_jsonl(rankings) if row["bug"] != "B-2"
        ]
        rankings.write_text("".join(json.dumps(r) + "\n" for r in kept))
        rc = main(
            [
                "evaluate",
                "--rankings",
                str(rankings),
                "--bugs",
                str(java_system["bugs"]),
                "--out",
                str(tmp_path / "x"),
            ]
        )
        assert rc == 2
        assert "no scores for bug reports" in capsys.readouterr().err


class TestRiskCommand:
    def _modules_file(self, tmp_path, modules):
        path = tmp_path / "modules.txt"
        path.write_text("".join(m + "\n" for m in modules), encoding="utf-8")
        return path

    def test_table_from_modules_file(self, java_system, tmp_path):
        modules = self._modules_file(
            tmp_path,
            [
                "com/app/StoreManager.java",
                "com/app/HttpConnection.java",
                "com/app/LogWriter.java",
                "com/app/MathUtil.java",
                "com/app/StringPool.java",
            ],
        )
        out = tmp_path / "risk.csv"
        selectors_out = tmp_path / "selectors.json"
        rc = main(
            [
                "risk",
                "--smells",
                str(java_system["smells"]),
                "--modules",
                str(modules),
                "--bugs",
                str(java_system["bugs"]),
                "--out",
                str(out),
                "--selectors-out",
                str(selectors_out),
            ]
        )
        assert rc == 0
        rows = _read_csv(out)
        assert len(rows) == 19  # header + 16 types + Total + All files
        by_name = {r[0]: r for r in rows[1:]}
        # Gold sets name StoreManager, HttpConnection, and LogWriter.
        assert by_name["All files"][1:3] == ["5", "3"]
        # StoreManager is buggy and is the only God Class module; the
        # complement holds 2 buggy of 4 modules, so the ratio is 1.0/0.5.
        assert by_name["God Class"][1:3] == ["1", "1"]
        assert by_name["God Class"][5] == "2.0000"
        selectors = _read_json(selectors_out)
        assert set(selectors) >= {"s1", "s2", "s3", "s4", "s5", "manifest"}
        assert sorted(selectors["s1"]) == sorted(ALL_TYPE_NAMES)
        assert "Data Class" not in selectors["s2"]

    def test_snapshot_universe(self, java_system, tmp_path):
        out = tmp_path / "risk.csv"
        rc = main(
            [
                "risk",
                "--smells",
                str(java_system["smells"]),
                "--snapshot",
                str(java_system["src"]),
                "--bugs",
                str(java_system["bugs"]),
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        rows = _read_csv(out)
        assert {r[0] for r in rows[1:]} >= {"Total", "All files"}
        by_name = {r[0]: r for r in rows[1:]}
        assert by_name["All files"][1] == "5"

    def test_stray_buggy_dropped_with_warning(self, java_system, tmp_path, caplog):
        modules = self._modules_file(
            tmp_path, ["com/app/StoreManager.java", "com/app/MathUtil.java"]
        )
        out = tmp_path / "risk.csv"
        with caplog.at_level(logging.WARNING, logger="smelloc.cli"):
            rc = main(
                [
                    "risk",
                    "--smells",
                    str(java_system["smells"]),
                    "--modules",
                    str(modules),
                    "--bugs",
                    str(java_system["bugs"]),
                    "--out",
                    str(out),
                ]
            )
        assert rc == 0
        assert any("buggy modules outside the universe" in r.message for r in caplog.records)
        assert any("smell instances outside the universe" in r.message for r in caplog.records)
        by_name = {r[0]: r for r in _read_csv(out)[1:]}
        assert by_name["All files"][1:3] == ["2", "1"]

    def test_bug_free_dataset_has_zero_ratios(self, java_system, tmp_path):
        # A universe that contains the smelly modules but none of the gold.
        modules = self._modules_file(
            tmp_path,
            [
                "com/app/StoreManager.java",
                "com/app/HttpConnection.java",
                "com/app/MathUtil.java",
                "other/Unrelated.java",
            ],
        )
        bugs = tmp_path / "strange_bugs.json"
        bugs.write_text(
            json.dumps([{"id": "X-1", "gold": ["elsewhere/Gone.java"]}]),
            encoding="utf-8",
        )
        out = tmp_path / "risk.csv"
        rc = main(
            [
                "risk",
                "--smells",
                str(java_system["smells"]),
                "--modules",
                str(modules),
                "--bugs",
                str(bugs),
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        by_name = {r[0]: r for r in _read_csv(out)[1:]}
        assert by_name["God Class"][5] == "0.0000"
        assert by_name["Total"][5] == "0.0000"

    def test_selectors_file_round_trips(self, java_system, tmp_path):
        # The file written by --selectors-out must feed straight back into
        # the commands that take --selectors, manifest block and all.
        modules = self._modules_file(
            tmp_path,
            [
                "com/app/StoreManager.java",
                "com/app/HttpConnection.java",
                "com/app/LogWriter.java",
                "com/app/MathUtil.java",
                "com/app/StringPool.java",
            ],
        )
        selectors = tmp_path / "selectors.json"
        rc = main(
            [
                "risk",
                "--smells",
                str(java_system["smells"]),
                "--modules",
                str(modules),
                "--bugs",
                str(java_system["bugs"]),
                "--out",
                str(tmp_path / "risk.csv"),
                "--selectors-out",
                str(selectors),
            ]
        )
        assert rc == 0
        assert "manifest" in _read_json(selectors)
        scores = tmp_path / "scores.jsonl"
        assert (
            main(
                [
                    "rank",
                    "--technique",
                    "vsm",
                    "--bugs",
                    str(java_system["bugs"]),
                    "--snapshot",
                    str(java_system["src"]),
                    "--out",
                    str(scores),
                ]
            )
            == 0
        )
        rc = main(
            [
                "combine",
                "--scores",
                str(scores),
                "--smells",
                str(java_system["smells"]),
                "--config",
                "g1,a1,s2",
                "--selectors",
                str(selectors),
                "--alpha",
                "0.31",
                "--out",
                str(tmp_path / "blend.jsonl"),
            ]
        )
        assert rc == 0
        rc = main(
            [
                "config-search",
                "--systems",
                str(java_system["descriptor"]),
                "--technique",
                "vsm",
                "--selectors",
                str(selectors),
                "--out",
                str(tmp_path / "search.csv"),
            ]
        )
        assert rc == 0
        assert len(_read_csv(tmp_path / "search.csv")) == 152

    def test_no_smells_in_universe(self, java_system, tmp_path, capsys):
        modules = self._modules_file(tmp_path, ["elsewhere/Other.java"])
        rc = main(
            [
                "risk",
                "--smells",
                str(java_system["smells"]),
                "--modules",
                str(modules),
                "--bugs",
                str(java_system["bugs"]),
                "--out",
                str(tmp_path / "x"),
            ]
        )
        assert rc == 2
        assert "no smell instance" in capsys.readouterr().err


class TestConfigSearchCommand:
    def test_csv_search(self, java_system, tmp_path, capsys):
        out = tmp_path / "search.csv"
        rc = main(
            [
                "config-search",
                "--systems",
                str(java_system["descriptor"]),
                "--technique",
                "rvsm",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        rows = _read_csv(out)
        assert rows[0] == [
            "config",
            "top1",
            "top5",
            "top10",
            "mrr",
            "map",
            "#systems",
            "original",
        ]
        assert len(rows) == 1 + 150 + 1
        assert rows[-1][0] == "(ideal)"
        originals = [r for r in rows[1:-1] if r[7] == "yes"]
        assert len(originals) == 1
        assert originals[0][0] == "g1,a1,s1"
        ideal_map = float(rows[-1][5])
        assert all(float(r[5]) <= ideal_map + 1e-9 for r in rows[1:-1])
        assert "searched 150 configurations over 1 systems" in capsys.readouterr().out

    def test_single_type_configs_included(self, java_system, tmp_path):
        out = tmp_path / "search.csv"
        rc = main(
            [
                "config-search",
                "--systems",
                str(java_system["descriptor"]),
                "--technique",
                "rvsm",
                "--include-single-type",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        rows = _read_csv(out)
        assert len(rows) == 1 + 218 + 1
        labels = {r[0] for r in rows[1:-1]}
        assert "Blob Class,a2" in labels
        assert "Feature Envy,a6" in labels

    def test_json_report(self, java_system, tmp_path):
        out = tmp_path / "search.json"
        rc = main(
            [
                "config-search",
                "--systems",
                str(java_system["descriptor"]),
                "--technique",
                "vsm",
                "--format",
                "json",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        payload = _read_json(out)
        assert payload["technique"] == "vsm"
        assert payload["systems"] == ["demo-1.0"]
        assert len(payload["rows"]) == 150
        first = payload["rows"][0]
        assert set(first["metrics"]) == {"top1", "top5", "top10", "mrr", "map"}
        curve = first["curves"]["demo-1.0"]["map"]
        assert len(curve) == 101
        assert set(payload["ideal"]) == {"top1", "top5", "top10", "mrr", "map"}
        assert payload["validation"] == {
            "excluded_reports": [],
            "excluded_systems": [],
        }
        assert payload["manifest"]["inputs"]["descriptor0"]["sha256"]

    def test_parallel_matches_serial(self, java_system, tmp_path):
        serial = tmp_path / "serial.csv"
        parallel = tmp_path / "parallel.csv"
        base = [
            "config-search",
            "--systems",
            str(java_system["descriptor"]),
            "--technique",
            "rvsm",
        ]
        assert main(base + ["--out", str(serial)]) == 0
        assert main(base + ["--jobs", "2", "--out", str(parallel)]) == 0
        assert serial.read_bytes() == parallel.read_bytes()

    def test_explicit_selectors_file(self, java_system, tmp_path):
        selectors = tmp_path / "selectors.json"
        selectors.write_text(
            json.dumps(
                {
                    "s2": ["Blob Class", "God Class"],
                    "s3": ["Blob Class"],
                    "s4": ["God Class"],
                    "s5": ["Blob Class", "God Class", "Feature Envy"],
                }
            )
        )
        out = tmp_path / "search.csv"
        rc = main(
            [
                "config-search",
                "--systems",
                str(java_system["descriptor"]),
                "--technique",
                "rvsm",
                "--selectors",
                str(selectors),
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        assert len(_read_csv(out)) == 152

    def test_unknown_selector_type_rejected(self, java_system, tmp_path, capsys):
        selectors = tmp_path / "selectors.json"
        selectors.write_text(json.dumps({"s2": ["Giant Class"]}))
        rc = main(
            [
                "config-search",
                "--systems",
                str(java_system["descriptor"]),
                "--technique",
                "rvsm",
                "--selectors",
                str(selectors),
                "--out",
                str(tmp_path / "x"),
            ]
        )
        assert rc == 2
        assert "unknown smell types" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("project", None), ("version", 1.0)])
    def test_non_string_descriptor_field_exits_2(self, java_system, tmp_path, capsys,
                                                 key, value):
        rec = json.loads(java_system["descriptor"].read_text())
        rec[key] = value
        descriptor = java_system["descriptor"].with_name("bad.json")
        descriptor.write_text(json.dumps(rec))
        rc = main(["config-search", "--systems", str(descriptor), "--technique", "rvsm",
                   "--out", str(tmp_path / "x")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {descriptor}: {key} must be a string, got {value!r}\n"
        )

    def test_unknown_technique(self, java_system, tmp_path, capsys):
        rc = main(
            [
                "config-search",
                "--systems",
                str(java_system["descriptor"]),
                "--technique",
                "nonesuch",
                "--out",
                str(tmp_path / "x"),
            ]
        )
        assert rc == 2
        assert "unknown technique" in capsys.readouterr().err


class TestConvertCommand:
    XML = """<bugrepository>
      <bug id="B-1" opendate="2010-01-01" fixdate="2010-02-01">
        <buginformation>
          <summary>scanner crash</summary>
          <description>the store scanner crashes on flush</description>
        </buginformation>
        <fixedFiles>
          <file>src\\com\\app\\Store.java</file>
          <file>src/com/app/Flush.java</file>
        </fixedFiles>
      </bug>
      <bug id="B-2">
        <buginformation><summary>no files</summary></buginformation>
        <fixedFiles></fixedFiles>
      </bug>
    </bugrepository>"""

    def test_convert(self, tmp_path, caplog):
        repo = tmp_path / "repo.xml"
        repo.write_text(self.XML, encoding="utf-8")
        out = tmp_path / "bugs.json"
        with caplog.at_level(logging.WARNING, logger="smelloc.cli"):
            rc = main(
                [
                    "convert",
                    "--bugrepo",
                    str(repo),
                    "--strip-prefix",
                    "src/",
                    "--out",
                    str(out),
                ]
            )
        assert rc == 0
        records = _read_json(out)
        assert len(records) == 1
        assert records[0]["id"] == "B-1"
        assert records[0]["summary"] == "scanner crash"
        assert records[0]["gold"] == ["com/app/Flush.java", "com/app/Store.java"]
        assert any("no fixed files" in r.message for r in caplog.records)

    def test_converted_file_loads_as_bug_reports(self, tmp_path):
        repo = tmp_path / "repo.xml"
        repo.write_text(self.XML, encoding="utf-8")
        out = tmp_path / "bugs.json"
        assert main(["convert", "--bugrepo", str(repo), "--out", str(out)]) == 0
        from smelloc.dataio import load_bug_reports

        reports = load_bug_reports(out)
        assert reports[0].id == "B-1"
        assert "src/com/app/Store.java" in reports[0].gold

    def test_malformed_xml(self, tmp_path, capsys):
        repo = tmp_path / "repo.xml"
        repo.write_text("<bugrepository><bug", encoding="utf-8")
        rc = main(["convert", "--bugrepo", str(repo), "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "malformed XML" in capsys.readouterr().err

    def test_nothing_convertible(self, tmp_path, capsys):
        repo = tmp_path / "repo.xml"
        repo.write_text("<bugrepository></bugrepository>", encoding="utf-8")
        rc = main(["convert", "--bugrepo", str(repo), "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "no convertible bug entries" in capsys.readouterr().err


class TestStrictInputs:
    def test_string_gold_exits_2(self, java_system, tmp_path, capsys):
        bugs = tmp_path / "bugs.json"
        bugs.write_text(
            json.dumps([{"id": "B-1", "summary": "x", "gold": "com/app/StoreManager.java"}]),
            encoding="utf-8",
        )
        rc = main(["rank", "--technique", "vsm", "--bugs", str(bugs), "--snapshot",
                   str(java_system["src"]), "--out", str(tmp_path / "r.jsonl")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {bugs}: bug report #0: ")

    @pytest.mark.parametrize("bug_id", [None, 7])
    def test_non_string_id_exits_2(self, java_system, tmp_path, capsys, bug_id):
        bugs = tmp_path / "bugs.json"
        bugs.write_text(
            json.dumps([{"id": bug_id, "summary": "x", "gold": ["com/app/StoreManager.java"]}]),
            encoding="utf-8",
        )
        rc = main(["rank", "--technique", "vsm", "--bugs", str(bugs), "--snapshot",
                   str(java_system["src"]), "--out", str(tmp_path / "r.jsonl")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {bugs}: bug report #0: id must be a string, got {bug_id!r}\n"
        )

    @pytest.mark.parametrize("module", [None, ["x"]])
    def test_non_string_smell_module_exits_2(self, java_system, tmp_path, capsys, module):
        smells = tmp_path / "smells.json"
        smells.write_text(
            json.dumps([{"type": "Blob Class", "module": module, "severity": 5}]),
            encoding="utf-8",
        )
        rc = main(["risk", "--smells", str(smells), "--snapshot", str(java_system["src"]),
                   "--bugs", str(java_system["bugs"]), "--out", str(tmp_path / "r.csv")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {smells}: smell instance #0: module must be a string, got {module!r}\n"
        )

    @pytest.mark.parametrize("command", ["combine", "config-search"])
    @pytest.mark.parametrize(
        "text, message",
        [
            (b'[["God Class"]]', ": selectors must be a JSON object\n"),
            (b'{"s2": "God Class"}',
             ": selector 's2' must be a JSON array of smell type names, got 'God Class'\n"),
            (b'{"s2": ["God Class", 3]}',
             ": selector 's2' must be a JSON array of smell type names, "
             "got ['God Class', 3]\n"),
            (b'{"s2": ["God Class"', ":1: malformed JSON: "),
            (b'{"s2": ["God \xff Class"]}', ":1: not valid UTF-8: invalid start byte\n"),
        ],
        ids=["array", "string-value", "non-string-type", "malformed", "not-utf8"],
    )
    def test_bad_selectors_file_exits_2(self, request, tmp_path, capsys, command, text,
                                        message):
        selectors = tmp_path / "selectors.json"
        selectors.write_bytes(text)
        if command == "combine":
            fixture = request.getfixturevalue("hbase_fixture")
            argv = ["combine", "--scores", str(fixture["scores"]), "--smells",
                    str(fixture["smells"]), "--config", "g1,a1,s2", "--alpha", "0.5"]
        else:
            fixture = request.getfixturevalue("java_system")
            argv = ["config-search", "--systems", str(fixture["descriptor"]),
                    "--technique", "rvsm"]
        rc = main(argv + ["--selectors", str(selectors), "--out", str(tmp_path / "x")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {selectors}{message}")

    @pytest.mark.parametrize("severity", [True, 2.5])
    def test_non_integer_severity_exits_2(self, java_system, tmp_path, capsys, severity):
        smells = tmp_path / "smells.json"
        smells.write_text(
            json.dumps([{"type": "Blob Class", "module": "com/app/StoreManager.java",
                         "severity": severity}]),
            encoding="utf-8",
        )
        rc = main(["risk", "--smells", str(smells), "--snapshot", str(java_system["src"]),
                   "--bugs", str(java_system["bugs"]), "--out", str(tmp_path / "r.csv")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {smells}: smell instance #0: ")


    @pytest.mark.parametrize(
        "text, message",
        [
            (b"[1, 2]", ": unrecognized index cache\n"),
            (b'{"format": "smelloc-index", "version": 1, "corpus_hash": "x", '
             b'"vocabulary": {}, "doc_freq": [], "doc_lengths": {}}',
             ": unrecognized index cache\n"),
            (b"PK\x03\x04", ":1: malformed JSON: Expecting value\n"),
        ],
        ids=["array", "no-doc-vectors", "not-json"],
    )
    def test_bad_index_cache_exits_2(self, java_system, tmp_path, capsys, text, message):
        cache = tmp_path / "index.bin"
        cache.write_bytes(text)
        rc = main(["rank", "--technique", "vsm", "--bugs", str(java_system["bugs"]),
                   "--index", str(cache), "--out", str(tmp_path / "r.jsonl")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {cache}{message}"

    @pytest.mark.parametrize(
        "reader", ["run-config", "stopwords", "modules", "descriptor", "index"]
    )
    def test_non_utf8_file_exits_2_naming_it(self, java_system, tmp_path, capsys, reader):
        # Each reader gets its own kind of file with a 0xff byte on line 2.
        bad = tmp_path / "bad"
        bad.write_bytes(b'{\n"project": "\xff"}\n' if reader in (
            "run-config", "descriptor", "index") else b"store\n\xffx\n")
        bugs, src, out = str(java_system["bugs"]), str(java_system["src"]), str(tmp_path / "x")
        rank = ["rank", "--technique", "vsm", "--bugs", bugs, "--out", out]
        argv = {
            "run-config": rank + ["--snapshot", src, "--run-config", str(bad)],
            "stopwords": rank + ["--snapshot", src, "--stopwords", str(bad)],
            "modules": ["risk", "--smells", str(java_system["smells"]), "--modules", str(bad),
                        "--bugs", bugs, "--out", out],
            "descriptor": ["config-search", "--systems", str(bad), "--technique", "vsm",
                           "--out", out],
            "index": rank + ["--index", str(bad)],
        }[reader]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}:2: not valid UTF-8: ")

    @pytest.mark.parametrize("reader", ["bugs", "smells", "scores"])
    def test_non_utf8_record_exits_2_naming_its_line(self, java_system, tmp_path, capsys,
                                                     reader):
        # A 0xff byte inside an id on line 2: with errors="replace" it would
        # load as U+FFFD, another gold path, smelly module or ranked module.
        bad = tmp_path / "bad"
        bad.write_bytes({
            "bugs": b'[{"id": "B-1", "summary": "store",\n'
                    b'  "gold": ["com/app/St\xffore.java"]}]\n',
            "smells": b'[{"type": "Blob Class", "severity": 5,\n'
                      b'  "module": "com/app/St\xffore.java"}]\n',
            "scores": b'{"bug": "B-1", "module": "A.java", "score": 0.5}\n'
                      b'{"bug": "B-1", "module": "A\xff.java", "score": 0.2}\n',
        }[reader])
        bugs, src, out = str(java_system["bugs"]), str(java_system["src"]), str(tmp_path / "x")
        argv = {
            "bugs": ["rank", "--technique", "vsm", "--bugs", str(bad), "--snapshot", src,
                     "--out", out],
            "smells": ["risk", "--smells", str(bad), "--snapshot", src, "--bugs", bugs,
                       "--out", out],
            "scores": ["rank", "--technique", "external:x", "--scores", str(bad),
                       "--bugs", bugs, "--out", out],
        }[reader]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: {bad}:2: not valid UTF-8: invalid start byte\n"
        )


class TestCommonFlags:
    def test_run_config_fills_defaults(self, hbase_fixture, tmp_path):
        run_config = tmp_path / "run.json"
        run_config.write_text(json.dumps({"format": "json", "metric": "mrr"}))
        out = tmp_path / "sweep.out"
        rc = main(
            [
                "combine",
                "--scores",
                str(hbase_fixture["scores"]),
                "--smells",
                str(hbase_fixture["smells"]),
                "--bugs",
                str(hbase_fixture["bugs"]),
                "--sweep",
                "--run-config",
                str(run_config),
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        payload = _read_json(out)  # json format came from the run config
        assert payload["metric"] == "mrr"
        assert payload["manifest"]["config_hash"]

    def test_explicit_flag_beats_run_config(self, hbase_fixture, tmp_path):
        run_config = tmp_path / "run.json"
        run_config.write_text(json.dumps({"metric": "mrr"}))
        out = tmp_path / "sweep.csv"
        rc = main(
            [
                "combine",
                "--scores",
                str(hbase_fixture["scores"]),
                "--smells",
                str(hbase_fixture["smells"]),
                "--bugs",
                str(hbase_fixture["bugs"]),
                "--sweep",
                "--metric",
                "top1",
                "--run-config",
                str(run_config),
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        assert _read_csv(out)[0] == ["alpha", "top1"]

    def test_malformed_run_config(self, hbase_fixture, tmp_path, capsys):
        run_config = tmp_path / "run.json"
        run_config.write_text("{broken")
        rc = main(
            [
                "combine",
                "--scores",
                str(hbase_fixture["scores"]),
                "--smells",
                str(hbase_fixture["smells"]),
                "--alpha",
                "0",
                "--run-config",
                str(run_config),
                "--out",
                str(tmp_path / "x"),
            ]
        )
        assert rc == 2
        assert "malformed JSON" in capsys.readouterr().err

    def test_run_config_must_be_object(self, hbase_fixture, tmp_path, capsys):
        run_config = tmp_path / "run.json"
        run_config.write_text("[1, 2]")
        rc = main(
            [
                "combine",
                "--scores",
                str(hbase_fixture["scores"]),
                "--smells",
                str(hbase_fixture["smells"]),
                "--alpha",
                "0",
                "--run-config",
                str(run_config),
                "--out",
                str(tmp_path / "x"),
            ]
        )
        assert rc == 2
        assert "must be a JSON object" in capsys.readouterr().err

    def _blend(self, hbase_fixture, out, *extra):
        return main(
            [
                "combine",
                "--scores",
                str(hbase_fixture["scores"]),
                "--smells",
                str(hbase_fixture["smells"]),
                "--out",
                str(out),
                *extra,
            ]
        )

    @pytest.mark.parametrize("alpha", ["0.3", 0.3])
    def test_run_config_value_reads_like_the_flag(self, hbase_fixture, tmp_path, alpha):
        run_config = tmp_path / "run.json"
        run_config.write_text(json.dumps({"alpha": alpha}))
        flag_out, config_out = tmp_path / "flag.jsonl", tmp_path / "config.jsonl"
        assert self._blend(hbase_fixture, flag_out, "--alpha", "0.3") == 0
        assert self._blend(hbase_fixture, config_out, "--run-config", str(run_config)) == 0
        assert config_out.read_bytes() == flag_out.read_bytes()

    def test_run_config_list_flag_takes_one_value(self, java_system, tmp_path, capsys):
        run_config = tmp_path / "run.json"
        index = ["index", "--snapshot", str(java_system["src"]), "--run-config", str(run_config)]
        run_config.write_text(json.dumps({"extensions": ".kt"}))
        assert main(index + ["--out", str(tmp_path / "kt.bin")]) == 2
        assert "no source files" in capsys.readouterr().err
        run_config.write_text(json.dumps({"extensions": ".java"}))
        assert main(index + ["--out", str(tmp_path / "java.bin")]) == 0
        assert main(["index", "--snapshot", str(java_system["src"]),
                     "--out", str(tmp_path / "plain.bin")]) == 0
        assert (tmp_path / "java.bin").read_bytes() == (tmp_path / "plain.bin").read_bytes()

    @pytest.mark.parametrize(
        "cfg",
        [
            {"alpha": "x"},
            {"alpha": None},
            {"alpha": True},
            {"alpha": [0.3]},
            {"alpha": {"value": 0.3}},
            {"jobs": "2.5"},
            {"metric": "bogus"},
            {"sweep": "yes"},
        ],
    )
    def test_bad_run_config_value_exits_2(self, hbase_fixture, tmp_path, capsys, cfg):
        run_config = tmp_path / "run.json"
        run_config.write_text(json.dumps(cfg))
        rc = self._blend(hbase_fixture, tmp_path / "x", "--alpha", "0",
                         "--run-config", str(run_config))
        assert rc == 2
        (key,) = cfg
        assert capsys.readouterr().err.startswith(f"error: {run_config}: key {key!r}: ")

    def test_misspelt_run_config_key_exits_2(self, hbase_fixture, tmp_path, capsys):
        run_config = tmp_path / "run.json"
        run_config.write_text(json.dumps({"alhpa": 0.3}))
        rc = self._blend(hbase_fixture, tmp_path / "x", "--alpha", "0.5",
                         "--run-config", str(run_config))
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {run_config}: key 'alhpa' names no flag of any command\n"
        )

    def test_other_commands_run_config_keys_ignored(self, hbase_fixture, tmp_path):
        run_config = tmp_path / "run.json"
        # snapshot and selectors-out are flags of other commands, not combine's.
        run_config.write_text(json.dumps({"alpha": 0.3, "snapshot": "src",
                                          "selectors-out": "s.json"}))
        flag_out, config_out = tmp_path / "flag.jsonl", tmp_path / "config.jsonl"
        assert self._blend(hbase_fixture, flag_out, "--alpha", "0.3") == 0
        assert self._blend(hbase_fixture, config_out, "--run-config", str(run_config)) == 0
        assert config_out.read_bytes() == flag_out.read_bytes()

    def test_bad_jobs_value(self, java_system, tmp_path, capsys):
        rc = main(
            [
                "index",
                "--snapshot",
                str(java_system["src"]),
                "--jobs",
                "-1",
                "--out",
                str(tmp_path / "x.bin"),
            ]
        )
        assert rc == 2
        assert "--jobs must be at least 1" in capsys.readouterr().err

    def test_missing_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


def _fresh_python(*args):
    """Run a new interpreter that imports smelloc from this source tree."""
    env = dict(os.environ, PYTHONPATH=str(Path(smelloc.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, check=False
    )


class TestStartup:
    # Modules only some commands run; importing the CLI must not load them.
    DEFERRED = (
        "smelloc.combine",
        "smelloc.risk",
        "smelloc.metrics",
        "concurrent.futures.process",
        "xml.etree.ElementTree",
        "csv",
    )

    def test_cli_import_leaves_command_modules_unloaded(self):
        proc = _fresh_python(
            "-c",
            "import smelloc.cli, sys; "
            f"print([m for m in {self.DEFERRED!r} if m in sys.modules])",
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_rank_leaves_blending_modules_unloaded(self, java_system, tmp_path):
        script = (
            "import json, sys, smelloc.cli; rc = smelloc.cli.main(sys.argv[1:]); "
            "print(json.dumps([m for m in sys.modules if m.startswith('smelloc.')])); "
            "sys.exit(rc)"
        )
        argv = ["rank", "--technique", "rvsm", "--bugs", str(java_system["bugs"]),
                "--snapshot", str(java_system["src"]), "--out", str(tmp_path / "r.jsonl")]
        proc = _fresh_python("-c", script, *argv)
        assert proc.returncode == 0, proc.stderr
        loaded = set(json.loads(proc.stdout.splitlines()[-1]))
        # rank scores through dataio, which imports combine only to prepare
        # systems for config-search and smells only to read a smell report.
        assert {
            "smelloc.combine", "smelloc.risk", "smelloc.metrics", "smelloc.smells"
        }.isdisjoint(loaded)
