"""Tests for dataset loading, validation, and the selection protocol."""

import itertools
import json
import logging

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smelloc import combine, dataio
from smelloc.cli import main
from smelloc.corpus import source_files
from smelloc.dataio import (
    REASON_MISSING,
    REASON_NAN,
    REASON_NO_GOLD,
    REASON_NO_SMELLS,
    REASON_TOO_FEW,
    BugReport,
    filter_dataset,
    load_bug_reports,
    load_descriptor,
    load_external_scores,
    load_smell_report,
    load_system,
    prepare_system,
    validate_ranking,
    write_score_lines,
)
from smelloc.index import ScoredRanking
from smelloc.smells import SMELL_TYPE_BY_NAME, SmellInstance

from _oracles import load_external_scores_by_json_loads, write_score_lines_by_json_dumps
from conftest import JAVA_BUGS, JAVA_SMELLS, JAVA_SNAPSHOT, write_hbase_fixture


class TestBugReports:
    def test_load(self, tmp_path):
        path = tmp_path / "bugs.json"
        path.write_text(json.dumps(JAVA_BUGS), encoding="utf-8")
        reports = load_bug_reports(path)
        assert [r.id for r in reports] == ["B-1", "B-2", "B-3", "B-4", "B-5"]
        assert reports[0].gold == frozenset({"com/app/StoreManager.java"})
        assert reports[0].summary == "store manager cache flush fails"

    def test_malformed_json_includes_position(self, tmp_path):
        path = tmp_path / "bugs.json"
        path.write_text('[{"id": "B-1"', encoding="utf-8")
        with pytest.raises(ValueError, match=r"bugs\.json:1: malformed JSON"):
            load_bug_reports(path)

    def test_not_an_array(self, tmp_path):
        path = tmp_path / "bugs.json"
        path.write_text('{"id": "B-1"}', encoding="utf-8")
        with pytest.raises(ValueError, match="expected a JSON array"):
            load_bug_reports(path)

    def test_empty_gold_rejected_with_position(self, tmp_path):
        path = tmp_path / "bugs.json"
        path.write_text(
            json.dumps([{"id": "B-1", "gold": ["a"]}, {"id": "B-2", "gold": []}]),
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match="bug report #1.*empty gold"):
            load_bug_reports(path)

    def test_duplicate_ids_rejected(self, tmp_path):
        path = tmp_path / "bugs.json"
        path.write_text(
            json.dumps(
                [{"id": "B-1", "gold": ["a"]}, {"id": "B-1", "gold": ["b"]}]
            ),
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match="duplicate bug report id"):
            load_bug_reports(path)

    def test_missing_id_rejected(self, tmp_path):
        path = tmp_path / "bugs.json"
        path.write_text(json.dumps([{"gold": ["a"]}]), encoding="utf-8")
        with pytest.raises(ValueError, match="bug report #0"):
            load_bug_reports(path)

    @pytest.mark.parametrize(
        "gold", ["a/B.java", ["a/B.java", 3], {"a/B.java": 1}, None, [["a"]]]
    )
    def test_gold_must_be_array_of_strings(self, tmp_path, gold):
        path = tmp_path / "bugs.json"
        path.write_text(
            json.dumps([{"id": "B-1", "gold": ["a"]}, {"id": "B-2", "gold": gold}]),
            encoding="utf-8",
        )
        with pytest.raises(ValueError) as info:
            load_bug_reports(path)
        assert str(info.value).startswith(
            f"{path}: bug report #1: gold must be a JSON array of strings"
        )

    @pytest.mark.parametrize("bug_id", [None, 7, 7.5, True, {"id": "B-2"}, ["B-2"]])
    def test_id_must_be_string(self, tmp_path, bug_id):
        path = tmp_path / "bugs.json"
        path.write_text(
            json.dumps([{"id": "B-1", "gold": ["a"]}, {"id": bug_id, "gold": ["b"]}]),
            encoding="utf-8",
        )
        with pytest.raises(ValueError) as info:
            load_bug_reports(path)
        assert str(info.value) == (
            f"{path}: bug report #1: id must be a string, got {bug_id!r}"
        )

    @pytest.mark.parametrize("field", ["summary", "description"])
    @pytest.mark.parametrize("value", [None, 7, ["x"], {"text": "x"}])
    def test_text_fields_must_be_strings(self, tmp_path, field, value):
        path = tmp_path / "bugs.json"
        path.write_text(
            json.dumps([{"id": "B-1", "gold": ["a"]}, {"id": "B-2", field: value,
                                                       "gold": ["b"]}]),
            encoding="utf-8",
        )
        with pytest.raises(ValueError) as info:
            load_bug_reports(path)
        assert str(info.value) == (
            f"{path}: bug report #1: {field} must be a string, got {value!r}"
        )

    def test_absent_text_fields_load_empty(self, tmp_path):
        path = tmp_path / "bugs.json"
        path.write_text(json.dumps([{"id": "B-1", "gold": ["a"]}]), encoding="utf-8")
        (report,) = load_bug_reports(path)
        assert (report.summary, report.description) == ("", "")

    def test_empty_id_rejected(self, tmp_path):
        path = tmp_path / "bugs.json"
        path.write_text(json.dumps([{"id": "", "gold": ["a"]}]), encoding="utf-8")
        with pytest.raises(ValueError, match="bug report #0: bug report needs a nonempty id"):
            load_bug_reports(path)

    def test_report_validation(self):
        with pytest.raises(ValueError, match="nonempty id"):
            BugReport(id="", summary="", description="", gold=frozenset({"a"}))
        with pytest.raises(ValueError, match="empty gold"):
            BugReport(id="B-1", summary="", description="", gold=frozenset())


class TestSmellReport:
    def test_load(self, tmp_path):
        path = tmp_path / "smells.json"
        path.write_text(json.dumps(JAVA_SMELLS), encoding="utf-8")
        instances = load_smell_report(path)
        assert len(instances) == 4
        assert instances[0].type is SMELL_TYPE_BY_NAME["God Class"]
        assert instances[2].method_signature == "openSocketChannel(String,int)"

    def test_unknown_type_with_position(self, tmp_path):
        path = tmp_path / "smells.json"
        path.write_text(
            json.dumps([{"type": "Lazy Class", "module": "a", "severity": 3}]),
            encoding="utf-8",
        )
        with pytest.raises(
            ValueError, match="smell instance #0.*unknown smell type 'Lazy Class'"
        ):
            load_smell_report(path)

    def test_bad_severity_with_position(self, tmp_path):
        path = tmp_path / "smells.json"
        path.write_text(
            json.dumps(
                [
                    {"type": "Blob Class", "module": "a", "severity": 5},
                    {"type": "Blob Class", "module": "a", "severity": 12},
                ]
            ),
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match="smell instance #1.*outside 1..10"):
            load_smell_report(path)

    @pytest.mark.parametrize("severity", [True, False, 2.5, 3.0, "5", None])
    def test_severity_must_be_integer(self, tmp_path, severity):
        path = tmp_path / "smells.json"
        path.write_text(
            json.dumps(
                [
                    {"type": "Blob Class", "module": "a", "severity": 5},
                    {"type": "Blob Class", "module": "a", "severity": severity},
                ]
            ),
            encoding="utf-8",
        )
        with pytest.raises(ValueError) as info:
            load_smell_report(path)
        assert str(info.value).startswith(
            f"{path}: smell instance #1: severity must be an integer"
        )

    @pytest.mark.parametrize("module", [None, ["x"], 7])
    def test_module_must_be_string(self, tmp_path, module):
        path = tmp_path / "smells.json"
        path.write_text(
            json.dumps([{"type": "Blob Class", "module": module, "severity": 5}]),
            encoding="utf-8",
        )
        with pytest.raises(ValueError) as info:
            load_smell_report(path)
        assert str(info.value) == (
            f"{path}: smell instance #0: module must be a string, got {module!r}"
        )

    def test_method_must_be_string(self, tmp_path):
        path = tmp_path / "smells.json"
        path.write_text(
            json.dumps([{"type": "Feature Envy", "module": "a", "method": 5, "severity": 5}]),
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match="#0: method must be a string, got 5"):
            load_smell_report(path)

    def test_method_smell_needs_signature(self, tmp_path):
        path = tmp_path / "smells.json"
        path.write_text(
            json.dumps([{"type": "Feature Envy", "module": "a", "severity": 5}]),
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match="needs a method signature"):
            load_smell_report(path)


class TestExternalScores:
    def _write(self, path, rows):
        with open(path, "w", encoding="utf-8") as fh:
            for row in rows:
                fh.write(json.dumps(row) + "\n")

    def test_load(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        self._write(
            path,
            [
                {"bug": "B-1", "module": "a", "score": 0.9},
                {"bug": "B-1", "module": "b", "score": 0.1},
                {"bug": "B-2", "module": "a", "score": 0.4},
            ],
        )
        scores = load_external_scores(path, "buglocator")
        assert scores.technique == "buglocator"
        assert scores.by_bug == {
            "B-1": {"a": 0.9, "b": 0.1},
            "B-2": {"a": 0.4},
        }

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        path.write_text(
            '\n{"bug": "B-1", "module": "a", "score": 1.0}\n\n', encoding="utf-8"
        )
        assert load_external_scores(path, "t").by_bug == {"B-1": {"a": 1.0}}

    def test_duplicate_pair_rejected_with_line(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        self._write(
            path,
            [
                {"bug": "B-1", "module": "a", "score": 0.9},
                {"bug": "B-1", "module": "a", "score": 0.8},
            ],
        )
        with pytest.raises(ValueError, match=r"scores\.jsonl:2: duplicate score"):
            load_external_scores(path, "t")

    def test_bad_entry_reports_line(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        path.write_text(
            '{"bug": "B-1", "module": "a", "score": 1.0}\n{"bug": "B-2"}\n',
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match=r"scores\.jsonl:2: bad score entry"):
            load_external_scores(path, "t")

    def test_unknown_bug_warns_once(self, tmp_path, caplog):
        path = tmp_path / "scores.jsonl"
        self._write(
            path,
            [
                {"bug": "ghost", "module": "a", "score": 0.9},
                {"bug": "ghost", "module": "b", "score": 0.2},
            ],
        )
        with caplog.at_level(logging.WARNING, logger="smelloc.dataio"):
            scores = load_external_scores(path, "t", known_bugs=["B-1"])
        assert "ghost" in scores.by_bug
        warnings = [r for r in caplog.records if "unknown bug id" in r.message]
        assert len(warnings) == 1

    @pytest.mark.parametrize("line", [1, 2, 3000])
    def test_bad_byte_names_its_line(self, tmp_path, line):
        # Line 3000 lies well past the decoder's first chunk, so lines before
        # it have been parsed when the error surfaces.
        rows = [
            b'{"bug": "B-1", "module": "m%d.java", "score": 0.5}\n' % i
            for i in range(1, 3001)
        ]
        rows[line - 1] = b'{"bug": "B-1", "module": "\xc3(.java", "score": 0.5}\n'
        path = tmp_path / "scores.jsonl"
        path.write_bytes(b"".join(rows))
        with pytest.raises(ValueError) as info:
            load_external_scores(path, "t")
        assert str(info.value) == (
            f"{path}:{line}: not valid UTF-8: invalid continuation byte"
        )

    @pytest.mark.parametrize("extra", [0, 400])
    def test_bad_byte_wins_over_an_earlier_duplicate(self, tmp_path, extra):
        # With 400 more lines the bad byte lies past the decoder's first
        # chunk, so the duplicate on line 2 is parsed before it surfaces.
        row = b'{"bug": "B-1", "module": "m%d.java", "score": 0.5}\n'
        rows = [row % 0, row % 0] + [row % i for i in range(1, 3 + extra)]
        rows.append(b'{"bug": "B-1", "module": "\xff.java", "score": 0.5}\n')
        path = tmp_path / "scores.jsonl"
        path.write_bytes(b"".join(rows))
        want = f"{path}:{5 + extra}: not valid UTF-8: invalid start byte"
        for load in (load_external_scores, load_external_scores_by_json_loads):
            with pytest.raises(ValueError) as info:
                load(path, "t")
            assert str(info.value) == want

    def test_non_finite_scores_pass_through(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        path.write_text(
            '{"bug": "B-1", "module": "a", "score": NaN}\n', encoding="utf-8"
        )
        scores = load_external_scores(path, "t")
        value = scores.by_bug["B-1"]["a"]
        assert value != value  # the validity filter flags it downstream


def _hex_map(by_bug):
    """Score maps with floats as float.hex, keeping every dict's key order."""
    return [(bug, [(m, v.hex()) for m, v in scores.items()]) for bug, scores in by_bug.items()]


def _outcome(load, path):
    """What a loader makes of a dump: its score maps or its error message."""
    try:
        return _hex_map(load(path, "t", known_bugs=["B-1"]).by_bug)
    except ValueError as exc:  # a duplicate (bug, module) pair or a bad byte
        return str(exc)


# Ids with quotes, backslashes, control characters, non-ASCII characters and
# lone surrogates, all of which json.dumps escapes.
_ID_CHARS = st.one_of(
    st.sampled_from(['"', "\\", "\x00", "\n", "\x1f", "\x7f", "\u2028", "\ud800", "\udfff",
                     "\xe9", "\u2603", "\U0001d11e", "/", " "]),
    st.characters(),
)
_IDS = st.text(_ID_CHARS, min_size=1, max_size=8)
_SCORES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1.7976931348623157e308, 0.1 + 0.2, 1.0, 1e16]),
    st.floats(allow_nan=False, allow_infinity=False),
)


class TestScoreDumpsAgainstOracles:
    """The score-dump reader and writer against their json.loads/json.dumps
    references in tests/_oracles.py, every float compared by float.hex."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(_IDS, st.dictionaries(_IDS, _SCORES, max_size=8)),
            max_size=4,
            unique_by=lambda r: r[0],
        )
    )
    def test_writer_bytes_match_oracle(self, tmp_path_factory, raw):
        rankings = [
            ScoredRanking(bug_id=bug, technique="t", entries=tuple(scores.items()))
            for bug, scores in raw
        ]
        work = tmp_path_factory.mktemp("write")
        write_score_lines(work / "new.jsonl", rankings)
        write_score_lines_by_json_dumps(work / "old.jsonl", rankings)
        assert (work / "new.jsonl").read_bytes() == (work / "old.jsonl").read_bytes()
        # JSON joins an escaped surrogate pair into one character, so the
        # dump is read back with the reference loader, not compared to raw.
        assert _outcome(load_external_scores, work / "new.jsonl") == _outcome(
            load_external_scores_by_json_loads, work / "new.jsonl"
        )

    @staticmethod
    def _line(rng, bug, module, score):
        """One record with shuffled keys and random JSON whitespace."""
        items = [("bug", bug), ("module", module), ("score", score)]
        rng.shuffle(items)
        ws = lambda: rng.choice(["", " ", "\t", "  "])
        body = ",".join(
            f"{ws()}{json.dumps(k)}{ws()}:{ws()}{v}{ws()}" for k, v in items
        )
        return rng.choice(["", " ", "\t", "\x0c"]) + "{" + body + "}" + rng.choice(["", " "])

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.tuples(st.sampled_from(["B-1", "B-2", "\u00e9\"q", "\ud800"]),
                           st.builds("{}{}".format,
                                     st.sampled_from(["a", "c/D.java", "\\x", "\u2603"]),
                                     st.integers(0, 9)),
                           st.one_of(
                               _SCORES.map(repr),
                               st.integers(-10**20, 10**20).map(str),
                               st.sampled_from(["NaN", "Infinity", "-Infinity", "1e5",
                                                "-0.0", "1E-400", "2e308"]),
                           ),
                           st.booleans()),
                 max_size=25),
        st.randoms(use_true_random=False),
        st.sampled_from(["\n", "\r\n"]),
        st.booleans(),
    )
    def test_loader_matches_oracle(self, tmp_path_factory, rows, rng, newline, blanks):
        lines = []
        for bug, module, score, ascii_ids in rows:
            enc = lambda v: json.dumps(v, ensure_ascii=ascii_ids)
            lines.append(self._line(rng, enc(bug), enc(module), score))
            if blanks and rng.random() < 0.3:
                lines.append(rng.choice(["", "  ", "\t"]))
        path = tmp_path_factory.mktemp("load") / "scores.jsonl"
        with open(path, "w", encoding="utf-8", errors="surrogatepass", newline="") as fh:
            fh.write("".join(line + newline for line in lines))
        assert _outcome(load_external_scores, path) == _outcome(
            load_external_scores_by_json_loads, path
        )

    def test_unknown_bug_warnings_match_oracle(self, tmp_path, caplog):
        path = tmp_path / "scores.jsonl"
        rows = [("ghost", "a"), ("B-1", "a"), ("ghost", "b"), ("other", "a"), ("other", "b")]
        path.write_text("".join(
            json.dumps({"bug": b, "module": m, "score": 0.5}) + "\n" for b, m in rows
        ))
        messages = []
        for load in (load_external_scores, load_external_scores_by_json_loads):
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="smelloc.dataio"):
                load(path, "t", known_bugs=["B-1"])
            messages.append([r.getMessage() for r in caplog.records])
        assert messages[0] == messages[1] == [
            f"{path}:1: score for unknown bug id 'ghost'",
            f"{path}:4: score for unknown bug id 'other'",
        ]

    @pytest.mark.parametrize(
        "bad",
        [
            '{"bug": "B-1", "module": "b", "score": 1.0} x',
            '{"bug": "B-1", "module": "b", "score": 1.0}  {"bug": "B-1"}',
            '{"bug": "B-1", "module": "b", "score": 1.0}]',
            '{"bug": "B-1", "module": "b", "sco',
            '{"bug": "B-1", "module": "b"}',
            '{"module": "b", "score": 1.0}',
            '[1, 2]',
            '"B-1"',
            "null",
            "nul",
            '\ufeff{"bug": "B-1", "module": "b", "score": 1.0}',
            '{"bug": "B-1", "module": "b", "score": 1.0,}',
            '{"bug": "B-1", "module": "b", "score": .5}',
            '{"bug": "B-1", "module": "a", "score": 1.0}',
        ],
    )
    def test_malformed_line_errors_match_oracle(self, tmp_path, bad):
        path = tmp_path / "scores.jsonl"
        path.write_text('{"bug": "B-1", "module": "a", "score": 1.0}\n' + bad + "\n",
                        encoding="utf-8")
        with pytest.raises(ValueError) as want:
            load_external_scores_by_json_loads(path, "t")
        with pytest.raises(ValueError) as got:
            load_external_scores(path, "t")
        assert str(want.value).startswith(f"{path}:2: ")
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("bug", 7, "bug must be a string, got 7"),
            ("bug", None, "bug must be a string, got None"),
            ("module", ["x"], "module must be a string, got ['x']"),
            ("score", "0.5", "score must be a number, got '0.5'"),
            ("score", True, "score must be a number, got True"),
            ("score", 10**400, "int too large to convert to float"),
        ],
        ids=["bug-int", "bug-null", "module-list", "score-str", "score-bool", "score-huge-int"],
    )
    def test_strict_fields_exit_2(self, tmp_path, capsys, field, value, message):
        files = write_hbase_fixture(tmp_path)
        scores = files["scores"]
        rec = {"bug": "B-1", "module": "a", "score": 0.5, field: value}
        with open(scores, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(rec) + "\n")
        lineno = len(scores.read_text().splitlines())
        rc = main(["combine", "--scores", str(scores), "--smells", str(files["smells"]),
                   "--alpha", "0.5", "--out", str(tmp_path / "blend.jsonl")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {scores}:{lineno}: bad score entry: {message}\n"
        )


def _load_logged(load, path):
    """A loader's outcome on a dump, with the warnings it logged."""
    records = []
    handler = logging.Handler()
    handler.emit = records.append
    dataio_logger = logging.getLogger("smelloc.dataio")
    dataio_logger.addHandler(handler)
    try:
        outcome = _outcome(load, path)
    finally:
        dataio_logger.removeHandler(handler)
    return outcome, [r.getMessage() for r in records]


def _count_decodes(mp):
    """Record every line that reaches the per-line decoder."""
    calls = []
    decode = dataio._decode_line

    def counted(line):
        calls.append(line)
        return decode(line)

    mp.setattr(dataio, "_decode_line", counted)
    return calls


def _refuse_decodes(mp):
    def refuse(line):
        raise AssertionError(f"line reached the per-line decoder: {line!r}")

    mp.setattr(dataio, "_decode_line", refuse)


# Ids that json.dumps writes verbatim: printable ASCII without quote or
# backslash.
_PLAIN_IDS = st.text(
    st.characters(min_codepoint=0x20, max_codepoint=0x7E, blacklist_characters='"\\'),
    min_size=1,
    max_size=8,
)
_LINE_TEMPLATE = '{{"bug": "B-1", "module": "{}", "score": {}}}'


class TestBulkScoreReader:
    """The block-at-a-time reader of writer-shaped dumps against the
    json.loads reference, and the lines it leaves to the per-line decoder."""

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.one_of(_PLAIN_IDS, _IDS), min_size=1, max_size=3, unique=True),
        st.one_of(_PLAIN_IDS, _IDS),
        st.lists(_SCORES, min_size=1, max_size=8),
        st.integers(1200, 2500),
        st.sampled_from(["\n", "\r\n"]),
        st.booleans(),
    )
    def test_dumps_across_blocks_match_oracle(
        self, tmp_path_factory, bugs, prefix, scores, count, newline, final_newline
    ):
        # At least 1,200 lines of 58 characters or more: every dump spans
        # blocks, so lines straddle their boundaries.
        modules = [f"{prefix}/Module{i:05d}.java" for i in range(count)]
        rankings = [
            ScoredRanking(bug_id=bug, technique="t",
                          entries=tuple(zip(modules, itertools.cycle(scores))))
            for bug in bugs
        ]
        path = tmp_path_factory.mktemp("blocks") / "scores.jsonl"
        write_score_lines(path, rankings)
        data = path.read_bytes()
        assert len(data.decode("utf-8")) > dataio._BLOCK_CHARS
        if not final_newline:
            data = data[:-1]
        path.write_bytes(data.replace(b"\n", newline.encode()))
        with pytest.MonkeyPatch.context() as mp:
            calls = _count_decodes(mp)
            got = _load_logged(load_external_scores, path)
        assert got == _load_logged(load_external_scores_by_json_loads, path)
        # Only an id that json.dumps escapes sends the dump to the decoder.
        plain = all(json.dumps(i) == f'"{i}"' for i in [*bugs, prefix])
        assert bool(calls) != plain

    def test_writer_dump_never_reaches_the_line_decoder(self, tmp_path, monkeypatch, caplog):
        modules = [f"org/app/m{i}/Module{i}.java" for i in range(1500)]
        rankings = [
            ScoredRanking(bug_id=bug, technique="t",
                          entries=tuple((m, 1 / (i + 1)) for i, m in enumerate(modules)))
            for bug in ("B-1", "ghost", "B-2")
        ]
        path = tmp_path / "scores.jsonl"
        write_score_lines(path, rankings)
        _refuse_decodes(monkeypatch)
        with caplog.at_level(logging.WARNING, logger="smelloc.dataio"):
            scores = load_external_scores(path, "t", known_bugs=["B-1", "B-2"])
        assert list(scores.by_bug) == ["B-1", "ghost", "B-2"]
        assert list(scores.by_bug["B-2"].items()) == list(rankings[2].entries)
        assert [r.getMessage() for r in caplog.records] == [
            f"{path}:1501: score for unknown bug id 'ghost'"
        ]

    @pytest.mark.parametrize(
        "line",
        [
            _LINE_TEMPLATE.format("b", "5"),
            _LINE_TEMPLATE.format("b", "-0"),
            _LINE_TEMPLATE.format("b", "123456789012345678901234567890"),
            _LINE_TEMPLATE.format("b", "1."),
            _LINE_TEMPLATE.format("b", "01.5"),
            _LINE_TEMPLATE.format("b", "NaN"),
            _LINE_TEMPLATE.format("b", "-Infinity"),
            _LINE_TEMPLATE.format('b\\"q', "0.5"),
            _LINE_TEMPLATE.format("b\\\\q", "0.5"),
            _LINE_TEMPLATE.format("caf\\u00e9", "0.5"),
            # The escaped quote hides the rest of the line from JSON.
            _LINE_TEMPLATE.format("b\\", "0.5"),
            _LINE_TEMPLATE.format("b\tq", "0.5"),
            _LINE_TEMPLATE.format("b\x01q", "0.5"),
            '{"bug":  "B-1", "module": "b", "score": 0.5}',
            '{"bug": "B-1", "module": "b", "score": 0.5 }',
            ' {"bug": "B-1", "module": "b", "score": 0.5}',
            '{"module": "b", "bug": "B-1", "score": 0.5}',
            "",
        ],
        ids=["int", "minus-zero", "big-int", "trailing-dot", "leading-zero", "nan",
             "minus-infinity", "escaped-quote", "escaped-backslash", "escaped-e-acute",
             "backslash-before-quote", "raw-tab", "raw-u0001", "double-space",
             "space-before-brace", "leading-space", "reordered-keys", "blank-line"],
    )
    def test_near_misses_go_to_the_line_decoder(self, tmp_path, monkeypatch, line):
        path = tmp_path / "scores.jsonl"
        path.write_text(
            _LINE_TEMPLATE.format("a", "1.0") + "\n" + line + "\n"
            + _LINE_TEMPLATE.format("c", "0.25") + "\n",
            encoding="utf-8",
        )
        calls = _count_decodes(monkeypatch)
        got = _load_logged(load_external_scores, path)
        assert calls
        assert got == _load_logged(load_external_scores_by_json_loads, path)

    @pytest.mark.parametrize(
        "module, score",
        [("b", "1e400"), ("b", "-1E-400"), ("b", "2.5e+3"), ("b\u2028q", "0.5"),
         ("b\x85q", "0.5"), ("b\x7fq", "0.5")],
        ids=["overflow", "underflow", "exponent", "u2028", "u0085", "u007f"],
    )
    def test_bulk_reader_takes_what_json_takes(self, tmp_path, monkeypatch, module, score):
        path = tmp_path / "scores.jsonl"
        path.write_text(
            _LINE_TEMPLATE.format("a", "1.0") + "\n" + _LINE_TEMPLATE.format(module, score),
            encoding="utf-8",
        )
        want = _load_logged(load_external_scores_by_json_loads, path)
        _refuse_decodes(monkeypatch)
        assert _load_logged(load_external_scores, path) == want

    def test_unknown_bug_warns_once_before_a_duplicate(self, tmp_path, caplog):
        # The bulk reader gives up at the duplicate without logging; the
        # line decoder then warns once and names the duplicate.
        rows = [("ghost", "a"), ("B-1", "a"), ("B-1", "b"), ("ghost", "b"), ("B-1", "a")]
        path = tmp_path / "scores.jsonl"
        path.write_text("".join(
            json.dumps({"bug": b, "module": m, "score": 0.5}) + "\n" for b, m in rows
        ), encoding="utf-8")
        with caplog.at_level(logging.WARNING, logger="smelloc.dataio"):
            with pytest.raises(ValueError) as info:
                load_external_scores(path, "t", known_bugs=["B-1"])
        assert [r.getMessage() for r in caplog.records] == [
            f"{path}:1: score for unknown bug id 'ghost'"
        ]
        assert str(info.value) == f"{path}:5: duplicate score for bug 'B-1', module 'a'"


class TestDescriptorAndSystem:
    def test_descriptor_resolves_relative_paths(self, java_system):
        descriptor = load_descriptor(java_system["descriptor"])
        assert descriptor.name == "demo-1.0"
        assert descriptor.snapshot_path == java_system["src"]
        assert descriptor.bug_reports_path == java_system["bugs"]
        assert descriptor.smell_report_path == java_system["smells"]
        assert descriptor.external_score_paths == {}

    def test_descriptor_missing_key(self, tmp_path):
        path = tmp_path / "system.json"
        path.write_text(json.dumps({"project": "p", "version": "1"}))
        with pytest.raises(ValueError, match="descriptor missing key"):
            load_descriptor(path)

    @pytest.mark.parametrize("key", ["project", "version", "snapshot"])
    @pytest.mark.parametrize("value", [None, 1, ["x"]])
    def test_descriptor_fields_must_be_strings(self, tmp_path, key, value):
        path = tmp_path / "system.json"
        rec = {"project": "p", "version": "1", "snapshot": "src", "bugs": "b.json",
               "smells": "s.json"}
        rec[key] = value
        path.write_text(json.dumps(rec))
        with pytest.raises(ValueError) as info:
            load_descriptor(path)
        assert str(info.value) == f"{path}: {key} must be a string, got {value!r}"

    @pytest.mark.parametrize("text", ["[]", '{"project": "p", "version": "1", '
                                      '"snapshot": "s", "bugs": "b", "smells": "m", '
                                      '"scores": {"ext": 3}}'])
    def test_descriptor_shape_rejected(self, tmp_path, text):
        path = tmp_path / "system.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{path}: "):
            load_descriptor(path)

    def test_descriptor_absolute_paths_kept(self, tmp_path):
        path = tmp_path / "system.json"
        path.write_text(
            json.dumps(
                {
                    "project": "p",
                    "version": "1",
                    "snapshot": "/abs/src",
                    "bugs": "/abs/bugs.json",
                    "smells": "/abs/smells.json",
                    "scores": {"ext": "/abs/scores.jsonl"},
                }
            )
        )
        descriptor = load_descriptor(path)
        assert str(descriptor.snapshot_path) == "/abs/src"
        assert str(descriptor.external_score_paths["ext"]) == "/abs/scores.jsonl"

    def test_load_system(self, java_system):
        snapshot = load_system(load_descriptor(java_system["descriptor"]))
        assert snapshot.name == "demo-1.0"
        assert set(snapshot.modules) == set(JAVA_SNAPSHOT)
        assert len(snapshot.reports) == 5
        assert len(snapshot.smells) == 4

    def test_load_system_reads_no_source_text_and_no_dump(self, java_system,
                                                          monkeypatch):
        _forbid(monkeypatch, "build_corpus", "load_external_scores")
        descriptor = load_descriptor(_with_dumps(java_system, ext="{not json\n"))
        snapshot = load_system(descriptor)
        assert snapshot.descriptor == descriptor
        assert snapshot.modules == tuple(
            doc_id for doc_id, _ in source_files(java_system["src"])
        )

    def test_load_system_warns_on_stray_gold(self, java_system, caplog):
        bugs = json.loads(java_system["bugs"].read_text())
        bugs[0]["gold"].append("com/app/Ghost.java")
        java_system["bugs"].write_text(json.dumps(bugs))
        with caplog.at_level(logging.WARNING, logger="smelloc.dataio"):
            snapshot = load_system(load_descriptor(java_system["descriptor"]))
        assert any("gold modules not in snapshot" in r.message for r in caplog.records)
        # The stray module is kept on the report, not repaired away.
        assert "com/app/Ghost.java" in snapshot.reports[0].gold


def _forbid(monkeypatch, *names):
    """Make each named dataio reader fail the test when it is called."""
    def called(*args, **kwargs):
        raise AssertionError(f"called one of {names}")

    for name in names:
        monkeypatch.setattr(dataio, name, called)


def _with_dumps(java_system, **dumps):
    """A descriptor for java_system naming a score dump per keyword, each
    written with the given text; returns the descriptor's path."""
    root = java_system["root"]
    for name, text in dumps.items():
        (root / f"{name}.jsonl").write_text(text, encoding="utf-8")
    rec = json.loads(java_system["descriptor"].read_text())
    rec["scores"] = {name: f"{name}.jsonl" for name in dumps}
    path = root / "with-dumps.json"
    path.write_text(json.dumps(rec), encoding="utf-8")
    return path


class TestPrepareSystem:
    def test_native_techniques_share_the_snapshot_universe(self, java_system):
        snapshot = load_system(load_descriptor(java_system["descriptor"]))
        for technique in ("vsm", "rvsm"):
            system, scores = prepare_system(snapshot, technique)
            assert system.modules == snapshot.modules
            assert scores.technique == technique
            assert set(scores.by_bug) == {r.id for r in snapshot.reports}
            for per_bug in scores.by_bug.values():
                assert set(per_bug) == set(snapshot.modules)

    def test_returns_combine_inputs(self, java_system):
        snapshot = load_system(load_descriptor(java_system["descriptor"]))
        system, scores = prepare_system(snapshot, "vsm")
        assert isinstance(system, combine.System)
        assert isinstance(scores, combine.TechniqueScores)
        assert system.name == snapshot.name
        assert system.bug_ids == tuple(r.id for r in snapshot.reports)
        assert system.gold == {r.id: r.gold for r in snapshot.reports}
        assert system.smells == snapshot.smells

    def test_query_terms_rank_their_module_first(self, java_system):
        snapshot = load_system(load_descriptor(java_system["descriptor"]))
        _, scores = prepare_system(snapshot, "vsm")
        per_bug = scores.by_bug["B-1"]
        assert max(per_bug, key=per_bug.get) == "com/app/StoreManager.java"

    def test_native_scores_are_what_rank_writes(self, java_system, tmp_path):
        snapshot = load_system(load_descriptor(java_system["descriptor"]))
        _, scores = prepare_system(snapshot, "rvsm")
        out = tmp_path / "r.jsonl"
        assert main(["rank", "--technique", "rvsm", "--bugs", str(java_system["bugs"]),
                     "--snapshot", str(java_system["src"]), "--out", str(out)]) == 0
        with open(out, encoding="utf-8") as fh:
            for line in fh:
                rec = json.loads(line)
                assert scores.by_bug[rec["bug"]][rec["module"]] == rec["score"]

    def test_external_universe_extends_the_snapshot(self, java_system, caplog):
        ext = java_system["root"] / "ext.jsonl"
        rows = [
            {"bug": "B-1", "module": "com/app/StoreManager.java", "score": 0.7},
            {"bug": "B-1", "module": "vendor/Lib.java", "score": 0.9},
        ]
        ext.write_text("".join(json.dumps(r) + "\n" for r in rows))
        descriptor_path = java_system["root"] / "system2.json"
        descriptor_path.write_text(
            json.dumps(
                {
                    "project": "demo",
                    "version": "2.0",
                    "snapshot": "src",
                    "bugs": "bugs.json",
                    "smells": "smells.json",
                    "scores": {"ext": "ext.jsonl"},
                }
            )
        )
        snapshot = load_system(load_descriptor(descriptor_path))
        with caplog.at_level(logging.WARNING, logger="smelloc.dataio"):
            system, scores = prepare_system(snapshot, "ext")
        assert "vendor/Lib.java" in system.modules
        assert len(system.modules) == len(snapshot.modules) + 1
        # Universe modules the file skipped score 0.
        assert scores.by_bug["B-1"]["com/app/LogWriter.java"] == 0.0
        assert scores.by_bug["B-1"]["vendor/Lib.java"] == 0.9
        assert any("outside the snapshot" in r.message for r in caplog.records)
        assert any("filled with 0" in r.message for r in caplog.records)

    def test_unknown_technique(self, java_system):
        snapshot = load_system(load_descriptor(java_system["descriptor"]))
        with pytest.raises(ValueError, match="unknown technique 'whatever'"):
            prepare_system(snapshot, "whatever")

    def test_external_technique_reads_only_its_own_dump(self, java_system,
                                                        monkeypatch):
        _forbid(monkeypatch, "build_corpus")
        good = "".join(
            json.dumps({"bug": r["id"], "module": m, "score": 0.5}) + "\n"
            for r in JAVA_BUGS for m in JAVA_SNAPSHOT
        )
        path = _with_dumps(java_system, ext=good, broken="{not json\n")
        snapshot = load_system(load_descriptor(path))
        system, scores = prepare_system(snapshot, "ext")
        assert system.modules == snapshot.modules
        assert set(scores.by_bug) == {r["id"] for r in JAVA_BUGS}
        with pytest.raises(ValueError, match=r"broken\.jsonl:1: bad score entry"):
            prepare_system(snapshot, "broken")

    def test_native_technique_reads_no_dump(self, java_system, monkeypatch):
        _forbid(monkeypatch, "load_external_scores")
        path = _with_dumps(java_system, broken="{not json\n")
        system, _ = prepare_system(load_system(load_descriptor(path)), "vsm")
        assert system.modules == tuple(sorted(JAVA_SNAPSHOT))


class TestValidateRanking:
    def test_reason_priority(self):
        # Missing beats everything; non-finite beats no-gold.
        assert validate_ranking(None, {"a"}) == REASON_MISSING
        assert (
            validate_ranking({"a": float("nan"), "b": 1.0}, {"ghost"}) == REASON_NAN
        )
        assert validate_ranking({"b": 1.0}, {"ghost"}) == REASON_NO_GOLD
        assert validate_ranking({"a": 1.0, "b": 0.0}, {"a"}) is None

    def test_empty_scores_have_no_gold(self):
        assert validate_ranking({}, {"a"}) == REASON_NO_GOLD


def _prepared(name, reports, smells=True, nan_bugs=(), miss_gold=()):
    bug_reports = tuple(
        BugReport(id=f"{name}-b{i}", summary="s", description="d", gold=frozenset({"a"}))
        for i in range(reports)
    )
    by_bug = {}
    for i, report in enumerate(bug_reports):
        if report.id in nan_bugs:
            by_bug[report.id] = {"a": float("nan"), "b": 0.1}
        elif report.id in miss_gold:
            by_bug[report.id] = {"b": 0.1, "c": 0.2}
        else:
            by_bug[report.id] = {"a": 1.0 - i / 10, "b": 0.1, "c": 0.05}
    smell_list = (
        (
            SmellInstance(
                type=SMELL_TYPE_BY_NAME["Blob Class"], module="a", severity=5
            ),
        )
        if smells
        else ()
    )
    return (
        combine.System(
            name=name,
            modules=("a", "b", "c"),
            bug_ids=tuple(r.id for r in bug_reports),
            gold={r.id: r.gold for r in bug_reports},
            smells=smell_list,
        ),
        combine.TechniqueScores(technique="t", by_bug=by_bug),
    )


class TestFilterDataset:
    def test_passes_clean_systems_through(self):
        systems = [_prepared("s1", 6), _prepared("s2", 5)]
        kept, report = filter_dataset(systems)
        assert [s.name for s, _ in kept] == ["s1", "s2"]
        assert report.excluded_reports == ()
        assert report.excluded_systems == ()
        assert report.to_text() == "nothing excluded"

    def test_each_exclusion_has_one_reason(self):
        systems = [
            _prepared(
                "s1",
                7,
                nan_bugs={"s1-b0"},
                miss_gold={"s1-b1"},
            )
        ]
        kept, report = filter_dataset(systems)
        assert len(kept) == 1
        system, _ = kept[0]
        assert system.bug_ids == ("s1-b2", "s1-b3", "s1-b4", "s1-b5", "s1-b6")
        reasons = {e.bug_id: e.reason for e in report.excluded_reports}
        assert reasons == {"s1-b0": REASON_NAN, "s1-b1": REASON_NO_GOLD}

    def test_missing_technique_excludes_report(self):
        system, scores = _prepared("s1", 6)
        kept_map = dict(scores.by_bug)
        del kept_map["s1-b0"]
        scores = combine.TechniqueScores(technique="t", by_bug=kept_map)
        kept, report = filter_dataset([(system, scores), _prepared("s2", 5)])
        assert report.excluded_reports == (
            type(report.excluded_reports[0])(
                system="s1", bug_id="s1-b0", reason=REASON_MISSING
            ),
        )
        assert [s.name for s, _ in kept] == ["s1", "s2"]

    def test_smell_free_system_dropped(self):
        systems = [_prepared("s1", 6, smells=False), _prepared("s2", 6)]
        kept, report = filter_dataset(systems)
        assert [s.name for s, _ in kept] == ["s2"]
        assert report.excluded_systems[0].reason == REASON_NO_SMELLS

    def test_too_few_reports_dropped_after_report_filter(self):
        # Six reports but two invalid ones leave four: below the minimum.
        systems = [
            _prepared("s1", 6, nan_bugs={"s1-b0", "s1-b1"}),
            _prepared("s2", 5),
        ]
        kept, report = filter_dataset(systems)
        assert [s.name for s, _ in kept] == ["s2"]
        assert report.excluded_systems == (
            type(report.excluded_systems[0])(system="s1", reason=REASON_TOO_FEW),
        )
        assert len(report.excluded_reports) == 2

    def test_exactly_five_reports_survive(self):
        kept, _ = filter_dataset([_prepared("s1", 5)])
        assert len(kept[0][0].bug_ids) == 5

    def test_idempotent(self):
        systems = [
            _prepared("s1", 8, nan_bugs={"s1-b2"}),
            _prepared("s2", 4),
            _prepared("s3", 6, smells=False),
        ]
        kept, _ = filter_dataset(systems)
        again, report = filter_dataset(kept)
        assert again == kept
        assert report.excluded_reports == ()
        assert report.excluded_systems == ()

    def test_everything_excluded_raises(self):
        with pytest.raises(ValueError, match="dataset empty after filtering"):
            filter_dataset([_prepared("s1", 4)])

    def test_validation_report_serialization(self):
        systems = [_prepared("s1", 6, nan_bugs={"s1-b0"}), _prepared("s2", 3)]
        _, report = filter_dataset(systems)
        as_json = report.to_json_dict()
        assert as_json["excluded_reports"] == [
            {"system": "s1", "bug": "s1-b0", "reason": REASON_NAN}
        ]
        assert as_json["excluded_systems"] == [
            {"system": "s2", "reason": REASON_TOO_FEW}
        ]
        text = report.to_text()
        assert "excluded report s1-b0 of s1: nan-score" in text
        assert "excluded system s2: fewer-than-5-reports" in text
