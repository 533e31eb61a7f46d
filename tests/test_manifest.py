"""Tests for the report writer against json.dump."""

import json
import math
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smelloc.manifest import build_manifest, write_json_report, write_sidecar_manifest

from _oracles import write_json_report_by_generators, write_json_report_by_json_dump

# Every code point, lone surrogates included, plus strings that need escapes.
_TEXT = st.one_of(
    st.text(st.characters(exclude_categories=()), max_size=8),
    st.sampled_from(["", "\x00\x1f\x7f", '"\\/\b\f\n\r\t', "\ud800", "\udfff x",
                     "é漢😀", "  "]),
)
_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e16, 1e-7, 1.0, 0.1, 1e308]),
)
_INTS = st.one_of(st.integers(-(2**70), 2**70), st.sampled_from([0, -1, 2**64, -(10**40)]))
_SCALARS = st.one_of(_TEXT, _FLOATS, _INTS, st.booleans(), st.none())


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(_TEXT, children, max_size=5),
        # Curves: float lists take the writer's fast path; bools and ints
        # mixed in must send a list down the general one.
        st.lists(_FLOATS, max_size=12),
        st.lists(_FLOATS, max_size=12).map(tuple),
        st.lists(st.one_of(_FLOATS, st.booleans(), _INTS), max_size=8),
    )


_PAYLOADS = st.dictionaries(
    _TEXT, st.recursive(_SCALARS, _containers, max_leaves=30), max_size=6
)


def _both(payload, manifest):
    """Bytes written by the package writer and by json.dump, or the error
    type each raised."""
    with tempfile.TemporaryDirectory() as tmp:
        out = []
        for writer in (write_json_report, write_json_report_by_json_dump):
            path = Path(tmp) / "report.json"
            try:
                writer(payload, path, manifest)
            except (TypeError, ValueError) as exc:
                out.append(type(exc))
            else:
                out.append(path.read_bytes())
        return out


_CURVE = [0.1, 0.2, 0.1, 1 / 3]


class TestJsonWriter:
    @settings(max_examples=200, deadline=None)
    @given(_PAYLOADS, _PAYLOADS)
    # Signed zeros in separate lists, in one list, after the memo holds 0.0,
    # beside a negative value, and as scalars.
    @example({"a": [0.5, 0.0], "b": [0.5, -0.0]}, {"c": [-0.0, 0.25], "d": [0.0]})
    @example({"a": [0.0, -0.0, 0.25], "b": [-0.0, 0.0]}, {"c": 0.0, "d": -0.0})
    @example({"a": [0.0, 0.5], "b": [-0.0, 0.5], "c": [0.5, -1.0, 0.0]}, {})
    # One float list, and its copy, at two nesting levels.
    @example({"a": _CURVE, "b": {"c": [_CURVE, list(_CURVE)]}}, {"d": [[_CURVE]]})
    # Ints and bools that equal floats of the same list.
    @example({"a": [1, 1.0, True, 0.5], "b": [True, 1.0, False, 0.0]}, {"c": [0.5, 2, 0.5]})
    def test_bytes_match_json_dump(self, payload, manifest):
        got, want = _both(payload, manifest)
        assert isinstance(want, bytes)
        assert got == want

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "place",
        [
            lambda v: v,
            lambda v: [0.5, v, 0.25],
            lambda v: (v,),
            lambda v: [1, v],
            lambda v: {"deep": [{"curve": [0.0, v]}]},
            lambda v: {"a": [0.5, 0.25], "b": [0.25, 0.5, v]},
            lambda v: {"a": [0.0, 0.5], "b": [0.5, 0.0, v]},
        ],
        ids=["scalar", "float-list", "float-tuple", "mixed-list", "nested",
             "after-memo", "after-memo-zero"],
    )
    def test_non_finite_floats_raise_in_both(self, bad, place):
        assert _both({"x": place(bad)}, {}) == [ValueError, ValueError]

    @pytest.mark.parametrize("key", [1, 1.5, True, None, ("a",)])
    def test_non_string_key_raises_type_error(self, key, tmp_path):
        with pytest.raises(TypeError):
            write_json_report({"x": {key: 1}}, tmp_path / "r.json", {})

    def test_sidecar_matches_json_dump(self, tmp_path):
        inputs = tmp_path / "in.txt"
        inputs.write_text("x", encoding="utf-8")
        manifest = build_manifest(["rank", "--out", "é.jsonl"], {"bugs": inputs},
                                  notes=("corpus sha256 0",))
        write_sidecar_manifest(tmp_path / "r.csv", manifest)
        assert (tmp_path / "r.csv.manifest.json").read_text(encoding="utf-8") == (
            json.dumps(manifest, indent=2) + "\n"
        )

    def test_many_distinct_floats_stream_with_bounded_memory(self, tmp_path):
        # 200,000 distinct floats in curves of 100, each sharing half its
        # values with the one before, then the first curves again after the
        # float memo has started over, and one list longer than its cap.
        curves = [[(k * 50 + i) / 7 for i in range(100)] for k in range(4000)]
        payload = {"curves": curves + curves[:20], "long": curves[0] * 100}
        path = tmp_path / "r.json"
        tracemalloc.start()
        try:
            write_json_report(payload, path, {})
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The capped memo keeps the peak near 2 MB; without the cap it
        # reaches about 27 MB.
        assert peak < 6_000_000
        former = tmp_path / "former.json"
        write_json_report_by_generators(payload, former, {})
        assert path.read_bytes() == former.read_bytes()
