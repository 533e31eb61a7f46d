"""Tests for the report writer against json.dump."""

import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smelloc.manifest import build_manifest, write_json_report, write_sidecar_manifest

from _oracles import write_json_report_by_json_dump

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


class TestJsonWriter:
    @settings(max_examples=200, deadline=None)
    @given(_PAYLOADS, _PAYLOADS)
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
        ],
        ids=["scalar", "float-list", "float-tuple", "mixed-list", "nested"],
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
