"""``streams.parse_stream`` against a reference: the earlier parser, kept here.

The reference strips each line and checks its kind, arity, pair and weight in
that order, raising at the first fault.  ``parse_stream`` reads a text in
``render_stream``'s layout in numpy blocks and any other text line by line.
Either way it must accept the same texts with equal ops (each a plain
``UpdateOp`` with int vertices and a float weight of the same repr), and
reject the same texts with an equal ``StreamFormatError`` (line number and
message).  One strategy mixes irregular layouts.  The other keeps
``render_stream``'s layout and varies the tokens, so that the block path meets
what numpy might read unlike ``int`` and ``float``.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dyngraph import streams
from dyngraph.graph_core import UpdateOp, check_edge
from dyngraph.streams import Stream, StreamFormatError, StreamHeader


def reference_parse_stream(text: str) -> Stream:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("#"):
        raise StreamFormatError(1, "missing header line")
    fields = dict(
        part.split("=", 1) for part in lines[0].lstrip("# ").split() if "=" in part
    )
    try:
        header = StreamHeader(
            n=int(fields["n"]),
            delta=int(fields.get("delta", 0)),
            W=float(fields.get("W", 1.0)),
            mode=fields.get("mode", "cc"),
        )
    except (KeyError, ValueError) as exc:
        raise StreamFormatError(1, f"bad header: {exc}") from exc
    n, W = header.n, header.W
    ops: list[UpdateOp] = []
    for idx, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        kind = parts[0]
        try:
            if kind == "q":
                if len(parts) != 1:
                    raise ValueError("query takes no arguments")
                ops.append(UpdateOp("q"))
                continue
            if kind == "i":
                if len(parts) not in (3, 4):
                    raise ValueError("insert takes 2 or 3 arguments")
                if len(parts) == 4 and header.mode != "msf":
                    raise ValueError(f"weights appear only in msf mode, not {header.mode}")
            elif kind == "d":
                if len(parts) != 3:
                    raise ValueError("delete takes 2 arguments")
            else:
                raise ValueError(f"unknown op {kind!r}")
            u, v = int(parts[1]), int(parts[2])
            w = float(parts[3]) if len(parts) == 4 else 1.0
            check_edge(u, v, n)
            if not 1.0 <= w <= W:
                raise ValueError(f"weight {w} outside [1, {W}]")
        except ValueError as exc:
            raise StreamFormatError(idx, str(exc)) from exc
        ops.append(UpdateOp(kind, u, v, w))
    return Stream(header, ops)


N, W = 5, 3.0
vertex = st.one_of(st.integers(0, N - 1), st.sampled_from([-1, N])).map(str)
weight = st.sampled_from(["1", "2.5", "3.0", "1e0", "nan", "inf", "0.5", "3.5", "w"])
well_formed = st.one_of(
    st.tuples(st.sampled_from("id"), vertex, vertex),
    st.tuples(st.just("i"), vertex, vertex, weight),
    st.just(("q",)),
)
malformed = st.sampled_from([
    ("q", "1"), ("i", "0"), ("d", "0", "1", "2"), ("i", "0", "1", "2.5"),
    ("i", "0", "1", "2", "3"), ("x", "1", "2"), ("i", "a", "1"), ("i", "2", "2"),
    ("d", "0", str(N)), ("d",), ("i",),
])
op_line = st.builds(lambda tokens, sep, lead: lead + sep.join(tokens),
                    st.one_of(well_formed, malformed),
                    st.sampled_from([" ", "\t", "  ", " \t"]), st.sampled_from(["", " ", "\t"]))
layout_line = st.sampled_from(["", "   ", "\t", "# comment", "   # spaced comment", "\t#",
                               "#i 0 1"])
stream_text = st.builds(
    lambda mode, lines, ends: "".join(
        line + end for line, end in zip([f"# n={N} delta=2 W={W!r} mode={mode}", *lines], ends)),
    st.sampled_from(["cc", "coloring", "msf"]),
    st.lists(st.one_of(op_line, op_line, layout_line), max_size=10),
    st.lists(st.sampled_from(["\n", "\r\n"]), min_size=11, max_size=11),
)


# render_stream's layout: "\n" endings and single spaces, with tokens that int,
# float and numpy may read differently
odd_vertices = ["-1", str(N), "007", "+1", "1_0", "\u0661", "1" * 20, "0" * 19 + "1"]
odd_weights = ["2", "1e0", "1.5.", "1e", "1e+", ".", "+.5", "2.", "nan", "inf", "0.5"]
canonical_vertex = st.integers(0, 4 * N + len(odd_vertices) - 1).map(
    lambda i: str(i % N) if i < 4 * N else odd_vertices[i - 4 * N])
canonical_weight = st.one_of(st.floats(1.0, W).map(repr), st.sampled_from(odd_weights))
canonical_line = st.one_of(
    st.tuples(st.sampled_from("id"), canonical_vertex, canonical_vertex),
    st.tuples(st.just("i"), canonical_vertex, canonical_vertex, canonical_weight),
    st.just(("q",)),
).map(" ".join)
canonical_text = st.builds(
    lambda mode, lines: "".join(f"{line}\n" for line in [f"# n={N} delta=2 W={W!r} mode={mode}",
                                                            *lines]),
    st.sampled_from(["cc", "coloring", "msf"]),
    st.lists(canonical_line, max_size=10),
)


def _outcome(parse, text):
    try:
        return parse(text)
    except StreamFormatError as exc:
        return exc


def _assert_same_outcome(text):
    want, got = _outcome(reference_parse_stream, text), _outcome(streams.parse_stream, text)
    if isinstance(want, StreamFormatError):
        assert isinstance(got, StreamFormatError)
        assert (got.line_no, str(got)) == (want.line_no, str(want))
    else:
        assert not isinstance(got, StreamFormatError), str(got)
        assert got.header == want.header and got.ops == want.ops
        assert [repr(op.w) for op in got.ops] == [repr(op.w) for op in want.ops]
        assert all(type(op) is UpdateOp and type(op.u) is int and type(op.v) is int
                   and type(op.w) is float for op in got.ops)


@settings(max_examples=400, deadline=None)
@given(stream_text)
@example(f"# n={N} delta=2 W={W!r} mode=msf\r\ni 0 1 2.5\r\n\t# c\r\nd\t0 1\nq\n")
@example(f"# n={N} delta=2 W={W!r} mode=cc\ni 0 1 2.5\n")
@example(f"# n={N} delta=2 W={W!r} mode=msf\ni 0 1 3.5\n")
@example(f"# n={N} delta=2 W={W!r} mode=msf\ni 0 1 inf\n")
@example(f"# n={N} delta=2 W={W!r} mode=msf\ni 0 1 nan\n")
@example(f"# n={N} delta=2 W={W!r} mode=msf\ni 0 1 0.5\n")
def test_parse_stream_matches_the_reference_parser(text):
    _assert_same_outcome(text)


@settings(max_examples=400, deadline=None)
@given(canonical_text)
@example(f"# n={N} delta=2 W={W!r} mode=msf\ni 0 1 2.5\ni 1 2 1.5.\n")
@example(f"# n={N} delta=2 W={W!r} mode=cc\ni 0 {'1' * 20}\n")
@example(f"# n={N} delta=2 W={W!r} mode=msf\nd {'0' * 19 + '1'} 007\ni 0 1 2.\n")
@example(f"# n={10**20} delta=2 W={W!r} mode=cc\ni 0 {10**20 - 1}\n")
@example(f"# n={N} delta=2 W={W!r} mode=cc\nq\nq\n")
def test_parse_stream_matches_the_reference_parser_in_render_streams_layout(text):
    _assert_same_outcome(text)


@pytest.mark.parametrize("mode", ["cc", "msf"])
@pytest.mark.parametrize("late_line", ["i 2 2", "i 0 1 9.5", "# a comment", ""])
def test_an_irregular_line_in_a_later_block_gives_the_references_result(mode, late_line):
    lines = [f"# n={N} delta=2 W={W!r} mode={mode}", *["i 0 1", "d 0 1"] * 7000, "q"]
    lines.insert(len(lines) - 2, late_line)
    text = "".join(f"{line}\n" for line in lines)
    assert len(text) > 65536 + 10000  # past the first block of the block path
    _assert_same_outcome(text)
