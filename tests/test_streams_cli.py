import csv
import hashlib
import os
import re
import subprocess
import sys

import pytest

from dyngraph import cc_random, cli, streams
from dyngraph.graph_core import UpdateOp
from dyngraph.nonzero_sampler import NonZeroSampler


def test_round_trip_all_generators(tmp_path):
    gens = [
        streams.gen_random_churn(40, 300, 60, mode="cc", seed=1),
        streams.gen_random_churn(40, 300, 60, mode="coloring", delta=5, seed=2),
        streams.gen_random_churn(40, 300, 60, mode="msf", W=3.0, seed=3),
        streams.gen_random_churn(40, 300, 60, mode="msf", W=3.0,
                                 integer_weights=True, seed=4),
        streams.gen_sliding_window(40, 300, 50, mode="cc", seed=5),
        streams.gen_conflict_heavy(30, 200, 40, delta=4, seed=6, struct_seed=6),
        streams.gen_adaptive_script(60, 150, 50, 0.3, 0.1, seed=7, struct_seed=7),
    ]
    for stream in gens:
        text = streams.render_stream(stream)
        back = streams.parse_stream(text)
        assert back.header == stream.header
        assert back.ops == stream.ops
        # rendered text takes parse_stream's block path, not its per-line loop
        assert streams._parse_blocks(text.partition("\n")[2], stream.header) == stream.ops
        path = tmp_path / "s.txt"
        streams.write_stream(stream, str(path))
        assert streams.read_stream(str(path)).ops == stream.ops


def test_generators_deterministic_byte_for_byte():
    a = streams.gen_adaptive_script(50, 120, 40, 0.3, 0.1, seed=9, struct_seed=3)
    b = streams.gen_adaptive_script(50, 120, 40, 0.3, 0.1, seed=9, struct_seed=3)
    assert streams.render_stream(a) == streams.render_stream(b)
    c = streams.gen_conflict_heavy(30, 200, 40, delta=4, seed=8, struct_seed=2)
    d = streams.gen_conflict_heavy(30, 200, 40, delta=4, seed=8, struct_seed=2)
    assert streams.render_stream(c) == streams.render_stream(d)


def test_co_simulating_generators_default_struct_seed_to_zero():
    """A library caller that gives only ``seed`` gets a reproducible stream, as from ``gen``."""
    a = streams.gen_conflict_heavy(30, 120, 40, delta=4, seed=7)
    b = streams.gen_conflict_heavy(30, 120, 40, delta=4, seed=7)
    assert a.ops == b.ops
    assert a.ops == streams.gen_conflict_heavy(30, 120, 40, delta=4, seed=7, struct_seed=0).ops
    c = streams.gen_adaptive_script(30, 120, 30, 0.3, 0.1, seed=7)
    d = streams.gen_adaptive_script(30, 120, 30, 0.3, 0.1, seed=7)
    assert c.ops == d.ops


def test_sliding_window_holds_edge_count_near_target():
    window = 50
    stream = streams.gen_sliding_window(60, 600, window, mode="cc", seed=11)
    m = 0
    seen_warmup = False
    for i, op in enumerate(stream.ops):
        if op.kind == "i":
            m += 1
        elif op.kind == "d":
            m -= 1
        if m >= window:
            seen_warmup = True
        if seen_warmup:
            assert window - 1 <= m <= window + 1
    assert seen_warmup


def test_conflict_heavy_actually_biases_conflicts():
    stream = streams.gen_conflict_heavy(40, 400, 80, delta=6, seed=13, struct_seed=13)
    from dyngraph.coloring import Coloring

    struct = Coloring(40, 6, seed=13)
    conflicts = inserts = 0
    for op in stream.ops:
        if op.kind == "i":
            inserts += 1
            if struct.color_of(op.u) == struct.color_of(op.v):
                conflicts += 1
            struct.insert(op.u, op.v)
        elif op.kind == "d":
            struct.delete(op.u, op.v)
    # an unbiased stream would conflict on ~1/7 of inserts
    assert conflicts / inserts > 2 / 7


def test_infeasible_density_rejected():
    with pytest.raises(ValueError):
        streams.gen_random_churn(10, 50, 100, mode="coloring", delta=3, seed=0)
    with pytest.raises(ValueError):
        streams.gen_random_churn(4, 50, 10, mode="cc", seed=0)


def test_sliding_window_infeasible_window_is_named():
    with pytest.raises(ValueError, match=re.escape("window=45 infeasible (limit 44)")):
        streams.gen_sliding_window(10, 5, 45, seed=0)
    assert len(streams.gen_sliding_window(10, 5, 44, seed=0).ops) == 5


@pytest.mark.parametrize("gen", [
    lambda ops: streams.gen_random_churn(10, ops, 3, seed=0),
    lambda ops: streams.gen_sliding_window(10, ops, 3, seed=0),
    lambda ops: streams.gen_conflict_heavy(10, ops, 3, 4, seed=0, struct_seed=0),
    lambda ops: streams.gen_adaptive_script(10, ops, 3, 0.3, 0.1, seed=0, struct_seed=0),
], ids=["random-churn", "sliding-window", "conflict-heavy", "adaptive-script"])
def test_generators_reject_negative_num_ops(gen):
    with pytest.raises(ValueError, match=re.escape("num_ops must be non-negative, got -5")):
        gen(-5)
    gen(0)


@pytest.mark.parametrize("num_ops", [0, 2, 5])
@pytest.mark.parametrize("gen", [
    lambda ops: streams.gen_random_churn(10, ops, 10, seed=0),
    lambda ops: streams.gen_sliding_window(10, ops, 10, seed=0),
    lambda ops: streams.gen_conflict_heavy(10, ops, 10, 4, seed=0, struct_seed=0),
    lambda ops: streams.gen_adaptive_script(10, ops, 10, 0.3, 0.1, seed=0, struct_seed=0),
], ids=["random-churn", "sliding-window", "conflict-heavy", "adaptive-script"])
def test_generators_write_exactly_num_ops_below_target(gen, num_ops):
    # target_m and window exceed num_ops, so a warm-up must stop at num_ops too
    assert len(gen(num_ops).ops) == num_ops


@pytest.mark.parametrize("kind,argv", [
    ("conflict-heavy", ["--target-m", "40", "--delta", "4"]),
    ("adaptive-script", ["--target-m", "30", "--eps", "0.4", "--p", "0.2"]),
], ids=["conflict-heavy", "adaptive-script"])
def test_cli_gen_struct_seed_defaults_to_zero(tmp_path, kind, argv):
    # the co-simulated structure's seed must be fixed, or no run --seed can replay it
    texts = []
    for i, extra in enumerate([[], [], ["--struct-seed", "0"]]):
        path = tmp_path / f"{i}.txt"
        assert _run_cli(["gen", kind, "--n", "30", "--ops", "120", "--seed", "7", *argv,
                         *extra, "--out", str(path)]) == 0
        texts.append(path.read_text())
    assert texts[0] == texts[1] == texts[2]


def test_parse_errors_carry_line_numbers():
    with pytest.raises(streams.StreamFormatError) as exc:
        streams.parse_stream("not a header\n")
    assert exc.value.line_no == 1
    good = "# n=5 delta=0 W=1.0 mode=cc\n"
    with pytest.raises(streams.StreamFormatError) as exc:
        streams.parse_stream(good + "i 0\n")
    assert exc.value.line_no == 2
    with pytest.raises(streams.StreamFormatError) as exc:
        streams.parse_stream(good + "i 0 1\nz 1 2\n")
    assert exc.value.line_no == 3
    # the pair errors are check_edge's, at the line that holds the pair
    for body, message in [("i 1 1\n", "self-loop (1, 1) rejected"),
                          ("d 0 9\n", "vertex out of range: (0, 9) for n=5")]:
        with pytest.raises(streams.StreamFormatError) as exc:
            streams.parse_stream(good + "i 0 1\n" + body)
        assert exc.value.line_no == 3 and str(exc.value) == f"line 3: {message}"
    with pytest.raises(streams.StreamFormatError, match=r"line 2: vertex out of range: \(0, 9\)"):
        streams.parse_stream(good + "i 0 9\n")
    with pytest.raises(streams.StreamFormatError, match=r"line 2: weight 5.0 outside \[1, 2.0\]"):
        streams.parse_stream("# n=5 delta=0 W=2.0 mode=msf\ni 0 1 5.0\n")


def test_read_stream_skips_a_byte_order_mark(tmp_path):
    stream = streams.gen_random_churn(20, 60, 15, mode="cc", seed=1)
    path = tmp_path / "bom.txt"
    path.write_bytes(b"\xef\xbb\xbf" + streams.render_stream(stream).encode("utf-8"))
    assert streams.read_stream(str(path)).ops == stream.ops
    assert _run_cli(["run", "--algo", "cc-exact", "--stream", str(path),
                     "--out", str(tmp_path / "out.csv")]) == 0


def test_parse_skips_blank_and_comment_lines():
    s = streams.parse_stream("# n=3 delta=0 W=1.0 mode=cc\n\n# comment\ni 0 1\nq\n")
    assert s.ops == [UpdateOp("i", 0, 1), UpdateOp("q")]


def _run_cli(argv):
    return cli.main(argv)


def _csv_rows(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


@pytest.mark.parametrize(
    "algo,mode,extra_gen,extra_run",
    [
        ("coloring", "coloring", ["--delta", "5"], []),
        ("cc-exact", "cc", [], ["--eps", "0.34"]),
        ("cc-random", "cc", [], ["--eps", "0.4", "--p", "0.2"]),
        ("msf-det", "msf", ["--W", "3", "--int-weights"], ["--eps", "0.3"]),
        ("msf-rand", "msf", ["--W", "2", "--int-weights"], ["--eps", "0.5", "--p", "0.2"]),
    ],
)
def test_cli_gen_and_run_all_algorithms(tmp_path, algo, mode, extra_gen, extra_run):
    stream_path = str(tmp_path / "s.txt")
    out_path = str(tmp_path / "out.csv")
    rc = _run_cli(["gen", "random-churn", "--n", "40", "--ops", "400",
                   "--target-m", "60", "--mode", mode, "--seed", "3",
                   "--out", stream_path] + extra_gen)
    assert rc == 0
    rc = _run_cli(["run", "--algo", algo, "--stream", stream_path,
                   "--check-every", "20", "--seed", "1", "--out", out_path]
                  + extra_run)
    assert rc == 0
    with open(out_path) as f:
        header = f.readline().strip()
    assert header == "step,op,estimate,exact,abs_err,allowed_err,work,nanos"


def test_cli_exit_code_two_on_bad_stream(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("garbage\n")
    assert _run_cli(["run", "--algo", "coloring", "--stream", str(bad)]) == 2
    assert _run_cli(["run", "--algo", "cc-exact", "--stream", "/no/such/file"]) == 2


def test_cli_exit_code_one_on_guarantee_violation(tmp_path, monkeypatch, capsys):
    stream_path = str(tmp_path / "s.txt")
    _run_cli(["gen", "random-churn", "--n", "20", "--ops", "60", "--target-m",
              "25", "--mode", "cc", "--seed", "5", "--out", stream_path])
    # simulate a broken structure: its count disagrees with the oracle at every checkpoint
    monkeypatch.setattr(cli.SmallCcCounter, "estimate", lambda self: -1)
    rc = _run_cli(["run", "--algo", "cc-exact", "--stream", stream_path,
                   "--eps", "0.5", "--check-every", "10"])
    assert rc == 1
    assert "guarantee violation at step 10: " in capsys.readouterr().err


def _force_colors_after_each_insert(monkeypatch, forced: dict[int, int]):
    """Simulate a broken coloring: after every insert, overwrite the given vertices' colors."""
    insert = cli.Coloring.insert

    def corrupting(self, u, v):
        stats = insert(self, u, v)
        for x, color in forced.items():
            self._chi[x] = color
        return stats

    monkeypatch.setattr(cli.Coloring, "insert", corrupting)


def test_cli_coloring_violation_names_the_off_palette_vertex(tmp_path, monkeypatch, capsys):
    stream_path = tmp_path / "s.txt"
    stream_path.write_text("# n=3 delta=2 W=1.0 mode=coloring\ni 0 1\ni 1 2\n")
    _force_colors_after_each_insert(monkeypatch, {2: 99})
    assert _run_cli(["run", "--algo", "coloring", "--stream", str(stream_path),
                     "--check-every", "1"]) == 1
    assert capsys.readouterr().err == (
        "guarantee violation at step 1: vertex 2 has color 99 outside [1, 3]\n")


def test_cli_coloring_violation_names_monochromatic_edges_by_endpoints(
        tmp_path, monkeypatch, capsys):
    stream_path = tmp_path / "s.txt"
    stream_path.write_text("# n=4 delta=2 W=1.0 mode=coloring\ni 0 1\ni 3 2\ni 1 2\n")
    _force_colors_after_each_insert(monkeypatch, dict.fromkeys(range(4), 1))
    assert _run_cli(["run", "--algo", "coloring", "--stream", str(stream_path),
                     "--check-every", "3"]) == 1
    assert capsys.readouterr().err == (
        "guarantee violation at step 3: monochromatic edges [(0, 1), (2, 3), (1, 2)]\n")


def test_cli_run_stops_at_a_hard_violation_found_at_a_query(tmp_path, monkeypatch, capsys):
    stream_path = tmp_path / "s.txt"
    stream_path.write_text("# n=4 delta=0 W=1.0 mode=cc\ni 0 1\nq\ni 1 2\ni 2 3\n")
    monkeypatch.setattr(cli.SmallCcCounter, "estimate", lambda self: -1)
    rc = _run_cli(["run", "--algo", "cc-exact", "--stream", str(stream_path),
                   "--check-every", "0"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("guarantee violation at step 1: ")
    assert list(csv.reader(captured.out.splitlines())) == [
        cli.CSV_COLUMNS, ["1", "q", "-1.000000", "3.000000", "4.000000", "0.000000", "0", "0"]]


@pytest.mark.parametrize("algo,mode", [("coloring", "coloring"), ("cc-exact", "cc"),
                                       ("cc-random", "cc"), ("msf-det", "msf")])
def test_cli_run_csv_has_crlf_rows_unquoted_and_stdout_matches_the_file(
        tmp_path, capsys, algo, mode):
    stream_path = str(tmp_path / "s.txt")
    out_path = tmp_path / "out.csv"
    assert _run_cli(["gen", "random-churn", "--n", "30", "--ops", "120", "--target-m", "40",
                     "--mode", mode, "--delta", "4", "--W", "3", "--seed", "2",
                     "--out", stream_path]) == 0
    argv = ["run", "--algo", algo, "--stream", stream_path, "--check-every", "3",
            "--eps", "0.5", "--p", "0.2"]
    assert _run_cli([*argv, "--out", str(out_path)]) == 0
    capsys.readouterr()
    assert _run_cli(argv) == 0
    printed = capsys.readouterr().out
    written = out_path.read_bytes().decode()
    header = "step,op,estimate,exact,abs_err,allowed_err,work,nanos\r\n"
    for text in (written, printed):
        assert text.startswith(header) and text.endswith("\r\n")
        lines = text.split("\r\n")[:-1]
        assert len(lines) > 40 and all("\n" not in line and '"' not in line for line in lines)
        assert all(len(line.split(",")) == len(cli.CSV_COLUMNS) for line in lines)
    # the rows differ only in the wall-clock ``nanos``
    assert [line.rsplit(",", 1)[0] for line in written.split("\r\n")] == \
        [line.rsplit(",", 1)[0] for line in printed.split("\r\n")]


def test_cli_run_summary_goes_to_stderr(tmp_path, capsys):
    stream_path = str(tmp_path / "s.txt")
    assert _run_cli(["gen", "random-churn", "--n", "20", "--ops", "12", "--target-m", "6",
                     "--mode", "cc", "--seed", "1", "--out", stream_path]) == 0
    queries = sum(op.kind == "q" for op in streams.read_stream(stream_path).ops)
    capsys.readouterr()
    assert _run_cli(["run", "--algo", "cc-random", "--stream", stream_path,
                     "--check-every", "4"]) == 0
    captured = capsys.readouterr()
    rows = list(csv.DictReader(captured.out.splitlines()))
    assert len(rows) == 12 // 4 + queries
    assert all(row["step"].isdigit() and row["nanos"] is not None for row in rows)
    assert captured.err.startswith(f"checkpoints={len(rows)} envelope_violations=")


def test_cli_run_checks_a_query_right_after_a_checked_update(tmp_path, capsys):
    stream_path = tmp_path / "s.txt"
    stream_path.write_text("# n=4 delta=0 W=1.0 mode=cc\ni 0 1\ni 1 2\nq\ni 2 3\nq\n")
    assert _run_cli(["run", "--algo", "cc-exact", "--stream", str(stream_path),
                     "--check-every", "2"]) == 0
    captured = capsys.readouterr()
    rows = list(csv.DictReader(captured.out.splitlines()))
    # step 2 is checked twice, as an update and as the query after it
    assert [(row["step"], row["op"]) for row in rows] == [("2", "i"), ("2", "q"), ("3", "q")]
    assert captured.err == f"checkpoints={len(rows)} envelope_violations=0 rate=0.0000\n"


def test_cli_run_counts_cc_random_misses_without_stopping(tmp_path, monkeypatch, capsys):
    stream_path = str(tmp_path / "s.txt")
    assert _run_cli(["gen", "random-churn", "--n", "20", "--ops", "60", "--target-m", "25",
                     "--mode", "cc", "--seed", "5", "--out", stream_path]) == 0
    queries = sum(op.kind == "q" for op in streams.read_stream(stream_path).ops)
    capsys.readouterr()
    # an estimate this far off misses the eps * psi envelope at every checkpoint
    monkeypatch.setattr(cli.PhasedCcEstimator, "estimate", lambda self: -1000.0)
    assert _run_cli(["run", "--algo", "cc-random", "--stream", stream_path,
                     "--check-every", "10"]) == 0
    captured = capsys.readouterr()
    rows = list(csv.DictReader(captured.out.splitlines()))
    assert len(rows) == 60 // 10 + queries
    assert all(float(row["abs_err"]) > float(row["allowed_err"]) for row in rows)
    assert captured.err == f"checkpoints={len(rows)} envelope_violations={len(rows)} rate=1.0000\n"


def test_cli_run_rejects_negative_check_every(tmp_path, capsys):
    stream_path = tmp_path / "s.txt"
    stream_path.write_text("# n=3 delta=0 W=1.0 mode=cc\ni 0 1\ni 1 2\nd 0 1\nd 1 2\n")
    rc = _run_cli(["run", "--algo", "cc-exact", "--stream", str(stream_path),
                   "--check-every", "-2"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --check-every must be >= 0, got -2\n"
    assert captured.out == ""


def test_cli_bench_work_column_reproducible(tmp_path):
    stream_path = str(tmp_path / "s.txt")
    out_path = str(tmp_path / "bench.csv")
    _run_cli(["gen", "random-churn", "--n", "50", "--ops", "500", "--target-m",
              "100", "--mode", "coloring", "--delta", "6", "--seed", "2",
              "--out", stream_path])
    rc = _run_cli(["bench", "--algo", "coloring", "--stream", stream_path,
                   "--repeats", "3", "--seed", "4", "--out", out_path])
    assert rc == 0
    rows = _csv_rows(out_path)
    assert len(rows) == 3  # one row per repeat
    works = {(row["mean_work"], row["p99_work"], row["max_work"]) for row in rows}
    assert len(works) == 1  # equal seed -> identical work columns


def test_cli_bench_quotes_a_stream_path_with_a_comma_and_a_quote(tmp_path):
    # bench writes its rows with csv.writer: the ``stream`` column is a user's path
    stream_path = str(tmp_path / 'churn, "d16".txt')
    out_path = str(tmp_path / "bench.csv")
    assert _run_cli(["gen", "random-churn", "--n", "20", "--ops", "40", "--target-m", "10",
                     "--mode", "coloring", "--delta", "4", "--seed", "1",
                     "--out", stream_path]) == 0
    assert _run_cli(["bench", "--algo", "coloring", "--stream", stream_path,
                     "--out", out_path]) == 0
    with open(out_path, newline="") as f:
        (row,) = csv.DictReader(f)
    assert row["stream"] == stream_path and row["ops"] == "40"


def test_cli_bench_max_work_is_runs_largest_work(tmp_path):
    stream_path = str(tmp_path / "s.txt")
    assert _run_cli(["gen", "sliding-window", "--window", "30", "--mode", "msf", "--W", "4",
                     "--n", "40", "--ops", "300", "--seed", "6", "--out", stream_path]) == 0
    argv = ["--algo", "msf-det", "--stream", stream_path, "--eps", "0.3", "--seed", "2"]
    assert _run_cli(["run", *argv, "--check-every", "1",
                     "--out", str(tmp_path / "run.csv")]) == 0
    assert _run_cli(["bench", *argv, "--out", str(tmp_path / "bench.csv")]) == 0
    works = sorted(int(row["work"]) for row in _csv_rows(tmp_path / "run.csv"))
    (bench,) = _csv_rows(tmp_path / "bench.csv")
    assert len(works) == int(bench["ops"]) == 300
    assert int(bench["max_work"]) == works[-1] > works[0]
    assert int(bench["p99_work"]) == works[-(-99 * len(works) // 100) - 1]  # nearest rank
    assert float(bench["mean_work"]) == pytest.approx(sum(works) / len(works), abs=1e-4)


def test_replay_coloring_reports_zero_recolorings_on_conflict_free_stream():
    # a stream with all-distinct colors at the endpoints of every insertion
    from dyngraph.coloring import Coloring

    struct = Coloring(20, 6, seed=21)
    ops = []
    for u in range(10):
        for v in range(u + 1, 10):
            if struct.color_of(u) != struct.color_of(v) and struct.degree(u) < 6 \
                    and struct.degree(v) < 6 and not struct.has_edge(u, v):
                stats = struct.insert(u, v)
                assert stats.path_length == 0
                ops.append(UpdateOp("i", u, v))
    assert ops  # the scenario is realizable
    replay = Coloring(20, 6, seed=21)
    total = sum(replay.insert(op.u, op.v).path_length for op in ops)
    assert total == 0


def test_generators_pinned_digests():
    # two generators co-simulate Coloring / PhasedCcEstimator, so any change to
    # those structures' rng draws changes these streams; every generator draws
    # uniform edges by position in a DynamicGraph's edge list
    def digest(stream):
        return hashlib.sha256(streams.render_stream(stream).encode()).hexdigest()

    assert digest(streams.gen_random_churn(60, 400, 100, mode="cc", seed=3)) == \
        "9035f985c5e4afb5a47d0efa56eff6c2eb0a1ab17d6f9144b8aa04af4aadd2d0"
    assert digest(streams.gen_random_churn(60, 400, 100, mode="msf", W=3.0, seed=3)) == \
        "5676ddc041a529331f523b1a64ce33bf6b4f086e5864dcd9f0f8923e0df3984c"
    assert digest(streams.gen_sliding_window(60, 400, 50, mode="msf", W=4.0,
                                             integer_weights=True, seed=3)) == \
        "e71324e84512c5522788eba557a7239540bdfaf96ed858de41d908acc78f8fe6"

    assert digest(streams.gen_conflict_heavy(60, 400, 100, 6, seed=3, struct_seed=5)) == \
        "df2142f9c49a55d913646c8c1ab0154f2bc3fc58f0ed33fc5e1d0595879f7f00"
    assert digest(streams.gen_adaptive_script(40, 200, 30, 0.4, 0.2, seed=3,
                                              struct_seed=5)) == \
        "7019877581abbb5c0a44cdc3ca4d389e16d81d203feb1ed868efdd9a6c8b7f62"


def test_cli_cc_random_duplicate_insert_and_absent_delete_are_noops(tmp_path):
    stream_path = tmp_path / "s.txt"
    stream_path.write_text("# n=3 delta=0 W=1.0 mode=cc\n"
                           "i 0 1\ni 1 2\ni 0 1\nd 0 1\nd 1 2\nd 1 2\n")
    out_path = tmp_path / "out.csv"
    rc = _run_cli(["run", "--algo", "cc-random", "--stream", str(stream_path),
                   "--check-every", "1", "--out", str(out_path)])
    assert rc == 0
    rows = _csv_rows(out_path)
    # every update is a boundary here; the applied delete that empties the graph draws none
    assert [row["work"] for row in rows] == ["2952", "2952", "0", "2952", "0", "0"]
    assert rows[2]["estimate"] == rows[1]["estimate"]
    assert rows[5]["estimate"] == rows[4]["estimate"]


@pytest.mark.parametrize("algo", ["msf-det", "msf-rand"])
def test_cli_msf_duplicate_insert_and_absent_delete_are_noops(tmp_path, algo):
    # the duplicate carries another weight: the structure and the oracle keep the first;
    # the empty graph at the end reads 2.2e-16 at msf-det, within the round-off slack
    stream_path = tmp_path / "s.txt"
    stream_path.write_text("# n=3 delta=0 W=2.0 mode=msf\n"
                           "i 0 1 1.0\ni 1 2 2.0\ni 0 1 2.0\nd 0 1\nd 1 2\nd 1 2\n")
    out_path = tmp_path / "out.csv"
    rc = _run_cli(["run", "--algo", algo, "--stream", str(stream_path),
                   "--check-every", "1", "--out", str(out_path)])
    assert rc == 0
    rows = _csv_rows(out_path)
    # msf-rand's work is samples: the applied delete that empties the graph draws none
    works = [True, True, False, True, algo == "msf-det", False]
    assert [row["work"] != "0" for row in rows] == works
    assert rows[2]["estimate"] == rows[1]["estimate"]
    assert rows[5]["estimate"] == rows[4]["estimate"]
    assert [row["exact"] for row in rows] == ["1.000000", "3.000000", "3.000000",
                                              "2.000000", "0.000000", "0.000000"]


def test_cli_msf_rand_work_counts_sampled_vertices(tmp_path, monkeypatch):
    # a boundary draws its samples as one multinomial over size classes
    drawn = []
    size_class_estimate = cc_random._size_class_estimate

    class CountingRng:
        def __init__(self, rng):
            self.rng = rng

        def multinomial(self, n, pvals):
            out = self.rng.multinomial(n, pvals)
            drawn.append(int(out.sum()))
            return out

    def counted(sizes, nis, cfg, rng):
        return size_class_estimate(sizes, nis, cfg, CountingRng(rng))

    monkeypatch.setattr(cc_random, "_size_class_estimate", counted)
    stream_path = str(tmp_path / "s.txt")
    out_path = str(tmp_path / "out.csv")
    assert _run_cli(["gen", "sliding-window", "--window", "8", "--mode", "msf", "--W", "2",
                     "--n", "12", "--ops", "40", "--seed", "3", "--out", stream_path]) == 0
    assert _run_cli(["run", "--algo", "msf-rand", "--stream", stream_path, "--eps", "0.8",
                     "--p", "0.2", "--check-every", "1", "--out", out_path]) == 0
    rows = _csv_rows(out_path)
    assert len(rows) == 40 and drawn
    assert sum(int(row["work"]) for row in rows) == sum(drawn)


def test_cli_msf_rand_tiny_graph_draws_no_vertex_one_by_one(tmp_path, monkeypatch):
    # millions of samples per boundary on three vertices: the work column counts them
    # all, yet no boundary draws them one at a time
    def refuse(self, rng, k):
        raise AssertionError("a boundary drew samples one by one")

    monkeypatch.setattr(NonZeroSampler, "sample_many", refuse)
    stream_path = tmp_path / "s.txt"
    stream_path.write_text("# n=3 delta=0 W=2.0 mode=msf\n"
                           "i 0 1 1.0\ni 1 2 2.0\nd 0 1\ni 0 2 1.5\n")
    out_path = tmp_path / "out.csv"
    assert _run_cli(["run", "--algo", "msf-rand", "--stream", str(stream_path),
                     "--check-every", "1", "--out", str(out_path)]) == 0
    rows = _csv_rows(out_path)
    assert [row["work"] for row in rows] == ["2712321", "2712321", "301369", "1205476"]
    # one component per level: every draw lands in the same size class
    assert [row["estimate"] for row in rows] == ["1.000000", "3.143589", "2.143589",
                                                 "3.754099"]


def test_cli_run_error_names_the_step(tmp_path, capsys):
    stream_path = tmp_path / "s.txt"
    stream_path.write_text("# n=4 delta=2 W=1.0 mode=coloring\n"
                           "i 0 1\ni 1 2\ni 1 3\n")
    rc = _run_cli(["run", "--algo", "coloring", "--stream", str(stream_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "step 3 (i 1 3): " in err and "would exceed delta=2" in err


def test_cli_bench_error_names_the_step(tmp_path, capsys):
    stream_path = tmp_path / "s.txt"
    stream_path.write_text("# n=4 delta=2 W=1.0 mode=coloring\n"
                           "i 0 1\ni 0 2\ni 0 3\n")
    rc = _run_cli(["bench", "--algo", "coloring", "--stream", str(stream_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "step 3 (i 0 3): " in err and "would exceed delta=2" in err


@pytest.mark.parametrize("text,argv,message", [
    ("i 0 1\nd 0 1\n", ["--repeats", "0"], "--repeats must be >= 1"),
    ("q\nq\n", [], "no updates"),
], ids=["repeats-0", "no-updates"])
def test_cli_bench_rejects_runs_with_nothing_to_time(tmp_path, capsys, text, argv, message):
    stream_path = tmp_path / "s.txt"
    stream_path.write_text("# n=3 delta=0 W=1.0 mode=cc\n" + text)
    rc = _run_cli(["bench", "--algo", "cc-exact", "--stream", str(stream_path)] + argv)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_cli_msf_det_work_counts_only_levels_the_update_hit(tmp_path):
    stream_path = tmp_path / "s.txt"
    stream_path.write_text("# n=4 delta=0 W=2.0 mode=msf\ni 0 1 1.0\ni 2 3 2.0\n")
    out_path = tmp_path / "out.csv"
    rc = _run_cli(["run", "--algo", "msf-det", "--eps", "0.5", "--stream", str(stream_path),
                   "--check-every", "1", "--out", str(out_path)])
    assert rc == 0
    rows = _csv_rows(out_path)
    # eps 0.5, W 2: thresholds 1, 1.25, 1.5625, 1.953125, 2; weight 2 admits only the top
    assert [row["work"] for row in rows] == ["10", "2"]


@pytest.mark.parametrize("window", ["0", "-3"])
def test_cli_gen_sliding_window_rejects_window_below_one(tmp_path, capsys, window):
    rc = _run_cli(["gen", "sliding-window", "--n", "10", "--ops", "5", "--window", window,
                   "--out", str(tmp_path / "w.txt")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"window must be >= 1, got {window}" in err


@pytest.mark.parametrize("argv,message", [
    (["sliding-window", "--window", "100"], "window=100 infeasible (limit 44)"),
    (["random-churn", "--ops", "-5", "--target-m", "3"], "num_ops must be non-negative, got -5"),
], ids=["window-infeasible", "ops-negative"])
def test_cli_gen_names_the_bad_argument(tmp_path, capsys, argv, message):
    out = tmp_path / "s.txt"
    rc = _run_cli(["gen", argv[0], "--n", "10", "--ops", "5", *argv[1:], "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "target_m=" not in err
    assert not out.exists()


def test_cli_run_msf_rand_rejects_p_prime_of_one_or_more(tmp_path, capsys):
    stream = tmp_path / "s.txt"
    assert _run_cli(["gen", "random-churn", "--n", "10", "--ops", "20", "--target-m", "5",
                     "--mode", "msf", "--W", "4", "--seed", "1", "--out", str(stream)]) == 0
    rc = _run_cli(["run", "--algo", "msf-rand", "--p", "5", "--stream", str(stream)])
    assert rc == 2
    assert "error: p_prime must be in (0, 1), got 5.0" in capsys.readouterr().err


@pytest.mark.parametrize("kind,argv", [
    ("random-churn", ["--target-m", "5"]),
    ("sliding-window", ["--window", "5"]),
], ids=["random-churn", "sliding-window"])
@pytest.mark.parametrize("W", ["inf", "nan", "0.5"])
def test_cli_gen_rejects_weight_bound_run_refuses(tmp_path, capsys, kind, argv, W):
    out = tmp_path / "s.txt"
    rc = _run_cli(["gen", kind, "--n", "10", "--ops", "20", *argv, "--mode", "msf",
                   "--W", W, "--seed", "1", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"W must be finite and >= 1, got {float(W)}" in err
    assert not out.exists()


@pytest.mark.parametrize("W", ["inf", "nan"])
def test_parse_rejects_non_finite_weight_bound(W):
    with pytest.raises(streams.StreamFormatError, match="W must be finite") as exc:
        streams.parse_stream(f"# n=3 delta=0 W={W} mode=msf\ni 0 1 1.0\n")
    assert exc.value.line_no == 1


@pytest.mark.parametrize("header,message", [
    ("# n=-3 delta=0 W=1.0 mode=cc", "vertex count must be non-negative, got -3"),
    ("# n=3 delta=0 W=0.5 mode=msf", "W must be finite and >= 1, got 0.5"),
    ("# n=3 delta=0 W=1.0 mode=x", "unknown mode 'x'"),
    ("# n=5 delta=-1 W=1.0 mode=coloring", "delta must be non-negative, got -1"),
], ids=["n-negative", "W-below-one", "mode-unknown", "delta-negative"])
def test_parse_rejects_a_bad_header_at_line_one(tmp_path, capsys, header, message):
    with pytest.raises(streams.StreamFormatError) as exc:
        streams.parse_stream(header + "\nq\n")
    assert exc.value.line_no == 1 and str(exc.value) == f"line 1: bad header: {message}"
    stream_path = tmp_path / "s.txt"
    stream_path.write_text(header + "\nq\n")
    assert _run_cli(["run", "--algo", "cc-exact", "--stream", str(stream_path)]) == 2
    assert capsys.readouterr().err == f"error: line 1: bad header: {message}\n"


@pytest.mark.parametrize("mode,algo", [("cc", "cc-exact"), ("coloring", "coloring")])
def test_parse_rejects_a_weight_outside_msf_mode(tmp_path, capsys, mode, algo):
    # render_stream writes no weight outside msf mode, so it would not round-trip
    text = f"# n=4 delta=3 W=4.0 mode={mode}\ni 0 1\ni 1 2 3.5\n"
    message = f"line 3: weights appear only in msf mode, not {mode}"
    with pytest.raises(streams.StreamFormatError) as exc:
        streams.parse_stream(text)
    assert exc.value.line_no == 3 and str(exc.value) == message
    stream_path = tmp_path / "s.txt"
    stream_path.write_text(text)
    for run_algo in (algo, "msf-det"):  # msf-det used to read the weight
        assert _run_cli(["run", "--algo", run_algo, "--stream", str(stream_path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    assert streams.parse_stream(text.replace(f"mode={mode}", "mode=msf")).ops[1].w == 3.5


@pytest.mark.parametrize("algo", cli.ALGOS)
def test_timed_apply_leaves_the_shadow_store_alone(algo):
    mode = {"coloring": "coloring", "msf-det": "msf", "msf-rand": "msf"}.get(algo, "cc")
    stream = streams.parse_stream(f"# n=4 delta=3 W=2.0 mode={mode}\ni 0 1\ni 1 2\nd 0 1\n")
    replay = cli._Replay(algo, stream, 0.5, 0.2, 0, check_every=1)
    for step, op in enumerate(stream.ops, start=1):
        replay.timed_apply(step, op)
    if algo == "coloring":
        assert replay.shadow.m == 0
    else:
        assert replay.shadow is None  # their checkpoints read an offline pass


@pytest.mark.parametrize("algo", cli.ALGOS)
def test_timed_apply_times_the_structures_own_method(algo):
    mode = {"coloring": "coloring", "msf-det": "msf", "msf-rand": "msf"}.get(algo, "cc")
    stream = streams.parse_stream(f"# n=4 delta=3 W=2.0 mode={mode}\ni 0 1\nd 0 1\n")
    replay = cli._Replay(algo, stream, 0.5, 0.2, 0)
    ins, dele = stream.ops
    msf = (("insert", (0, 1, 1.0)), ("delete", (0, 1)))
    want = {
        "coloring": (("insert", (0, 1)), ("delete", (0, 1))),
        "cc-exact": (("on_insert", (0, 1)), ("on_delete", (0, 1))),
        "cc-random": (("on_update", (ins,)), ("on_update", (dele,))),
        "msf-det": msf,
        "msf-rand": msf,
    }[algo]
    # the clock wraps the bound method alone; its arguments are read from the op before
    for op, (name, args) in zip(stream.ops, want):
        timed, args_of = replay.update[op.kind]
        assert timed == getattr(replay.struct, name) and args_of(op) == args


def _spy_on_replays(monkeypatch):
    """Record every ``_Replay`` the cli builds and every shadow-store write it makes."""
    replays, mirrored = [], []
    init, mirror = cli._Replay.__init__, cli._Replay.mirror

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        replays.append(self)

    def recording_mirror(self, op):
        mirrored.append(op)
        mirror(self, op)

    monkeypatch.setattr(cli._Replay, "__init__", recording_init)
    monkeypatch.setattr(cli._Replay, "mirror", recording_mirror)
    return replays, mirrored


@pytest.mark.parametrize("algo", cli.ALGOS)
def test_only_coloring_runs_keep_a_shadow_store(tmp_path, monkeypatch, algo):
    mode = {"coloring": "coloring", "msf-det": "msf", "msf-rand": "msf"}.get(algo, "cc")
    stream_path = tmp_path / "s.txt"
    stream_path.write_text(f"# n=4 delta=3 W=2.0 mode={mode}\ni 0 1\nq\ni 2 1\nd 0 1\n")
    replays, mirrored = _spy_on_replays(monkeypatch)
    assert _run_cli(["run", "--algo", algo, "--stream", str(stream_path), "--check-every", "1",
                     "--out", str(tmp_path / "run.csv")]) == 0
    if algo == "coloring":
        assert replays[0].shadow.edges() == [(1, 2)] and len(mirrored) == 3
    else:
        assert replays[0].shadow is None and not mirrored
    # bench never checks, so no algorithm keeps a shadow store there
    del mirrored[:]
    assert _run_cli(["bench", "--algo", algo, "--stream", str(stream_path), "--repeats", "2",
                     "--out", str(tmp_path / "bench.csv")]) == 0
    assert len(replays) == 3
    assert all(r.shadow is None for r in replays[1:]) and not mirrored


def test_msf_runs_leave_scipy_unimported(tmp_path):
    stream_path = tmp_path / "s.txt"
    streams.write_stream(streams.gen_sliding_window(40, 200, 30, mode="msf", W=4.0, seed=1),
                         str(stream_path))
    scipy_modules = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    script = "\n".join([
        "import sys",
        "from dyngraph import cli",
        scipy_modules,
        "for algo in ('msf-det', 'msf-rand'):",
        f"    assert cli.main(['run', '--algo', algo, '--stream', {str(stream_path)!r},"
        f" '--check-every', '1', '--out', {os.devnull!r}]) == 0",
        scipy_modules,
    ])
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n[]\n"


@pytest.mark.parametrize("algo,gen_argv,run_argv,outputs,work", [
    ("coloring",
     ["conflict-heavy", "--target-m", "100", "--delta", "6", "--struct-seed", "5"],
     ["--seed", "5"],
     "e4d2f29a98f4877056837a90c890a1852c4e11b925575c7818cd6de1e74ea46c",
     "6d5f525b01e9101eb1182937b5e81e7a22e833c25fd32dc178eb850633e50be7"),
    ("cc-exact",
     ["random-churn", "--target-m", "100", "--mode", "cc"],
     ["--eps", "0.34"],
     "397a2a084d96bca1837dcae6b29fe265c2267dc2a65ad5db41a0f3608da0c7b2",
     "5a7d928e5635691a005df4e6d26a6d14acab8b1650bae54758fe379b28b7e80d"),
    ("cc-random",
     ["adaptive-script", "--target-m", "40", "--eps", "0.4", "--p", "0.2",
      "--struct-seed", "5"],
     ["--eps", "0.4", "--p", "0.2", "--seed", "5"],
     "be7d8b77ab6c88966d3743c53123e12d20c22890e66ea639a85a52e5c1ebd2b2",
     "dda8095dc60a7074ef640aff2cd14186807f8ed2ae59d5f3fc4ee9e35fb29dbc"),
    ("msf-det",
     ["sliding-window", "--window", "50", "--mode", "msf", "--W", "4", "--int-weights"],
     ["--eps", "0.5"],
     "d6bb94e3d87e5fd23720fbddbccaec8e68690903fb1b18fd8c2b83c8b98b3e4e",
     "16f0638b79e84fc22ecde242acf7cfea52b851a750cb711c18f1325ec6557349"),
    ("msf-rand",
     ["sliding-window", "--window", "50", "--mode", "msf", "--W", "2"],
     ["--eps", "0.8", "--p", "0.2", "--seed", "5"],
     "716a8bc707d7cce726d6e9cb44bb8ae7a0d5a7e5cd21716838f9617e8e6e5a66",
     "006fde194cf8c5717d6097cc7ebc21d9edecf280c69a98a13ed0367b1df5d0dc"),
], ids=list(cli.ALGOS))
def test_cli_run_outputs_pinned(tmp_path, algo, gen_argv, run_argv, outputs, work):
    # one row per op, hashed twice: every CSV column but the wall-clock ``nanos``
    # and ``work``, then ``work`` alone, whose units can change without the outputs
    stream_path = str(tmp_path / "s.txt")
    out_path = str(tmp_path / "out.csv")
    assert _run_cli(["gen", *gen_argv, "--n", "60", "--ops", "400", "--seed", "3",
                     "--out", stream_path]) == 0
    assert _run_cli(["run", "--algo", algo, "--stream", stream_path, "--check-every", "1",
                     "--out", out_path, *run_argv]) == 0
    rows = _csv_rows(out_path)
    assert len(rows) == 400
    out_rows = [[row[c] for c in cli.CSV_COLUMNS if c not in ("nanos", "work")]
                for row in rows]
    assert hashlib.sha256(repr(out_rows).encode()).hexdigest() == outputs
    assert hashlib.sha256(repr([row["work"] for row in rows]).encode()).hexdigest() == work
