import csv
import hashlib

import pytest

from dyngraph import cli, oracles, streams
from dyngraph.graph_core import UpdateOp


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
    with pytest.raises(streams.StreamFormatError):
        streams.parse_stream(good + "i 0 9\n")  # vertex out of range
    with pytest.raises(streams.StreamFormatError):
        streams.parse_stream("# n=5 delta=0 W=2.0 mode=msf\ni 0 1 5.0\n")


def test_parse_skips_blank_and_comment_lines():
    s = streams.parse_stream("# n=3 delta=0 W=1.0 mode=cc\n\n# comment\ni 0 1\nq\n")
    assert s.ops == [UpdateOp("i", 0, 1), UpdateOp("q")]


def _run_cli(argv):
    return cli.main(argv)


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
    header = open(out_path).readline().strip()
    assert header == "step,op,estimate,exact,abs_err,allowed_err,work,nanos"


def test_cli_exit_code_two_on_bad_stream(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("garbage\n")
    assert _run_cli(["run", "--algo", "coloring", "--stream", str(bad)]) == 2
    assert _run_cli(["run", "--algo", "cc-exact", "--stream", "/no/such/file"]) == 2


def test_cli_exit_code_one_on_guarantee_violation(tmp_path, monkeypatch):
    stream_path = str(tmp_path / "s.txt")
    _run_cli(["gen", "random-churn", "--n", "20", "--ops", "60", "--target-m",
              "25", "--mode", "cc", "--seed", "5", "--out", stream_path])
    # simulate a broken structure: the oracle disagrees at every checkpoint
    monkeypatch.setattr(oracles, "fast_nscc", lambda *a, **k: -1)
    monkeypatch.setattr(cli.oracles, "fast_nscc", lambda *a, **k: -1)
    rc = _run_cli(["run", "--algo", "cc-exact", "--stream", stream_path,
                   "--eps", "0.5", "--check-every", "10"])
    assert rc == 1


def test_cli_bench_work_column_reproducible(tmp_path):
    stream_path = str(tmp_path / "s.txt")
    out_path = str(tmp_path / "bench.csv")
    _run_cli(["gen", "random-churn", "--n", "50", "--ops", "500", "--target-m",
              "100", "--mode", "coloring", "--delta", "6", "--seed", "2",
              "--out", stream_path])
    rc = _run_cli(["bench", "--algo", "coloring", "--stream", stream_path,
                   "--repeats", "3", "--seed", "4", "--out", out_path])
    assert rc == 0
    rows = open(out_path).read().strip().splitlines()
    assert len(rows) == 4  # header + one row per repeat
    works = [row.split(",")[-1] for row in rows[1:]]
    assert len(set(works)) == 1  # equal seed -> identical work column


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
    # both generators co-simulate Coloring / PhasedCcEstimator, so any change to
    # those structures' rng draws changes these streams
    def digest(stream):
        return hashlib.sha256(streams.render_stream(stream).encode()).hexdigest()

    assert digest(streams.gen_conflict_heavy(60, 400, 100, 6, seed=3, struct_seed=5)) == \
        "4985d2e2742ea0c5dc5e71a3584d6b9298e97ae7630e5bb91d55884084efeeff"
    assert digest(streams.gen_adaptive_script(40, 200, 30, 0.4, 0.2, seed=3,
                                              struct_seed=5)) == \
        "facd299c554c445f4ce36d396d350eba5c218dacbdc75d7132fb35838608a1d5"


def test_cli_cc_random_duplicate_insert_and_absent_delete_are_noops(tmp_path):
    stream_path = tmp_path / "s.txt"
    stream_path.write_text("# n=3 delta=0 W=1.0 mode=cc\n"
                           "i 0 1\ni 1 2\ni 0 1\nd 0 1\nd 1 2\nd 1 2\n")
    out_path = tmp_path / "out.csv"
    rc = _run_cli(["run", "--algo", "cc-random", "--stream", str(stream_path),
                   "--check-every", "1", "--out", str(out_path)])
    assert rc == 0
    rows = list(csv.DictReader(open(out_path)))
    assert [row["work"] for row in rows] == ["1", "1", "0", "1", "1", "0"]


def test_cli_run_error_names_the_step(tmp_path, capsys):
    stream_path = tmp_path / "s.txt"
    stream_path.write_text("# n=4 delta=0 W=2.0 mode=msf\n"
                           "i 0 1 1.0\ni 1 2 2.0\ni 1 0 1.5\n")
    rc = _run_cli(["run", "--algo", "msf-det", "--stream", str(stream_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "step 3 (i 1 0): " in err and "already present" in err


def test_cli_bench_error_names_the_step(tmp_path, capsys):
    stream_path = tmp_path / "s.txt"
    stream_path.write_text("# n=4 delta=0 W=2.0 mode=msf\n"
                           "i 0 1 1.0\ni 1 2 1.5\ni 0 1 2.0\n")
    rc = _run_cli(["bench", "--algo", "msf-det", "--stream", str(stream_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "step 3 (i 0 1): " in err and "already present" in err
