"""Command-line entry points, driven through main(argv)."""

import csv
import json
import re

import pytest

from derivparse.cli import main
from derivparse.instrumentation import CSV_FIELDS
from conftest import ROOT


CATALAN_SRC = "start = S ;\nS : S S | 'a' ;\n"


@pytest.fixture
def ws(tmp_path):
    (tmp_path / "g.txt").write_text(CATALAN_SRC)
    (tmp_path / "w4.txt").write_text("a a a a\n")
    (tmp_path / "bad.txt").write_text("a a b\n")
    return tmp_path


def g(ws):
    return str(ws / "g.txt")


def test_recognize_accept(ws, capsys):
    assert main(["recognize", g(ws), str(ws / "w4.txt")]) == 0
    assert capsys.readouterr().out.strip() == "accept"


def test_recognize_reject(ws, capsys):
    assert main(["recognize", g(ws), str(ws / "bad.txt")]) == 1
    assert capsys.readouterr().out.strip() == "reject"


def test_parse_count(ws, capsys):
    assert main(["parse", "--count", g(ws), str(ws / "w4.txt")]) == 0
    assert capsys.readouterr().out.strip() == "5"


def test_parse_count_infinite(ws, capsys):
    (ws / "pump.txt").write_text("start = S ;\nS : S | 'a' ;\n")
    (ws / "w1.txt").write_text("a\n")
    assert main(["parse", "--count", str(ws / "pump.txt"), str(ws / "w1.txt")]) == 0
    assert capsys.readouterr().out.strip() == "Infinite"


def test_parse_forest_json(ws, capsys):
    assert main(["parse", g(ws), str(ws / "w4.txt")]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"root", "nodes"}
    assert payload["root"] is not None


def test_parse_prints_the_readmes_forest_json(tmp_path, capsys):
    # the README's Forest JSON section shows parse on the quick-start
    # grammar and n + n + n, so the schema it documents cannot drift
    readme = (ROOT / "README.md").read_text()
    quick = readme[readme.index("## Quick start"):]
    grammar = re.search(r'load_grammar\("""\n(.*?)"""\)', quick, re.S)[1]
    section = readme[readme.index("## Forest JSON"):]
    assert "the quick-start grammar and `n + n + n`" in section
    block = re.search(r"```json\n(.*?)```", section, re.S)[1]
    (tmp_path / "g.txt").write_text(grammar)
    (tmp_path / "w.txt").write_text("n + n + n\n")
    assert main(["parse", str(tmp_path / "g.txt"),
                 str(tmp_path / "w.txt")]) == 0
    assert json.loads(capsys.readouterr().out) == json.loads(block)


def test_parse_reject_prints_empty_forest(ws, capsys):
    assert main(["parse", g(ws), str(ws / "bad.txt")]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"root": None, "nodes": []}


def test_parse_count_on_reject(ws, capsys):
    assert main(["parse", "--count", g(ws), str(ws / "bad.txt")]) == 1
    assert capsys.readouterr().out.strip() == "0"


def test_engine_flags_accepted(ws, capsys):
    for flags in (["--memo", "full"], ["--memo", "single"],
                  ["--compaction", "off"], ["--nullability", "naive"],
                  ["--debug-names"]):
        code = main(["recognize", *flags, g(ws), str(ws / "w4.txt")])
        assert code == 0, flags
        assert capsys.readouterr().out.strip() == "accept"


def test_debug_names_work_where_trees_are_needed(ws, capsys):
    # names build the --compaction off graph, so parse and bench take them
    # and answer as that engine does
    w4 = str(ws / "w4.txt")
    answers = []
    for flags in (["--debug-names"], ["--compaction", "off"]):
        assert main(["parse", *flags, g(ws), w4]) == 0
        doc = capsys.readouterr().out
        assert main(["parse", "--count", *flags, g(ws), w4]) == 0
        count = capsys.readouterr().out
        lines = _bench_lines(ws, capsys, *flags)
        answers.append((doc, count, [line.split(",")[-2:]
                                     for line in lines[1:]]))
    assert answers[0] == answers[1]
    assert answers[0][1] == "5\n"


def test_grammar_error_diagnostic(ws, capsys):
    bad = ws / "badg.txt"
    bad.write_text("start = S ;\nS : T ;\n")
    code = main(["recognize", str(bad), str(ws / "w4.txt")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}:2:5:")
    assert "undefined nonterminal 'T'" in err


def test_missing_file_is_a_usage_error(ws, capsys):
    assert main(["recognize", g(ws), str(ws / "nope.txt")]) == 2
    assert "error:" in capsys.readouterr().err


def test_internal_error_is_not_a_reject(ws, capsys, monkeypatch):
    def crash(g, toks):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr("derivparse.cli.recognize", crash)
    assert main(["recognize", g(ws), str(ws / "w4.txt")]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: RecursionError")


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2


def test_stats_csv(ws, capsys):
    assert main(["stats", g(ws), str(ws / "w4.txt")]) == 0
    out = capsys.readouterr().out
    header, row, _ = out.split("\n")
    assert header == ",".join(CSV_FIELDS)
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["tokens"] == "4"
    assert int(cells["nodes_created"]) > 0
    assert float(cells["seconds_per_token"]) > 0


def test_stats_json(ws, capsys):
    assert main(["stats", "--format", "json", g(ws), str(ws / "w4.txt")]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["tokens"] == 4
    assert data["nodes_created"] > 0
    assert {"seqs_shared", "reductions_shared"} <= data.keys()


def _bench_lines(ws, capsys, *flags):
    corpus = ws / "corpus"
    if not corpus.exists():
        corpus.mkdir()
        (corpus / "one.txt").write_text("a\n")
        (corpus / "two.txt").write_text("a a\n")
        (corpus / "three.txt").write_text("a a a\n")
    code = main(["bench", *flags, "--rounds", "2", "--warmup", "1",
                 "--min-round-seconds", "0.001", g(ws), str(corpus)])
    assert code == 0
    out = capsys.readouterr().out.strip().split("\n")
    return out


def test_bench_emits_one_row_per_input(ws, capsys):
    lines = _bench_lines(ws, capsys)
    assert lines[0] == ",".join(CSV_FIELDS + ("accept", "parse_count"))
    assert len(lines) == 4  # header + three inputs, sorted by name
    names = [line.split(",")[0] for line in lines[1:]]
    assert names == sorted(names)
    for line in lines[1:]:
        cells = dict(zip(lines[0].split(","), line.split(",")))
        assert cells["accept"] == "1"
        assert int(cells["parse_count"]) >= 1


def test_bench_parse_counts_are_engine_independent(ws, capsys):
    plain = _bench_lines(ws, capsys)
    single = _bench_lines(ws, capsys, "--memo", "single", "--nullability",
                          "naive")
    pick = lambda lines: [line.split(",")[-1] for line in lines[1:]]
    assert pick(plain) == pick(single)


def test_bench_skips_unreadable_inputs(ws, capsys):
    corpus = ws / "corpus2"
    corpus.mkdir()
    (corpus / "ok.txt").write_text("a\n")
    (corpus / "sub").mkdir()                          # ignored outright
    (corpus / "junk.txt").write_bytes(b"\xff\xfe\xff")  # undecodable: reported
    code = main(["bench", "--rounds", "1", "--warmup", "0",
                 "--min-round-seconds", "0.001", g(ws), str(corpus)])
    assert code == 0
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert "junk.txt" in captured.err
    assert len(captured.out.strip().split("\n")) == 2  # header + ok.txt only


@pytest.mark.parametrize("flag, value", [
    ("--rounds", "0"), ("--warmup", "-1"), ("--min-round-seconds", "-1"),
    ("--min-round-seconds", "nan"),
])
def test_bench_rejects_out_of_range_repeats(ws, capsys, flag, value):
    corpus = ws / "corpus4"
    corpus.mkdir()
    (corpus / "one.txt").write_text("a\n")
    opts = {"--rounds": "1", "--warmup": "0", "--min-round-seconds": "0.001"}
    opts[flag] = value
    argv = ["bench", *(x for kv in opts.items() for x in kv), g(ws),
            str(corpus)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert flag in captured.err
    assert "internal error" not in captured.err


def test_csv_rows_quote_file_names_with_commas(ws, capsys):
    corpus = ws / "corpus5"
    corpus.mkdir()
    tokens = corpus / "a,b.tok"
    tokens.write_text("a a\n")
    code = main(["bench", "--rounds", "1", "--warmup", "0",
                 "--min-round-seconds", "0.001", g(ws), str(corpus)])
    assert code == 0
    bench = capsys.readouterr().out
    assert main(["stats", "--format", "csv", g(ws), str(tokens)]) == 0
    stats = capsys.readouterr().out
    for out, name in ((bench, "a,b.tok"), (stats, str(tokens))):
        lines = out.splitlines()
        rows = list(csv.reader(lines))
        assert len(rows) == len(lines) == 2
        header, row = rows
        assert len(row) == len(header)
        assert dict(zip(header, row))["file"] == name


def test_bench_crash_is_not_a_success(ws, capsys, monkeypatch):
    def crash(g, toks):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr("derivparse.cli.parse", crash)
    corpus = ws / "corpus3"
    corpus.mkdir()
    (corpus / "one.txt").write_text("a\n")
    code = main(["bench", "--rounds", "1", "--warmup", "0",
                 "--min-round-seconds", "0.001", g(ws), str(corpus)])
    assert code == 3
    assert "internal error: RecursionError" in capsys.readouterr().err
