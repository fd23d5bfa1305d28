"""Counters, metric emission, and the debug naming discipline."""

import json
from collections import Counter

import pytest

from derivparse import (
    Context, NamingError, load_grammar, parse, recognize, use_context,
)
from derivparse import derivation, grammar
from derivparse.grammar import mk_alt, mk_empty, mk_token
from derivparse.instrumentation import (
    CSV_FIELDS, EXTEND, FORM_NAMES, FRESH, MARK, MARK_EXTEND, Counters,
    NodeName, emit, fresh_name, name_node,
)
from conftest import ARITH_LEFT_SRC, ARITH_SRC, DYCK_SRC, expr_tokens


def test_counters_reset():
    with use_context(Context()) as ctx:
        mk_alt(mk_token("a"), mk_token("b"))
    c = ctx.counters
    c.derive_calls_cached += 3
    assert c.nodes_created == 3
    c.reset()
    assert c.nodes_created == 0
    assert c.derive_calls_cached == 0
    assert c.compactions == 0


def test_counters_snapshot_is_detached():
    with use_context(Context()) as ctx:
        a = mk_token("a")
        snap = ctx.counters.snapshot()
        mk_alt(mk_empty(), a)
    assert snap.nodes_created == 1
    assert ctx.counters.nodes_created == 2
    assert snap.compaction_firings == {}
    assert ctx.counters.compaction_firings == {"alt-empty-left": 1}


def _record_rewrites(monkeypatch) -> list:
    """Every node that become_node rewrites in place from now on."""
    rewritten = []
    real = grammar.become_node

    def recording(dst, src):
        rewritten.append(dst)
        return real(dst, src)

    monkeypatch.setattr(grammar, "become_node", recording)
    monkeypatch.setattr(derivation, "become_node", recording)
    return rewritten


def test_counters_by_form_match_the_nodes_a_parse_creates(monkeypatch):
    rewritten = _record_rewrites(monkeypatch)
    # the recording sees the rewrites of a parse that makes some
    parse(load_grammar(ARITH_LEFT_SRC), expr_tokens(40))
    assert rewritten
    rewritten.clear()
    g = load_grammar(ARITH_SRC)
    g.settings.collect_nodes = True
    before = g.counters.as_dict()["nodes_by_form"]
    parse(g, expr_tokens(40))
    after = g.counters.as_dict()["nodes_by_form"]
    # nodes a rule rewrote in place changed form after they were counted
    assert not set(rewritten) & set(g.created_nodes)
    made = Counter(FORM_NAMES[n.form] for n in g.created_nodes)
    assert {f: after[f] - before[f] for f in FORM_NAMES} == {
        f: made[f] for f in FORM_NAMES}
    assert g.counters.nodes_created == sum(after.values())


def test_counters_dict_lists_forms_in_order():
    g = load_grammar(ARITH_SRC)
    recognize(g, expr_tokens(10))
    by_form = g.counters.as_dict()["nodes_by_form"]
    assert tuple(by_form) == FORM_NAMES
    assert sum(by_form.values()) == g.counters.nodes_created


def test_emit_csv_has_header_and_row():
    c = Counters()
    c.derive_calls_uncached = 7
    out = emit(c, "csv", file="x.txt", tokens=12, seconds_per_token=2.5e-06)
    header, row, tail = out.split("\n")
    assert header == ",".join(CSV_FIELDS)
    cells = row.split(",")
    assert cells[0] == "x.txt"
    assert cells[1] == "12"
    assert cells[CSV_FIELDS.index("derive_uncached")] == "7"
    assert float(cells[-1]) == 2.5e-06
    assert tail == ""


def test_emit_json_is_parseable_and_complete():
    with use_context(Context()) as ctx:
        mk_alt(mk_empty(), mk_token("a"))
    c = ctx.counters
    out = json.loads(emit(c, "json", file="y.txt", tokens=3))
    assert out["file"] == "y.txt"
    assert out["tokens"] == 3
    assert out["compaction_firings"] == {"alt-empty-left": 1}
    for field in ("nodes_created", "derive_cached", "nullable_visits"):
        assert field in out


# firings of the two parses below, under the single-entry memo as the
# dict-counting engine recorded them, and under the default full memo,
# which rebuilds no derivative that a slot evicted, and so fires fewer
_PINNED_PARSE_FIRINGS = {
    False: ({"seq-empty-left": 20, "red-empty": 55, "seq-epsilon-left": 13,
             "red-compose": 34, "alt-empty-right": 57, "alt-empty-left": 7,
             "red-epsilon": 10, "dead-subgraph": 16, "seq-float-left": 21},
            233,
            {"seq-epsilon-left": 3, "red-compose": 63, "alt-empty-right": 3,
             "seq-float-left": 38, "seq-empty-left": 22, "red-empty": 2,
             "seq-associate": 18, "alt-empty-left": 21},
            170),
    True: ({"seq-empty-left": 11, "red-empty": 55, "seq-epsilon-left": 4,
            "red-compose": 34, "alt-empty-right": 57, "alt-empty-left": 7,
            "red-epsilon": 10, "dead-subgraph": 16, "seq-float-left": 21},
           215,
           {"seq-epsilon-left": 2, "red-compose": 62, "alt-empty-right": 2,
            "seq-float-left": 38, "seq-empty-left": 22, "red-empty": 2,
            "seq-associate": 18, "alt-empty-left": 21},
           167),
}


def test_per_rule_firings_are_pinned():
    # firing counts of a load and of two parses that between them fire 11
    # of the 14 rules (the load's since the spine rule's head guard reads
    # the never-null mark)
    nested_left = ["("] * 3 + expr_tokens(40) + [")"] * 3
    g = load_grammar(ARITH_SRC)
    assert g.counters.compaction_firings == {
        "seq-float-left": 3, "seq-float-right": 5, "red-compose": 6,
        "seq-associate": 3}
    for memo_full, pinned in _PINNED_PARSE_FIRINGS.items():
        left, left_total, dyck, dyck_total = pinned
        g = load_grammar(ARITH_LEFT_SRC)
        g.settings.memo_full = memo_full
        g.counters.reset()
        parse(g, nested_left)
        assert g.counters.compaction_firings == left, memo_full
        assert g.counters.compactions == left_total, memo_full
        with pytest.raises(TypeError):  # a view of the per-rule list
            g.counters.compaction_firings["red-empty"] = 0
        g = load_grammar(DYCK_SRC)
        g.settings.memo_full = memo_full
        g.counters.reset()
        parse(g, ["("] * 20 + [")"] * 20 + ["(", ")"])
        out = json.loads(emit(g.counters, "json"))
        assert out["compaction_firings"] == dyck, memo_full
        assert out["compactions"] == dyck_total, memo_full


def test_emit_rejects_unknown_format():
    with pytest.raises(ValueError):
        emit(Counters(), "xml")


def test_fresh_names_are_distinct():
    assert fresh_name() != fresh_name()


def test_extend_appends_token():
    base = NodeName("g0")
    n1 = name_node(base, "a", EXTEND)
    n2 = name_node(n1, "b", EXTEND)
    assert n2.base == "g0"
    assert n2.parts == ("a", "b")
    assert n2.mark is None
    assert n2.text() == "g0ab"


def test_mark_extend_records_split_point():
    base = NodeName("g0", ("a",))
    n = name_node(base, "b", MARK_EXTEND)
    assert n.parts == ("a", "b")
    assert n.mark == 1
    assert n.text() == f"g0a{MARK}b"
    # further plain extensions keep the marker where it was
    n2 = name_node(n, "c", EXTEND)
    assert n2.mark == 1
    assert n2.text() == f"g0a{MARK}bc"


def test_second_mark_is_rejected():
    base = NodeName("g0", ("a",))
    marked = name_node(base, "b", MARK_EXTEND)
    with pytest.raises(NamingError):
        name_node(marked, "c", MARK_EXTEND)


def test_naming_rules_need_parent_and_token():
    with pytest.raises(NamingError):
        name_node(None, "a", EXTEND)
    with pytest.raises(NamingError):
        name_node(NodeName("g0"), None, MARK_EXTEND)
    with pytest.raises(NamingError):
        name_node(NodeName("g0"), "a", "bogus")


def test_names_hash_by_value():
    a = NodeName("g0", ("a", "b"), 1)
    b = NodeName("g0", ("a", "b"), 1)
    assert a == b
    assert hash(a) == hash(b)
    assert a != NodeName("g0", ("a", "b"), None)


def _collect_names(g, tokens):
    g.settings.debug_names = True
    g.settings.collect_nodes = True
    assert recognize(g, tokens)
    return [n.name for n in g.created_nodes if n.name is not None]


def test_engine_names_are_suffix_contiguous():
    # every minted name's token labels must be a contiguous run of the input
    g = load_grammar("start = S ;\nS : S S | '.' ;")
    toks = [str(i) for i in range(12)]
    names = _collect_names(g, toks)
    assert names
    for nm in names:
        parts = nm.parts
        if not parts:
            continue
        assert len(parts) <= len(toks)
        joined = list(parts)
        pos = [i for i in range(len(toks) - len(joined) + 1)
               if toks[i:i + len(joined)] == joined]
        assert pos, nm.text()
        assert nm.mark is None or 0 <= nm.mark <= len(parts)


def test_engine_never_double_marks():
    g = load_grammar("start = S ;\nS : A 'x' | ;\nA : | 'a' ;")
    g.settings.debug_names = True
    parse_ok = recognize(g, ["a", "x"])
    assert parse_ok  # if a second mark had been needed, NamingError would raise


def test_debug_names_block_tree_extraction():
    g = load_grammar("start = S ;\nS : 'a' ;")
    g.settings.debug_names = True
    with pytest.raises(ValueError):
        parse(g, ["a"])
