"""Acceptance gate: one test (and one pass/fail line) per shipped claim.

Every expected value here was either computed by the independent chart
oracles in derivparse.oracle, derived from a closed form (Catalan numbers),
or is a structural invariant checked exhaustively.  Tolerances are pinned
in-line; nothing is tuned to make a test pass.
"""

import json
import math
import random
import time

import pytest

from derivparse import (
    INFINITE,
    count_parses, earley_count, earley_recognize, enumerate_language,
    enumerate_trees, is_nullable, load_bnf, load_grammar, parse, recognize,
    reachable_nodes, tree_text,
)
from derivparse.cli import main as cli_main
from derivparse.grammar import EMPTY, EPSILON, RED, SEQ
from derivparse.instrumentation import MARK
from derivparse.nullability import is_nullable_naive
from conftest import (
    ARITH_LEFT_SRC, ARITH_SRC, CATALAN_SRC, DYCK_SRC, FIXED_CORPUS, WORST_SRC,
    all_strings, distinct_tokens, expr_tokens, nested_dyck, nested_parens,
    created_nodes, named_worst_case, probe_words, random_grammar_source,
    unit_grammar_source,
)


def _report(num: int, name: str, detail: str) -> None:
    print(f"criterion {num} ({name}): PASS  [{detail}]")


def _outputs(src: str, words, **settings) -> list:
    """Observable behavior of one engine configuration on a word list."""
    g = load_grammar(src)
    for k, v in settings.items():
        setattr(g.settings, k, v)
    out = []
    for w in words:
        fs = parse(g, list(w))
        ok = recognize(g, list(w))
        cnt = count_parses(fs)
        # 3 trees truncate more forests than 5: the subset must not depend
        # on the configuration either
        trees = [sorted(tree_text(t) for t in enumerate_trees(fs, k))
                 for k in (3, 5)]
        out.append((ok, str(cnt), trees))
    return out


# --- 1. oracle equivalence ---------------------------------------------------

def test_criterion_1_oracle_equivalence():
    rng = random.Random(0xACCE1)
    t0 = time.perf_counter()
    n_grammars = 200
    n_checked = n_counts = n_infinite = 0
    # guaranteed infinitely ambiguous cases on top of the random draw
    extra = ["start = S ;\nS : S | 'a' ;\n",
             "start = N ;\nN : E N | 'a' ;\nE : ;\n",
             "start = S ;\nS : | A ;\nA : ;\n"]
    sources = [random_grammar_source(rng) for _ in range(n_grammars)] + extra
    abc_words, ab_words = all_strings("abc", 6), all_strings("ab", 5)
    # unit- and empty-heavy grammars pump infinitely many trees far more
    # often, through the chart counter's same-span re-entries
    cases = ([(src, abc_words) for src in sources]
             + [(unit_grammar_source(rng), ab_words) for _ in range(n_grammars)])
    for src, words in cases:
        bg = load_bnf(src)
        g = load_grammar(src)
        rejected_sample = []
        for w in words:
            lw = list(w)
            ok = recognize(g, lw)
            assert ok == earley_recognize(bg, lw), (src, w)
            cnt = count_parses(parse(g, lw))
            assert (cnt != 0) == ok, (src, w)
            if ok:
                want = earley_count(bg, lw)
                assert cnt == want, (src, w, cnt, want)
                n_counts += 1
                if want is INFINITE:
                    n_infinite += 1
            else:
                # the chart counter's zero side is spot-checked below; the
                # recognizer above already certifies these words as rejects
                if len(rejected_sample) < 12:
                    rejected_sample.append(lw)
            n_checked += 1
        for lw in rejected_sample:
            assert earley_count(bg, lw) == 0, (src, lw)
    dt = time.perf_counter() - t0
    assert dt < 120.0, f"criterion 1 exceeded its runtime budget: {dt:.1f}s"
    assert n_infinite > 0
    _report(1, "oracle equivalence",
            f"{len(cases)} grammars, {n_checked} membership checks, "
            f"{n_counts} count checks ({n_infinite} infinite), {dt:.1f}s")


# --- 2. cubic node bound -----------------------------------------------------

def test_criterion_2_cubic_node_bound():
    # pairwise-distinct tokens that the grammar names keep every
    # substring's derivative distinct
    sizes = [20, 40, 80, 160]
    created = {}
    t0 = time.perf_counter()
    for n in sizes:
        src, toks = named_worst_case(n)
        g = load_grammar(src)
        g.counters.reset()  # count parse work only, not load work
        fs = parse(g, toks)
        assert not fs.is_empty()
        created[n] = g.counters.nodes_created
    dt = time.perf_counter() - t0
    assert created == {20: 3_196, 40: 23_196, 80: 177_596, 160: 1_391_996}

    ratios = {n: created[n] / n**3 for n in sizes}
    window = max(ratios.values()) / min(ratios.values())
    assert window <= 2.0, (created, window)

    fitted_c = created[20] / 20**3
    assert created[160] < fitted_c * 160**3, created

    for a, b in zip(sizes, sizes[1:]):
        growth = created[b] / created[a]
        assert growth <= 16.0, (a, b, created)

    # tokens only the wildcard matches derive by its class, so distinct
    # ones build the graph of identical ones: quadratic
    wild = {}
    for n in sizes:
        for toks in (distinct_tokens(n), ["a"] * n):
            g = load_grammar(WORST_SRC)
            g.counters.reset()
            parse(g, toks)
            wild.setdefault(n, set()).add(g.counters.nodes_created)
    assert wild == {20: {424}, 40: {1_644}, 80: {6_484}, 160: {25_764}}

    assert dt < 60.0, f"criterion 2 exceeded its runtime budget: {dt:.1f}s"
    _report(2, "cubic node bound",
            f"named-token nodes {created}, ratio window {window:.3f}; "
            f"wildcard nodes {wild}, {dt:.1f}s")


# --- 3. Catalan counts -------------------------------------------------------

def test_criterion_3_catalan_counts():
    expected = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862]
    g = load_grammar(CATALAN_SRC)
    bg = load_bnf(CATALAN_SRC)
    got = []
    for n in range(1, 11):
        cnt = count_parses(parse(g, ["a"] * n))
        assert cnt == expected[n - 1], n
        assert earley_count(bg, ["a"] * n) == cnt, n
        got.append(cnt)
    _report(3, "Catalan counts", f"n=1..10 exact: {got}")


# --- 4. nullability fixed point: agreement and savings ------------------------

def test_criterion_4_nullability_agreement_and_savings():
    rng = random.Random(0xF1C5)
    sources = FIXED_CORPUS + [random_grammar_source(rng) for _ in range(30)]
    for src in sources:
        g_opt = load_grammar(src)
        g_nav = load_grammar(src)
        g_nav.settings.naive_nullability = True
        opt_nodes = reachable_nodes(g_opt.root)
        nav_nodes = reachable_nodes(g_nav.root)
        assert len(opt_nodes) == len(nav_nodes)
        with g_opt.activate():
            opt_vals = [is_nullable(n) for n in opt_nodes]
        with g_nav.activate():
            nav_vals = [is_nullable_naive(n) for n in nav_nodes]
        assert opt_vals == nav_vals, src

    def visits(naive: bool, toks) -> int:
        g = load_grammar(WORST_SRC)
        g.settings.naive_nullability = naive
        g.counters.reset()
        assert recognize(g, toks)
        return g.counters.nullable_visits

    toks40 = distinct_tokens(40)
    v_opt, v_nav = visits(False, toks40), visits(True, toks40)
    assert v_opt < v_nav, (v_opt, v_nav)  # strict at n=40 on the hard grammar

    for src in FIXED_CORPUS:
        bg = load_bnf(src)
        sample = sorted(enumerate_language(bg, 4))[:5]
        for w in sample:
            g1 = load_grammar(src)
            g1.counters.reset()
            recognize(g1, list(w))
            g2 = load_grammar(src)
            g2.settings.naive_nullability = True
            g2.counters.reset()
            recognize(g2, list(w))
            assert g1.counters.nullable_visits <= g2.counters.nullable_visits, (src, w)

    _report(4, "nullability agreement and savings",
            f"{len(sources)} grammars agree per node; worst case n=40 "
            f"visits {v_opt} (accelerated) vs {v_nav} (full recompute)")


# --- 5. memo-mode equivalence ------------------------------------------------

def test_criterion_5_memo_mode_equivalence(tmp_path, capsys):
    rng = random.Random(0x51E)
    sources = FIXED_CORPUS + [random_grammar_source(rng) for _ in range(20)]
    for src in sources:
        bg = load_bnf(src)
        words = probe_words(bg, "ab")
        single = _outputs(src, words, memo_full=False)
        full = _outputs(src, words, memo_full=True)
        assert single == full, src

    def uncached(src: str, toks, memo_full: bool) -> int:
        g = load_grammar(src)
        g.settings.memo_full = memo_full
        g.counters.reset()
        parse(g, toks)
        return g.counters.derive_calls_uncached

    cases = [
        (WORST_SRC, distinct_tokens(24)),
        (CATALAN_SRC, ["a"] * 24),
        (ARITH_SRC, expr_tokens(60)),
    ]
    increases = []
    for src, toks in cases:
        u_single = uncached(src, toks, False)
        u_full = uncached(src, toks, True)
        assert u_single >= u_full, (src, u_single, u_full)
        increases.append(100.0 * (u_single - u_full) / max(1, u_full))

    # the same effect, surfaced through the bench CSV report
    gpath = tmp_path / "arith.txt"
    gpath.write_text(ARITH_SRC)
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "small.txt").write_text(" ".join(expr_tokens(40)))
    (corpus / "large.txt").write_text(" ".join(expr_tokens(120)))

    def bench_uncached(mode: str) -> dict:
        code = cli_main(["bench", "--memo", mode, "--rounds", "1",
                         "--warmup", "0", "--min-round-seconds", "0.0001",
                         str(gpath), str(corpus)])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        head = lines[0].split(",")
        col = head.index("derive_uncached")
        return {ln.split(",")[0]: int(ln.split(",")[col]) for ln in lines[1:]}

    by_single = bench_uncached("single")
    by_full = bench_uncached("full")
    assert set(by_single) == {"large.txt", "small.txt"}
    csv_increase = {}
    for name in by_single:
        assert by_single[name] >= by_full[name], name
        csv_increase[name] = 100.0 * (by_single[name] - by_full[name]) / by_full[name]

    _report(5, "memo-mode equivalence",
            f"{len(sources)} grammars identical; extra uncached derivations "
            f"with the one-slot cache: {[f'{x:.1f}%' for x in increases]}, "
            f"bench CSV {({k: f'{v:.1f}%' for k, v in sorted(csv_increase.items())})}")


# --- 6. compaction soundness and normal form ----------------------------------

def test_criterion_6_compaction_soundness_and_normal_form():
    rng = random.Random(0xC0DE)
    sources = FIXED_CORPUS + [random_grammar_source(rng) for _ in range(20)]
    for src in sources:
        bg = load_bnf(src)
        words = probe_words(bg, "ab")
        plain = _outputs(src, words, compaction=True)
        off = _outputs(src, words, compaction=False)
        assert plain == off, src

    scanned = 0
    violations = 0
    scan_cases = [
        (WORST_SRC, distinct_tokens(24)),
        (CATALAN_SRC, ["a"] * 10),
        (ARITH_SRC, expr_tokens(60)),
    ]
    for src, toks in scan_cases:
        g = load_grammar(src)
        with created_nodes() as made:
            assert not parse(g, toks).is_empty()
        for n in made + reachable_nodes(g.root):
            scanned += 1
            if (n.form == SEQ and n.right is not None
                    and n.right.form in (EMPTY, EPSILON, RED)):
                violations += 1
    assert violations == 0, violations
    _report(6, "compaction soundness and normal form",
            f"{len(sources)} grammars identical with compaction off/on; "
            f"{scanned} nodes scanned, 0 banned right children")


# --- 7. naming discipline ----------------------------------------------------

def test_criterion_7_naming_discipline():
    # derive with names on: a memo hit whose stored name differs from the
    # name the rules would mint raises NamingError inside the engine
    rng = random.Random(0x7A6)
    cases = []
    for _ in range(50):
        src = random_grammar_source(rng)
        bg = load_bnf(src)
        words = sorted(enumerate_language(bg, 4), key=len)[:6]
        cases.append((src, [list(w) for w in words]))
    cases.append((WORST_SRC, [distinct_tokens(16)]))

    names_seen = 0
    double_marks = 0
    for src, inputs in cases:
        for toks in inputs:
            g = load_grammar(src)
            g.settings.debug_names = True
            with created_nodes() as made:
                recognize(g, toks)  # NamingError here would fail the test
            for n in made:
                if n.name is None:
                    continue
                names_seen += 1
                if n.name.text().count(MARK) > 1:
                    double_marks += 1
    assert double_marks == 0
    assert names_seen > 0
    _report(7, "naming discipline",
            f"{len(cases)} grammars, {names_seen} minted names, "
            f"0 double split markers, 0 memo-hit mismatches")


# --- 8. linear-practical smoke ------------------------------------------------

def test_criterion_8_linear_practical_smoke():
    g = load_grammar(ARITH_SRC)
    sizes = (2000, 20000)
    spt = {}
    for n in sizes:
        toks = expr_tokens(n)
        # the best of 3 parses, so that one stall of a shared host does not
        # decide the ratio
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            fs = parse(g, toks)
            seconds = time.perf_counter() - t0
            assert count_parses(fs) == 1, n  # the grammar is unambiguous
            if n == 20000:
                assert seconds < 30.0, seconds
            best = min(best, seconds)
        spt[n] = best / n
    ratio = spt[20000] / spt[2000]
    assert ratio <= 3.0, spt

    # left recursion, counted: its derivatives close cycles that denote the
    # empty language, which must be collapsed for the graph to stay flat
    g = load_grammar(ARITH_LEFT_SRC)
    npt = {}
    for n in (100, 400):
        before = g.counters.nodes_created
        fs = parse(g, expr_tokens(n))
        assert count_parses(fs) == 1, n
        npt[n] = (g.counters.nodes_created - before) / n
    growth = npt[400] / npt[100]
    assert growth <= 1.25, npt

    # nesting, counted: each token of (^d )^d must not rebuild the open levels
    g = load_grammar(DYCK_SRC)
    dpt = {}
    for d in (100, 400):
        before = g.counters.nodes_created
        fs = parse(g, nested_dyck(d))
        assert count_parses(fs) == 1, d
        dpt[d] = (g.counters.nodes_created - before) / (2 * d)
    depth_growth = dpt[400] / dpt[100]
    assert depth_growth <= 1.25, dpt

    # nested arithmetic, counted: about 4k tokens of operands in d
    # parentheses, joined by '+', cost next to nothing per token at d=1,
    # and nesting them 64 deep adds at most 0.1 nodes per token
    apt = {}
    for d in (1, 64):
        unit = nested_parens(d)
        toks = unit + (["+"] + unit) * (4000 // (len(unit) + 1) - 1)
        g = load_grammar(ARITH_SRC)
        before = g.counters.nodes_created
        fs = parse(g, toks)
        assert count_parses(fs) == 1, d
        apt[d] = (g.counters.nodes_created - before) / len(toks)
    arith_depth = apt[64] - apt[1]
    assert arith_depth <= 0.1 and apt[1] <= 0.05, apt
    _report(8, "linear-practical smoke",
            f"seconds/token {spt[2000]:.2e} @2k vs {spt[20000]:.2e} @20k, "
            f"ratio {ratio:.2f}; left-recursive nodes/token "
            f"{npt[100]:.1f} @100 vs {npt[400]:.1f} @400, ratio {growth:.2f}; "
            f"nested Dyck nodes/token {dpt[100]:.1f} @d=100 vs "
            f"{dpt[400]:.1f} @d=400, ratio {depth_growth:.2f}; nested "
            f"arithmetic nodes/token {apt[1]:.3f} @d=1 vs {apt[64]:.3f} "
            f"@d=64, surcharge {arith_depth:.3f}")
