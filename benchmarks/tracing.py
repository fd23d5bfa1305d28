"""The traced run: a per-layer split of one pass over the workload.

Spans are recorded by the benchmark around each call into a layer of the
engine (loader, derivation, nullability, forest), never inside it.  Each
span has a name, start, end, parent and the id of the request it belongs to;
spans stay in memory and are written as JSON when the run ends.  A layer's
time is the self time of its spans: duration minus the time its child spans
cover.

To make the layers callable one at a time, a traced request rebuilds
`load_grammar` and `parse` from public calls: a freshly loaded grammar
(load_bnf, build_graph, normalize_grammar), then `derive` per token inside
`g.activate()`, then the closing `is_nullable`, then `parse_null`.
Nullability queries and node construction inside `derive` therefore show
only as counts.  The traced pass must reproduce the answers of an untraced
pass over the same requests.
"""

from __future__ import annotations

import gc
import itertools
import json
import math
import random
import statistics
import time
from contextlib import contextmanager

from derivparse import (
    BnfGrammar, Context, Grammar, build_graph, count_parses, derive,
    forest_to_json, is_nullable, load_bnf, load_grammar, normalize_grammar,
    parse, parse_null, reachable_nodes, recognize, use_context,
)
from derivparse import forest as forest_mod

import measure
from workloads import growth_ladders

# the live derivative graph is measured every SAMPLE_EVERY tokens
SAMPLE_EVERY = 16

RULES = (
    "alt-empty-left", "alt-empty-right", "alt-epsilon-merge", "dead-subgraph",
    "red-compose", "red-empty", "red-epsilon", "seq-associate",
    "seq-empty-left", "seq-empty-right", "seq-epsilon-left",
    "seq-epsilon-right", "seq-float-left", "seq-float-right",
)

GROWTH_FAMILIES = ("arith_right", "arith_left", "dyck")

# engine switch name -> (ParserSettings field, value)
SWITCHES = {
    "memo_full": ("memo_full", True),
    "compaction_off": ("compaction", False),
    "naive_nullability": ("naive_nullability", True),
}

PER_LAYER = (
    "loader.parse_source_s", "loader.build_graph_s", "loader.normalize_s",
    "loader.grammar_nodes", "loader.normalize_firings",
    "derivation.derive_s", "derivation.us_per_token",
    "derivation.calls_per_token", "derivation.derive_calls",
    "derivation.memo_hit_ratio",
    *(f"derivation.nodes_growth_exponent.{f}" for f in GROWTH_FAMILIES),
    "grammar.nodes_per_token", "grammar.live_nodes_peak",
    "grammar.compactions_per_token",
    *(f"grammar.compaction.{r}" for r in RULES),
    "nullability.visits_per_token", "nullability.queries_per_token",
    "nullability.final_s",
    "forest.parse_null_s", "forest.count_s", "forest.count_calls",
    "forest.enumerate_s", "forest.json_s", "forest.nodes",
    "trace.overhead_ratio", "trace.tokens", "trace.requests",
    *(f"ablation.{s}.{m}" for s in SWITCHES
      for m in ("nodes_ratio", "calls_ratio", "visits_ratio")),
)


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("us_per_token"):
        return "us/token"
    if name.endswith("per_token"):
        return "1/token"
    if name.endswith("ratio"):
        return "ratio"
    if "growth_exponent" in name:
        return "slope"
    return "count"


class Tracer:
    """Spans in memory: [name, start, end, parent index, request id]."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self.request = None

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        rec = [name, time.perf_counter(), None, parent, self.request]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> dict:
        """Total self time per span name."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] is not None:
                own[s[3]] -= s[2] - s[1]
        out: dict = {}
        for s, t in zip(self.spans, own):
            out[s[0]] = out.get(s[0], 0.0) + t
        return out

    def total(self, name: str) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[0] == name)

    def dump(self, path) -> None:
        keys = ("name", "start", "end", "parent", "request")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [dict(zip(keys, s)) for s in self.spans]}, fh)


class Counts:
    """Engine counters summed over the traced pass."""

    def __init__(self):
        self.tokens = 0
        self.cached = 0
        self.uncached = 0
        self.nodes = 0
        self.visits = 0
        self.queries = 0
        self.firings = dict.fromkeys(RULES, 0)
        self.live_peak = 0
        self.forest_nodes = 0
        self.count_calls = 0
        self.grammars: dict = {}  # grammar key -> (nodes, normalize firings)

    def add(self, before, after) -> None:
        self.cached += after.derive_calls_cached - before.derive_calls_cached
        self.uncached += after.derive_calls_uncached - before.derive_calls_uncached
        self.nodes += after.nodes_created - before.nodes_created
        self.visits += after.nullable_visits - before.nullable_visits
        self.queries += after.generation_count - before.generation_count
        for rule, n in after.compaction_firings.items():
            self.firings[rule] += n - before.compaction_firings.get(rule, 0)

    def exact(self) -> dict:
        """The counts that must repeat exactly for one seed."""
        return {
            "nodes_created": self.nodes,
            "derive_calls_cached": self.cached,
            "derive_calls_uncached": self.uncached,
            "nullable_visits": self.visits,
            "nullable_queries": self.queries,
            "compaction_firings": dict(self.firings),
            "live_nodes_peak": self.live_peak,
            "forest.nodes": self.forest_nodes,
            "forest.count_calls": self.count_calls,
            "grammars": dict(self.grammars),
        }


def _load(key: str, source: str, tr: Tracer, counts: Counts) -> Grammar:
    """load_grammar, one layer step at a time."""
    with tr.span("loader.parse_source"):
        bnf: BnfGrammar = load_bnf(source)
    ctx = Context()
    with tr.span("loader.build_graph"), use_context(ctx):
        root, table = build_graph(bnf)
        g = Grammar(root, bnf.start, table, bnf)
    g.counters = ctx.counters
    before = g.counters.compactions
    with tr.span("loader.normalize"), use_context(Context(g.counters, g.settings)):
        normalize_grammar(g)
    counts.grammars[key] = (g.size_G, g.counters.compactions - before)
    return g


def _serve_traced(req, source: str, tr: Tracer, counts: Counts):
    g = _load(req.grammar, source, tr, counts)
    c = g.counters
    toks = req.tokens
    with g.activate():
        start = c.snapshot()
        with tr.span("derivation.derive"):
            node = g.root
            for i, tok in enumerate(toks, 1):
                node = derive(node, tok)
                if i % SAMPLE_EVERY == 0 or i == len(toks):
                    with tr.span("harness.live_sample"):
                        live = len(reachable_nodes(node))
                    counts.live_peak = max(counts.live_peak, live)
        with tr.span("nullability.final"):
            is_nullable(node)
        with tr.span("forest.parse_null"):
            fs = parse_null(node)
        counts.add(start, c.snapshot())
    counts.tokens += len(toks)
    ans = measure.consume(req, fs, tr.span)
    with tr.span("harness.forest_nodes"):
        doc = ans.json if ans.json is not None else forest_to_json(fs)
        counts.forest_nodes += len(doc["nodes"])
    return ans


def _pass(wl, run) -> tuple:
    """(answer summaries, failures, summed request seconds) of one pass,
    collecting garbage between chunks as the timed run does."""
    summaries, failed, total, chunk = [], 0, 0.0, 0.0
    gc.collect()
    for req in wl.requests:
        dt, ans, ok = measure.attempt(req, run)
        summaries.append(None if ans is None else ans.summary())
        failed += not ok
        total += dt
        chunk += dt
        if chunk >= measure.CHUNK_S:
            gc.collect()
            chunk = 0.0
    return summaries, failed, total


def traced_pass(wl, tr: Tracer) -> tuple:
    """(summaries, failures, counts) of one traced pass; count_parses is
    wrapped at its module attribute so nested invocations are counted."""
    counts = Counts()
    real = forest_mod.count_parses
    ids = itertools.count()

    def counting(fs):
        counts.count_calls += 1
        return real(fs)

    def run(req):
        tr.request = next(ids)
        with tr.span("request"):
            return _serve_traced(req, wl.grammars[req.grammar], tr, counts)

    forest_mod.count_parses = counting
    try:
        summaries, failed, _ = _pass(wl, run)
    finally:
        forest_mod.count_parses = real
        tr.request = None
    return summaries, failed, counts


def growth_exponent(source: str, inputs: list) -> float:
    """Least-squares slope of log(nodes created) against log(tokens)."""
    xs, ys = [], []
    for toks in inputs:
        g = load_grammar(source)
        before = g.counters.nodes_created
        recognize(g, toks)
        xs.append(math.log(len(toks)))
        ys.append(math.log(g.counters.nodes_created - before))
    return statistics.linear_regression(xs, ys).slope


def ablation(wl) -> tuple:
    """(metrics, failures) of the default engine against each paper switch
    on the workload's fixed ablation input: work ratios, identical answers."""

    def run(switch):
        answers, nodes, calls, visits = [], 0, 0, 0
        for req in wl.ablation:
            g = load_grammar(wl.grammars[req.grammar])
            if switch is not None:
                setattr(g.settings, *switch)
            c = g.counters
            before = c.snapshot()
            fs = parse(g, req.tokens)
            count = None if req.kind == "verdict" else count_parses(fs)
            answers.append((not fs.is_empty(), count))
            nodes += c.nodes_created - before.nodes_created
            calls += (c.derive_calls_cached + c.derive_calls_uncached
                      - before.derive_calls_cached - before.derive_calls_uncached)
            visits += c.nullable_visits - before.nullable_visits
        return answers, (nodes, calls, visits)

    expected = [(r.accept, None if r.kind == "verdict" else r.count)
                for r in wl.ablation]
    base_answers, base = run(None)
    failed = sum(a != e for a, e in zip(base_answers, expected))
    metrics = {}
    for name, switch in SWITCHES.items():
        answers, work = run(switch)
        failed += sum(a != e for a, e in zip(answers, expected))
        for m, w, b in zip(("nodes_ratio", "calls_ratio", "visits_ratio"), work, base):
            metrics[f"ablation.{name}.{m}"] = w / max(b, 1)
    return metrics, failed


def traced_run(wl, seed: int, out_dir) -> dict:
    """An untraced and a traced pass, growth exponents and the ablation: the
    per-layer metrics, failures (answers that differ between the passes
    included) and the exact counts; the spans go to out_dir."""
    _, grammars = measure.load_all(wl)
    measure.freeze_heap()
    plain, failed, untraced_s = _pass(wl, lambda r: measure.serve(r, grammars[r.grammar]))
    tr = Tracer()
    traced, traced_failed, counts = traced_pass(wl, tr)
    failed += traced_failed + sum(a != b for a, b in zip(plain, traced))
    own = tr.self_times()
    tok = max(counts.tokens, 1)
    calls = counts.cached + counts.uncached
    loader_s = sum(own.get(f"loader.{s}", 0.0)
                   for s in ("parse_source", "build_graph", "normalize"))
    derive_s = own.get("derivation.derive", 0.0)
    m = {
        "loader.parse_source_s": own.get("loader.parse_source", 0.0),
        "loader.build_graph_s": own.get("loader.build_graph", 0.0),
        "loader.normalize_s": own.get("loader.normalize", 0.0),
        "loader.grammar_nodes": sum(n for n, _ in counts.grammars.values()),
        "loader.normalize_firings": sum(f for _, f in counts.grammars.values()),
        "derivation.derive_s": derive_s,
        "derivation.us_per_token": 1e6 * derive_s / tok,
        "derivation.calls_per_token": calls / tok,
        "derivation.derive_calls": calls,
        "derivation.memo_hit_ratio": counts.cached / max(calls, 1),
        "grammar.nodes_per_token": counts.nodes / tok,
        "grammar.live_nodes_peak": counts.live_peak,
        "grammar.compactions_per_token": sum(counts.firings.values()) / tok,
        "nullability.visits_per_token": counts.visits / tok,
        "nullability.queries_per_token": counts.queries / tok,
        "nullability.final_s": own.get("nullability.final", 0.0),
        "forest.parse_null_s": own.get("forest.parse_null", 0.0),
        "forest.count_s": own.get("forest.count", 0.0),
        "forest.count_calls": counts.count_calls,
        "forest.enumerate_s": own.get("forest.enumerate", 0.0),
        "forest.json_s": own.get("forest.json", 0.0),
        "forest.nodes": counts.forest_nodes,
        # the traced pass loads a fresh grammar per request; the untraced
        # pass reuses loaded ones, so loading is left out of the ratio
        "trace.overhead_ratio": (tr.total("request") - loader_s) / untraced_s,
        "trace.tokens": counts.tokens,
        "trace.requests": len(wl.requests),
    }
    for rule in RULES:
        m[f"grammar.compaction.{rule}"] = counts.firings[rule]
    rng = random.Random(f"growth:{seed}")
    for family, (source, inputs) in growth_ladders(rng).items():
        m[f"derivation.nodes_growth_exponent.{family}"] = growth_exponent(source, inputs)
    ab, ab_failed = ablation(wl)
    m.update(ab)
    failed += ab_failed
    out_dir.mkdir(exist_ok=True)
    tr.dump(out_dir / f"trace-{wl.name}-{seed}.json")
    gc.collect()
    return {
        "attempted": 2 * len(wl.requests) + 4 * len(wl.ablation),
        "failed": failed,
        "metrics": {k: m[k] for k in PER_LAYER},
        "counts": counts.exact(),
    }
