"""Serving requests through the public API, checking answers, and the timed
closed loop behind the end-to-end metrics.

A request starts when the first call is made and ends once its results have
been consumed (verdict, count, trees or JSON).  Checking the answer happens
after the clock stops.  One client sends the next request only after the
previous one completed (a closed loop).
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from contextlib import nullcontext

from derivparse import (
    INFINITE, Leaf, Pair, Prod, enumerate_trees, forest_to_json, load_grammar,
    parse, tree_text,
)
from derivparse import forest

from workloads import ENUMERATE_K

SETUP_REPEATS = 21
MIN_PASSES = 3

_NO_SPAN = nullcontext()


class Answer:
    """What one request produced; fields a request kind does not compute stay
    None."""

    __slots__ = ("accept", "count", "trees", "json")

    def __init__(self, accept, count=None, trees=None, json=None):
        self.accept = accept
        self.count = count
        self.trees = trees
        self.json = json

    def summary(self) -> tuple:
        """Comparable across runs and processes.  Forest ids are not, and
        neither is which `limit` trees enumerate_trees picks out of a larger
        set, because its order depends on reduction descriptions that carry
        ids; so trees are compared by number (check() validates each one)."""
        trees = None if self.trees is None else len(self.trees)
        nodes = None if self.json is None else len(self.json["nodes"])
        count = "inf" if self.count is INFINITE else self.count
        return (self.accept, count, trees, nodes)


def _untraced(name):
    return _NO_SPAN


def consume(req, fs, span=_untraced) -> Answer:
    """The consumer calls of a request on a parsed forest, each inside
    span(layer name).  count_parses is looked up on its module, where the
    traced run wraps it to count nested calls."""
    accept = not fs.is_empty()
    if req.kind == "verdict":
        return Answer(accept)
    if req.kind == "one_tree":
        with span("forest.enumerate"):
            return Answer(accept, trees=enumerate_trees(fs, 1))
    with span("forest.count"):
        count = forest.count_parses(fs)
    if req.kind == "word":
        return Answer(accept, count)
    trees = None
    if req.kind == "ambiguous":
        with span("forest.enumerate"):
            trees = enumerate_trees(fs, ENUMERATE_K)
    with span("forest.json"):
        doc = forest_to_json(fs)
    return Answer(accept, count, trees, doc)


def serve(req, g) -> Answer:
    return consume(req, parse(g, req.tokens))


def _tree_yield(t) -> list:
    out = []
    stack = [t]
    while stack:
        x = stack.pop()
        if isinstance(x, Leaf):
            out.append(x.label)
        elif isinstance(x, Pair):
            stack.append(x.right)
            stack.append(x.left)
        elif isinstance(x, Prod):
            stack.extend(reversed(x.children))
        else:
            return None
    return out


def _json_ok(doc: dict, accept: bool) -> bool:
    if (doc["root"] is None) == accept:
        return False
    ids = {e["id"] for e in doc["nodes"]}
    return len(ids) == len(doc["nodes"]) and all(
        c in ids for e in doc["nodes"] for c in e["children"]
    ) and (doc["root"] is None or doc["root"] in ids)


def check(req, ans: Answer) -> bool:
    """Does the answer match the expectation fixed before timing?"""
    if ans.accept != req.accept:
        return False
    if ans.count is not None and ans.count != req.count:
        return False
    if ans.trees is not None:
        want = 1 if req.kind == "one_tree" else ENUMERATE_K
        if len(ans.trees) != min(want, req.count):
            return False
        if len({tree_text(t) for t in ans.trees}) != len(ans.trees):
            return False
        if any(_tree_yield(t) != req.tokens for t in ans.trees):
            return False
    if ans.json is not None and not _json_ok(ans.json, req.accept):
        return False
    return True


def attempt(req, run):
    """(seconds, answer or None, ok) for one request; an exception of any
    kind, RecursionError and MemoryError included, is a failed request."""
    t0 = time.perf_counter()
    try:
        ans = run(req)
    except Exception:  # every failure counts; the loop must go on
        return time.perf_counter() - t0, None, False
    dt = time.perf_counter() - t0
    return dt, ans, check(req, ans)


def load_all(wl) -> tuple:
    """(seconds, {key: Grammar}) to load every grammar of the workload once."""
    gc.collect()
    t0 = time.perf_counter()
    grammars = {k: load_grammar(src) for k, src in wl.grammars.items()}
    return time.perf_counter() - t0, grammars


# --- host speed ---------------------------------------------------------------
#
# The benchmark runs on shared hosts whose speed changes, for seconds to
# minutes at a time, by up to 1.7x: a fixed pure-Python loop measured 37 ms
# and 67 ms minutes apart on one 2-vCPU host.  Runs of one workload then
# disagree by 30%, more than any bound worth keeping.  So every timing is
# taken next to a reference task that calls no engine code, and reported at
# reference speed: seconds * REFERENCE_S / (the reference task's time).  At
# reference speed the task takes exactly REFERENCE_S.  An engine change moves
# the timings and not the reference, so it still shows in full.

REFERENCE_S = 1e-3

# Garbage is collected, and the reference task timed, between chunks of at
# least this much request time, outside the timed regions.  A long request
# is a chunk of its own, so it is not charged for collecting the garbage of
# the one before; short requests share a chunk, since one full collection
# can take longer than dozens of them.
CHUNK_S = 0.02


class _Cell:
    __slots__ = ("left", "right")


def _tree(depth: int) -> _Cell:
    c = _Cell()
    if depth:
        c.left = _tree(depth - 1)
        c.right = _tree(depth - 1)
    else:
        c.left = c.right = None
    return c


def _size(c: _Cell) -> int:
    return 1 if c.left is None else 1 + _size(c.left) + _size(c.right)


def reference_s() -> float:
    """Seconds for a fixed task shaped like the engine's work (slotted
    objects, recursion, dict updates) after a collection, about 1 ms here."""
    gc.collect()
    t0 = time.perf_counter()
    _size(_tree(10))
    d: dict = {}
    for i in range(1500):
        d[i] = d.get(i - 1, 0) + 1
    return time.perf_counter() - t0


def at_reference(seconds: float, before: float, after: float) -> float:
    """A timing scaled to reference speed by the reference task's times just
    before and after it; the faster of the two is taken, since an
    interruption can only slow the task down."""
    return seconds * REFERENCE_S / min(before, after)


def setup(wl) -> tuple:
    """(median setup seconds over SETUP_REPEATS loads, at reference speed,
    grammars of the last load)."""
    times = []
    grammars = None
    ref = reference_s()
    for _ in range(SETUP_REPEATS):
        dt, grammars = load_all(wl)
        nxt = reference_s()
        times.append(at_reference(dt, ref, nxt))
        ref = nxt
    return statistics.median(times), grammars


def freeze_heap() -> None:
    """Inputs, expectations and grammars live for the whole run: keep them
    out of every later collection, so collecting between requests costs the
    same on every workload."""
    gc.collect()
    gc.freeze()


def _figures(wl, latencies: list) -> dict:
    tokens = sum(len(r.tokens) for r in wl.requests)
    return {
        "tokens_per_s": tokens / sum(latencies),
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "latency_p90_ms": 1e3 * statistics.quantiles(latencies, n=10)[8],
    }


def timed_run(wl, seconds: float) -> dict:
    """Closed loop, one client: whole passes over the request list, at least
    MIN_PASSES and then while the next pass still fits in `seconds`.

    A request's latency is the least over the passes of its latency at
    reference speed, as `timeit` advises: the slower repetitions measure
    other tenants, not the engine.  The end-to-end figures are taken over
    those per-request minimums; the same figures in plain wall time are
    returned under "wall"."""
    setup_s, grammars = setup(wl)

    def run(req):
        return serve(req, grammars[req.grammar])

    for req in sorted(wl.requests, key=lambda r: len(r.tokens))[:5]:
        attempt(req, run)  # warm-up, not counted
    freeze_heap()
    scaled = [[] for _ in wl.requests]
    wall = [[] for _ in wl.requests]
    failed = 0
    passes = 0
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        ref = reference_s()
        chunk: list = []  # (request index, seconds) since the last reference
        for i, req in enumerate(wl.requests):
            dt, _, ok = attempt(req, run)
            failed += not ok
            chunk.append((i, dt))
            if sum(d for _, d in chunk) >= CHUNK_S or i == len(wl.requests) - 1:
                nxt = reference_s()
                for j, d in chunk:
                    scaled[j].append(at_reference(d, ref, nxt))
                    wall[j].append(d)
                ref = nxt
                chunk = []
        passes += 1
        now = time.perf_counter()
        if passes >= MIN_PASSES and now - start + (now - pass_start) > seconds:
            break
    return {
        "attempted": passes * len(wl.requests),
        "failed": failed,
        "requests": len(wl.requests),
        "passes": passes,
        "setup_s": setup_s,
        **_figures(wl, [min(s) for s in scaled]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "wall": _figures(wl, [min(s) for s in wall]),
    }
