"""Does a grammar node's language contain the empty word?

Two engines answer that question over the same node graph:

is_nullable: incremental least-fixed-point engine.  Verdicts are cached on
the nodes (nullable and definitely-not-nullable are final forever, because a
node's reachable subgraph never changes after construction).  Undecided
nodes carry the generation that last assumed them not-nullable; a fresh
generation is minted per top-level query, so an assumption left over from an
older, completed query can be promoted to a final verdict on first touch
without re-running its fixed point.  Dependency lists are only materialized
when a cycle actually forces an assumption, and flips are pushed through
them with a worklist, so acyclic reaches of the graph pay nothing extra.

is_nullable_naive: the textbook bottom-up sweep over the reachable subgraph,
no per-node state, recomputed from scratch per call.  It exists to check the
optimized engine and to measure how much work the bookkeeping saves.

Both take an unfilled shell (a derivative node the engine is still
building, its children not set yet) as not nullable and record nothing on
it, so a verdict asked while a derivative is built may be wrong once the
shell is filled; the engine itself never asks one.  Such a query's
assumptions are no fixed point of the finished graph, so is_nullable
withdraws them when it returns, and a later query evaluates those nodes
afresh instead of promoting them.
"""

from __future__ import annotations

import itertools

from .grammar import (
    ALT, NV_NOT, NV_NULLABLE, NV_UNKNOWN, RED, SEQ, EPSILON,
    _active, reachable_nodes,
)

_generations = itertools.count(1)

# generations of the queries in flight that met an unfilled shell
_met_shell: set = set()


def is_nullable(node) -> bool:
    counters = _active.ctx.counters
    counters.generation_count += 1
    gen = next(_generations)
    v = _eval(node, gen, counters)
    if _met_shell and gen in _met_shell:
        _met_shell.discard(gen)
        _withdraw(node, gen)
    return v


def _withdraw(root, gen: int) -> None:
    """Undo the standing assumptions of query `gen`.  The nodes it visited
    carry `gen` and hang together below root, so the walk stays inside
    them."""
    root.n_gen = 0
    stack = [root]
    while stack:
        n = stack.pop()
        for c in (n.left, n.right):
            if c is not None and c.n_gen == gen:
                c.n_gen = 0
                stack.append(c)


def _add_dep(child, parent) -> None:
    deps = child.n_dependents
    if deps is None:
        child.n_dependents = [parent]
    else:
        deps.append(parent)


def _finalize_true(n, counters) -> None:
    n.n_value = NV_NULLABLE
    deps = n.n_dependents
    n.n_dependents = None
    if deps:
        _propagate(deps, counters)


def _propagate(seed: list, counters) -> None:
    work = seed
    while work:
        d = work.pop()
        if d.n_value != NV_UNKNOWN:
            continue
        counters.nullable_visits += 1
        form = d.form
        if form == ALT:
            v = d.left.n_value == NV_NULLABLE or d.right.n_value == NV_NULLABLE
        elif form == SEQ:
            v = d.left.n_value == NV_NULLABLE and d.right.n_value == NV_NULLABLE
        elif form == RED:
            v = d.left.n_value == NV_NULLABLE
        else:
            v = False
        if v:
            d.n_value = NV_NULLABLE
            more = d.n_dependents
            d.n_dependents = None
            if more:
                work.extend(more)


def _eval(n, gen: int, counters) -> bool:
    v = n.n_value
    if v:
        return v == NV_NULLABLE
    ngen = n.n_gen
    if ngen == gen:
        return False  # the in-flight fixed point's standing assumption
    if ngen:
        # assumed not-nullable by an older, completed query: that was the
        # fixed point, so the assumption is now a fact
        n.n_value = NV_NOT
        return False
    if n.left is None:
        # an unfilled shell of a derivative under construction: it keeps
        # the not-nullable assumption, nothing is cached on it, and the
        # query's other assumptions may lean on it
        _met_shell.add(gen)
        return False
    n.n_gen = gen
    counters.nullable_visits += 1
    form = n.form
    if form == ALT:
        l, r = n.left, n.right
        if _eval(l, gen, counters) or _eval(r, gen, counters):
            _finalize_true(n, counters)
            return True
    elif form == SEQ:
        l, r = n.left, n.right
        lv = _eval(l, gen, counters)
        if not lv and l.n_value == NV_NOT:
            n.n_value = NV_NOT  # definitely dead left half; right is irrelevant
            return False
        rv = _eval(r, gen, counters)
        if lv and rv:
            _finalize_true(n, counters)
            return True
        if not rv and r.n_value == NV_NOT:
            n.n_value = NV_NOT
            return False
    elif form == RED:
        l = n.left
        r = None
        if _eval(l, gen, counters):
            _finalize_true(n, counters)
            return True
    else:
        return False  # empty/token/epsilon have preset verdicts
    # false under at least one standing assumption: subscribe to flips
    pending = False
    if l.n_value == NV_UNKNOWN:
        _add_dep(l, n)
        pending = True
    if r is not None and r.n_value == NV_UNKNOWN:
        _add_dep(r, n)
        pending = True
    if not pending:
        n.n_value = NV_NOT
    return False


def is_nullable_naive(node) -> bool:
    """Reference engine: full bottom-up sweeps, no cached state touched."""
    counters = _active.ctx.counters
    nodes = reachable_nodes(node)
    val = dict.fromkeys(nodes, False)
    val[None] = False  # the missing children of an unfilled shell
    changed = True
    while changed:
        changed = False
        for n in nodes:
            counters.nullable_visits += 1
            form = n.form
            if form == EPSILON:
                v = True
            elif form == ALT:
                v = val[n.left] or val[n.right]
            elif form == SEQ:
                v = val[n.left] and val[n.right]
            elif form == RED:
                v = val[n.left]
            else:
                v = False
            if v and not val[n]:
                val[n] = True
                changed = True
    return val[node]
