"""Does a grammar node's language contain the empty word?

Two engines answer that question over the same node graph:

is_nullable: least-fixed-point engine with verdicts cached on the nodes
(nullable and not nullable are both final, because a node's language never
changes after construction).  A query on an undecided node walks the
undecided nodes below it once, depth first and iteratively; the walk stops
at decided nodes, never-null marks and leaves.  As the walk leaves a node,
the local rule (a choice needs one nullable child, a concatenation both, a
reduction its child) decides it if its children settle it.  The nodes left
undecided are on a cycle or over one; their verdict is the least fixed
point of the same rule, which grammar._spread, the dead-subgraph rule's
fixed point, closes upward from their nullable children.  Every node the
walk enters gets its final verdict, so no node is walked twice and a
settled query costs one field read.

is_nullable_naive: the textbook bottom-up sweep over the reachable subgraph,
no per-node state, recomputed from scratch per call.  It exists to check the
optimized engine and to measure how much work the bookkeeping saves.

An unfilled shell (a derivative node the engine is still building, its
children not set yet) has no verdict: a query that reaches one raises, and
the optimized engine takes back the verdicts it wrote on the way.  The
derivative engine never asks one.
"""

from __future__ import annotations

from .grammar import (
    ALT, NV_NOT, NV_NULLABLE, NV_UNKNOWN, RED, SEQ, EPSILON,
    _active, _spread, reachable_nodes,
)


_LEAVE = object()  # on the walk's stack, above a node whose children are done


def is_nullable(node) -> bool:
    counters = _active.ctx.counters
    counters.generation_count += 1
    v = node.n_value
    if v or node.never_null:
        return v == NV_NULLABLE
    entered = set()
    cyclic = []  # left undecided: on a cycle, or over one
    work = [node]
    while work:
        n = work.pop()
        if n is _LEAVE:
            n = work.pop()
            l, r = n.left, n.right
            v = NV_NOT if l.never_null else l.n_value
            if r is not None:
                rv = NV_NOT if r.never_null else r.n_value
                if v != rv:
                    # one nullable child settles a choice, one child that
                    # is not a concatenation; anything else waits
                    settles = NV_NULLABLE if n.form == ALT else NV_NOT
                    v = settles if settles in (v, rv) else NV_UNKNOWN
            if v:
                n.n_value = v
            else:
                cyclic.append(n)
        elif not (n is None or n.n_value or n.never_null or n in entered):
            entered.add(n)
            if n.left is None:
                for x in entered:  # every one was undecided when entered
                    x.n_value = NV_UNKNOWN
                raise ValueError(f"{n!r} is an unfilled shell: no verdict yet")
            work += (n, _LEAVE, n.right, n.left)
    counters.nullable_visits += len(entered)
    if cyclic:
        # the least fixed point over them, from their nullable children
        parents: dict = {}
        for n in cyclic:
            for c in (n.left, n.right):
                if not (c is None or c.never_null or c.n_value == NV_NOT):
                    parents.setdefault(c, []).append(n)
        live = [c for c in parents if c.n_value == NV_NULLABLE]
        nullable = set(live)
        _spread(live, nullable, parents)
        for n in cyclic:
            n.n_value = NV_NULLABLE if n in nullable else NV_NOT
    return node.n_value == NV_NULLABLE


def is_nullable_naive(node) -> bool:
    """Reference engine: full bottom-up sweeps, no cached state touched."""
    counters = _active.ctx.counters
    nodes = reachable_nodes(node)
    val = dict.fromkeys(nodes, False)
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
