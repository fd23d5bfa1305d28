"""The per-token derivative engine.

derive(n, c) returns a node whose language is every word w such that c
followed by w is in n's language, with result trees threaded through so the
final forest rebuilds full parse trees.  Memoized per (node, token): in the
default single-entry mode each node holds one cached (token, result) pair and
an insert under a different token evicts it; full-map mode keeps a dict per
node for comparison runs.

Cycles are handled shell-first: for composite forms the result node is
registered in the cache *before* the children are derived, so a cyclic
grammar re-enters the cache instead of looping.  When a compaction rule
applies to the finished children, an unleaked shell is discarded in favor of
the replacement; a shell that was handed out during the recursion (it
"leaked") already shares its identity, so the replacement's structure is
copied into it instead.  Without that in-place step, every derivative along
a cyclic spine would keep one stale choice layer per token and parsing such
grammars would degrade to quadratic.  Discarded shells keep
in_progress=True; they are unreachable and only the created-node registry
ever sees them.

A leaked shell can close a cycle that denotes the empty language, such as
X = red(seq(X, t)), which no local rule sees.  So every finished shell is
checked for productivity: it takes the productive mark from its children
(or from the replacement it copied) when they prove it, and a leaked shell
left unmarked runs the dead-subgraph fixed point (grammar.collapse_dead),
which collapses a dead cycle to Empty; its parents then drop it by the
local Empty rules.  A node built over a shell still under construction
cannot be marked when built, and may be cut off from the cycle it leaned
on; a memo hit on such a node runs the same fixed point before returning
it.  Both run under compaction only.

Debug names turn compaction off.  _name is the one place a derivative node
is named: where it is cached (_put), and for the one node never cached, the
first branch of a nullable-left Seq's choice.  The rule follows from the
node derived from (_mint_rule), and every memo hit is checked against it.

recognize and parse share one fold of derive over the input (_run), inside
the grammar's activation, whose Context binds the engine variant once;
caches are cleared first, so parses are independent.
"""

from __future__ import annotations

from typing import Iterable

from .forest import ForestSet, parse_null
from .grammar import (
    ALT, EMPTY, EPSILON, RED, SEQ, TOKEN, WILDCARD,
    Grammar, _active, become_node, collapse_dead, mk_empty, mk_eps,
    new_alt, new_red, new_seq, reachable_nodes,
    _compact_alt, _compact_red, _compact_seq,
)
from .instrumentation import EXTEND, MARK_EXTEND, NamingError, fresh_name, name_node
from .nullability import is_nullable, is_nullable_naive
from .reductions import pair_left_null


def _nullable(node, ctx) -> bool:
    if ctx.naive_nullability:
        return is_nullable_naive(node)
    return is_nullable(node)


def _mint_rule(n, ctx) -> str:
    """A nullable-left Seq derives into a choice, named with the split mark."""
    return MARK_EXTEND if n.form == SEQ and _nullable(n.left, ctx) else EXTEND


def _name(node, n, c, rule) -> None:
    """The one place a derivative node gets its debug name."""
    if n.name is not None:
        node.name = name_node(n.name, c, rule)


def _put(n, c, res, ctx) -> None:
    if ctx.naming:
        _name(res, n, c, _mint_rule(n, ctx))
    if ctx.memo_full:
        m = n.d_map
        if m is None:
            m = n.d_map = {}
        m[c] = res
    else:
        n.d_key = c
        n.d_val = res


def derive(n, c: str):
    """One-token derivative of a grammar node, under the ambient context."""
    return _derive(n, c, _active.ctx)


def _derive(n, c, ctx):
    if ctx.memo_full:
        m = n.d_map
        hit = m.get(c) if m is not None else None
    else:
        hit = n.d_val if n.d_key == c else None
    if hit is not None:
        ctx.counters.derive_calls_cached += 1
        if not hit.productive:
            if hit.in_progress:
                hit.leaked = True
            elif hit.form != EMPTY and ctx.compacting:
                # built while a child was under construction, which may
                # have been proven dead since
                collapse_dead(hit)
        if ctx.naming and n.name is not None:
            expected = name_node(n.name, c, _mint_rule(n, ctx))
            if hit.name != expected:
                raise NamingError(f"memo hit named {hit.name!r}, "
                                  f"minting gives {expected.text()!r}")
        return hit
    ctx.counters.derive_calls_uncached += 1
    form = n.form
    if form == TOKEN or form == EMPTY or form == EPSILON:
        if form == TOKEN and (n.label == c or n.label == WILDCARD):
            res = mk_eps(ForestSet.single_leaf(c))
        else:
            res = mk_empty()
        _put(n, c, res, ctx)
        return res
    naming = ctx.naming
    compacting = ctx.compacting
    # read n once: the dead-subgraph rule may rewrite n to Empty while its
    # children are derived, and its old structure has the same language
    l, r = n.left, n.right
    if form == ALT:
        shell = new_alt(None, None)
        shell.in_progress = True
        _put(n, c, shell, ctx)
        dl = _derive(l, c, ctx)
        dr = _derive(r, c, ctx)
        repl = _compact_alt(dl, dr) if compacting else None
        if repl is None:
            shell.left = dl
            shell.right = dr
            shell.productive = dl.productive or dr.productive
    elif form == RED:
        fn = n.fn
        shell = new_red(None, fn)
        shell.in_progress = True
        _put(n, c, shell, ctx)
        dc = _derive(l, c, ctx)
        repl = _compact_red(dc, fn) if compacting else None
        if repl is None:
            shell.left = dc
            shell.productive = dc.productive
    elif not _nullable(l, ctx):
        shell = new_seq(None, r)
        shell.in_progress = True
        _put(n, c, shell, ctx)
        dl = _derive(l, c, ctx)
        repl = _compact_seq(dl, r) if compacting else None
        if repl is None:
            shell.left = dl
            shell.productive = dl.productive and r.productive
    else:
        # nullable left half: the derivative may consume c in either half,
        # so the result is a choice; its first branch extends the left
        # parse, the second starts the right half, pairing in the left
        # half's empty-word trees (threaded lazily; skipped entirely in the
        # pure naming engine).  Only the choice is cached, so the first
        # branch needs no shell and is named here, without the split marker.
        shell = new_alt(None, None)
        shell.in_progress = True
        _put(n, c, shell, ctx)
        dl = _derive(l, c, ctx)
        left = _compact_seq(dl, r) if compacting else None
        if left is None:
            left = new_seq(dl, r)
            if naming:
                _name(left, n, c, EXTEND)
        dr = _derive(r, c, ctx)
        if naming:
            right = dr
        else:
            inj = pair_left_null(l)
            right = _compact_red(dr, inj) if compacting else None
            if right is None:
                right = new_red(dr, inj)
        repl = _compact_alt(left, right) if compacting else None
        if repl is None:
            shell.left = left
            shell.right = right
            shell.productive = left.productive or right.productive
    if repl is not None:
        # an unleaked shell is discarded and the cache entry redirected; a
        # leaked one is already some node's child, so it takes on the
        # replacement's structure and keeps its identity
        if not shell.leaked:
            _put(n, c, repl, ctx)
            return repl
        become_node(shell, repl)
    shell.in_progress = False
    # a leaked shell that its children do not prove productive may close a
    # cycle that denotes the empty language
    if not shell.productive and compacting and shell.leaked:
        collapse_dead(shell)
    return shell


# --- whole-input operations --------------------------------------------------

def _prepare(g: Grammar, ctx) -> None:
    nodes = reachable_nodes(g.root)
    for n in nodes:
        n.d_key = None
        n.d_val = None
        n.d_map = None
        n.pn_memo = None
        n.leaked = False
    if ctx.naming:
        for n in nodes:
            if n.name is None:
                n.name = fresh_name()


def _run(g: Grammar, tokens: Iterable[str], finish):
    """Derive g by each token in turn, then finish(last derivative, ctx)."""
    with g.activate() as ctx:
        _prepare(g, ctx)
        node = g.root
        for c in tokens:
            node = _derive(node, c, ctx)
        result = finish(node, ctx)
        g.created_nodes = ctx.created
        return result


def recognize(g: Grammar, tokens: Iterable[str]) -> bool:
    return _run(g, tokens, _nullable)


def parse(g: Grammar, tokens: Iterable[str]) -> ForestSet:
    if g.settings.debug_names:
        raise ValueError("tree extraction is not supported with debug names on")
    return _run(g, tokens, lambda node, ctx: parse_null(node))
