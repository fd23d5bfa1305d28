"""The per-token derivative engine.

derive(n, c) returns a node whose language is every word w such that c
followed by w is in n's language, with result trees threaded through so the
final forest rebuilds full parse trees.  Memoized per (node, token).  A
grammar node's derivative does not depend on the input position, nor do the
derivatives built from it, so by default a node keeps every token's result:
the first token it is derived by goes in its slot (d_key, d_val), and only a
second distinct token makes a map (d_map) for the others (_store).  Most
derived nodes meet one token only and never make a map.  The single-entry
mode (memo_full off) is the paper's ablation: one slot, which an insert
under a different token evicts, and no map is read.

Cycles are handled by a building marker: before the children of a composite
node are derived, its cache entry is set to a marker of the result's form (a
concatenation whose head is nullable derives into a choice).  A cyclic
grammar re-enters the cache instead of looping, and only that memo hit
allocates the result node: an unfilled shell of the marker's form, which
replaces the marker and is handed out.  When the children are derived, the
builder reads its entry back.  If the marker is still there, no cycle needed
the result's identity, and the builder caches and returns the compacted
replacement, or a node built from the children.  If a shell is there, it is
already some node's child: it takes the children, or the replacement's
structure is copied into it.  Without that in-place step, every derivative
along a cyclic spine would keep one stale choice layer per token and parsing
such grammars would degrade to quadratic.  The dead-subgraph rule keeps a
cache entry under construction (grammar._drop_derivatives), so the builder
always finds its shell.  A failed or Empty derivative is the one shared
Empty (grammar.SHARED_EMPTY), and deriving an Empty makes no cache entry.

A shell can close a cycle that denotes the empty language, such as
X = red(seq(X, t)), which no local rule sees.  So every finished shell is
checked for productivity: it takes the productive mark from its children
(or from the replacement it copied) when they prove it, and one left
unmarked runs the dead-subgraph fixed point (grammar.collapse_dead), which
collapses a dead cycle to Empty; its parents then drop it by the local
Empty rules.  A node built over a shell still under construction cannot be
marked when built, and may be cut off from the cycle it leaned on; a memo
hit on such a node runs the same fixed point before returning it.  Both run
under compaction only.

Debug names turn compaction off.  _name is the one place a derivative node
is named: where it is cached (_put), and for the one node never cached, the
first branch of a nullable-left Seq's choice.  The rule follows from the
node derived from (_mint_rule), and every memo hit is checked against it.
A name belongs to one derivative, so this engine mints an Empty per failed
derivative and caches it.

recognize and parse share one fold of derive over the input (_run), inside
the grammar's activation, whose Context binds the engine variant once;
caches are cleared first, so parses are independent.
"""

from __future__ import annotations

from typing import Iterable

from .forest import ForestSet, parse_null
from .grammar import (
    ALT, EMPTY, RED, SEQ, TOKEN, WILDCARD, SHARED_EMPTY,
    Grammar, GrammarNode, _active, become_node, collapse_dead, fill,
    mk_empty, mk_eps, new_alt, new_red, new_seq, reachable_nodes,
    _compact_alt, _compact_red, _compact_seq,
)
from .instrumentation import EXTEND, MARK_EXTEND, NamingError, fresh_name, name_node
from .nullability import is_nullable, is_nullable_naive
from .reductions import pair_left_null


def _marker(form: int) -> GrammarNode:
    m = GrammarNode(form)
    m.in_progress = True
    return m


# indexed by form: the constructor, and the building marker, of a
# derivative of that form
_NEW = (None, None, None, new_seq, new_alt, new_red)
_MARKERS = (None, None, None, _marker(SEQ), _marker(ALT), _marker(RED))


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


def _store(n, c, res, memo_full) -> bool:
    """Keep res as n's derivative by c, and say whether it went in n's slot
    or its map.  This is the one location rule: single mode has the slot
    alone; the full memo puts the first token in the slot and the others in
    the map.  A map outlives its slot only on a dead node whose finished
    slot entry was cleared (grammar._drop_derivatives); every token goes to
    that map, so the entries under construction it keeps stay where their
    builders read them back."""
    k = n.d_key
    if not memo_full or k == c or (k is None and n.d_map is None):
        n.d_key = c
        n.d_val = res
        return True
    m = n.d_map
    if m is None:
        m = n.d_map = {}
    m[c] = res
    return False


def _put(n, c, res, ctx) -> None:
    if ctx.naming:
        _name(res, n, c, _mint_rule(n, ctx))
    _store(n, c, res, ctx.memo_full)


def _reenter(n, c, form, ctx):
    """A cycle came back to a derivative under construction: make its shell."""
    shell = _NEW[form](None, None)
    shell.in_progress = True
    _put(n, c, shell, ctx)
    return shell


def derive(n, c: str):
    """One-token derivative of a grammar node, under the ambient context."""
    return _derive(n, c, _active.ctx)


def _derive(n, c, ctx):
    # the slot, then (full memo only) the map
    if n.d_key == c:
        hit = n.d_val
    elif ctx.memo_full and n.d_map is not None:
        hit = n.d_map.get(c)
    else:
        hit = None
    if hit is not None:
        ctx.counters.derive_calls_cached += 1
        if not hit.productive:
            if hit.in_progress:
                if hit is _MARKERS[hit.form]:
                    hit = _reenter(n, c, hit.form, ctx)
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
    if form <= TOKEN:  # Empty, Epsilon, token
        if form == TOKEN and (n.label == c or n.label == WILDCARD):
            res = mk_eps(ForestSet.single_leaf(c))
        elif ctx.naming:
            res = mk_empty()
        else:
            return SHARED_EMPTY
        _put(n, c, res, ctx)
        return res
    naming = ctx.naming
    compacting = ctx.compacting
    # read n once: the dead-subgraph rule may rewrite n to Empty while its
    # children are derived, and its old structure has the same language
    l, r = n.left, n.right
    # a head marked never null cannot split: the mark settles it without a
    # query to the nullability engine
    split = form == SEQ and not l.never_null and _nullable(l, ctx)
    marker = _MARKERS[ALT if split else form]
    # the entry stays where it is put until it is read back: the
    # dead-subgraph rule keeps it, and everything derived below is by c
    in_slot = _store(n, c, marker, ctx.memo_full)
    # the result is _NEW[marker.form](a, b), unless a compaction rule gives
    # a replacement res
    if form == ALT:
        a = _derive(l, c, ctx)
        b = _derive(r, c, ctx)
        res = _compact_alt(a, b) if compacting else None
    elif form == RED:
        a = _derive(l, c, ctx)
        b = n.fn
        res = _compact_red(a, b) if compacting else None
    elif not split:
        a = _derive(l, c, ctx)
        b = r
        res = _compact_seq(a, r) if compacting else None
    else:
        # nullable left half: the derivative may consume c in either half,
        # so the result is a choice; its first branch extends the left
        # parse, the second starts the right half, pairing in the left
        # half's empty-word trees (threaded lazily; skipped entirely in the
        # pure naming engine).  Only the choice is cached, so the first
        # branch is named here, without the split marker.
        d = _derive(l, c, ctx)
        a = _compact_seq(d, r) if compacting else None
        if a is None:
            a = new_seq(d, r)
            if naming:
                _name(a, n, c, EXTEND)
        d = _derive(r, c, ctx)
        if naming:
            b = d
        else:
            inj = pair_left_null(l)
            b = _compact_red(d, inj) if compacting else None
            if b is None:
                b = new_red(d, inj)
        res = _compact_alt(a, b) if compacting else None
    shell = n.d_val if in_slot else n.d_map[c]
    if shell is marker:
        # no cycle re-entered this derivative, so nothing holds it yet
        if res is None:
            res = _NEW[marker.form](a, b)
        if naming:
            _name(res, n, c, MARK_EXTEND if split else EXTEND)
        if in_slot:
            n.d_val = res
        else:
            n.d_map[c] = res
        return res
    if res is not None:
        become_node(shell, res)
    else:
        fill(shell, a, b)
    shell.in_progress = False
    # a shell that its children do not prove productive may close a cycle
    # that denotes the empty language
    if not shell.productive and compacting:
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
