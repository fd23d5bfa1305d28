"""The per-token derivative engine.

derive(n, c) returns a node whose language is every word w such that c
followed by w is in n's language, with result trees threaded through so the
final forest rebuilds full parse trees.  Memoized per (node, token class;
see the end of this docstring).  A grammar node's derivative does not
depend on the input position, nor do the derivatives built from it, so by
default a node keeps every token's result: the first token it is derived
by goes in its slot (d_key, d_val), and only a second distinct token makes
a map (d_map) for the others (_store).  Most
derived nodes meet one token only and never make a map.  The single-entry
mode (memo_full off) is the paper's ablation: one slot, which an insert
under a different token evicts, and no map is read.

Memo entries are per node, and inside one parse a node may be shared: the
float-left compaction rule hands back the concatenation it built the first
time for the same two halves (grammar._shared_seq), so two derivatives may
share that node and read its memo; the reductions the rules build are
shared by their parts the same way (grammar._shared_red).  The tables
that find them belong to the parse's activation, so derivatives of two
parses share nothing but the grammar.

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
such grammars would degrade to quadratic.  A failed or Empty derivative
is the one shared Empty (grammar.SHARED_EMPTY), under every switch, and no
cache entry is made for it.

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

Debug names turn compaction off and build the --compaction off graph, so
they audit the graph that engine parses with.  The activation names the
grammar's nodes (grammar.Grammar.activate), and _name a derivative where it
is cached (_put).  The two branches of a nullable-left Seq's choice are not
cached, so both are named where they are built: the first without the
split marker, and the second, the pair-left-null reduction, as the right
half's derivative.  The rule follows from the node derived from
(_mint_rule), and every memo hit is checked against it.  A failed
derivative is the shared Empty here too, and has no name.

Under compaction, the node of a directly left-recursive rule derives as
its twin (loader.build_graph), a right-recursive node of the same language
and trees, and keeps the twin's derivative in its own memo.  Its cycles
then re-enter the twin's entry.  Each token derives each open level's twin
once, where the rule as written derives into a cycle X = X·α | D(β) that
the next token rebuilds.

recognize and parse share one fold of derive over the input (_run), inside
the grammar's activation, whose Context binds the engine variant once.
_store notes each grammar node on its first memo entry, and the activation
clears exactly those nodes when it ends (grammar.Grammar.activate), so a
parse's derivatives die with it and the next parse starts from the grammar
alone, at a cost that follows its input, not the grammar.

Under compaction the fold derives the core, not the top reduction.  The
red-compose rule folds every token's reduction into the top of the
derivative, red(core, F), so the derivatives below the top recur and the
full memo returns them, while the top is rebuilt per token: one node, one
marker round trip and one memo entry each.  So when a token's derivative
is a reduction, _run appends its fn to a list and derives its child by
the next token; at the end mk_red puts the list back on top as one
compose of its parts in the order they were peeled, the first applied
last (reductions.compose): the chain red-compose would build, grouped
flat.  The fns are those of memoized derivatives, so they recur, and the
parse builds each from the same parts once (grammar._shared_red): the
2,500 fns of a 2,500-token mixed expression are 18 objects, and the
forest's readers read each once.
That is exact while no derivative cycle exists: the top is then a fresh
node that nothing reaches but the memo entry it was built for, and
deriving red(core, F) derives core, as _run does, then rebuilds
red(D(core).left, compose(F, G)) when D(core) = red(_, G), as appending
G does.  A cycle closes only where a shell is made (_reenter), which may
make the top a node the graph reaches again.  So _reenter sets the
context's cycled flag, and from the token that set it _run puts the
chain back and derives as the plain loop does.  recognize keeps no
chain: a reduction is nullable exactly when its child is, so it drops the
fns.

A token derives by its class.  A derivative depends on a token only
through the terminals it matches and the leaf it puts in the trees, and a
token that a grammar with a wildcard does not name matches the wildcard
alone: all such tokens derive alike but for their leaves.  So under such
a grammar (the context's `named`, bound once per activation), each of
them derives as the wildcard's own label, which no grammar can name, and
they share one derivative where keyed by value each built its own
(Owens, Reppy & Turon, JFP 2009, derive by such classes of symbols):
L : L L | '.' over n distinct tokens builds the graph of n identical
ones, quadratic, not cubic.  Their leaves read '.', so the last
derivative gets the input on top, under the input reduction
(reductions.input_tokens), and parse_null hands the tokens to the forest
set it makes, whose consumers fill the leaves (forest.ForestSet).  _run
puts it there once; derive, called once per token, takes it off the node
it is given and puts it back one token longer, so its loop builds the
graph _run builds.  A grammar without a wildcard has no classes, and its
tokens cost nothing more.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

from .forest import ForestSet, build_null_forests, leaf_node, parse_null
from .grammar import (
    ALT, EMPTY, RED, SEQ, TOKEN, WILDCARD, SHARED_EMPTY,
    Grammar, GrammarNode, _active, become_node, collapse_dead, fill,
    mk_eps, mk_red, mk_seq, new_alt, new_red, new_seq,
    _compact_alt, _compact_red, _compact_seq, _shared_red,
)
from .instrumentation import EXTEND, MARK_EXTEND, NamingError, name_node
from .nullability import is_nullable, is_nullable_naive
from .reductions import INPUT, compose, input_tokens, pair_left_null


def _marker(form: int) -> GrammarNode:
    m = GrammarNode(form)
    m.in_progress = True
    return m


# a verdict's way to keep a peeled reduction: a deque of length 0 keeps
# nothing
_DROP = deque(maxlen=0).append

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
    """Name node as n's derivative by c, minted under rule."""
    if n.name is not None:
        node.name = name_node(n.name, c, rule)


def _store(n, c, res, ctx) -> None:
    """Keep res as n's derivative by c.  This is the one location rule:
    single mode has the slot alone; the full memo puts the first token in
    the slot and the others in the map, so an entry is in the slot if and
    only if the slot's token is c.  Only this module writes memo entries,
    and nothing but the end of the parse clears them.  A grammar node's
    first entry notes it on the context, whose activation clears it when
    the parse ends."""
    k = n.d_key
    if k is None:
        if n.in_grammar:
            ctx.written.append(n)
    elif ctx.memo_full and k != c:
        m = n.d_map
        if m is None:
            m = n.d_map = {}
        m[c] = res
        return
    n.d_key = c
    n.d_val = res


def _put(n, c, res, ctx) -> None:
    if ctx.naming:
        _name(res, n, c, _mint_rule(n, ctx))
    _store(n, c, res, ctx)


def _reenter(n, c, form, ctx):
    """A cycle came back to a derivative under construction: make its shell.
    The parse's derivatives are no longer acyclic, so _run stops peeling."""
    ctx.cycled = True
    shell = _NEW[form](None, None)
    shell.in_progress = True
    _put(n, c, shell, ctx)
    return shell


def derive(n, c: str):
    """One-token derivative of a grammar node, under the ambient context.
    Under a grammar with a wildcard, c derives by its class, and the
    result has the input so far on top (see the module docstring)."""
    ctx = _active.ctx
    named = ctx.named
    if named is None:
        return _derive(n, c, ctx)
    before = n.fn
    if before is not None and before.kind is INPUT:
        n = n.left
    else:
        before = None
    d = _derive(n, c if c in named else WILDCARD, ctx)
    if d is SHARED_EMPTY:
        return d
    return _with_input(d, input_tokens((c,), before))


def _with_input(node, red):
    """node under the input reduction red: a carrier of the input, not
    part of the derivative graph, so nodes_created does not count it; a
    nullability query through it visits it, one visit more than on node."""
    return fill(GrammarNode(RED), node, red)


def _derive(n, c, ctx):
    # the slot, then the map, which only the full memo makes (_store)
    if n.d_key == c:
        hit = n.d_val
    elif n.d_map is not None:
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
            res = mk_eps(leaf_node(c))
            _put(n, c, res, ctx)
            return res
        return SHARED_EMPTY
    if n.twin is not None and ctx.compacting:
        # a left-recursive rule derives as its right-recursive twin
        res = _derive(n.twin, c, ctx)
        _store(n, c, res, ctx)
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
    # the entry stays where it is put until it is read back: everything
    # derived below is by c, and only the parse's end clears a memo
    _store(n, c, marker, ctx)
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
        # half's empty-word trees (threaded lazily).  Only the choice is
        # cached, so both branches are named here.
        d = _derive(l, c, ctx)
        a = mk_seq(d, r) if compacting else new_seq(d, r)
        d = _derive(r, c, ctx)
        inj = _shared_red(pair_left_null, l)
        b = mk_red(d, inj) if compacting else new_red(d, inj)
        if naming:  # debug names imply compaction off: both are new
            _name(a, n, c, EXTEND)
            _name(b, r, c, _mint_rule(r, ctx))
        res = _compact_alt(a, b) if compacting else None
    in_slot = n.d_key == c
    shell = n.d_val if in_slot else n.d_map[c]
    if shell is marker:
        # no cycle re-entered this derivative, so nothing holds it yet
        if res is None:
            res = _NEW[marker.form](a, b)
        if naming:
            _name(res, n, c, MARK_EXTEND if split else EXTEND)
        # written here, not through _store, which costs a few percent
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

def _run(g: Grammar, tokens: Iterable[str], finish, trees: bool = False):
    """Derive g by each token's class in turn, then finish(last derivative,
    ctx), inside the grammar's activation.  Under compaction, the top
    reduction of each derivative is peeled off until a derivative cycle
    closes (see the module docstring).  With `trees`, the grammar's
    empty-word forests are built first, if no parse has built them yet
    (forest.build_null_forests), the peeled reductions are kept, in order,
    as one chain over the last derivative, and under a grammar with a
    wildcard the input goes on top; without, they are dropped, as a
    reduction is nullable exactly when its child is."""
    with g.activate() as ctx:
        if trees:
            build_null_forests(g)
        node = g.root
        named = ctx.named
        given = None
        if named is not None:
            given = list(tokens)
            tokens = [c if c in named else WILDCARD for c in given]
        tokens = iter(tokens)
        if ctx.compacting:
            fns = []
            keep = fns.append if trees else _DROP
            for c in tokens:
                node = _derive(node, c, ctx)
                if ctx.cycled:
                    break
                if node.form == RED:
                    keep(node.fn)
                    node = node.left
            if fns:
                node = mk_red(node, compose(*fns))
        for c in tokens:
            node = _derive(node, c, ctx)
        if trees and given and node is not SHARED_EMPTY:
            node = _with_input(node, input_tokens(given))
        return finish(node, ctx)


def recognize(g: Grammar, tokens: Iterable[str]) -> bool:
    return _run(g, tokens, _nullable)


def parse(g: Grammar, tokens: Iterable[str]) -> ForestSet:
    return _run(g, tokens, lambda node, ctx: parse_null(node), trees=True)
