"""Parsing-expression graph: node forms, constructors, compaction, normalization.

A grammar is a possibly-cyclic graph of six node forms: the empty language,
the empty word carrying a set of result trees, a single token, concatenation,
choice, and reduction (a child plus a tree rewrite).  Nonterminal references
are direct object references, which is where the cycles come from.

Compaction is one table of local simplification rules (_compact_alt,
_compact_seq, _compact_red): each maps a form and its children to a
replacement node, firing at most one structural rule plus at most one
follow-up rule, and declines on nodes still under construction.  The table
is used in two ways.  The mk_* constructors (and the derivative engine)
build the replacement instead of a new node.  normalize_grammar rewrites a
loaded grammar in place, copying each replacement into the rewritten node
with become_node until nothing fires, so no reachable concatenation is left
with an Empty, Epsilon or reduction right child; derivatives of such a
grammar never have one either, so the right-child rules fire only at load
time.  It works through a worklist: a rewritten node, its parents and the
nodes its rule created are revisited, and nothing else.

Nesting depth rests on one rule.  seq-float-left, ((p -> f) . q) ->
(p . q) -> lift-left(f), leaves a left-nested spine when p is itself a
concatenation, and each token of a nested Dyck word would then rebuild that
spine, one node per open level (603.8 nodes per token at depth 800).  So
when p = (p1 . p2) the rule re-associates it in the same step, once:
(p1 . (p2 . q)) -> lift-left(f) after reassociate, and the next token
derives the head p1 alone (6.5 nodes per token at any depth).  It does so
only under two guards, each backed by a measured counterexample:

- p is no grammar node (the grammar mark, set by Grammar and
  normalize_grammar on every node the loaded grammar reaches).  Grammar
  nodes keep their derivatives for the whole input; taking one apart
  re-derives it per token.  Right-recursive arithmetic on a 541-token
  word creates 13,377 nodes instead of 1,013.
- p1 is known by structure not to accept the empty word (the never-null
  mark, see fill), so no nullability engine is asked and both engines
  build the same nodes.  A nullable head forks on the next token into a
  fresh (p2 . q) per parse path, where the left-nested p forks once and
  memoizes it.  Random grammar g48 of the benchmark corpus on a^n turns
  quadratic without this guard: 2,645 nodes become 26,250 at n=160.

One rule is not local: a cycle such as X = red(seq(X, t)) denotes the empty
language, but no node on it has an Empty child.  The dead-subgraph rule
(collapse_dead) is one productivity fixed point, over the nodes not yet
marked productive, that rewrites every node it proves dead to Empty.
normalize_grammar runs it over the loaded grammar, and the derivative engine
from every cycle-closing node that finishes unproductive.
"""

from __future__ import annotations

import itertools
import threading
from contextlib import contextmanager
from typing import Optional

from . import reductions
from .instrumentation import COMPACTION_RULES, FORM_NAMES, Counters

EMPTY, EPSILON, TOKEN, SEQ, ALT, RED = range(6)

# compaction rule numbers, each looked up by its name in COMPACTION_RULES
_rule = COMPACTION_RULES.index
ALT_EMPTY_LEFT = _rule("alt-empty-left")
ALT_EMPTY_RIGHT = _rule("alt-empty-right")
ALT_EPSILON_MERGE = _rule("alt-epsilon-merge")
DEAD_SUBGRAPH = _rule("dead-subgraph")
RED_COMPOSE = _rule("red-compose")
RED_EMPTY = _rule("red-empty")
RED_EPSILON = _rule("red-epsilon")
SEQ_ASSOCIATE = _rule("seq-associate")
SEQ_EMPTY_LEFT = _rule("seq-empty-left")
SEQ_EMPTY_RIGHT = _rule("seq-empty-right")
SEQ_EPSILON_LEFT = _rule("seq-epsilon-left")
SEQ_EPSILON_RIGHT = _rule("seq-epsilon-right")
SEQ_FLOAT_LEFT = _rule("seq-float-left")
SEQ_FLOAT_RIGHT = _rule("seq-float-right")

WILDCARD = "."

# nullability facts stored on nodes; UNKNOWN doubles as "assumed not nullable"
NV_UNKNOWN, NV_NULLABLE, NV_NOT = 0, 1, 2

_node_ids = itertools.count(1)


class GrammarNode:
    """One graph node.  Field use depends on `form`:

    left/right: children (SEQ, ALT); left alone: child (RED)
    label: token label (TOKEN)
    results: tree set for the empty word (EPSILON)
    fn: a Reduction (RED)

    The remaining slots are engine state: the nullability cell, the derivative
    cache (a slot for one token and, under the full memo, a dict made by a
    second token for the others), the under-construction flag, the
    productive and never-null marks (set only once the structure proves the
    language non-empty, or without the empty word), the grammar mark (set
    when a loaded grammar reaches the node), the empty-word parse memo, and
    the optional debug name.
    """

    __slots__ = (
        "id", "form", "left", "right", "label", "results", "fn",
        "n_value", "n_gen", "n_dependents",
        "d_key", "d_val", "d_map",
        "in_progress", "productive", "never_null", "in_grammar",
        "pn_memo", "name",
    )

    def __init__(self, form: int):
        self.id = next(_node_ids)
        self.form = form
        self.left = None
        self.right = None
        self.label = None
        self.results = None
        self.fn = None
        self.n_value = NV_UNKNOWN
        self.n_gen = 0
        self.n_dependents = None
        self.d_key = None
        self.d_val = None
        self.d_map = None
        self.in_progress = False
        self.productive = False
        self.never_null = False
        self.in_grammar = False
        self.pn_memo = None
        self.name = None

    def __repr__(self) -> str:
        extra = ""
        if self.form == TOKEN:
            extra = f" {self.label!r}"
        elif self.name is not None:
            extra = f" {self.name.text()!r}"
        return f"<{FORM_NAMES[self.form]}#{self.id}{extra}>"


# --- ambient build context --------------------------------------------------

class ParserSettings:
    """Engine switches.  Defaults match the CLI defaults."""

    __slots__ = ("memo_full", "compaction", "naive_nullability", "debug_names",
                 "collect_nodes")

    def __init__(self, *, memo_full: bool = True, compaction: bool = True,
                 naive_nullability: bool = False, debug_names: bool = False,
                 collect_nodes: bool = False):
        self.memo_full = memo_full
        self.compaction = compaction
        self.naive_nullability = naive_nullability
        self.debug_names = debug_names
        self.collect_nodes = collect_nodes


class Context:
    """What the free-function constructors and engines consult: counters to
    bump, an optional registry of every node created, and the settings,
    resolved into plain switch fields when the context is created (debug
    names turn compaction off).  So a switch changed on g.settings while g
    is active applies from the next activation."""

    __slots__ = ("counters", "settings", "created",
                 "memo_full", "naming", "compacting", "naive_nullability")

    def __init__(self, counters: Optional[Counters] = None,
                 settings: Optional[ParserSettings] = None,
                 created: Optional[list] = None):
        st = settings if settings is not None else ParserSettings()
        self.counters = counters if counters is not None else Counters()
        self.settings = st
        self.created = created
        self.memo_full = st.memo_full
        self.naming = st.debug_names
        self.compacting = st.compaction and not self.naming
        self.naive_nullability = st.naive_nullability


class _Active(threading.local):
    """The active context, per thread; each thread starts with a default one."""

    def __init__(self) -> None:
        self.ctx = Context()


_active = _Active()


@contextmanager
def use_context(ctx: Context):
    prev = _active.ctx
    _active.ctx = ctx
    try:
        yield ctx
    finally:
        _active.ctx = prev


# --- constructors -----------------------------------------------------------

def _new(form: int) -> GrammarNode:
    ctx = _active.ctx
    node = GrammarNode(form)
    ctx.counters.nodes_by_form[form] += 1
    if ctx.created is not None:
        ctx.created.append(node)
    return node


def mk_empty() -> GrammarNode:
    n = _new(EMPTY)
    n.n_value = NV_NOT
    n.never_null = True
    return n


# The one Empty the derivative engine returns for every failed or Empty
# derivative, and the node the dead-subgraph rule copies.  Nothing writes to
# it: deriving it makes no cache entry, its verdict is preset here and its
# empty-word forest by the forest module.
SHARED_EMPTY = GrammarNode(EMPTY)
SHARED_EMPTY.n_value = NV_NOT
SHARED_EMPTY.never_null = True


def mk_eps(results) -> GrammarNode:
    """The empty word, carrying a non-empty set of result trees."""
    if results is None or results.is_empty():
        raise ValueError("epsilon node needs a non-empty result set")
    n = _new(EPSILON)
    n.results = results
    n.n_value = NV_NULLABLE
    n.productive = True
    return n


def mk_token(label: str) -> GrammarNode:
    n = _new(TOKEN)
    n.label = label
    n.n_value = NV_NOT
    n.productive = True
    n.never_null = True
    return n


# The marks by the local rule: a token is productive and never null (rejects
# the empty word), epsilon productive, Empty never null; a reduction has its
# child's marks; a choice is productive if either child is, never null if
# both are; a concatenation the reverse.  Shells stay unmarked until filled.

def fill(n: GrammarNode, a, b) -> GrammarNode:
    """Give a seq, alt or red node its children a and b (a reduction's b is
    its fn) and the marks by the local rule, and return it.  A None a leaves
    it an unmarked shell, which a later fill completes."""
    n.left = a
    form = n.form
    if form == RED:
        n.fn = b
    else:
        n.right = b
    if a is None:
        return n
    if form == ALT:
        n.productive = a.productive or b.productive
        n.never_null = a.never_null and b.never_null
    elif form == SEQ:
        n.productive = a.productive and b.productive
        n.never_null = a.never_null or b.never_null
    else:
        n.productive = a.productive
        n.never_null = a.never_null
    return n


def new_alt(left, right) -> GrammarNode:
    return fill(_new(ALT), left, right)


def new_seq(left, right) -> GrammarNode:
    return fill(_new(SEQ), left, right)


def new_red(child, fn) -> GrammarNode:
    return fill(_new(RED), child, fn)


def _fire(rule: int) -> None:
    _active.ctx.counters.firings_by_rule[rule] += 1


def _red_limited(child: GrammarNode, fn) -> GrammarNode:
    """Build a reduction of `child`; an Empty or Epsilon child folds it away
    (red-empty, red-epsilon), so this is both a rule and a follow-up."""
    f = child.form
    if f == EMPTY:
        _fire(RED_EMPTY)
        return child
    if f == EPSILON:
        _fire(RED_EPSILON)
        return mk_eps(child.results.apply(fn))
    return new_red(child, fn)


def _compact_alt(left: GrammarNode, right: GrammarNode) -> Optional[GrammarNode]:
    if left.in_progress or right.in_progress:
        return None
    if left.form == EMPTY:
        _fire(ALT_EMPTY_LEFT)
        return right
    if right.form == EMPTY:
        _fire(ALT_EMPTY_RIGHT)
        return left
    if left.form == EPSILON and right.form == EPSILON:
        _fire(ALT_EPSILON_MERGE)
        return mk_eps(left.results.union(right.results))
    return None


def _compact_seq(left: GrammarNode, right: GrammarNode) -> Optional[GrammarNode]:
    if left.in_progress or right.in_progress:
        return None
    f = left.form
    if f == EMPTY:
        _fire(SEQ_EMPTY_LEFT)
        return left
    if f == EPSILON:
        _fire(SEQ_EPSILON_LEFT)
        return _red_limited(right, reductions.pair_left(left.results))
    if f == SEQ:
        # ((p1 . p2) . p3) -> (p1 . (p2 . p3)) plus a reassociation rewrite
        _fire(SEQ_ASSOCIATE)
        return new_red(new_seq(left.left, new_seq(left.right, right)),
                       reductions.reassociate())
    if f == RED:
        # ((p -> f) . q) -> (p . q) -> lift-left(f)
        _fire(SEQ_FLOAT_LEFT)
        p = left.left
        if (p.form == SEQ and not p.in_grammar
                and not p.in_progress and p.left.never_null):
            # ... then seq-associate, once (see the module docstring for
            # why, and for the measured counterexample behind each guard)
            _fire(SEQ_ASSOCIATE)
            return new_red(new_seq(p.left, new_seq(p.right, right)),
                           reductions.compose(reductions.lift_left(left.fn),
                                              reductions.reassociate()))
        return new_red(new_seq(p, right), reductions.lift_left(left.fn))
    # right-child rules: a normalized grammar and its derivatives never have
    # these right children, so these fire only while a grammar loads
    f = right.form
    if f == EMPTY:
        _fire(SEQ_EMPTY_RIGHT)
        return right
    if f == EPSILON:
        _fire(SEQ_EPSILON_RIGHT)
        return new_red(left, reductions.pair_right(right.results))
    if f == RED:
        # (p . (q -> f)) -> (p . q) -> lift-right(f)
        _fire(SEQ_FLOAT_RIGHT)
        return new_red(new_seq(left, right.left), reductions.lift_right(right.fn))
    return None


def _compact_red(child: GrammarNode, fn) -> Optional[GrammarNode]:
    if child.in_progress:
        return None
    f = child.form
    if f == EMPTY or f == EPSILON:
        return _red_limited(child, fn)
    if f == RED:
        _fire(RED_COMPOSE)
        return _red_limited(child.left, reductions.compose(fn, child.fn))
    return None


def mk_alt(left: GrammarNode, right: GrammarNode) -> GrammarNode:
    c = _compact_alt(left, right)
    return c if c is not None else new_alt(left, right)


def mk_seq(left: GrammarNode, right: GrammarNode) -> GrammarNode:
    c = _compact_seq(left, right)
    return c if c is not None else new_seq(left, right)


def mk_red(child: GrammarNode, fn) -> GrammarNode:
    c = _compact_red(child, fn)
    return c if c is not None else new_red(child, fn)


# --- graph walks ------------------------------------------------------------

def reachable_nodes(root: GrammarNode) -> list:
    """Every node reachable through child edges, root first (iterative)."""
    seen = {root}
    order = [root]
    stack = [root]
    while stack:
        n = stack.pop()
        # leaves and reductions have no right child, leaves and unfilled
        # shells no left one
        c = n.left
        if c is not None and c not in seen:
            seen.add(c)
            order.append(c)
            stack.append(c)
        c = n.right
        if c is not None and c not in seen:
            seen.add(c)
            order.append(c)
            stack.append(c)
    return order


def _mark_grammar(root: GrammarNode) -> int:
    """Give every node the grammar reaches the grammar mark; returns how
    many there are (size_G)."""
    nodes = reachable_nodes(root)
    for n in nodes:
        n.in_grammar = True
    return len(nodes)


# --- normalization ----------------------------------------------------------

_REWRITE_CAP = 1000  # rewrites per node before normalization gives up


def collapse_dead(root: GrammarNode) -> None:
    """The dead-subgraph rule: rewrite every node below root that denotes the
    empty language to Empty.

    A node is productive (its language is not empty) by the least fixed
    point of the local rule that sets the marks (see fill).  The walk
    collects the unmarked nodes below root and stops at the rest: a marked
    node is productive, Empty is not, and a node under construction counts
    as productive, since its children are not known yet, but proves
    nothing.  Nodes proven productive without a node under construction get
    the mark, so no later walk enters them; those not productive even with
    every node under construction counted are dead.  Degenerate recursions
    like S : 'a' S ; (no base case) and derivative cycles like
    X = red(seq(X, t)) land here.
    """
    if root.productive or root.in_progress or root.form == EMPTY:
        return
    inner = [root]
    seen = {root}
    parents: dict = {}
    proven = []    # marked frontier
    pending = []   # frontier under construction
    stack = [root]
    while stack:
        n = stack.pop()
        for c in (n.left, n.right):
            if c is None:
                continue
            ps = parents.get(c)
            if ps is None:
                parents[c] = [n]
            else:
                ps.append(n)
            if c in seen:
                continue
            seen.add(c)
            if c.productive:
                proven.append(c)
            elif c.in_progress:
                pending.append(c)
            elif c.form != EMPTY:
                inner.append(c)
                stack.append(c)
    _settle(inner, proven, pending, parents)


def _settle(inner: list, proven: list, pending: list, parents: dict) -> None:
    """The dead-subgraph fixed point over the unmarked nodes `inner`, given
    every parent edge into them and their frontier: the marked nodes
    (`proven`) and those under construction (`pending`)."""
    live = set(proven)
    _spread(proven, live, parents)
    for n in inner:
        if n in live:
            n.productive = True
    live.update(pending)
    _spread(pending, live, parents)
    for n in inner:
        if n not in live:
            become_node(n, SHARED_EMPTY)
            _drop_derivatives(n)
            _fire(DEAD_SUBGRAPH)


def _drop_derivatives(n: GrammarNode) -> None:
    """Drop a dead node's cached derivatives, so no stale entry keeps dead
    structure alive.  An entry still under construction stays: the engine
    builds that derivative further up the stack and reads the entry back."""
    v = n.d_val
    if v is not None and not v.in_progress:
        n.d_key = n.d_val = None
    m = n.d_map
    if m is not None:
        n.d_map = {c: d for c, d in m.items() if d.in_progress} or None


def _spread(work: list, live: set, parents: dict) -> None:
    """Close `live` under the local productivity rule, upward from `work`."""
    while work:
        c = work.pop()
        for p in parents.get(c, ()):
            if p in live or (p.form == SEQ
                             and not (p.left in live and p.right in live)):
                continue
            live.add(p)
            work.append(p)


def become_node(dst: GrammarNode, src: GrammarNode) -> bool:
    """Overwrite dst's structural fields with src's.  dst keeps its identity
    (and id), so existing references to dst now see src's structure.
    Returns whether that structure changed: a node becoming itself (or a
    copy of its own shape) is no change, which lets normalization stop."""
    changed = (dst.form != src.form or dst.left is not src.left
               or dst.right is not src.right or dst.label != src.label
               or dst.results is not src.results or dst.fn is not src.fn)
    dst.form = src.form
    dst.left = src.left
    dst.right = src.right
    dst.label = src.label
    dst.results = src.results
    dst.fn = src.fn
    dst.n_value = src.n_value
    dst.productive = src.productive
    dst.never_null = src.never_null
    return changed


def _normalize_step(n: GrammarNode) -> bool:
    form = n.form
    if form == ALT:
        repl = _compact_alt(n.left, n.right)
    elif form == SEQ:
        repl = _compact_seq(n.left, n.right)
    elif form == RED:
        repl = _compact_red(n.left, n.fn)
    else:
        return False
    return repl is not None and become_node(n, repl)


class Grammar:
    """A loaded grammar: root node, table of the nonterminals the start
    symbol reaches (kept for diagnostics and printing), per-grammar counters
    and settings, and the BNF twin the loader derived from the same source.
    Parses keep caches on the nodes, so one activation at a time: a second,
    nested or on another thread, raises RuntimeError."""

    __slots__ = ("root", "start", "nonterminal_table", "size_G", "counters",
                 "settings", "bnf", "created_nodes", "_lock")

    def __init__(self, root: GrammarNode, start: str,
                 nonterminal_table: Optional[dict] = None, bnf=None):
        self.root = root
        self.start = start
        self.nonterminal_table = nonterminal_table or {}
        self.size_G = _mark_grammar(root)
        self.counters = Counters()
        self.settings = ParserSettings()
        self.bnf = bnf
        self.created_nodes = None
        self._lock = threading.Lock()

    @contextmanager
    def activate(self):
        if not self._lock.acquire(blocking=False):
            raise RuntimeError(f"{self!r} is already active")
        try:
            created = [] if self.settings.collect_nodes else None
            with use_context(Context(self.counters, self.settings, created)) as ctx:
                yield ctx
        finally:
            self._lock.release()

    def __repr__(self) -> str:
        return f"Grammar(start={self.start!r}, size_G={self.size_G})"


def normalize_grammar(g) -> "Grammar | GrammarNode":
    """Rewrite the grammar so no reachable Seq has an Empty, Epsilon, or Red
    right child (and apply every other compaction rule exhaustively).

    Accepts a Grammar or a bare root node; rewrites in place and returns the
    argument.  Empty-language subgraphs are collapsed first, by the
    dead-subgraph fixed point over every node not yet marked (see
    collapse_dead), which leaves every reachable node marked or Empty; so
    the rewriting terminates on cyclic graphs, and a cap on the rewrites
    guards the rest.  Whether a rule fires on a node depends only on the
    node and its children's forms, so a worklist that starts with every
    inner node and revisits a rewritten node, its parents and the nodes its
    rule created reaches the same fixed point as sweeping the whole graph
    until nothing fires.  The never-null marks are settled exactly first, since
    the loader set them over unmarked placeholders: a node is never null unless
    the local rule reaches it upward from an epsilon (or a node under
    construction).  The grammar marks are cleared while it runs, so the spine
    rule's guard sees them alike whether a Grammar is made after normalizing
    (load_grammar) or before (benchmarks/tracing.py); a Grammar's nodes are
    marked again at its end, a bare root's by its own.
    """
    root = g.root if isinstance(g, Grammar) else g
    parents = {root: []}
    work = [root]
    _enlist(root, parents, work)
    seeds = [n for n in parents if n.form == EPSILON or n.in_progress]
    nullable = set(seeds)
    _spread(seeds, nullable, parents)
    inner, proven, pending = [], [], []
    for n in parents:
        n.in_grammar = False
        n.never_null = n not in nullable
        if n.productive:
            proven.append(n)
        elif n.in_progress:
            pending.append(n)
        elif n.form != EMPTY:
            inner.append(n)
    if inner:
        _settle(inner, proven, pending, parents)
    work.reverse()  # the root first
    rewrites = 0
    while work:
        n = work.pop()
        if not _normalize_step(n):
            continue
        rewrites += 1
        if rewrites > _REWRITE_CAP * len(parents):
            raise RuntimeError("grammar normalization did not converge")
        work.append(n)
        work += parents[n]
        _enlist(n, parents, work)
    if isinstance(g, Grammar):
        g.size_G = _mark_grammar(root)
    return g


def _enlist(top: GrammarNode, parents: dict, work: list) -> None:
    """Record top's child edges in `parents`; a child seen for the first
    time is queued, and so is everything new below it."""
    stack = [top]
    while stack:
        n = stack.pop()
        for c in (n.left, n.right):
            if c is None:
                continue
            ps = parents.get(c)
            if ps is None:
                parents[c] = [n]
                if c.form >= SEQ:  # leaves never change
                    work.append(c)
                stack.append(c)
            else:
                ps.append(n)


# --- printing ---------------------------------------------------------------

def describe_node(n: GrammarNode, *, max_depth: int = 6) -> str:
    """A short structural sketch, cycle-safe."""

    def go(x: GrammarNode, depth: int, seen: frozenset) -> str:
        if x.id in seen:
            return f"#{x.id}"
        if depth >= max_depth:
            return "..."
        s = seen | {x.id}
        f = x.form
        if f == EMPTY:
            return "{}"
        if f == EPSILON:
            return "eps"
        if f == TOKEN:
            return repr(x.label)
        if f == SEQ:
            return f"(seq#{x.id} {go(x.left, depth + 1, s)} {go(x.right, depth + 1, s)})"
        if f == ALT:
            return f"(alt#{x.id} {go(x.left, depth + 1, s)} {go(x.right, depth + 1, s)})"
        return f"(red#{x.id} {go(x.left, depth + 1, s)})"

    return go(n, 0, frozenset())
