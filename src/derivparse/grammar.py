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
derives the head p1 alone (nested Dyck words on P : '(' P ')' P | ; cost
3.0 nodes per token at depths 50, 800 and 5,000).  It does so only under
two guards, each backed by a measured counterexample:

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

The same rule rebuilds, per operand, the continuation of an operator
chain: on E : T '+' E | T ; T : F '*' T | F, the derivative of T's tail is
the head of E's continuation, so every '*' floated that tail's reduction
out over a fresh (p . q) of two nodes that had not changed (3.0 nodes per
token on flat products, 1.0 on flat sums, and 3.0 again at every deeper
precedence level).  So inside one parse the rule builds its concatenation
through _shared_seq, which hands back the node built the first time for
the same pair of finished, productive halves; its memoized derivative is
then a hit at the next operand, and products cost what sums do.
Within one parse, then, two derivatives may share a node; across parses
they never do, and the loader never shares.

One rule is not local: a cycle such as X = red(seq(X, t)) denotes the empty
language, but no node on it has an Empty child.  The dead-subgraph rule
(collapse_dead) is one productivity fixed point, over the nodes not yet
marked productive, that rewrites every node it proves dead to Empty.
normalize_grammar runs it over the loaded grammar, and the derivative engine
from every cycle-closing node that finishes unproductive.  Nullability is
the same least fixed point seeded with the nullable nodes instead of the
productive ones, and the nullability engine closes it with the same
function (_spread).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Optional

from . import reductions
from .instrumentation import COMPACTION_RULES, FORM_NAMES, Counters, fresh_name

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

# nullability verdicts stored on nodes; a verdict, once written, is final
NV_UNKNOWN, NV_NULLABLE, NV_NOT = 0, 1, 2


class GrammarNode:
    """One graph node.  Field use depends on `form`:

    left/right: children (SEQ, ALT); left alone: child (RED)
    label: token label (TOKEN)
    results: tree set for the empty word (EPSILON)
    fn: a Reduction (RED)

    The remaining slots are engine state: the nullability verdict (unknown
    until a query decides it, then final), the derivative cache (a slot for
    one token and, under the full memo, a dict made by a second token for
    the others; on a grammar node it lasts one activation, see Grammar),
    the under-construction flag, the productive and never-null
    marks (set only once the structure proves the language non-empty, or
    without the empty word), the grammar mark (set when a loaded grammar
    reaches the node), the empty-word parse memo (a grammar node's is built
    once, by its grammar's first parse), and the optional debug name.

    `twin` is set on the node of a directly left-recursive rule only: the
    right-recursive node of the same language and trees that the loader
    builds for it, which a compacting parse derives instead (see
    loader.build_graph).  The walks over a grammar follow it as a third
    child edge.
    """

    __slots__ = (
        "form", "left", "right", "label", "results", "fn",
        "n_value",
        "d_key", "d_val", "d_map",
        "in_progress", "productive", "never_null", "in_grammar",
        "pn_memo", "name", "twin",
    )

    def __init__(self, form: int):
        self.form = form
        self.left = None
        self.right = None
        self.label = None
        self.results = None
        self.fn = None
        self.n_value = NV_UNKNOWN
        self.d_key = None
        self.d_val = None
        self.d_map = None
        self.in_progress = False
        self.productive = False
        self.never_null = False
        self.in_grammar = False
        self.pn_memo = None
        self.name = None
        self.twin = None

    def __repr__(self) -> str:
        extra = ""
        if self.form == TOKEN:
            extra = f" {self.label!r}"
        elif self.name is not None:
            extra = f" {self.name.text()!r}"
        return f"<{FORM_NAMES[self.form]}#{id(self):x}{extra}>"


# --- ambient build context --------------------------------------------------

class ParserSettings:
    """Engine switches.  Defaults match the CLI defaults."""

    __slots__ = ("memo_full", "compaction", "naive_nullability", "debug_names")

    def __init__(self, *, memo_full: bool = True, compaction: bool = True,
                 naive_nullability: bool = False, debug_names: bool = False):
        self.memo_full = memo_full
        self.compaction = compaction
        self.naive_nullability = naive_nullability
        self.debug_names = debug_names


class Context:
    """What the free-function constructors and engines consult: counters to
    bump, the grammar nodes whose derivative memo was written (`written`,
    kept by the derivative engine so that Grammar.activate clears exactly
    those), the table of concatenations the float-left rule shares (`seqs`,
    keyed by the pair of halves; only a compacting activation makes one, so
    it dies with the parse, and any other context, the loader's included,
    has None), whether a derivative cycle has closed (`cycled`, set by the
    derivative engine when a cycle re-enters a derivative under
    construction), and the settings, resolved into plain switch fields when
    the context is created (debug names turn compaction off).  So a switch
    changed on g.settings while g is active applies from the next
    activation."""

    __slots__ = ("counters", "written", "seqs", "cycled",
                 "memo_full", "naming", "compacting", "naive_nullability")

    def __init__(self, counters: Optional[Counters] = None,
                 settings: Optional[ParserSettings] = None):
        st = settings if settings is not None else ParserSettings()
        self.counters = counters if counters is not None else Counters()
        self.written = []
        self.seqs = None
        self.cycled = False
        self.memo_full = st.memo_full
        self.naming = st.debug_names
        self.compacting = st.compaction and not self.naming
        self.naive_nullability = st.naive_nullability


class _Active(threading.local):
    """The active context, per thread; each thread starts with a default one."""

    def __init__(self) -> None:
        self.ctx = Context()


_active = _Active()


class use_context:
    """Make ctx the active context for a with block."""

    __slots__ = ("ctx", "prev")

    def __init__(self, ctx: Context):
        self.ctx = ctx

    def __enter__(self) -> Context:
        self.prev = _active.ctx
        _active.ctx = self.ctx
        return self.ctx

    def __exit__(self, *exc) -> None:
        _active.ctx = self.prev


# --- constructors -----------------------------------------------------------

def _new(form: int) -> GrammarNode:
    node = GrammarNode(form)
    _active.ctx.counters.nodes_by_form[form] += 1
    return node


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
# new_alt, new_seq and new_red apply the rule as they build; fill applies it
# to a shell.

def fill(n: GrammarNode, a, b) -> GrammarNode:
    """Give a seq, alt or red shell its children a and b (a reduction's b
    is its fn) and the marks by the local rule, and return it."""
    n.left = a
    form = n.form
    if form == RED:
        n.fn = b
        n.productive = a.productive
        n.never_null = a.never_null
        return n
    n.right = b
    if form == ALT:
        n.productive = a.productive or b.productive
        n.never_null = a.never_null and b.never_null
    else:
        n.productive = a.productive and b.productive
        n.never_null = a.never_null or b.never_null
    return n


def new_alt(left, right) -> GrammarNode:
    """A choice of left and right; a None left makes a shell."""
    n = _new(ALT)
    n.left = left
    n.right = right
    if left is not None:
        n.productive = left.productive or right.productive
        n.never_null = left.never_null and right.never_null
    return n


def new_seq(left, right) -> GrammarNode:
    """A concatenation of left and right; a None left makes a shell."""
    n = _new(SEQ)
    n.left = left
    n.right = right
    if left is not None:
        n.productive = left.productive and right.productive
        n.never_null = left.never_null or right.never_null
    return n


def new_red(child, fn) -> GrammarNode:
    """child under the reduction fn; a None child makes a shell."""
    n = _new(RED)
    n.left = child
    n.fn = fn
    if child is not None:
        n.productive = child.productive
        n.never_null = child.never_null
    return n


def _shared_seq(left: GrammarNode, right: GrammarNode) -> GrammarNode:
    """seq(left, right) for the float-left rule: inside a parse, the node
    first built for these two productive halves (see the module
    docstring).  A productive node is finished, and a concatenation of two
    is productive, so a shared node is never a shell and never rewritten
    by the dead-subgraph rule."""
    ctx = _active.ctx
    seqs = ctx.seqs
    if seqs is None or not (left.productive and right.productive):
        return new_seq(left, right)
    key = (left, right)
    n = seqs.get(key)
    if n is None:
        n = seqs[key] = new_seq(left, right)
    else:
        ctx.counters.seqs_shared += 1
    return n


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
    """The replacement for (left . right), or None.  seq-float-left, and
    the seq-associate it may fire with, build through _shared_seq."""
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
            return new_red(_shared_seq(p.left, _shared_seq(p.right, right)),
                           reductions.compose(reductions.lift_left(left.fn),
                                              reductions.reassociate()))
        return new_red(_shared_seq(p, right), reductions.lift_left(left.fn))
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
    """Every node reachable through child and twin edges, root first
    (iterative)."""
    seen = {root}
    order = [root]
    stack = [root]
    while stack:
        n = stack.pop()
        # leaves and reductions have no right child, leaves and unfilled
        # shells no left one, and only a left-recursive rule has a twin
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
        c = n.twin
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
    X = red(seq(X, t)) land here.  The rule rewrites structure and marks
    only: a dead node's memo entries belong to the derivative engine.
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
            _fire(DEAD_SUBGRAPH)


def _spread(work: list, live: set, parents: dict) -> None:
    """Close `live` under the local rule, upward from `work`: a parent is
    added when one child is (a choice, a reduction) or both are (a
    concatenation).  `parents` maps a node to its parents inside the
    collected subgraph.  Read with productive frontier nodes as `live`, this
    is the dead-subgraph fixed point; with nullable ones, the nullability
    fixed point (nullability.is_nullable)."""
    while work:
        c = work.pop()
        for p in parents.get(c, ()):
            if p in live or (p.form == SEQ
                             and not (p.left in live and p.right in live)):
                continue
            live.add(p)
            work.append(p)


def become_node(dst: GrammarNode, src: GrammarNode) -> bool:
    """Overwrite dst's structural fields with src's.  dst keeps its identity,
    so existing references to dst now see src's structure.
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

    A parse keeps its derivatives in the memo slots of the grammar nodes it
    derives, so one activation at a time: a second, nested or on another
    thread, raises RuntimeError.  The activation clears those slots when it
    ends, also when the parse raised, so a parse's derivatives die with it.
    Each node's empty-word forest is a constant of the grammar: the first
    parse builds them all (`null_forests` says it has), and nothing resets
    them."""

    __slots__ = ("root", "start", "nonterminal_table", "size_G", "counters",
                 "settings", "bnf", "null_forests", "_lock")

    def __init__(self, root: GrammarNode, start: str,
                 nonterminal_table: Optional[dict] = None, bnf=None):
        self.root = root
        self.start = start
        self.nonterminal_table = nonterminal_table or {}
        self.size_G = _mark_grammar(root)
        self.counters = Counters()
        self.settings = ParserSettings()
        self.bnf = bnf
        self.null_forests = False
        self._lock = threading.Lock()

    @contextmanager
    def activate(self):
        """Make a context for one parse the active one, with a table of
        shared concatenations under compaction, and under debug names give
        every grammar node without a name a fresh one; on the way out, clear
        the derivative memo of every grammar node it wrote."""
        ctx = Context(self.counters, self.settings)
        if ctx.compacting:
            ctx.seqs = {}
        if not self._lock.acquire(blocking=False):
            raise RuntimeError(f"{self!r} is already active")
        try:
            if ctx.naming:
                for n in reachable_nodes(self.root):
                    if n.name is None:
                        n.name = fresh_name()
            with use_context(ctx):
                yield ctx
        finally:
            for n in ctx.written:
                n.d_key = n.d_val = n.d_map = None
            self._lock.release()

    def __repr__(self) -> str:
        return f"Grammar(start={self.start!r}, size_G={self.size_G})"


def normalize_grammar(g) -> "Grammar | GrammarNode":
    """Rewrite the grammar so no reachable Seq has an Empty, Epsilon, or Red
    right child (and apply every other compaction rule exhaustively).

    Accepts a Grammar or a bare root node; rewrites in place and returns the
    argument.  Empty-language subgraphs are collapsed first, by the
    dead-subgraph fixed point over every node not yet marked (see
    collapse_dead): it decides the productivity of the loaded grammar, and
    leaves every reachable node marked or Empty; so the rewriting
    terminates on cyclic graphs, and a cap on the rewrites guards the rest.
    (The same fixed point, grammar._spread, decides nullability at query
    time.)  Whether a rule fires on a node depends only on the node and its
    children's forms, so a worklist that starts with every inner node and
    revisits a rewritten node, its parents and the nodes its rule created
    reaches the same fixed point as sweeping the whole graph until nothing
    fires.  The never-null marks are exact as build_graph builds them,
    since it marks each rule's placeholder by the rule's nullability; on a
    hand-built graph they are those of the local rule, which are sound.
    Rewrites keep them so, and the nullability engine reads them as
    verdicts.  The grammar marks are cleared while it runs, so the spine
    rule's guard sees them alike whether a Grammar is made after
    normalizing (load_grammar) or before (benchmarks/tracing.py); a
    Grammar's nodes are marked again at its end, a bare root's by its own.
    """
    root = g.root if isinstance(g, Grammar) else g
    parents = {root: []}
    work = [root]
    _enlist(root, parents, work)
    inner = []
    for n in parents:
        n.in_grammar = False
        if not (n.productive or n.in_progress or n.form == EMPTY):
            inner.append(n)
    if inner:
        _settle(inner, [n for n in parents if n.productive],
                [n for n in parents if n.in_progress], parents)
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
    """Record top's child and twin edges in `parents`; a child seen for the
    first time is queued, and so is everything new below it.  A twin has
    its rule's language, so the productivity fixed point may read it as one
    more choice."""
    stack = [top]
    while stack:
        n = stack.pop()
        for c in (n.left, n.right, n.twin):
            if c is None:
                continue
            ps = parents.get(c)
            if ps is None:
                parents[c] = [n]
                if c.form >= SEQ:  # leaves never change, nor have children
                    work.append(c)
                    stack.append(c)
            else:
                ps.append(n)


# --- printing ---------------------------------------------------------------

def describe_node(n: GrammarNode, *, max_depth: int = 6) -> str:
    """A short structural sketch, cycle-safe.  Inner nodes are numbered in
    the order the sketch first meets them, and a node met again on its own
    path prints as its number."""
    num: dict = {}

    def go(x: GrammarNode, depth: int, seen: frozenset) -> str:
        if x in seen:
            return f"#{num[x]}"
        if depth >= max_depth:
            return "..."
        f = x.form
        if f == EMPTY:
            return "{}"
        if f == EPSILON:
            return "eps"
        if f == TOKEN:
            return repr(x.label)
        i = num.setdefault(x, len(num) + 1)
        s = seen | {x}
        kids = " ".join(go(c, depth + 1, s) for c in (x.left, x.right)
                        if c is not None)
        return f"({FORM_NAMES[f]}#{i} {kids})"

    return go(n, 0, frozenset())
