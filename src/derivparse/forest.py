"""Shared parse forests: compact tree-set values and their consumers.

A forest node denotes a set of parse trees:

  leaf   one token leaf
  pair   the cross product of two child sets (one node, not |A|x|B|)
  prod   a named production with no children (an empty alternative)
  amb    the union of the child sets
  defer  an unapplied Reduction over a child set

Inside the engine a set of trees is its root node: an epsilon node's
results, a parse_null memo and a pairing's payload are roots, and no trees
is one node, NO_TREES.  A ForestSet is what parse and parse_null return.

Forests may be cyclic (a cyclic grammar parse can denote infinitely many
trees).  One iterative, cycle-aware postorder walk serves every consumer:
counting, enumeration and JSON export are folds over it.  The first
consumer to walk a ForestSet keeps the postorder on it, so a request that
counts, enumerates and exports walks the forest once; the counts are kept
too, and enumeration reads them to build only the trees that its returned
trees are made of.  A deferred node's children are its inner forest, then
each distinct root of its reduction's payload forests once; one walk
(_payload_roots) finds them, reading only the reduction parts whose `pairs`
bit says they reference one, and keeps beside each root how many pairings
use it.  A parse's top reduction is one flat chain, as long as the input,
whose few distinct parts recur (see reductions): that walk reads, and the
JSON export renders, each distinct part of a chain once, through a memo
keyed by identity, and both stream a binary compose.  So the walk, the
count (a power per root) and the export's edges (a pairing names its root
by id) grow with the forest's distinct structure, not with the input, as
a packed forest reads each shared subforest once.  Applying a reduction
chain builds a tree node only for what the chain leaves behind (see
_apply).
_null_root extracts the root of a grammar node's empty-word parses,
registering a forest shell before a node's children so a cycle re-enters it.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Optional

from . import grammar as _g
from . import reductions
from .nullability import is_nullable
from .reductions import (
    COMPOSE, FOLD_LEFT, INPUT, LIFT_LEFT, LIFT_RIGHT, PAIR_LEFT,
    PAIR_LEFT_NULL, PAIR_RIGHT, PAIRINGS, PRODUCTION, REASSOCIATE, SPLICE,
    Reduction,
)


# --- resolved trees ---------------------------------------------------------

# Trees hash once, when built: enumeration dedups whole trees, an uncached
# dataclass hash would walk the subtree on every lookup, and a parent
# hashes its children when it is built.  The constructors write the instance
# dict directly: a frozen dataclass's own __init__ goes through
# object.__setattr__ once per field.  Each hash is the one the dataclass
# would compute, the hash of the fields' tuple.

@dataclass(frozen=True, init=False)
class Leaf:
    label: str

    def __init__(self, label: str):
        d = self.__dict__
        d["label"] = label
        d["_hash"] = hash((label,))

    def __hash__(self) -> int:
        return self._hash


@dataclass(frozen=True, init=False)
class Pair:
    left: object
    right: object

    def __init__(self, left, right):
        d = self.__dict__
        d["left"] = left
        d["right"] = right
        d["_hash"] = hash((left, right))

    def __hash__(self) -> int:
        return self._hash


@dataclass(frozen=True, init=False)
class Prod:
    name: str
    children: tuple

    def __init__(self, name: str, children: tuple):
        d = self.__dict__
        d["name"] = name
        d["children"] = children
        d["_hash"] = hash((name, children))

    def __hash__(self) -> int:
        return self._hash


class _Text(str):
    """A literal piece of tree_text output, never mistaken for a tree."""


_CLOSE_PAIR, _COMMA, _CLOSE_PROD, _SPACE = map(_Text, (")", ",", "]", " "))


def tree_text(t) -> str:
    """Deterministic rendering, usable as a total order key."""
    parts = []
    stack = [t]
    while stack:
        t = stack.pop()
        if type(t) is _Text:
            parts.append(t)
        elif isinstance(t, Leaf):
            parts.append(t.label)
        elif isinstance(t, Pair):
            parts.append("(")
            stack += (_CLOSE_PAIR, t.right, _COMMA, t.left)
        elif isinstance(t, Prod):
            parts.append(f"{t.name}[")
            stack.append(_CLOSE_PROD)
            for i in range(len(t.children) - 1, 0, -1):
                stack += (t.children[i], _SPACE)
            stack += t.children[:1]
        else:
            parts.append(repr(t))
    return "".join(parts)


# --- forest graph -----------------------------------------------------------

LEAF, PAIR, PROD, AMB, DEFER = "leaf", "pair", "prod", "amb", "defer"

class FNode:
    """One forest node.  Every forest table is keyed by the node itself;
    the JSON export numbers nodes by their place in the forest's postorder
    (see forest_to_json)."""

    __slots__ = ("kind", "label", "left", "right", "children", "red",
                 "in_progress", "leaked")

    def __init__(self, kind: str):
        self.kind = kind
        self.label = None
        self.left = None
        self.right = None
        self.children = None
        self.red = None
        self.in_progress = False
        self.leaked = False

    def union(self, other: "FNode") -> "FNode":
        """The root of both roots' trees (see _alternatives): either root
        itself when the other is NO_TREES or the same root."""
        if self is NO_TREES or other is self:
            return other
        if other is NO_TREES:
            return self
        items = _alternatives((self, other))
        return items[0] if len(items) == 1 else amb_node(items)

    def apply(self, red: Reduction) -> "FNode":
        """The root of `red` applied to each of this root's trees."""
        if self is NO_TREES:
            return self
        n = FNode(DEFER)
        n.red, n.left = red, self
        return n

    def __repr__(self) -> str:
        return f"<{self.kind}@{id(self):x}>"


def leaf_node(label: str) -> FNode:
    n = FNode(LEAF)
    n.label = label
    return n


def amb_node(children: list) -> FNode:
    n = FNode(AMB)
    n.children = list(children)
    return n


# No trees: an ambiguity node without children, which every consumer reads
# as empty.  The engine's epsilon results and pairing payloads never are,
# but a parse_null memo is whenever a node has no empty-word parse, and a
# reduction built by hand may pair against it: as an edge it makes the
# deferred node count 0 and enumerate nothing, as the reduction itself does.
NO_TREES = amb_node([])
_g.SHARED_EMPTY.pn_memo = NO_TREES  # so _null_root never writes to it


class ForestSet:
    """What parse and parse_null return: a set of parse trees, represented
    by one forest root, or None when there are no trees.

    `tokens` is the input of a parse of a grammar with a wildcard (see
    parse_null), where a token the grammar does not name has a leaf that
    reads '.' (see derivation); the consumers that read leaves out fill
    them from it.  A tree's frontier is its input, so its i-th leaf is
    tokens[i].  Otherwise None, and every leaf holds its token.  `_order`
    is the forest's postorder, kept by the first consumer that walks it
    (see _walk), and `_counts` each node's tree count, kept by the first
    consumer that counts (see _counts)."""

    __slots__ = ("root", "tokens", "_order", "_counts")

    def __init__(self, root: Optional[FNode] = None,
                 tokens: Optional[list] = None):
        self.root = root
        self.tokens = tokens
        self._order = None
        self._counts = None

    def is_empty(self) -> bool:
        return self.root is None

    def __repr__(self) -> str:
        return f"ForestSet({self.root!r})"


def _alternatives(roots) -> list:
    """The distinct alternatives a union of forest roots offers, in order:
    a finished ambiguity node gives its children (NO_TREES none), any other
    root itself.  A root still under construction is marked leaked, so it
    stays a node."""
    out: dict = {}
    for r in roots:
        if r.kind == AMB and not r.in_progress:
            out.update(dict.fromkeys(r.children))
        else:
            if r.in_progress:
                r.leaked = True
            out[r] = None
    return list(out)


# --- empty-word extraction --------------------------------------------------

def parse_null(node) -> ForestSet:
    """The forest set of parses of the empty word at a grammar node: a new
    set over its root (see _null_root), or over None when it has none.

    A parse's last derivative under the input reduction, which only a
    parse puts on top (see derivation), gives its child's root in a set
    that keeps the tokens (see ForestSet).
    """
    fn = node.fn
    tokens = None
    if fn is not None and fn.kind is INPUT:
        node = node.left
        tokens = reductions.tokens_of(fn)
    root = _null_root(node)
    return ForestSet() if root is NO_TREES else ForestSet(root, tokens)


def _null_root(node) -> FNode:
    """The forest root of parses of the empty word at a grammar node,
    NO_TREES when it has none.

    Memoized on the node.  Cyclic grammars are handled shell-first: a
    forest shell is registered before children are extracted, so a cycle
    re-entry picks up the shell.  Non-nullable nodes short-circuit to
    NO_TREES, which prunes cycles that would otherwise denote zero finite
    trees.
    """
    memo = node.pn_memo
    if memo is not None:
        if memo.in_progress:
            memo.leaked = True
        return memo
    ENTER, COMBINE = 0, 1
    work = [(ENTER, node)]
    while work:
        phase, n = work.pop()
        if phase == ENTER:
            if n.pn_memo is not None:
                continue
            form = n.form
            if form == _g.EPSILON:
                n.pn_memo = n.results
                continue
            # a node marked never null has no empty-word parse: the mark
            # settles it without a nullability query
            if (n.never_null or form == _g.EMPTY or form == _g.TOKEN
                    or not is_nullable(n)):
                n.pn_memo = NO_TREES
                continue
            if form == _g.ALT:
                shell = FNode(AMB)
            elif form == _g.SEQ:
                shell = FNode(PAIR)
            else:  # RED
                shell = FNode(DEFER)
                shell.red = n.fn
            shell.in_progress = True
            n.pn_memo = shell
            work.append((COMBINE, n))
            if form == _g.RED:
                work.append((ENTER, n.left))
            else:
                work.append((ENTER, n.right))
                work.append((ENTER, n.left))
        else:
            shell = n.pn_memo
            form = n.form
            if form == _g.ALT:
                items = _alternatives((n.left.pn_memo, n.right.pn_memo))
                if not items:
                    n.pn_memo = NO_TREES
                elif len(items) == 1 and not shell.leaked:
                    n.pn_memo = items[0]
                else:
                    shell.children = items
                    shell.in_progress = False
            else:  # SEQ, RED: no trees unless every child has some
                kids = (n.left, n.right) if form == _g.SEQ else (n.left,)
                roots = [k.pn_memo for k in kids]
                if NO_TREES in roots:
                    n.pn_memo = NO_TREES
                    continue
                for r in roots:
                    if r.in_progress:
                        r.leaked = True
                shell.left = roots[0]
                shell.right = roots[1] if form == _g.SEQ else None
                shell.in_progress = False
    return node.pn_memo


def build_null_forests(g) -> None:
    """Build the empty-word forest of every node of grammar g, once per
    grammar, before its first parse derives anything.  They are constants
    of the grammar, and building them all from its root fixes the node at
    which parse_null enters each cycle of the grammar.  That node matters:
    the shell a cycle re-enters stays an ambiguity node even with one
    child (see _alternatives).  Built lazily, from wherever a parse first
    reaches the grammar, the forests would depend on what the grammar
    parsed before: on N0 : N0 N0 | N0 'b' | ; the empty word exports a
    different forest once the grammar has parsed b words."""
    if not g.null_forests:
        for n in _g.reachable_nodes(g.root):
            _null_root(n)
        g.null_forests = True


# --- the forest walk ---------------------------------------------------------

def _payload_root(red: Reduction) -> FNode:
    """Root of the forest a pairing reduction pairs against: its payload,
    or a pair-left-null's node's empty-word root (_null_root), memoized on
    the node, which no later parse resets (see grammar.Grammar), so a kept
    walk sees the same forest as every later _apply."""
    payload = red.payload
    if red.kind is PAIR_LEFT_NULL:
        return _null_root(payload)
    return payload


def _payload_roots(red: Reduction) -> dict:
    """{root: occurrences} of every forest reduction `red` references (see
    _payload_root): each distinct root once, in the order of its first use
    in the chain, the last part's first, with how many pairings of `red`
    pair against it.  Parts whose `pairs` bit is false reference no forest,
    so the walk never enters them: a composed chain is read only down to
    its pairings, and one that pairs nothing not at all."""
    out: dict = {}
    if not red.pairs:
        return out
    stack = [red]
    while stack:
        r = stack.pop()
        k = r.kind
        if k is COMPOSE:
            parts = r.payload
            if len(parts) == 2:
                # pushed in order, so the part applied first is read first
                g, f = parts
                if g.pairs:
                    stack.append(g)
                if f.pairs:
                    stack.append(f)
            else:
                # a chain's roots come before those of the rest of the
                # stack.  Counter counts its occurrences of each distinct
                # part in C, in the order of first use; each distinct part
                # is read once, and its roots' occurrences count once per
                # occurrence of the part
                for g, times in Counter(reversed(parts)).items():
                    if g.pairs:
                        for root, e in _payload_roots(g).items():
                            out[root] = out.get(root, 0) + e * times
        elif k in reductions.LIFTS:
            stack.append(r.payload)
        else:
            root = _payload_root(r)
            out[root] = out.get(root, 0) + 1
    return out


def _visit(n: FNode) -> tuple:
    """(n, its children, their occurrences): an entry of _postorder.  A
    deferred node's children are its inner forest, then each distinct root
    its reduction pairs against once (see _payload_roots).  Where some
    root is used more than once, the third item is the {root: occurrences}
    the roots came from; otherwise every child counts once, and it is
    None.  A reduction that pairs nothing, or is one pairing, the
    commonest that pairs, builds no dict."""
    k = n.kind
    if k == PAIR:
        return n, (n.left, n.right), None
    if k == AMB:
        return n, tuple(n.children or ()), None
    if k != DEFER:
        return n, (), None
    red = n.red
    if not red.pairs:
        return n, (n.left,), None
    if red.kind in PAIRINGS:
        return n, (n.left, _payload_root(red)), None
    roots = _payload_roots(red)
    return (n, (n.left, *roots),
            roots if len(roots) < sum(roots.values()) else None)


def _postorder(root: FNode) -> list:
    """Every node reachable from `root` once, as (node, children,
    occurrences) entries in depth-first postorder (see _visit); the only
    forest walk, every consumer folds over it, through _walk.  A child that
    does not come before its parent is a back edge, so the forest is cyclic
    exactly when some child comes later than its parent."""
    out = []
    seen = {root}
    entry = _visit(root)
    stack = [(entry, iter(entry[1]))]
    while stack:
        entry, it = stack[-1]
        for c in it:
            if c not in seen:
                seen.add(c)
                e = _visit(c)
                stack.append((e, iter(e[1])))
                break
        else:
            stack.pop()
            out.append(entry)
    return out


def _walk(fs: ForestSet) -> list:
    """The postorder of a non-empty forest set (see _postorder), walked by
    the first consumer and kept on the set for the rest, occurrences and
    all: no consumer recounts a chain.  A forest does not change once built,
    and a payload forest is kept on its node (see _payload_root), so the
    kept list is what a new walk would give, however many parses of the
    grammar come in between."""
    order = fs._order
    if order is None:
        order = fs._order = _postorder(fs.root)
    return order


# --- counting ---------------------------------------------------------------

class _Infinite:
    __slots__ = ()

    def __repr__(self) -> str:
        return "Infinite"


INFINITE = _Infinite()


def _mul(a, b):
    if a == 0 or b == 0:
        return 0
    if a is INFINITE or b is INFINITE:
        return INFINITE
    return a * b


def _add(a, b):
    if a is INFINITE or b is INFINITE:
        return INFINITE
    return a + b


def _counts(fs: ForestSet) -> dict:
    """count_parses of every node of a non-empty forest set, by node: one fold
    over the postorder, kept on the set, so a request that counts and then
    enumerates folds once.  An ambiguity node sums its children, every
    other node multiplies them, one multiplication per child.  A deferred
    node's children are its inner forest and each distinct payload root of
    its reduction, which counts once per pairing that uses it: its count
    ** occurrences, a power only a count of 2 or more needs.  So a chain
    as long as the input costs a multiplication per distinct root, not per
    token.  A child not folded yet is a back edge, so a cycle pumps:
    INFINITE."""
    counts = fs._counts
    if counts is None:
        counts = fs._counts = {}
        for n, kids, roots in _walk(fs):
            if n.kind == AMB:
                v = 0
                for c in kids:
                    v = _add(v, counts.get(c, INFINITE))
            elif roots is None:
                v = 1
                for c in kids:
                    v = _mul(v, counts.get(c, INFINITE))
            else:  # the inner forest, then each payload root's power
                v = _mul(1, counts.get(n.left, INFINITE))
                for c, e in roots.items():
                    d = counts.get(c, INFINITE)
                    if e > 1 and d is not INFINITE and d > 1:
                        d **= e
                    v = _mul(v, d)
            counts[n] = v
    return counts


def count_parses(fs: ForestSet):
    """How many distinct trees the forest denotes; INFINITE for cyclic pumps.

    One fold over the postorder, linear in forest size (see _counts).
    """
    root = fs.root
    if root is None:
        return 0
    return _counts(fs)[root]


# --- enumeration ------------------------------------------------------------

def _dedup(trees):
    return list(dict.fromkeys(trees))


class _Side:
    """The frame of _apply that pairs a lifted component, once its
    reduction has run, with the component it was lifted out of.  Its kind
    is itself, so _apply dispatches frames and reductions alike."""

    __slots__ = ("kind",)

    def __init__(self):
        self.kind = self


_LEFT, _RIGHT = _Side(), _Side()


def _tree(t):
    """The tree a cell of _apply stands for: every tuple inside `t` becomes
    a Pair, built bottom-up by a work stack (lifts nest cells as deep as
    the input); a tree is itself."""
    if type(t) is not tuple:
        return t
    built = []
    todo = [t]
    while todo:
        c = todo.pop()
        if c is None:  # both halves built: pair them
            right = built.pop()
            built[-1] = Pair(built[-1], right)
        elif type(c) is tuple:
            todo += (None, c[1], c[0])
        else:
            built.append(c)
    return built[0]


def _halves(t):
    """The (left, right) halves of a cell or of a table Pair; None for any
    other tree."""
    if type(t) is tuple:
        return t
    if type(t) is Pair:
        return t.left, t.right
    return None


def _apply(red: Reduction, t, table) -> list:
    """Every tree `red` maps `t` to, in order; finding repeats is left to
    the caller.

    A work stack stands in for recursion, so composed and lifted chains may
    nest arbitrarily deep.  Each entry is a value and the frames still to
    run on it, a linked list of (frame, rest) pairs; a frame is a reduction
    to apply next, or _LEFT / _RIGHT followed by the stored component to
    pair the result with.  A pairing whose payload list holds one tree pairs
    in place; one with more branches, one entry per payload tree.

    The pairs a chain makes on its way are cells, builtin (left, right)
    tuples: not trees, never hashed.  Lifts, reassociate, production,
    splice and fold-left take a cell or a table Pair apart alike.  A cell
    becomes a tree (see _tree) only where it escapes the chain: as a
    production's child, as a splice's head or a fold's base, or as a tree
    `red` maps `t` to.  So a production over the spine that pairings and
    reassociations built reads its children straight out of the cells, and
    a chain builds only the trees it leaves behind.  A fold-left walks its
    tail of productions in a loop, one production per step, down to the
    childless one.

    Frames dispatch on the kind by identity (Reduction keeps one string per
    kind), most frequent kind first.  A lift of a non-pair raises, as
    count_parses would disagree with skipping it.
    """
    out = []
    work = [(t, (red, None))]
    while work:
        t, frames = work.pop()
        while frames is not None:
            f, frames = frames
            k = f.kind
            if k is COMPOSE:
                for g in f.payload:
                    frames = (g, frames)
            elif k is _LEFT:
                other, frames = frames
                t = (t, other)
            elif k is LIFT_LEFT and (halves := _halves(t)):
                t, right = halves
                frames = (f.payload, (_LEFT, (right, frames)))
            elif k is PAIR_LEFT or k is PAIR_LEFT_NULL or k is PAIR_RIGHT:
                trees = table[_payload_root(f)]
                right = k is PAIR_RIGHT
                if len(trees) == 1:
                    t = (t, trees[0]) if right else (trees[0], t)
                    continue
                work += [((t, s) if right else (s, t), frames)
                         for s in reversed(trees)]
                break
            elif k is SPLICE:
                halves = _halves(t)
                if halves and type(halves[1]) is Prod:
                    head, rest = halves
                    t = Prod(rest.name, (_tree(head),) + rest.children)
            elif k is _RIGHT:
                other, frames = frames
                t = (other, t)
            elif k is LIFT_RIGHT and (halves := _halves(t)):
                left, t = halves
                frames = (f.payload, (_RIGHT, (left, frames)))
            elif k is PRODUCTION:
                name, arity = f.payload
                parts = []
                cur = t
                while len(parts) < arity - 1 and (halves := _halves(cur)):
                    part, cur = halves
                    parts.append(part)
                parts.append(cur)
                if len(parts) != arity:
                    parts = [t]
                t = Prod(name, tuple(map(_tree, parts)))
            elif k is REASSOCIATE:
                halves = _halves(t)
                inner = halves and _halves(halves[1])
                if inner:
                    t = ((halves[0], inner[0]), inner[1])
            elif k is FOLD_LEFT:
                halves = _halves(t)
                if halves and type(halves[1]) is Prod:
                    t, step = halves
                    t = _tree(t)
                    while step.children:
                        t = Prod(step.name, (t,) + step.children[:-1])
                        step = step.children[-1]
            else:
                raise ValueError(f"cannot apply {k!r} to a {type(t).__name__}")
        else:
            out.append(_tree(t))
    return out


def _trees(n: FNode, table: dict, d: int, strict: bool) -> list:
    """The first `d` distinct trees of `n`, built from its children's lists
    in `table` (a child with no list gives none).  When `strict`, the first
    repeated tree ends the list, short of `d`, instead of being skipped."""
    k = n.kind
    if k == DEFER:
        red = n.red
        cands = (u for t in table[n.left] for u in _apply(red, t, table))
    elif k == AMB:
        cands = (t for c in n.children for t in table.get(c, ()))
    elif k == PAIR:  # pairs of distinct trees never repeat
        right = table[n.right]
        return list(itertools.islice(
            (Pair(a, b) for a in table[n.left] for b in right), d))
    elif k == LEAF:
        return [Leaf(n.label)]
    else:  # PROD: always childless, an empty alternative
        return [Prod(n.label, ())]
    out: dict = {}
    for t in cands:
        if t not in out:
            out[t] = None
            if len(out) == d:
                break
        elif strict:
            break
    return list(out)


def _demands(order: list, counts: dict, k: int) -> dict:
    """How many trees each node of an acyclic postorder must give for its
    root to give its first k, by node; a node none of those trees goes
    through is absent.  Every count read is finite: the root's is, so every
    demanded node's and its children's are.

    Parents come before children in reverse postorder, so a node's demand,
    the largest any parent asks of it, is final when it is reached.  An
    ambiguity node asks its children in order for as many trees as they
    have, until its demand is met.  A pair or deferred node lists the
    product of its children's lists, the last child varying fastest: each
    later child (the pair's right half, the reduction's payload roots) is
    asked for min(k, its count) trees, the first (the left half, the inner
    forest) for enough that the product reaches k.  A payload root that e
    pairings pair against multiplies the product by d ** e, with e capped
    at k's bit length: past it, d ** e already exceeds k when d >= 2.
    """
    want = {order[-1][0]: k}
    asked = want.get
    for n, kids, roots in reversed(order):
        k = asked(n)
        if not k or not kids:
            continue
        if n.kind == AMB:
            for c in kids:
                d = counts[c]
                if d:
                    if d > k:
                        d = k
                    if asked(c, 0) < d:
                        want[c] = d
                    k -= d
                    if not k:
                        break
            continue
        per_tree = 1  # the later children's demands multiplied, until >= k
        for c in kids[1:]:
            d = counts[c]
            if d > k:
                d = k
            if asked(c, 0) < d:
                want[c] = d
            if per_tree < k:
                per_tree *= (d if roots is None
                             else d ** min(roots[c], k.bit_length()))
        c = kids[0]
        d = -(-k // per_tree)
        if asked(c, 0) < d:
            want[c] = d
    return want


def _full_fold(order: list, limit: int) -> list:
    """The root's first `limit` trees when every node's demand is `limit`:
    each node gets a list of up to `limit` trees, on an acyclic forest in
    one pass.

    A cyclic forest repeats the pass.  A back edge reads its child's list
    from the previous pass (empty before the first), so pass p can reach
    trees that go over back edges up to p - 1 times on a path from the root.
    Each pass keeps a node's trees and appends its new ones after them, so
    trees that go round cycles fewer times come first, and an infinitely
    ambiguous forest yields its least-pumped trees.  Lists only grow and
    hold at most `limit` trees, so the passes stop when the root holds
    `limit` trees, when a pass adds no tree anywhere, or after one pass per
    tree the table can hold.
    """
    root = order[-1][0]
    table: dict = {}
    cyclic = False
    for n, kids, _ in order:  # a child not in the table yet is a back edge
        cyclic = cyclic or any(c not in table for c in kids)
        table[n] = []
    size = 0
    for _ in range(len(order) * limit):
        for n, _, _ in order:
            old = table[n]
            new = _trees(n, table, limit, False)
            table[n] = _dedup(old + new)[:limit] if old else new
        if not cyclic or len(table[root]) >= limit:
            break
        grown = sum(map(len, table.values()))
        if grown == size:
            break
        size = grown
    return table[root]


def _fill(t, leaves: list, memo: dict):
    """Tree t with its i-th leaf, in frontier order, leaves[i].  Rebuilt
    bottom-up by a work stack, on which a pair (node, place of its first
    leaf) holds a node whose children are built.  The trees of one
    enumeration share subtrees, and a subtree filled from one place is
    filled alike wherever it recurs there: `memo` keeps each, keyed by
    its identity and that place, with the place after its last leaf."""
    built = []
    todo = [t]
    i = 0
    while todo:
        x = todo.pop()
        if type(x) is tuple:
            x, start = x
            if type(x) is Pair:
                right = built.pop()
                y = built[-1] = Pair(built[-1], right)
            else:
                k = len(built) - len(x.children)
                y = Prod(x.name, tuple(built[k:]))
                del built[k:]
                built.append(y)
            memo[id(x), start] = y, i
        elif type(x) is Leaf:
            built.append(leaves[i])
            i += 1
        elif (hit := memo.get((id(x), i))) is not None:
            y, i = hit
            built.append(y)
        elif type(x) is Pair:
            todo += ((x, i), x.right, x.left)
        elif x.children:
            todo.append((x, i))
            todo += reversed(x.children)
        else:
            built.append(x)
    return built[0]


def enumerate_trees(fs: ForestSet, limit: int) -> list:
    """Up to `limit` distinct fully resolved trees, deterministically ordered.

    A bottom-up fold over the postorder fills a table of trees per node.
    An ambiguity node lists its children's trees in stored child order, the
    order the engine built the alternatives: the grammar's alternative
    order, with the branch that extends the left half of a nullable
    concatenation first.  A pair or deferred node lists the product of its
    children's trees, the left half or inner forest varying slowest.  The
    order depends on neither node addresses nor hash seeds, so it is stable
    across runs.  For a finite forest it is the same under every switch
    but one case: a compacting parse derives a directly left-recursive
    rule through its twin (see loader), which lists the trees that split
    an input between the rule's base and its left-recursive steps in more
    than one way longest base first, where the rule as written lists them
    in its alternatives' order.  All its trees and their count are the
    same.  An infinite forest follows the cycles the engine built, which
    compaction changes, twin or not: N0 : 'b' 'b' | N0 N1 N0 | N1 N1 ;
    N1 : N0 | 'a' 'c' | ; on b b a c lists different first trees.

    The fold builds only the trees the root's first `limit` need.  A demand
    pass, reading each node's count (the fold count_parses makes, kept on
    the set), gives every node the number of trees its parents take from it
    (see _demands); the fold fills a list only for nodes with a demand, and
    stops each list at that many distinct trees.  The cost follows the
    trees returned, not the forest: the first tree of an ambiguous forest
    builds one tree per node on one path of alternatives.

    Every node gets demand `limit`, and the whole forest is folded as in
    _full_fold, in three cases: the root's count is infinite (a cycle
    pumps, and the demands would be unbounded); it is 0 (nothing would be
    demanded, yet the reductions must still run, so that a lift of a tree
    that is not a pair raises); or some list comes up short of its demand
    or repeats a tree.  Exact counts rule the last out, and the engine's
    are exact; a hand-built forest that holds one tree twice is counted
    twice.  Where both folds run, they give the same trees in the same
    order.

    A set that keeps its tokens (see ForestSet) has its trees' leaves
    filled from them once the trees are picked (_fill).  A tree's frontier
    is its input, so trees that differ only in the leaves filled are equal:
    filling changes neither their number nor their order.
    """
    root = fs.root
    if root is None or limit <= 0:
        return []
    order = _walk(fs)
    counts = _counts(fs)
    total = counts[root]
    trees = None
    if total is not INFINITE and total:
        want = _demands(order, counts, min(total, limit))
        table: dict = {}
        for n, _, _ in order:
            d = want.get(n)
            if d:
                got = table[n] = _trees(n, table, d, True)
                if len(got) < d:
                    break
        else:
            trees = table[root]
    if trees is None:
        trees = _full_fold(order, limit)
    if fs.tokens is None:
        return trees
    leaves = list(map(Leaf, fs.tokens))
    memo: dict = {}
    return [_fill(t, leaves, memo) for t in trees]


# --- serialization ----------------------------------------------------------

def forest_to_json(fs: ForestSet) -> dict:
    """Nodes listed once, in postorder (see _postorder), each with its
    position in the list as its id; edges by id.  Every child is listed
    before its parent but over a back edge, which only a cyclic forest has,
    and the root is listed last.  The ids follow from the forest's shape
    alone, so equal forests export equal JSON.

    Deferred nodes list their inner forest first, then each distinct root
    of a forest their reduction pairs against once, in the order of first
    use (see _payload_roots).  The label is the reduction described with
    each pairing naming its payload root by id (pair-left@2), so the export
    alone rebuilds every tree, and a chain's many pairings with one forest
    cost one edge.  A set that keeps its tokens (see ForestSet) exports
    them as "tokens", and its leaves as they read: a tree's i-th leaf, in
    frontier order, is the i-th token.
    """
    root = fs.root
    if root is None:
        return {"root": None, "nodes": []}
    order = _walk(fs)
    ids = {n: i for i, (n, _, _) in enumerate(order)}
    texts: dict = {}

    def payload_id(red: Reduction) -> int:
        return ids[_payload_root(red)]

    out = [{
        "id": i,
        "kind": n.kind,
        "label": (n.red.describe(texts, payload_id) if n.kind == DEFER
                  else n.label),
        "children": [ids[c] for c in kids],
    } for i, (n, kids, _) in enumerate(order)]
    doc = {"root": len(out) - 1, "nodes": out}
    if fs.tokens is not None:
        doc["tokens"] = list(fs.tokens)
    return doc
