"""Shared parse forests: compact tree-set values and their consumers.

A forest node denotes a set of parse trees:

  leaf   one token leaf
  pair   the cross product of two child sets (one node, not |A|x|B|)
  prod   a named production with no children (an empty alternative)
  amb    the union of the child sets
  defer  an unapplied Reduction over a child set

Forests may be cyclic (a cyclic grammar parse can denote infinitely many
trees).  One iterative, cycle-aware postorder walk serves every consumer:
counting, enumeration and JSON export are folds over it.  The first
consumer to walk a ForestSet keeps the postorder on it, so a request that
counts, enumerates and exports walks the forest once.  A deferred node's
children include its reduction's payload forests; the walk reads only the
reduction parts whose `pairs` bit says they reference one.
parse_null extracts the forest of empty-word parses from a grammar node,
registering a forest shell before a node's children so a cycle re-enters it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from . import grammar as _g
from . import reductions
from .nullability import is_nullable
from .reductions import Reduction


# --- resolved trees ---------------------------------------------------------

# Pair and Prod hash once, when built: enumeration dedups whole trees, and an
# uncached dataclass hash would walk the subtree on every lookup.

@dataclass(frozen=True)
class Leaf:
    label: str


@dataclass(frozen=True)
class Pair:
    left: object
    right: object

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.left, self.right)))

    def __hash__(self) -> int:
        return self._hash


@dataclass(frozen=True)
class Prod:
    name: str
    children: tuple

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.name, self.children)))

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

_fnode_ids = itertools.count(1)


class FNode:
    __slots__ = ("id", "kind", "label", "left", "right", "children", "red",
                 "in_progress", "leaked")

    def __init__(self, kind: str):
        self.id = next(_fnode_ids)
        self.kind = kind
        self.label = None
        self.left = None
        self.right = None
        self.children = None
        self.red = None
        self.in_progress = False
        self.leaked = False

    def __repr__(self) -> str:
        return f"<{self.kind}@{self.id}>"


def leaf_node(label: str) -> FNode:
    n = FNode(LEAF)
    n.label = label
    return n


def amb_node(children: list) -> FNode:
    n = FNode(AMB)
    n.children = list(children)
    return n


def defer_node(red: Reduction, inner: FNode) -> FNode:
    n = FNode(DEFER)
    n.red = red
    n.left = inner
    return n


class ForestSet:
    """A set of parse trees, represented by one forest root (or none).

    `_order` is the forest's postorder, kept by the first consumer that
    walks it (see _walk)."""

    __slots__ = ("root", "_order")

    def __init__(self, root: Optional[FNode] = None):
        self.root = root
        self._order = None

    def is_empty(self) -> bool:
        return self.root is None

    def union(self, other: "ForestSet") -> "ForestSet":
        a, b = self.root, other.root
        if a is None:
            return other
        if b is None or a is b:
            return self
        items = _alternatives((a, b))
        return ForestSet(items[0] if len(items) == 1 else amb_node(items))

    def apply(self, red: Reduction) -> "ForestSet":
        if self.root is None:
            return EMPTY_SET
        return ForestSet(defer_node(red, self.root))

    @staticmethod
    def single_leaf(label: str) -> "ForestSet":
        return ForestSet(leaf_node(label))

    def __repr__(self) -> str:
        return f"ForestSet({self.root!r})"


EMPTY_SET = ForestSet(None)
_g.SHARED_EMPTY.pn_memo = EMPTY_SET  # so parse_null never writes to it


def _alternatives(roots) -> list:
    """The distinct alternatives a union of forest roots (None for an empty
    set) offers, in order: a finished ambiguity node gives its children, any
    other root itself.  A root still under construction is marked leaked, so
    it stays a node."""
    out: dict = {}
    for r in roots:
        if r is None:
            continue
        if r.kind == AMB and not r.in_progress:
            out.update(dict.fromkeys(r.children))
        else:
            if r.in_progress:
                r.leaked = True
            out[r] = None
    return list(out)


# --- empty-word extraction --------------------------------------------------

def parse_null(node) -> ForestSet:
    """The forest of parses of the empty word at a grammar node.

    Memoized on the node.  Cyclic grammars are handled shell-first: a
    forest shell is registered before children are extracted, so a cycle
    re-entry picks up the shell.  Non-nullable
    nodes short-circuit to the empty set, which prunes cycles that would
    otherwise denote zero finite trees.
    """
    memo = node.pn_memo
    if memo is not None:
        r = memo.root
        if r is not None and r.in_progress:
            r.leaked = True
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
            if form == _g.EMPTY or form == _g.TOKEN or not is_nullable(n):
                n.pn_memo = EMPTY_SET
                continue
            if form == _g.ALT:
                shell = FNode(AMB)
            elif form == _g.SEQ:
                shell = FNode(PAIR)
            else:  # RED
                shell = FNode(DEFER)
                shell.red = n.fn
            shell.in_progress = True
            n.pn_memo = ForestSet(shell)
            work.append((COMBINE, n))
            if form == _g.RED:
                work.append((ENTER, n.left))
            else:
                work.append((ENTER, n.right))
                work.append((ENTER, n.left))
        else:
            shell = n.pn_memo.root
            form = n.form
            if form == _g.ALT:
                items = _alternatives((n.left.pn_memo.root,
                                       n.right.pn_memo.root))
                if not items:
                    n.pn_memo = EMPTY_SET
                elif len(items) == 1 and not shell.leaked:
                    n.pn_memo = ForestSet(items[0])
                else:
                    shell.children = items
                    shell.in_progress = False
            else:  # SEQ, RED: no trees unless every child has some
                kids = (n.left, n.right) if form == _g.SEQ else (n.left,)
                roots = [k.pn_memo.root for k in kids]
                if None in roots:
                    n.pn_memo = EMPTY_SET
                    continue
                for r in roots:
                    if r.in_progress:
                        r.leaked = True
                shell.left = roots[0]
                shell.right = roots[1] if form == _g.SEQ else None
                shell.in_progress = False
    return node.pn_memo


# --- the forest walk ---------------------------------------------------------

# Stands in for an empty payload forest.  The engine never builds one (pair
# payloads are epsilon results, which are never empty, and a null-pairing
# payload is a nullable node, whose parse_null is never empty), but a
# reduction built by hand may carry one: as an edge it makes the deferred
# node count 0 and enumerate nothing, as the reduction itself does.
_NO_TREES = amb_node([])


def _payload_root(red: Reduction) -> FNode:
    """Root of the forest a pairing reduction pairs against.

    A pair-left-null's forest is forced once and kept on the reduction: its
    node's parse_null memo is reset by the next parse of the grammar, and a
    kept walk must see the same forest as every later _apply."""
    fs = red.payload
    if red.kind == reductions.PAIR_LEFT_NULL:
        fs = red.forced
        if fs is None:
            fs = red.forced = parse_null(red.payload)
    return fs.root or _NO_TREES


def _payload_roots(red: Reduction) -> tuple:
    """Roots of every forest reduction `red` references (lazy ones forced
    once, see _payload_root), in chain order; an empty payload forest is
    _NO_TREES.  Parts whose `pairs` bit is false reference no forest, so the
    walk never enters them: a composed chain is read only down to its
    pairings, and one that pairs nothing not at all."""
    out = []
    stack = [red] if red.pairs else []
    while stack:
        r = stack.pop()
        k = r.kind
        if k == reductions.COMPOSE:
            g, f = r.payload
            if g.pairs:
                stack.append(g)
            if f.pairs:
                stack.append(f)
        elif k in reductions.LIFTS:
            stack.append(r.payload)
        else:
            out.append(_payload_root(r))
    return tuple(out)


def _fchildren(n: FNode) -> tuple:
    k = n.kind
    if k == PAIR:
        return (n.left, n.right)
    if k == AMB:
        return tuple(n.children or ())
    if k == DEFER:
        return (n.left,) + _payload_roots(n.red)
    return ()


def _postorder(root: FNode) -> list:
    """Every node reachable from `root` once, as (node, children) pairs in
    depth-first postorder; the only forest walk, every consumer folds over
    it, through _walk.  A child that does not come before its parent is a
    back edge, so the forest is cyclic exactly when some child comes later
    than its parent."""
    out = []
    seen = {root.id}
    kids = _fchildren(root)
    stack = [(root, kids, iter(kids))]
    while stack:
        n, kids, it = stack[-1]
        for c in it:
            if c.id not in seen:
                seen.add(c.id)
                ck = _fchildren(c)
                stack.append((c, ck, iter(ck)))
                break
        else:
            stack.pop()
            out.append((n, kids))
    return out


def _walk(fs: ForestSet) -> list:
    """The postorder of a non-empty forest set, walked by the first consumer
    and kept on the set for the rest.  A forest does not change once built,
    and a payload forest a walk forces is kept on its reduction (see
    _payload_root), so the kept list is what a new walk would give, however
    many parses of the grammar come in between."""
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


def count_parses(fs: ForestSet):
    """How many distinct trees the forest denotes; INFINITE for cyclic pumps.

    One fold over the postorder, linear in forest size: an ambiguity node
    sums its children, every other node multiplies them (a deferred node's
    children are its inner forest and its reduction's payload forests).  A
    child not folded yet is a back edge, so a cycle pumps: INFINITE.
    """
    root = fs.root
    if root is None:
        return 0
    counts: dict = {}
    for n, kids in _walk(fs):
        if n.kind == AMB:
            v = 0
            for c in kids:
                v = _add(v, counts.get(c.id, INFINITE))
        else:
            v = 1
            for c in kids:
                v = _mul(v, counts.get(c.id, INFINITE))
        counts[n.id] = v
    return counts[root.id]


# --- enumeration ------------------------------------------------------------

def _dedup(trees):
    return list(dict.fromkeys(trees))


_LEFT, _RIGHT = "left", "right"


def _apply(red: Reduction, t, table) -> list:
    """Every tree `red` maps `t` to, in order and without duplicates.

    A work stack stands in for recursion, so composed and lifted chains may
    nest arbitrarily deep.  Each entry is a tree and the frames still to run
    on it, a linked list of (frame, rest) pairs; a frame is a reduction to
    apply next, or (_LEFT, right) / (_RIGHT, left) to pair the result with a
    stored component.  A pairing branches over its payload's trees.  A lift
    of a non-pair raises, as count_parses would disagree with skipping it.
    """
    out = []
    work = [(t, (red, None))]
    while work:
        t, frames = work.pop()
        while frames is not None:
            f, frames = frames
            if type(f) is tuple:
                side, other = f
                t = Pair(t, other) if side is _LEFT else Pair(other, t)
                continue
            k = f.kind
            if k == reductions.COMPOSE:
                g, h = f.payload
                frames = (h, (g, frames))
            elif k == reductions.LIFT_LEFT and isinstance(t, Pair):
                frames = (f.payload, ((_LEFT, t.right), frames))
                t = t.left
            elif k == reductions.LIFT_RIGHT and isinstance(t, Pair):
                frames = (f.payload, ((_RIGHT, t.left), frames))
                t = t.right
            elif k == reductions.REASSOCIATE:
                if isinstance(t, Pair) and isinstance(t.right, Pair):
                    t = Pair(Pair(t.left, t.right.left), t.right.right)
            elif k == reductions.PRODUCTION:
                name, arity = f.payload
                parts = []
                cur = t
                while len(parts) < arity - 1 and isinstance(cur, Pair):
                    parts.append(cur.left)
                    cur = cur.right
                parts.append(cur)
                if len(parts) != arity:
                    parts = [t]
                t = Prod(name, tuple(parts))
            elif k == reductions.SPLICE:
                if isinstance(t, Pair) and isinstance(t.right, Prod):
                    t = Prod(t.right.name, (t.left,) + t.right.children)
            elif k in reductions.PAIRINGS:
                trees = reversed(table[_payload_root(f).id])
                if k == reductions.PAIR_RIGHT:
                    work += [(Pair(t, s), frames) for s in trees]
                else:
                    work += [(Pair(s, t), frames) for s in trees]
                break
            else:
                raise ValueError(f"cannot apply {k!r} to a {type(t).__name__}")
        else:
            out.append(t)
    return _dedup(out)


def _combine(n: FNode, table: dict, limit: int) -> list:
    """Up to `limit` trees of `n`, built from its children's lists in
    `table`."""
    k = n.kind
    if k == LEAF:
        return [Leaf(n.label)]
    if k == PROD:  # always childless: an empty alternative
        return [Prod(n.label, ())]
    # a product keeps its first 4 * limit combinations, before deduplication
    if k == PAIR:
        left, right = table[n.left.id], table[n.right.id]
        pairs = (Pair(a, b) for a in left for b in right)
        return _dedup(itertools.islice(pairs, limit * 4))[:limit]
    if k == AMB:
        out = []
        for c in n.children:
            out.extend(table[c.id])
        return _dedup(out)[:limit]
    # DEFER
    out = []
    for t in table[n.left.id]:
        out.extend(_apply(n.red, t, table))
        if len(out) >= limit * 4:
            break
    return _dedup(out)[:limit]


def enumerate_trees(fs: ForestSet, limit: int) -> list:
    """Up to `limit` distinct fully resolved trees, deterministically ordered.

    One bottom-up fold over the postorder fills a table of up to `limit`
    trees per node.  An ambiguity node lists its children's trees in stored
    child order, the order the engine built the alternatives: the grammar's
    alternative order, with the branch that extends the left half of a
    nullable concatenation first.  The order depends on neither node ids nor
    hash seeds nor the engine switches, so it is stable across runs and the
    same under every switch.  An acyclic forest takes one pass, which gives
    the exact first `limit` trees in that order.

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
    root = fs.root
    if root is None or limit <= 0:
        return []
    order = _walk(fs)
    table: dict = {}
    cyclic = False
    for n, kids in order:  # a child not in the table yet is a back edge
        cyclic = cyclic or any(c.id not in table for c in kids)
        table[n.id] = []
    size = 0
    for _ in range(len(order) * limit):
        for n, _ in order:
            old = table[n.id]
            new = _combine(n, table, limit)
            table[n.id] = _dedup(old + new)[:limit] if old else new
        if not cyclic or len(table[root.id]) >= limit:
            break
        grown = sum(map(len, table.values()))
        if grown == size:
            break
        size = grown
    return table[root.id]


# --- serialization ----------------------------------------------------------

def forest_to_json(fs: ForestSet) -> dict:
    """Nodes listed once (ordered by id), edges by id; cycles are fine.

    Deferred nodes list their inner forest first, then the roots of any
    forest their reduction's payload references.
    """
    root = fs.root
    if root is None:
        return {"root": None, "nodes": []}
    out = []
    for n, kids in sorted(_walk(fs), key=lambda p: p[0].id):
        out.append({
            "id": n.id,
            "kind": n.kind,
            "label": n.red.describe() if n.kind == DEFER else n.label,
            "children": [c.id for c in kids],
        })
    return {"root": root.id, "nodes": out}
