"""The closed algebra of tree rewrites carried by reduction nodes.

A reduction is a tag plus a payload, never an opaque Python callable: the
forest layer interprets tags when trees are finally materialized.  Every tag
either maps trees one to one or pairs them against a payload forest, so a
reduction multiplies a distinct-tree count by its payload forests' counts,
and counting never runs it.  Compaction composes and floats reductions, so
the set of tags must be closed under those rewrites; that is why the two
lift tags exist (floating a reduction out of one side of a concatenation
applies it to just that pair component).  The loader's left factoring needs
splice: a group of alternatives that share a first symbol parses as
(head, tree of one rest), and splice puts the head back in front of that
production's children, so the trees are those of the unfactored rule.
The loader's right-recursive twin of a left-recursive rule needs
fold-left, which turns a base tree and a tail of productions back into
the left spine the rule as written builds.  A parse of a grammar with a
wildcard reads some tokens' leaves as '.' (see derivation), and puts its
input on top: input maps a tree to the tree whose i-th leaf, in frontier
order, is the i-th token, and the forest set that parse_null makes of it
keeps the tokens for its consumers, which fill the leaves (see
forest.ForestSet).

A compose holds k >= 2 parts, payload[0] applied last (compose).
Compaction's red-compose builds binary ones, which the cyclic fallback
nests as deep as the input, so readers stream them.  A parse keeps the
reductions it peels off its derivatives, one per token, as one flat
chain, whose parts are the reductions of memoized derivatives and so
recur.  Inside a parse, equal reductions built from the same parts are
one object (grammar._shared_red), so a chain as long as the input holds a
handful of distinct parts, and a reader of a chain reads each distinct
part once, through a memo keyed by identity.  describe renders each once
and joins their texts, one lookup per occurrence.  The forest walk
(forest._payload_roots) counts the chain's occurrences of each part in C
and keeps each payload root once, with its number of pairings, so the
forest's walk, count and export edges cost a step per distinct root, not
per token.

Only the pairing tags reference forests: a pair-left's or pair-right's
payload is a forest root, a pair-left-null's a grammar node whose
empty-word forest is read when the trees are.  A composed chain runs as
long as the input, so each reduction carries a `pairs` bit:
true for a pairing, taken from the parts for a compose or lift, false for
every other tag.  It is set once, in the constructor, from the parts' bits
(no walk), and forest walks skip every part whose bit is false.
"""

from __future__ import annotations

from typing import Callable, Optional

PAIR_LEFT = "pair-left"            # u -> (s, u) for each tree s of a forest root
PAIR_RIGHT = "pair-right"          # u -> (u, s)
PAIR_LEFT_NULL = "pair-left-null"  # like pair-left, the forest taken lazily from a node's empty-word parses
REASSOCIATE = "reassociate"        # (t1, (t2, t3)) -> ((t1, t2), t3)
PRODUCTION = "production"          # right-nested tuple of k children -> named production tree
SPLICE = "splice"                  # (h, N[k1 .. kn]) -> N[h k1 .. kn]
FOLD_LEFT = "fold-left"            # (b, N[a1 .. N[a2 .. []]]) -> N[N[b a1 ..] a2 ..]
COMPOSE = "compose"                # parts[0] after parts[1] ... after parts[k-1]
LIFT_LEFT = "lift-left"            # (u1, u2) -> (f(u1), u2)
LIFT_RIGHT = "lift-right"          # (u1, u2) -> (u1, f(u2))
INPUT = "input"                    # the i-th leaf, in frontier order -> a leaf of the i-th token


PAIRINGS = frozenset((PAIR_LEFT, PAIR_RIGHT, PAIR_LEFT_NULL))
LIFTS = frozenset((LIFT_LEFT, LIFT_RIGHT))
# each kind's one string object, so the forest layer tests kinds by identity
_KINDS = {k: k for k in (PAIR_LEFT, PAIR_RIGHT, PAIR_LEFT_NULL, REASSOCIATE,
                         PRODUCTION, SPLICE, FOLD_LEFT, COMPOSE, LIFT_LEFT,
                         LIFT_RIGHT, INPUT)}

# shared, not built per use: lift chains run tens of thousands deep
_LIFT_OPEN = {LIFT_LEFT: f"{LIFT_LEFT}(", LIFT_RIGHT: f"{LIFT_RIGHT}("}


class Reduction:
    """A tag and its payload; `pairs` says whether a payload forest is
    referenced anywhere in it (see the module docstring).  A compose of
    more than two parts is a chain.  A tag equal to one of the module's is
    stored as the module's own string."""

    __slots__ = ("kind", "payload", "pairs")

    def __init__(self, kind: str, payload=None):
        self.kind = kind = _KINDS.get(kind, kind)
        self.payload = payload
        if kind == COMPOSE:
            # most composes are binary, and built often: the parts after
            # the second are read only when the first two pair nothing
            self.pairs = (payload[0].pairs or payload[1].pairs
                          or len(payload) > 2
                          and any([f.pairs for f in payload[2:]]))
        elif kind in LIFTS:
            self.pairs = payload.pairs
        else:
            self.pairs = kind in PAIRINGS

    def describe(self, memo: Optional[dict] = None,
                 payload_name: Optional[Callable] = None) -> str:
        """The reduction as text.  A compose is written as the flat list of
        its parts, so equal reductions, however grouped, read the same.
        `memo`, kept by the caller across calls, holds the text of every
        lift, every other non-compose part and every part of a chain, by
        identity, so a part shared between chains or repeated in one is
        rendered once; a chain's text joins its parts' texts.  With
        `payload_name`, a pairing is written with the name it gives the
        pairing's payload, `pair-left@NAME`; a memo serves one naming."""
        if memo is None:
            memo = {}
        # compositions nest as deep as the input is long: no recursion
        parts = []
        stack = [self]
        while stack:
            r = stack.pop()
            t = type(r)
            if t is str:
                parts.append(r)
            elif t is tuple:
                # the end of a lift's text, which starts at parts[start]
                lift, start = r
                text = memo[lift] = "".join(parts[start:])
                del parts[start:]
                parts.append(text)
            elif r.kind is COMPOSE:
                ps = r.payload
                if len(ps) == 2:
                    stack += (ps[1], " . ", ps[0])
                else:  # a chain: each distinct part rendered once
                    for p in dict.fromkeys(ps):
                        if p not in memo:
                            memo[p] = p.describe(memo, payload_name)
                    parts.append(" . ".join(map(memo.__getitem__, ps)))
            elif r in memo:
                parts.append(memo[r])
            elif r.kind in _LIFT_OPEN:
                stack += ((r, len(parts)), ")", r.payload)
                parts.append(_LIFT_OPEN[r.kind])
            else:
                k = r.kind
                if k is PRODUCTION:
                    name, arity = r.payload
                    k = f"production:{name}/{arity}"
                elif payload_name is not None and k in PAIRINGS:
                    k = f"{k}@{payload_name(r)}"
                parts.append(k)
                memo[r] = k
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Reduction({self.describe()})"


def pair_left(root) -> Reduction:
    return Reduction(PAIR_LEFT, root)


def pair_right(root) -> Reduction:
    return Reduction(PAIR_RIGHT, root)


def pair_left_null(node) -> Reduction:
    """Pair on the left with `node`'s empty-word parses, looked up lazily.

    Used when deriving a concatenation whose left half is nullable: the left
    half's trees are not known yet (extraction may not even terminate if
    forced eagerly on a cyclic graph), so the node itself is carried.
    """
    return Reduction(PAIR_LEFT_NULL, node)


def input_tokens(tokens, before: Optional[Reduction] = None) -> Reduction:
    """The input reduction of `before`'s tokens, if given, then `tokens`.
    Its payload chains (rest, token) pairs, the last token outermost, so
    one token more costs a pair, not a copy of the input (see
    derivation.derive)."""
    chain = None if before is None else before.payload
    for c in tokens:
        chain = (chain, c)
    return Reduction(INPUT, chain)


def tokens_of(red: Reduction) -> list:
    """The tokens of an input reduction, in order."""
    out = []
    chain = red.payload
    while chain is not None:
        chain, c = chain
        out.append(c)
    out.reverse()
    return out


def reassociate() -> Reduction:
    return _REASSOCIATE


def production(name: str, arity: int) -> Reduction:
    return Reduction(PRODUCTION, (name, arity))


def splice() -> Reduction:
    return _SPLICE


def fold_left() -> Reduction:
    return _FOLD_LEFT


# the tags without a payload are one shared reduction each
_REASSOCIATE, _SPLICE, _FOLD_LEFT = map(Reduction,
                                        (REASSOCIATE, SPLICE, FOLD_LEFT))


def compose(*parts: Reduction) -> Reduction:
    """parts[0] after parts[1] ... after parts[-1]: one compose of k >= 2
    parts, parts[0] applied last, or parts[0] itself when it is the only
    one."""
    if len(parts) == 1:
        return parts[0]
    return Reduction(COMPOSE, parts)


def lift_left(f: Reduction) -> Reduction:
    return Reduction(LIFT_LEFT, f)


def lift_right(f: Reduction) -> Reduction:
    return Reduction(LIFT_RIGHT, f)
