"""Independent checking machinery for the derivative engine.

A BnfGrammar is the flat production view of the same source text the loader
turns into an expression graph, so comparisons here are between algorithms,
not between two hand-written copies of a grammar.

earley_recognize: classic chart recognition (with the nullable-completion
patch, so empty productions are handled).

earley_count: counts distinct derivation trees over chart items (name, i, j).
Same-span unit cycles (an item deriving itself around productions whose other
symbols all span nothing) mean infinitely many trees; those items are found
first by cycle detection and preset to INFINITE, which then propagates
through the counting arithmetic.

enumerate_language: breadth-first expansion of leftmost sentential forms with
minimum-terminal-length pruning; exact for word length <= max_len.  The
wildcard token is treated as a literal here (a wildcard grammar's language
over an open alphabet is not enumerable).
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass

from .forest import INFINITE
from .grammar import WILDCARD


@dataclass(frozen=True)
class Term:
    label: str


@dataclass(frozen=True)
class Ref:
    name: str


class BnfGrammar:
    __slots__ = ("start", "productions")

    def __init__(self, start: str, productions: dict):
        for name, alts in productions.items():
            for rhs in alts:
                for sym in rhs:
                    if isinstance(sym, Ref) and sym.name not in productions:
                        raise ValueError(f"undefined nonterminal {sym.name!r} in {name}")
        if start not in productions:
            raise ValueError(f"undefined start symbol {start!r}")
        self.start = start
        self.productions = productions

    def __repr__(self) -> str:
        return f"BnfGrammar(start={self.start!r}, {len(self.productions)} nonterminals)"


def _match(term: Term, tok: str) -> bool:
    return term.label == tok or term.label == WILDCARD


def earley_recognize(g: BnfGrammar, tokens) -> bool:
    tokens = list(tokens)
    prods = [(name, rhs) for name, alts in g.productions.items() for rhs in alts]
    by_name: dict = {}
    for idx, (name, _) in enumerate(prods):
        by_name.setdefault(name, []).append(idx)
    n = len(tokens)
    charts = [set() for _ in range(n + 1)]

    def closure(i: int) -> None:
        chart = charts[i]
        work = list(chart)
        predicted = set()
        completed_here = set()  # names with a zero-width completion in this set
        while work:
            item = work.pop()
            pi, dot, org = item
            name, rhs = prods[pi]
            if dot == len(rhs):
                if org == i:
                    completed_here.add(name)
                for other in list(charts[org]):
                    pi2, dot2, org2 = other
                    rhs2 = prods[pi2][1]
                    if dot2 < len(rhs2):
                        sym = rhs2[dot2]
                        if isinstance(sym, Ref) and sym.name == name:
                            adv = (pi2, dot2 + 1, org2)
                            if adv not in chart:
                                chart.add(adv)
                                work.append(adv)
            else:
                sym = rhs[dot]
                if isinstance(sym, Ref):
                    nm = sym.name
                    if nm not in predicted:
                        predicted.add(nm)
                        for pj in by_name.get(nm, ()):
                            new = (pj, 0, i)
                            if new not in chart:
                                chart.add(new)
                                work.append(new)
                    if nm in completed_here:
                        adv = (pi, dot + 1, org)
                        if adv not in chart:
                            chart.add(adv)
                            work.append(adv)

    for pj in by_name.get(g.start, ()):
        charts[0].add((pj, 0, 0))
    closure(0)
    for i, tok in enumerate(tokens):
        nxt = charts[i + 1]
        for pi, dot, org in charts[i]:
            rhs = prods[pi][1]
            if dot < len(rhs):
                sym = rhs[dot]
                if isinstance(sym, Term) and _match(sym, tok):
                    nxt.add((pi, dot + 1, org))
        if not nxt:
            return False
        closure(i + 1)
    for pi, dot, org in charts[n]:
        name, rhs = prods[pi]
        if name == g.start and dot == len(rhs) and org == 0:
            return True
    return False


def _add(a, b):
    return INFINITE if INFINITE in (a, b) else a + b


def _mul(a, b):  # no trees times infinitely many is still no trees
    if a == 0 or b == 0:
        return 0
    return INFINITE if INFINITE in (a, b) else a * b


def earley_count(g: BnfGrammar, tokens):
    """Distinct derivation trees for the whole input; INFINITE when a
    zero-width pump makes the set unbounded; 0 when rejected."""
    tokens = list(tokens)
    n = len(tokens)
    alts = g.productions
    names = list(alts)
    spans = [(i, j) for i in range(n + 1) for j in range(i, n + 1)]

    derivable: set = set()

    def seq_reach(rhs, i, j) -> set:
        reach = {i}
        for sym in rhs:
            new = set()
            if isinstance(sym, Term):
                for p in reach:
                    if p < j and _match(sym, tokens[p]):
                        new.add(p + 1)
            else:
                nm = sym.name
                for p in reach:
                    for q in range(p, j + 1):
                        if (nm, p, q) in derivable:
                            new.add(q)
            reach = new
            if not reach:
                break
        return reach

    changed = True
    while changed:
        changed = False
        for name in names:
            for i, j in spans:
                if (name, i, j) in derivable:
                    continue
                for rhs in alts[name]:
                    if j in seq_reach(rhs, i, j):
                        derivable.add((name, i, j))
                        changed = True
                        break

    if (g.start, 0, n) not in derivable:
        return 0

    # same-span dependency edges: N covers (i,j) by one alternative in which
    # a single nonterminal occupies the whole span and everything else spans
    # nothing.  A cycle of such edges pumps unboundedly many distinct trees.
    edges: dict = {}
    for item in derivable:
        name, i, j = item
        outs = set()
        for rhs in alts[name]:
            for k, sym in enumerate(rhs):
                if not isinstance(sym, Ref) or (sym.name, i, j) not in derivable:
                    continue
                pre = all(isinstance(s, Ref) and (s.name, i, i) in derivable
                          for s in rhs[:k])
                suf = all(isinstance(s, Ref) and (s.name, j, j) in derivable
                          for s in rhs[k + 1:])
                if pre and suf:
                    outs.add((sym.name, i, j))
        if outs:
            edges[item] = outs

    cyclic: set = set()
    for item in edges:
        seen: set = set()
        stack = list(edges[item])
        while stack:
            x = stack.pop()
            if x == item:
                cyclic.add(item)
                break
            if x in seen:
                continue
            seen.add(x)
            stack.extend(edges.get(x, ()))

    counts: dict = {}
    seq_memo: dict = {}
    feas: dict = {}

    def rest_ok(rhs, k, q, j) -> bool:
        # can rhs[k:] still span (q, j)?  Checked before recursing so the
        # only same-span re-entries are the edge cycles preset above.
        key = (rhs, k, q, j)
        hit = feas.get(key)
        if hit is None:
            hit = j in seq_reach(rhs[k:], q, j)
            feas[key] = hit
        return hit

    def count_item(name, i, j):
        key = (name, i, j)
        hit = counts.get(key)
        if hit is not None:
            return hit
        if key not in derivable:
            counts[key] = 0
            return 0
        if key in cyclic:
            counts[key] = INFINITE
            return INFINITE
        total = 0
        for rhs in alts[name]:
            total = _add(total, count_seq(rhs, 0, i, j))
        counts[key] = total
        return total

    def count_seq(rhs, k, p, j):
        if k == len(rhs):
            return 1 if p == j else 0
        key = (rhs, k, p, j)
        hit = seq_memo.get(key)
        if hit is not None:
            return hit
        sym = rhs[k]
        if isinstance(sym, Term):
            if p < j and _match(sym, tokens[p]):
                v = count_seq(rhs, k + 1, p + 1, j)
            else:
                v = 0
        else:
            v = 0
            for q in range(p, j + 1):
                if (sym.name, p, q) not in derivable:
                    continue
                if not rest_ok(rhs, k + 1, q, j):
                    continue
                c1 = count_item(sym.name, p, q)
                if c1 == 0:
                    continue
                rest = count_seq(rhs, k + 1, q, j)
                v = _add(v, _mul(c1, rest))
        seq_memo[key] = v
        return v

    return count_item(g.start, 0, n)


def _min_lengths(alts: dict) -> dict:
    """Least fixed point of shortest-derivable-word length per nonterminal
    (math.inf for the empty language)."""
    minlen = dict.fromkeys(alts, math.inf)
    changed = True
    while changed:
        changed = False
        for name, rhss in alts.items():
            best = minlen[name]
            for rhs in rhss:
                tot = 0
                for sym in rhs:
                    tot += 1 if isinstance(sym, Term) else minlen[sym.name]
                if tot < best:
                    best = tot
            if best < minlen[name]:
                minlen[name] = best
                changed = True
    return minlen


def _strip_empties(alts: dict, nullable: set) -> dict:
    """Equivalent productions with no empty right-hand side: every way of
    dropping nullable references, minus the fully empty variants.  Preserves
    the language except for the empty word."""
    out: dict = {}
    for name, rhss in alts.items():
        variants = []
        for rhs in rhss:
            droppable = [k for k, s in enumerate(rhs)
                         if isinstance(s, Ref) and s.name in nullable]
            for r in range(len(droppable) + 1):
                for drop in itertools.combinations(droppable, r):
                    v = tuple(s for k, s in enumerate(rhs) if k not in drop)
                    if v:
                        variants.append(v)
        out[name] = list(dict.fromkeys(variants))
    return out


def enumerate_language(g: BnfGrammar, max_len: int) -> set:
    """All words of length <= max_len, as tuples of token labels.

    Works on an empty-word-free transformation of the grammar, so every
    pending symbol contributes at least one token and the length prune
    bounds the sentential forms; the breadth-first expansion then visits
    finitely many states regardless of cycles.
    """
    nullable = {name for name, m in _min_lengths(g.productions).items() if m == 0}
    alts = _strip_empties(g.productions, nullable)
    minlen = _min_lengths(alts)

    def alpha_min(alpha) -> float:
        tot = 0
        for sym in alpha:
            tot += 1 if isinstance(sym, Term) else minlen[sym.name]
        return tot

    out: set = set()
    if g.start in nullable:
        out.add(())
    start_state = ((), (Ref(g.start),))
    seen = {start_state}
    queue = deque([start_state])
    budget = 2_000_000
    while queue:
        budget -= 1
        if budget < 0:
            raise RuntimeError("language enumeration exceeded its expansion budget")
        w, alpha = queue.popleft()
        if not alpha:
            out.add(w)
            continue
        head = alpha[0]
        rest = alpha[1:]
        if isinstance(head, Term):
            w2 = w + (head.label,)
            if len(w2) + alpha_min(rest) <= max_len:
                state = (w2, rest)
                if state not in seen:
                    seen.add(state)
                    queue.append(state)
        else:
            for rhs in alts[head.name]:
                alpha2 = rhs + rest
                if len(w) + alpha_min(alpha2) > max_len:
                    continue
                state = (w, alpha2)
                if state not in seen:
                    seen.add(state)
                    queue.append(state)
    return out
