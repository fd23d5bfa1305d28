"""Independent checking machinery for the derivative engine.

A BnfGrammar is the flat production view of the same source text the loader
turns into an expression graph, so comparisons here are between algorithms,
not between two hand-written copies of a grammar.

_chart: Earley's chart (with the nullable-completion patch, so empty
productions are handled), read as its completed items (name, i, j).  Both
chart oracles read it.

earley_recognize: whether the start symbol completes over the whole input.

earley_count: counts distinct derivation trees over the completed items.
Every item the count reaches is predicted where it starts, so the chart
holds every span it asks about.  Each item's count is INFINITE while its sum
is open: the count re-enters an item only around symbols that span nothing
and a suffix that can still complete, so a re-entry is a same-span pump (an
item deriving itself), and INFINITE then propagates through the counting
arithmetic.

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


def _chart(g: BnfGrammar, tokens: list) -> dict:
    """Earley's chart, read as its completed items: (name, origin) -> every
    end such that name, predicted at origin, derives tokens[origin:end].
    charts[i] holds the items (production, dot, origin) whose prefix derives
    tokens[origin:i]."""
    prods = [(name, rhs) for name, alts in g.productions.items() for rhs in alts]
    by_name: dict = {}
    for idx, (name, _) in enumerate(prods):
        by_name.setdefault(name, []).append(idx)
    charts = [set() for _ in range(len(tokens) + 1)]

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
        for pi, dot, org in charts[i]:
            rhs = prods[pi][1]
            if dot < len(rhs):
                sym = rhs[dot]
                if isinstance(sym, Term) and _match(sym, tok):
                    charts[i + 1].add((pi, dot + 1, org))
        closure(i + 1)
    ends: dict = {}
    for end, chart in enumerate(charts):
        for pi, dot, org in chart:
            name, rhs = prods[pi]
            if dot == len(rhs):
                ends.setdefault((name, org), set()).add(end)
    return ends


def earley_recognize(g: BnfGrammar, tokens) -> bool:
    tokens = list(tokens)
    return len(tokens) in _chart(g, tokens).get((g.start, 0), ())


def _add(a, b):
    return INFINITE if INFINITE in (a, b) else a + b


def _mul(a, b):  # never 0 here: every factor earley_count takes has a tree
    return INFINITE if INFINITE in (a, b) else a * b


def earley_count(g: BnfGrammar, tokens):
    """Distinct derivation trees for the whole input; INFINITE when a
    zero-width pump makes the set unbounded; 0 when rejected."""
    tokens = list(tokens)
    ends = _chart(g, tokens)
    counts: dict = {}
    seq_memo: dict = {}
    feas: dict = {}

    def rest_ok(rhs, k, q, j) -> bool:
        # can rhs[k:] still span (q, j)?
        key = (rhs, k, q, j)
        hit = feas.get(key)
        if hit is None:
            reach = {q}
            for sym in rhs[k:]:
                if isinstance(sym, Term):
                    reach = {p + 1 for p in reach if p < j and _match(sym, tokens[p])}
                else:
                    reach = {e for p in reach for e in ends.get((sym.name, p), ()) if e <= j}
            hit = feas[key] = j in reach
        return hit

    def count_item(name, i, j):
        key = (name, i, j)
        hit = counts.get(key)
        if hit is not None:
            return hit
        # Every key counted is a completed chart item, so it has a tree.
        # count_seq descends into a same-span item only after a prefix that
        # spans nothing (with a tree per symbol) and only once rest_ok admits
        # the suffix; so a re-entry of this key while its sum is open is a
        # same-span pump, and the INFINITE stored here is its count.
        counts[key] = INFINITE
        total = 0
        for rhs in g.productions[name]:
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
        v = 0
        if isinstance(sym, Term):
            if p < j and _match(sym, tokens[p]):
                v = count_seq(rhs, k + 1, p + 1, j)
        else:
            for q in ends.get((sym.name, p), ()):
                # rest_ok before count_item: see count_item
                if q <= j and rest_ok(rhs, k + 1, q, j):
                    v = _add(v, _mul(count_item(sym.name, p, q),
                                     count_seq(rhs, k + 1, q, j)))
        seq_memo[key] = v
        return v

    if len(tokens) not in ends.get((g.start, 0), ()):
        return 0
    return count_item(g.start, 0, len(tokens))


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
