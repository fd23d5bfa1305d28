"""Grammar source format and loading.

Format:

    start = Expr ;
    Expr : Expr '+' Term | Term ;      # choice of alternatives
    Term : 'n' | ;                     # an empty alternative is the empty word
    Any  : '.' ;                       # '.' matches any single token

One `start = Name ;` header, then one rule per nonterminal: alternatives
separated by `|`, each a sequence of nonterminal names and quoted terminals,
terminated by `;`.  `#` comments run to end of line.

load_grammar builds the expression graph of the nonterminals the start
symbol reaches (nonterminal references are direct node references, so
recursion is graph cycles), wraps each alternative in a production-builder
reduction, and normalizes.  load_bnf yields the flat production view of the
same parse, every production kept as written, for the oracle; load_grammar
attaches one to the Grammar it returns.

The graph factors shared first symbols out of choices: each run of adjacent
alternatives of a rule that start with the same symbol (one nonterminal, or
terminals with one label) becomes red(seq(head, choice of the rests),
splice), each rest built like an alternative of the rule.  A parse then
derives the shared head once, not once per alternative; unfactored,
E : T '+' E | T ; makes every token rebuild a choice over the derivative of
T for each open parenthesis.  The splice reduction puts the head's tree
back in front of the rest's production, so the trees, their count and their
order are those of the rules as written.

A directly left-recursive rule A : A α1 | … | A αk | β1 | … | βm, where
no αi or βj derives the empty word and no αi mentions A, derives, at every
open level, into a cycle X = X·α | D(β) that each token rebuilds.  So the
rule's node gets a twin of the same language, built beside it from the
same β and α nodes (Moore's left-recursion removal, with the trees put
back by one reduction):

    A' = red(seq(B, R), fold-left)     B = β1 | … | βm
    R  : α1 R | … | αk R | ;           built like a rule named A

R's trees are productions A[α… rest], ending in an empty production that
every tail of the grammar shares, and fold-left turns
(A[β…], A[α1… A[α2… []]]) into A[A[A[β…] α1…] α2…], so the trees and
their count are those of the rule as written.  A compacting parse derives
the rule's node through its twin (derivation._derive); --compaction off
and --debug-names derive the rule as written.  Hidden or indirect left
recursion gets no twin.
"""

from __future__ import annotations

import re

from .forest import PROD, FNode, ForestSet
from .grammar import (
    RED, Context, Grammar, fill, mk_eps, mk_token, new_alt, new_red, new_seq,
    normalize_grammar, use_context,
)
from .oracle import BnfGrammar, Ref, Term
from .reductions import compose, fold_left, lift_left, production, splice


class GrammarError(ValueError):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {msg}")
        self.line = line
        self.col = col


# One match per token, after the blanks and comment before it: a newline,
# a quoted terminal, an unclosed quote, punctuation, a word, any other
# character, or the end of the text.  A word is a name if it starts with a
# letter or '_': \w is str.isalnum() or '_', digits included.
_SCAN = re.compile(r"[ \t\r]*(?:#[^\n]*)?"
                   r"(?:(\n)|('[^'\n]*')|(')|([=:|;])|(\w+)|(.)|$)")
_KINDS = (None, "nl", "quote", "open", "punct", "name", "bad")


def _tokenize(text: str) -> list:
    toks = []
    line, line_start = 1, 0
    for m in _SCAN.finditer(text):
        i = m.lastindex
        if i is None:  # the end of the text
            continue
        if i == 1:
            line += 1
            line_start = m.end()
            continue
        kind, value = _KINDS[i], m.group(i)
        col = m.start(i) - line_start + 1
        if kind == "quote":
            value = value[1:-1]
            if not value:
                raise GrammarError("empty terminal (use an empty alternative "
                                   "for the empty word)", line, col)
        elif kind == "open":
            raise GrammarError("unterminated terminal", line, col)
        elif kind != "punct" and not (value[0].isalpha() or value[0] == "_"):
            # any other character, or a word that starts with a digit
            raise GrammarError(f"unexpected character {value[0]!r}", line, col)
        toks.append((kind, value, line, col))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0

    def _here(self) -> tuple:
        if self.pos < len(self.toks):
            t = self.toks[self.pos]
            return t[2], t[3]
        if self.toks:
            t = self.toks[-1]
            return t[2], t[3]
        return 1, 1

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self, kind: str, value=None):
        t = self.peek()
        if t is None or t[0] != kind or (value is not None and t[1] != value):
            want = value if value is not None else kind
            got = "end of input" if t is None else repr(t[1])
            line, col = self._here()
            raise GrammarError(f"expected {want!r}, got {got}", line, col)
        self.pos += 1
        return t

    def parse(self) -> tuple:
        kw = self.take("name")
        if kw[1] != "start":
            raise GrammarError("grammar must begin with 'start = <Name> ;'",
                               kw[2], kw[3])
        self.take("punct", "=")
        start_tok = self.take("name")
        self.take("punct", ";")
        productions: dict = {}
        ref_sites: list = []
        while self.peek() is not None:
            head = self.take("name")
            if head[1] in productions:
                raise GrammarError(f"duplicate definition of {head[1]!r}",
                                   head[2], head[3])
            self.take("punct", ":")
            alts = []
            current: list = []
            while True:
                t = self.peek()
                if t is None:
                    line, col = self._here()
                    raise GrammarError("unterminated rule (missing ';')", line, col)
                self.pos += 1
                kind, value = t[0], t[1]
                if kind == "name":
                    current.append(Ref(value))
                    ref_sites.append((value, t[2], t[3]))
                elif kind == "quote":
                    current.append(Term(value))
                elif value == "|":
                    alts.append(tuple(current))
                    current = []
                elif value == ";":
                    alts.append(tuple(current))
                    break
                else:
                    raise GrammarError(f"unexpected {value!r} in rule body",
                                       t[2], t[3])
            # identical alternatives add nothing to a set of parse trees
            deduped = list(dict.fromkeys(alts))
            productions[head[1]] = deduped
        for name, line, col in ref_sites:
            if name not in productions:
                raise GrammarError(f"undefined nonterminal {name!r}", line, col)
        if start_tok[1] not in productions:
            raise GrammarError(f"start symbol {start_tok[1]!r} is not defined",
                               start_tok[2], start_tok[3])
        return start_tok[1], productions


def parse_source(text: str) -> tuple:
    return _Parser(text).parse()


def load_bnf(text: str) -> BnfGrammar:
    start, productions = parse_source(text)
    return BnfGrammar(start, productions)


def _runs(alts: list) -> list:
    """The alternatives in runs of adjacent ones that start with the same
    symbol; an empty alternative is a run of its own."""
    runs = []
    for rhs in alts:
        if runs and rhs and runs[-1][-1][:1] == rhs[:1]:
            runs[-1].append(rhs)
        else:
            runs.append([rhs])
    return runs


def _empty_word(name: str):
    empty = FNode(PROD)
    empty.label = name
    return mk_eps(ForestSet(empty))


def _run_parts(name: str, run: list, symbol, seq=new_seq) -> tuple:
    """(child, reduction) of the node that parses one run of non-empty
    alternatives: one alternative's production over the concatenation of
    its symbols, or red(seq(head, choice of the rests), splice).  `seq`
    makes the concatenations."""
    if len(run) == 1:
        rhs = run[0]
        chain = symbol(rhs[-1])
        for sym in reversed(rhs[:-1]):
            chain = seq(symbol(sym), chain)
        return chain, production(name, len(rhs))
    head = symbol(run[0][0])
    rests = [_run_node(name, [rhs[1:]], symbol, seq) for rhs in run]
    return seq(head, _choice(rests)), splice()


def _run_node(name: str, run: list, symbol, seq=new_seq):
    return (new_red(*_run_parts(name, run, symbol, seq)) if run[0]
            else _empty_word(name))


def _choice(exprs: list):
    body = exprs[-1]
    for e in reversed(exprs[:-1]):
        body = new_alt(e, body)
    return body


def _placeholder(name: str, runs: list):
    """The node a rule's references point at before its body is built: a
    shell of the form the body's top node takes, or, for a rule whose one
    alternative is empty, the whole body."""
    if len(runs) > 1:
        return new_alt(None, None)
    return new_red(None, None) if runs[0][0] else _empty_word(name)


def _fill_rule(ph, name: str, runs: list, symbol) -> list:
    """Build the body of one rule into its placeholder ph (an empty rule's
    is built whole), and return the node of each of its runs."""
    if len(runs) > 1:
        exprs = [_run_node(name, run, symbol) for run in runs]
        fill(ph, exprs[0], _choice(exprs[1:]))
        return exprs
    if ph.form == RED:
        fill(ph, *_run_parts(name, runs[0], symbol))
    return [ph]


def _nullable_names(productions: dict, names) -> set:
    """The least set of `names` in which each name has an alternative whose
    symbols are all in the set: the nonterminals that derive the empty
    word."""
    found: set = set()
    # rules mostly use the rules defined after them: the last come first
    todo = [(name, productions[name]) for name in reversed(names)]
    grew = True
    while grew:
        grew = False
        rest = []
        for name, alts in todo:
            for rhs in alts:
                for s in rhs:
                    if type(s) is Term or s.name not in found:
                        break
                else:
                    found.add(name)
                    grew = True
                    break
            else:
                rest.append((name, alts))
        todo = rest
    return found


# stands for the tail nonterminal R of a twin (no source name is empty)
_TAIL = Ref("")


def _build_twin(ph, name: str, runs: list, left: list, exprs: list,
                placeholders: dict, tokens: dict, nullable: set, end):
    """ph's twin, or None unless the rule is A : A α1 | … | A αk | β1 |
    … | βm where no αi or βj derives the empty word and no αi mentions A;
    `left` says which of its runs of alternatives start with A.

    The twin is red(seq(B, R), fold-left), B the choice of the βs and
    R : α1 R | … | αk R | ; (see the module docstring), built as
    normalize_grammar leaves it when B is a choice or a reduction over a
    single symbol: a reduction B is floated out of seq(B, R).  B is the
    rule's own node for the choice of its βs when they come last, and R's
    symbols are the rule's nodes: `exprs` are the nodes of its runs,
    `tokens` its token nodes by label; `end` is the empty word that ends
    every tail.  An α that ends with B's symbol (E : E '+' T | T) ends with
    that seq(B, R)."""
    alphas = []
    for run, lr in zip(runs, left):
        for rhs in run:
            body = rhs[1:] if lr else rhs
            for s in body:
                if type(s) is Term or s.name not in nullable:
                    break
            else:
                return None  # derives the empty word
            if lr:
                for s in body:
                    if type(s) is Ref and s.name == name:
                        return None
                alphas.append(body + (_TAIL,))
    k = left.count(True)
    if any(left[k:]):
        base = _choice([e for e, lr in zip(exprs, left) if not lr])
    else:
        base = ph
        for _ in range(k):
            base = base.right
    fn = fold_left()
    if base.form == RED:
        fn = compose(fn, lift_left(base.fn))
        base = base.left
    tail = new_alt(None, None)
    top = new_seq(base, tail)

    def symbol(sym):
        if sym is _TAIL:
            return tail
        return placeholders[sym.name] if type(sym) is Ref else tokens[sym.label]

    def seq(a, b):
        # an α that ends with B's symbol ends with the top's concatenation
        return top if a is base and b is tail else new_seq(a, b)

    steps = [_run_node(name, run, symbol, seq) for run in _runs(alphas)]
    fill(tail, steps[0], _choice(steps[1:] + [end]))
    return new_red(top, fn)


def build_graph(bnf: BnfGrammar) -> tuple:
    """(root, nonterminal table) with direct node references between rules.
    Only the nonterminals the start symbol reaches are built, in definition
    order, each into the placeholder its references point at.  A directly
    left-recursive rule gets a twin (see the module docstring).

    A placeholder is marked never null when its rule does not derive the
    empty word, so the local rule gives every node built over it its exact
    never-null mark.  Productivity is left to normalization's dead-subgraph
    fixed point."""
    productions = bnf.productions
    reached, work = {bnf.start}, [bnf.start]
    while work:
        for rhs in productions[work.pop()]:
            for sym in rhs:
                if isinstance(sym, Ref) and sym.name not in reached:
                    reached.add(sym.name)
                    work.append(sym.name)
    runs_of = {name: _runs(alts) for name, alts in productions.items()
               if name in reached}
    nullable = _nullable_names(productions, list(runs_of))
    placeholders = {}
    for name, runs in runs_of.items():
        ph = placeholders[name] = _placeholder(name, runs)
        ph.never_null = name not in nullable
    end = None
    for name, ph in placeholders.items():
        runs = runs_of[name]
        tokens: dict = {}

        def symbol(sym, tokens=tokens):
            if type(sym) is Ref:
                return placeholders[sym.name]
            node = tokens[sym.label] = mk_token(sym.label)
            return node

        exprs = _fill_rule(ph, name, runs, symbol)
        left = [bool(run[0]) and type(run[0][0]) is Ref
                and run[0][0].name == name for run in runs]
        if any(left) and not all(left):
            if end is None:
                end = _empty_word("")  # ends every twin's tail
            ph.twin = _build_twin(ph, name, runs, left, exprs, placeholders,
                                  tokens, nullable, end)
    return placeholders[bnf.start], placeholders


def load_grammar(text: str) -> Grammar:
    bnf = load_bnf(text)
    with use_context(Context()) as ctx:
        root, table = build_graph(bnf)
        normalize_grammar(root)
        g = Grammar(root, bnf.start, table, bnf)
        g.counters = ctx.counters
    return g


def load_grammar_file(path: str) -> Grammar:
    with open(path, "r", encoding="utf-8") as fh:
        return load_grammar(fh.read())
