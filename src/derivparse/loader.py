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
"""

from __future__ import annotations

from .forest import PROD, FNode, ForestSet
from .grammar import (
    Context, Grammar, become_node, mk_alt, mk_eps, mk_red, mk_seq, mk_token,
    new_alt, normalize_grammar, use_context,
)
from .oracle import BnfGrammar, Ref, Term
from .reductions import production, splice


class GrammarError(ValueError):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {msg}")
        self.line = line
        self.col = col


def _tokenize(text: str) -> list:
    toks = []
    i = 0
    line = 1
    col = 1
    size = len(text)
    while i < size:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < size and text[i] != "\n":
                i += 1
            continue
        if ch == "'":
            start_line, start_col = line, col
            j = i + 1
            while j < size and text[j] not in "'\n":
                j += 1
            if j >= size or text[j] != "'":
                raise GrammarError("unterminated terminal", start_line, start_col)
            label = text[i + 1:j]
            if not label:
                raise GrammarError("empty terminal (use an empty alternative "
                                   "for the empty word)", start_line, start_col)
            toks.append(("quote", label, start_line, start_col))
            col += (j - i) + 1
            i = j + 1
            continue
        if ch in "=:|;":
            toks.append(("punct", ch, line, col))
            i += 1
            col += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < size and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise GrammarError(f"unexpected character {ch!r}", line, col)
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


def _symbol(sym, placeholders: dict):
    return placeholders[sym.name] if isinstance(sym, Ref) else mk_token(sym.label)


def _build_alternative(name: str, rhs: tuple, placeholders: dict):
    if not rhs:
        empty = FNode(PROD)
        empty.label = name
        return mk_eps(ForestSet(empty))
    chain = None
    for sym in reversed(rhs):
        node = _symbol(sym, placeholders)
        chain = node if chain is None else mk_seq(node, chain)
    return mk_red(chain, production(name, len(rhs)))


def _choice(exprs: list):
    body = exprs[-1]
    for e in reversed(exprs[:-1]):
        body = mk_alt(e, body)
    return body


def _build_rule(name: str, alts: list, placeholders: dict):
    """The body of one rule, its shared first symbols factored: each run of
    adjacent alternatives that start with the same symbol becomes
    red(seq(head, choice of the rests), splice)."""
    runs = []
    for rhs in alts:
        if runs and rhs and runs[-1][-1][:1] == rhs[:1]:
            runs[-1].append(rhs)
        else:
            runs.append([rhs])
    exprs = []
    for run in runs:
        if len(run) == 1:
            exprs.append(_build_alternative(name, run[0], placeholders))
        else:
            rests = _choice([_build_alternative(name, rhs[1:], placeholders)
                             for rhs in run])
            exprs.append(mk_red(mk_seq(_symbol(run[0][0], placeholders),
                                       rests), splice()))
    return _choice(exprs)


def build_graph(bnf: BnfGrammar) -> tuple:
    """(root, nonterminal table) with direct node references between rules.
    Only the nonterminals the start symbol reaches are built, in definition
    order."""
    reached, work = {bnf.start}, [bnf.start]
    while work:
        for rhs in bnf.productions[work.pop()]:
            for sym in rhs:
                if isinstance(sym, Ref) and sym.name not in reached:
                    reached.add(sym.name)
                    work.append(sym.name)
    placeholders = {}
    for name in bnf.productions:
        if name in reached:
            ph = new_alt(None, None)
            ph.in_progress = True
            placeholders[name] = ph
    for name, ph in placeholders.items():
        become_node(ph, _build_rule(name, bnf.productions[name], placeholders))
        ph.in_progress = False
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
