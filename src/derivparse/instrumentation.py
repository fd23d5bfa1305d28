"""Event counters and the optional debug node-naming scheme.

Counters are plain integers bumped by node construction, the derivative
engine, and the nullability engine.  They answer the empirical questions this
library cares about (how many nodes did a parse allocate, how often did the
derivative cache hit, how much work did the nullability fixed point do)
without touching the hot paths with anything heavier than an integer
increment.

Node names are a debugging device: when enabled, every node carries a name
built from the name of the node it was derived from plus the consumed token,
with a single optional split marker.  The invariants on these names (at most
one marker, marker-stripped names are contiguous substrings of the input) are
what pin the cubic allocation bound, so the test suite leans on them.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
from types import MappingProxyType
from typing import Mapping, Optional

FORM_NAMES = ("empty", "epsilon", "token", "seq", "alt", "red")

# the compaction rules, by rule number (grammar.py names each number)
COMPACTION_RULES = (
    "alt-empty-left", "alt-empty-right", "alt-epsilon-merge", "dead-subgraph",
    "red-compose", "red-empty", "red-epsilon", "seq-associate",
    "seq-empty-left", "seq-empty-right", "seq-epsilon-left",
    "seq-epsilon-right", "seq-float-left", "seq-float-right",
)

CSV_FIELDS = (
    "file",
    "tokens",
    "nodes_created",
    "derive_cached",
    "derive_uncached",
    "nullable_visits",
    "compactions",
    "seconds_per_token",
)


class Counters:
    """Monotone event counts for one grammar / parse session.  Nodes are
    counted per form, in a list indexed by the form number (FORM_NAMES
    order), and compaction firings per rule, in a list indexed by the rule
    number (COMPACTION_RULES order).  `generation_count` counts top-level
    queries to the optimized nullability engine, a settled one included,
    `nullable_visits` the nodes either engine visits, and `seqs_shared`
    and `reductions_shared` the concatenations and reductions a parse
    handed back instead of building them again."""

    __slots__ = (
        "nodes_by_form",
        "derive_calls_cached",
        "derive_calls_uncached",
        "nullable_visits",
        "firings_by_rule",
        "generation_count",
        "seqs_shared",
        "reductions_shared",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.nodes_by_form = [0] * len(FORM_NAMES)
        self.derive_calls_cached = 0
        self.derive_calls_uncached = 0
        self.nullable_visits = 0
        self.firings_by_rule = [0] * len(COMPACTION_RULES)
        self.generation_count = 0
        self.seqs_shared = 0
        self.reductions_shared = 0

    @property
    def nodes_created(self) -> int:
        return sum(self.nodes_by_form)

    @property
    def compaction_firings(self) -> Mapping[str, int]:
        """Firings by rule name, for the rules that fired: a read-only view,
        built from firings_by_rule when asked."""
        return MappingProxyType({r: n for r, n in
                                 zip(COMPACTION_RULES, self.firings_by_rule)
                                 if n})

    @property
    def compactions(self) -> int:
        return sum(self.firings_by_rule)

    def snapshot(self) -> "Counters":
        """An independent copy; the live counters keep counting."""
        c = Counters()
        for field in self.__slots__:
            v = getattr(self, field)
            setattr(c, field, v.copy() if isinstance(v, (list, dict)) else v)
        return c

    def as_dict(self) -> dict:
        return {
            "nodes_created": self.nodes_created,
            "nodes_by_form": dict(zip(FORM_NAMES, self.nodes_by_form)),
            "derive_cached": self.derive_calls_cached,
            "derive_uncached": self.derive_calls_uncached,
            "nullable_visits": self.nullable_visits,
            "compactions": self.compactions,
            "compaction_firings": dict(self.compaction_firings),
            "generation_count": self.generation_count,
            "seqs_shared": self.seqs_shared,
            "reductions_shared": self.reductions_shared,
        }

    def __repr__(self) -> str:
        return (
            f"Counters(nodes={self.nodes_created}, cached={self.derive_calls_cached}, "
            f"uncached={self.derive_calls_uncached}, visits={self.nullable_visits}, "
            f"compactions={self.compactions})"
        )


def csv_row(counters: Counters, file: str, tokens: int,
            seconds_per_token: float) -> list:
    """The CSV_FIELDS values of one row, for a csv.writer to quote."""
    return [
        file,
        tokens,
        counters.nodes_created,
        counters.derive_calls_cached,
        counters.derive_calls_uncached,
        counters.nullable_visits,
        counters.compactions,
        seconds_per_token,
    ]


def emit(counters: Counters, fmt: str, *, file: str = "", tokens: int = 0,
         seconds_per_token: float = 0.0) -> str:
    """Render counters as a CSV row (with header) or a JSON object."""
    if fmt == "csv":
        buf = io.StringIO()
        out = csv.writer(buf, lineterminator="\n")
        out.writerow(CSV_FIELDS)
        out.writerow(csv_row(counters, file, tokens, seconds_per_token))
        return buf.getvalue()
    if fmt == "json":
        data = counters.as_dict()
        data["file"] = file
        data["tokens"] = tokens
        data["seconds_per_token"] = seconds_per_token
        return json.dumps(data, sort_keys=True)
    raise ValueError(f"unknown emit format: {fmt!r}")


# --- debug node names ------------------------------------------------------

MARK = "•"  # printed between the two halves of a split name

# naming rules
EXTEND = "extend"          # derived node: parent name + consumed token
MARK_EXTEND = "mark-extend"  # the choice node a nullable-left Seq derives into

_fresh_bases = itertools.count()


class NamingError(Exception):
    """A naming-rule violation; always an implementation bug, never bad input."""


class NodeName:
    """base symbol + consumed-token labels, with at most one split marker.

    `mark` is the index into `parts` before which the marker sits, or None.
    Token labels are kept as a tuple (not joined), so the contiguous-substring
    checks need no string parsing.
    """

    __slots__ = ("base", "parts", "mark")

    def __init__(self, base: str, parts: tuple = (), mark: Optional[int] = None):
        self.base = base
        self.parts = parts
        self.mark = mark

    def text(self) -> str:
        bits = [self.base]
        for i, p in enumerate(self.parts):
            if self.mark == i:
                bits.append(MARK)
            bits.append(p)
        if self.mark == len(self.parts):
            bits.append(MARK)
        return "".join(bits)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, NodeName)
            and self.base == other.base
            and self.parts == other.parts
            and self.mark == other.mark
        )

    def __hash__(self) -> int:
        return hash((self.base, self.parts, self.mark))

    def __repr__(self) -> str:
        return f"NodeName({self.text()!r})"


def fresh_name() -> NodeName:
    return NodeName(f"g{next(_fresh_bases)}")


def name_node(parent: Optional[NodeName], token: Optional[str], rule: str) -> NodeName:
    """Mint a name under one of the two naming rules.

    extend: parent's name with `token` appended.
    mark-extend: parent's name with the split marker, then `token`, appended;
    rejects parents that already carry a marker.
    """
    if parent is None or token is None:
        raise NamingError(f"rule {rule!r} needs a parent name and a token")
    if rule == EXTEND:
        return NodeName(parent.base, parent.parts + (token,), parent.mark)
    if rule == MARK_EXTEND:
        if parent.mark is not None:
            raise NamingError(
                f"second split marker on {parent.text()!r} + {token!r}"
            )
        return NodeName(parent.base, parent.parts + (token,), len(parent.parts))
    raise NamingError(f"unknown naming rule: {rule!r}")
