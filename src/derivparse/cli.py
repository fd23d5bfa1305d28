"""Command-line front end.

Subcommands:

    derivparse recognize GRAMMAR TOKENS      accept/reject, exit 0/1
    derivparse parse     GRAMMAR TOKENS      forest as JSON (or --count)
    derivparse bench     GRAMMAR CORPUS_DIR  one CSV row per token file
    derivparse stats     GRAMMAR TOKENS      counters for one recognize

Grammar files use the format described in the loader module; token files are
whitespace-separated terminal labels.  Engine variants are selected with
--memo, --compaction, --nullability, and --debug-names.  Exit codes: 0 accept,
1 reject, 2 usage or load error, 3 internal error (a crash, never a verdict).

`parse --count` counts in one pass linear in the forest's size.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
import traceback

from .derivation import parse, recognize
from .forest import count_parses, forest_to_json
from .instrumentation import CSV_FIELDS, csv_row, emit
from .loader import GrammarError, load_grammar_file

# deep derivations recurse; 20k-token inputs need headroom
RECURSION_LIMIT = 20000


def _add_engine_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--memo", choices=("single", "full"), default="full",
                    help="derivative cache: every token's derivative per "
                         "node (default), or one slot that a new token "
                         "evicts (the paper's single-entry ablation)")
    sp.add_argument("--compaction", choices=("on", "off"), default="on")
    sp.add_argument("--nullability", choices=("optimized", "naive"),
                    default="optimized")
    sp.add_argument("--debug-names", action="store_true",
                    help="name every node by its provenance and check each "
                         "memo hit against its name (builds the "
                         "--compaction off graph)")


def _at_least(kind, low):
    """An argparse type: a finite `kind` number no less than `low`."""
    def convert(text: str):
        value = kind(text)
        if not (math.isfinite(value) and value >= low):
            raise argparse.ArgumentTypeError(f"must be at least {low}: "
                                             f"{text!r}")
        return value
    convert.__name__ = kind.__name__  # argparse: "invalid int value: 'x'"
    return convert


def _build_argparser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="derivparse")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("recognize", help="accept or reject a token file")
    sp.add_argument("grammar")
    sp.add_argument("tokens")
    _add_engine_flags(sp)

    sp = sub.add_parser("parse", help="print the parse forest as JSON")
    sp.add_argument("grammar")
    sp.add_argument("tokens")
    sp.add_argument("--count", action="store_true",
                    help="print the number of parse trees instead")
    _add_engine_flags(sp)

    sp = sub.add_parser("bench", help="time every token file in a directory")
    sp.add_argument("grammar")
    sp.add_argument("corpus")
    sp.add_argument("--rounds", type=_at_least(int, 1), default=10)
    sp.add_argument("--warmup", type=_at_least(int, 0), default=3)
    sp.add_argument("--min-round-seconds", type=_at_least(float, 0),
                    default=1.0,
                    help="repeat the parse within a round at least this long")
    _add_engine_flags(sp)

    sp = sub.add_parser("stats", help="counters for a single recognize")
    sp.add_argument("grammar")
    sp.add_argument("tokens")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_engine_flags(sp)

    return ap


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def _load(args):
    g = load_grammar_file(args.grammar)
    st = g.settings
    st.memo_full = args.memo == "full"
    st.compaction = args.compaction == "on"
    st.naive_nullability = args.nullability == "naive"
    st.debug_names = args.debug_names
    return g


def _read_tokens(path: str) -> list:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read().split()


def _cmd_recognize(args) -> int:
    g = _load(args)
    toks = _read_tokens(args.tokens)
    ok = recognize(g, toks)
    print("accept" if ok else "reject")
    return 0 if ok else 1


def _cmd_parse(args) -> int:
    g = _load(args)
    toks = _read_tokens(args.tokens)
    fs = parse(g, toks)
    if args.count:
        print(count_parses(fs))
    else:
        print(json.dumps(forest_to_json(fs), indent=2))
    return 0 if not fs.is_empty() else 1


def _bench_round(g, toks: list, min_seconds: float) -> float:
    """Average seconds per parse over one round of repeated parses."""
    runs = 0
    t0 = time.perf_counter()
    while True:
        parse(g, toks)
        runs += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= min_seconds:
            return elapsed / runs


def _cmd_bench(args) -> int:
    g = _load(args)
    try:
        names = sorted(os.listdir(args.corpus))
    except OSError as e:
        return _fail(str(e))
    out = csv.writer(sys.stdout, lineterminator="\n")
    out.writerow(CSV_FIELDS + ("accept", "parse_count"))
    sys.stdout.flush()
    for name in names:
        path = os.path.join(args.corpus, name)
        if not os.path.isfile(path):
            continue
        try:
            toks = _read_tokens(path)
            for _ in range(args.warmup):
                _bench_round(g, toks, args.min_round_seconds)
            per_parse = [_bench_round(g, toks, args.min_round_seconds)
                         for _ in range(args.rounds)]
            g.counters.reset()
            fs = parse(g, toks)
            snap = g.counters.snapshot()
        except (OSError, UnicodeDecodeError) as e:  # unreadable: skip it
            print(f"error: {path}: {e}", file=sys.stderr)
            continue
        spt = (sum(per_parse) / len(per_parse)) / max(1, len(toks))
        accept = "1" if not fs.is_empty() else "0"
        out.writerow(csv_row(snap, name, len(toks), spt)
                     + [accept, count_parses(fs)])
        sys.stdout.flush()
    return 0


def _cmd_stats(args) -> int:
    g = _load(args)
    toks = _read_tokens(args.tokens)
    g.counters.reset()
    t0 = time.perf_counter()
    recognize(g, toks)
    dt = time.perf_counter() - t0
    text = emit(g.counters, args.format, file=args.tokens, tokens=len(toks),
                seconds_per_token=dt / max(1, len(toks)))
    print(text, end="" if text.endswith("\n") else "\n")
    return 0


def main(argv=None) -> int:
    if sys.getrecursionlimit() < RECURSION_LIMIT:
        sys.setrecursionlimit(RECURSION_LIMIT)
    ap = _build_argparser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        code = e.code
        return code if isinstance(code, int) else 2
    try:
        if args.command == "recognize":
            return _cmd_recognize(args)
        if args.command == "parse":
            return _cmd_parse(args)
        if args.command == "bench":
            return _cmd_bench(args)
        return _cmd_stats(args)
    except GrammarError as e:
        return _fail(f"{args.grammar}:{e}")
    except OSError as e:
        return _fail(str(e))
    except Exception as e:  # a crash must not read as "reject"
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
