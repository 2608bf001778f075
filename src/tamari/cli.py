"""Command-line entry points.

Exit codes: 0 success, 1 verification failure, 2 usage or input error,
141 (128 + SIGPIPE) when the reader closes standard output early.
Enumerations stream JSON lines and finish with a count trailer record.
The size bound for exhaustive commands defaults to 6 and can be raised
with ``--bound`` or the TAMARI_MAX_SIZE environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from functools import lru_cache

from . import census, classify, verify
from .noncrossing import (
    NoncrossingPartition,
    enumerate_ncp,
    enumerate_nct,
    ncp_interval_to_ip,
    nct_from_json,
    nct_to_json,
    nct_to_poset,
    ncp_to_json,
    partition_from_obj,
    partition_of_tree,
    poset_to_nct,
    tree_of_partition,
)
from .posets import (
    IntervalPoset,
    InvalidIntervalPoset,
    from_interval,
    poset_to_json,
    relation_from_obj,
    stream_interval_json,
    to_interval,
    tree_poset,
    universe,
    validate,
)
from .trees import TamariInterval, tree_from_obj, tree_to_obj

FAMILIES = ("all", "exceptional", "modern", "new", "infmodern", "nct", "ncp")

# the classify.FamilyBits field that each poset family of enumerate reads
FAMILY_FIELDS = {
    "exceptional": "exceptional",
    "modern": "modern",
    "new": "new",
    "infmodern": "infinitely_modern",
}


class UsageError(Exception):
    pass


BROKEN_PIPE = 141


def _default_bound() -> int:
    raw = os.environ.get("TAMARI_MAX_SIZE")
    if raw is None:
        return census.DEFAULT_BOUND
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"TAMARI_MAX_SIZE must be an integer, got {raw!r}") from None


def _check_size(n: int) -> None:
    if n < 1:
        raise UsageError(f"size must be at least 1, got {n}")


def _check_bound(n: int, bound: int) -> None:
    _check_size(n)
    if n > bound:
        raise UsageError(f"size {n} exceeds bound {bound} (raise with --bound)")


def _kept_ends(n: int, field: str):
    """Per upper tree, in the order of :func:`stream_interval_json`, the
    line ends that keep the lowers in its ``field`` bitset."""
    for bits in classify.family_bits(n, universe(n).by_inc):
        yield lambda lower, kept=getattr(bits, field): "}\n" if kept >> lower & 1 else None


def cmd_enumerate(args, out) -> int:
    _check_bound(args.size, args.bound)
    count = 0
    if args.family == "nct":
        for t in enumerate_nct(args.size):
            print(nct_to_json(t), file=out)
            count += 1
    elif args.family == "ncp":
        for p in enumerate_ncp(args.size):
            print(ncp_to_json(p), file=out)
            count += 1
    else:
        ends = None
        if args.family != "all":
            ends = _kept_ends(args.size, FAMILY_FIELDS[args.family])
        for lines, text in stream_interval_json(args.size, ends):
            out.write(text)
            count += lines
    print(json.dumps({"count": count}), file=out)
    return 0


_BOOL = ("false", "true")


def _class_fields(exceptional, modern, new, infinitely_modern, ir, dr) -> str:
    """The text that closes a ``classify`` record after its poset's pairs,
    as :func:`json.dumps` writes it; the flags are bools or bits."""
    return (
        f', "exceptional": {_BOOL[exceptional]}, "modern": {_BOOL[modern]}, '
        f'"new": {_BOOL[new]}, "infinitely_modern": {_BOOL[infinitely_modern]}, '
        f'"ir": {ir}, "dr": {dr}}}\n'
    )


def _class_ends(n: int):
    """Per upper tree, in the order of :func:`stream_interval_json`, the
    line ends that close each interval's ``classify`` record: the family
    flags are bits of its :class:`classify.FamilyBits`, ir that of the
    upper tree and dr that of the lower tree."""
    u = universe(n)
    for bits in classify.family_bits(n, u.by_inc):
        yield lambda lower, bits=bits, ir=u.ir[bits.upper]: _class_fields(
            bits.exceptional >> lower & 1,
            bits.modern >> lower & 1,
            bits.new >> lower & 1,
            bits.infinitely_modern >> lower & 1,
            ir,
            u.dr[lower],
        )


def cmd_classify(args, out) -> int:
    if args.poset is not None:
        p = _parse_source("poset", args.poset)
        s = classify.stat(p)
        out.write(poset_to_json(p)[:-1] + _class_fields(
            classify.is_exceptional(p),
            classify.is_modern(p),
            classify.is_new_ip(p),
            s.dr <= s.ir,  # as classify.is_infinitely_modern
            s.ir,
            s.dr,
        ))
        return 0
    _check_bound(args.size, args.bound)
    for _, text in stream_interval_json(args.size, _class_ends(args.size)):
        out.write(text)
    return 0


def _interval_to_obj(interval: TamariInterval) -> dict:
    return {
        "lower": tree_to_obj(interval.lower),
        "upper": tree_to_obj(interval.upper),
    }


_STRING = re.compile(r'"(?:[^"\\]|\\.)*"')
_INTEGERS_ONLY = re.compile(r"[\s\[\]{}:,0-9-]*")


def _check_integers(text: str) -> None:
    """Refuse JSON true, false and fractions, which Python reads as equal to
    integers (true == 1 == 1.0).  ``text`` has parsed as JSON, so once its
    strings and nulls are removed only integers and punctuation may remain."""
    if not _INTEGERS_ONLY.fullmatch(_STRING.sub("", text).replace("null", "")):
        raise UsageError("ParseError: numbers must be integers, "
                         "not true, false or fractions")


def _ncp_size(doc: dict, pi: NoncrossingPartition) -> int:
    """The size an ncp document declares in its optional ``n``, which must
    be the size of its blocks."""
    n = doc.get("n", pi.n)
    _check_size(n)
    if n != pi.n:
        raise ValueError(f"n is {n} but the blocks partition 1..{pi.n}")
    return n


def _parse_source(kind: str, text: str):
    """The object that ``text`` encodes; a size below 1 is reported as the
    input declares it."""
    try:
        if kind == "poset":
            obj = json.loads(text)
            value = validate(relation_from_obj(obj))
            n = obj["size"]
        elif kind == "interval":
            obj = json.loads(text)
            try:
                value = TamariInterval(
                    tree_from_obj(obj["lower"]), tree_from_obj(obj["upper"])
                )
            except ValueError as exc:
                raise UsageError(f"NotAnInterval: {exc}") from exc
            n = value.size
        elif kind == "nct":
            value = nct_from_json(text)
            n = value.n
        elif kind == "ncp":
            obj = json.loads(text)
            if "lower" in obj:
                value = (partition_from_obj(obj["lower"]), partition_from_obj(obj["upper"]))
                n = _ncp_size(obj["lower"], value[0])
                _ncp_size(obj["upper"], value[1])
            else:
                value = partition_from_obj(obj)
                n = _ncp_size(obj, value)
        else:
            raise UsageError(f"unknown source kind {kind}")
    except UsageError:
        raise
    except InvalidIntervalPoset as exc:
        raise UsageError(f"invalid poset: {exc}") from exc
    except (AttributeError, KeyError, RecursionError, TypeError, ValueError) as exc:
        # RecursionError: JSON nested deeper than json.loads can read
        raise UsageError(f"ParseError: cannot parse {kind}: {exc}") from exc
    _check_integers(text)
    _check_size(n)
    return value


def _to_poset(kind: str, value) -> IntervalPoset:
    if kind == "poset":
        return value
    if kind == "interval":
        return from_interval(value)
    if kind == "nct":
        return nct_to_poset(value)
    # ncp: a single partition maps to the poset of its tree (the singleton
    # interval); a pair maps through the NC-partition interval.
    if isinstance(value, tuple):
        try:
            return ncp_interval_to_ip(*value)
        except ValueError as exc:
            raise UsageError(f"NotAnInterval: {exc}") from exc
    return tree_poset(tree_of_partition(value))


def _from_poset(kind: str, p: IntervalPoset) -> str:
    if kind == "poset":
        return poset_to_json(p)
    if kind == "interval":
        try:
            return json.dumps(_interval_to_obj(to_interval(p)))
        except RecursionError as exc:
            # nested arrays deeper than json.dumps can write
            raise UsageError(
                f"interval of size {p.n} is nested too deep to encode as JSON"
            ) from exc
    if kind == "nct":
        try:
            return nct_to_json(poset_to_nct(p))
        except ValueError as exc:
            raise UsageError(f"NotExceptional: {exc}") from exc
    if not classify.is_exceptional(p):
        raise UsageError("NotExceptional: only exceptional posets map to "
                         "noncrossing-partition intervals")
    interval = to_interval(p)
    return json.dumps(
        {
            "lower": json.loads(ncp_to_json(partition_of_tree(interval.lower))),
            "upper": json.loads(ncp_to_json(partition_of_tree(interval.upper))),
        }
    )


def cmd_convert(args, out) -> int:
    text = args.input if args.input is not None else sys.stdin.read()
    value = _parse_source(getattr(args, "from"), text)
    p = _to_poset(getattr(args, "from"), value)
    print(_from_poset(args.to, p), file=out)
    return 0


def cmd_census(args, out) -> int:
    _check_bound(args.max_size, args.bound)
    rows = []
    for n in range(1, args.max_size + 1):
        rows.append(census.census(n, bound=args.bound))
        universe.cache_clear()  # census(n) reads universe(n) alone
    if args.format == "json":
        for row in rows:
            record = {"size": row.n, "counts": row.counts()}
            print(json.dumps(record), file=out)
        return 0
    print("size,family,count,formula,match", file=out)
    for row in rows:
        formulas = row.formula_checks()
        for family, count in row.counts().items():
            formula = formulas.get(family, "")
            match = "" if formula == "" else str(count == formula).lower()
            print(f"{row.n},{family},{count},{formula},{match}", file=out)
    return 0


def cmd_verify(args, out) -> int:
    _check_bound(args.max_size, args.bound)
    failed = False
    for result in verify.run_checks(args.max_size):
        mark = "PASS" if result.passed else "FAIL"
        line = f"{mark} {result.name}"
        if result.detail:
            line += f": {result.detail}"
        print(line, file=out)
        failed = failed or not result.passed
    return 1 if failed else 0


def _dot_arcs(p: IntervalPoset) -> str:
    covers = sorted(classify.hasse(p))
    lines = ["digraph poset {", "  rankdir=LR;", "  node [shape=plaintext];"]
    lines.append("  { rank=same; " + "; ".join(str(v) for v in range(1, p.n + 1)) + "; }")
    for (a, b) in covers:
        color = "red" if a < b else "blue"
        lines.append(f"  {a} -> {b} [color={color}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_hasse(p: IntervalPoset) -> str:
    covers = sorted(classify.hasse(p))
    lines = ["digraph hasse {", "  node [shape=circle];"]
    lines.extend(f"  {v};" for v in range(1, p.n + 1))
    lines.extend(f"  {a} -> {b};" for (a, b) in covers)
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_export(args, out) -> int:
    text = args.input if args.input is not None else sys.stdin.read()
    p = _parse_source("poset", text)
    if args.format == "json":
        rendered = poset_to_json(p) + "\n"
    elif args.diagram == "hasse":
        rendered = _dot_hasse(p)
    else:
        rendered = _dot_arcs(p)
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(rendered)
        except OSError as exc:
            raise UsageError(f"cannot write {args.output}: {exc}") from exc
    else:
        out.write(rendered)
    return 0


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process."""
    parser = argparse.ArgumentParser(
        prog="tamari",
        description="Tamari intervals, interval-posets and noncrossing objects",
    )
    parser.add_argument(
        "--bound",
        type=int,
        default=None,
        help="size bound for exhaustive commands (default 6, env TAMARI_MAX_SIZE)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="stream a family as JSON lines")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--family", choices=FAMILIES, default="all")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("classify", help="classification flags and (ir, dr)")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--size", type=int)
    source.add_argument("--poset", help="a single poset as JSON")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("convert", help="apply a bijection between encodings")
    p.add_argument("--from", choices=("interval", "poset", "nct", "ncp"), required=True)
    p.add_argument("--to", choices=("interval", "poset", "nct", "ncp"), required=True)
    p.add_argument("--input", help="JSON input (default: stdin)")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("census", help="counts vs formulas")
    p.add_argument("--max-size", type=int, default=5)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("verify", help="run every cross-check")
    p.add_argument("--max-size", type=int, default=4)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("export", help="render a poset as DOT or JSON")
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.add_argument("--diagram", choices=("arcs", "hasse"), default="arcs")
    p.add_argument("--input", help="poset JSON (default: stdin)")
    p.add_argument("--output", help="output path (default: stdout)")
    p.set_defaults(func=cmd_export)

    return parser


def main(argv: list[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.bound is None:
            args.bound = _default_bound()
        code = args.func(args, out)
        out.flush()
        return code
    except BrokenPipeError:
        if out is sys.stdout:
            # the interpreter flushes stdout again at exit; point it at
            # devnull so that flush cannot raise a second time
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return BROKEN_PIPE
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
