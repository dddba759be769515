"""Command-line surface: normality queries, stratum tables, lemma suites,
and dominance-poset exports.

Exit codes: 0 success, 1 a verification suite found a counterexample,
2 usage/parse/bound errors.  Data goes to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import lru_cache
from json.encoder import encode_basestring_ascii

from . import verify
from .partitions import (
    dominance_covers,
    enumerate_partitions,
    format_partition,
    parse_partition,
    s_step,
)
from .strata import _fields, _rows, dim_orbit, lambda_bound

POSET_BOUND = 40


def _write_json(obj) -> None:
    """Write json.dumps(obj, sort_keys=True, indent=2) and a newline to
    stdout; json.dump writes it in chunks, never as one string."""
    json.dump(obj, sys.stdout, sort_keys=True, indent=2)
    sys.stdout.write("\n")


def _ints(values, pad: str) -> str:
    """json.dumps(indent=2)'s text of a nonempty list of ints on a line indented by pad."""
    return f"[\n{pad}  " + f",\n{pad}  ".join(map(str, values)) + f"\n{pad}]"


def _write_list(write, items) -> None:
    """Write json.dumps(indent=2)'s text of a list member of the top-level
    object, from its items' texts (each indented as a list item): one
    write per item, and "[]" when there are none."""
    lead = "[\n    "
    for item in items:
        write(lead + item)
        lead = ",\n    "
    write("[]" if lead == "[\n    " else "\n  ]")


def _cmd_normal(args) -> int:
    lam = parse_partition(args.partition)
    verdict = verify.is_normal(lam, certify=args.certify)
    # is_normal applies the bound; this test only words the note, as
    # (1^n) gets no certificate within the bound either
    if args.certify and verdict.gap_certificate is None and sum(lam) > lambda_bound():
        print(
            f"note: |lambda| = {sum(lam)} exceeds the enumeration bound"
            f" {lambda_bound()}; no gap certificate",
            file=sys.stderr,
        )
    if args.format == "json":
        payload = {
            "lambda": list(lam),
            "normal": verdict.normal,
            "witness": verdict.witness,
            "min_gap_num4": None
            if verdict.gap_certificate is None
            else int(verdict.gap_certificate * 4),
        }
        _write_json(payload)
        return 0
    if verdict.normal:
        line = "normal"
    else:
        line = f"NOT normal (step at row {verdict.witness})"
    if verdict.gap_certificate is not None:
        line += f"; min gap {verdict.gap_certificate}"
    print(line)
    return 0


def _cmd_strata(args) -> int:
    """Write strata_report(lam) as _write_json or as text lines would, one
    write per row of strata._rows, so the table is never held whole; the
    JSON members around the rows are fixed, in json.dumps's key order."""
    lam = parse_partition(args.partition)
    rows = _rows(lam)  # checks lam before anything is written
    fields = _fields(lam)
    write = sys.stdout.write
    if args.format == "json":
        write(f'{{\n  "dimM": {fields["dimM"]},\n  "dimN": {fields["dimN"]},\n  "dims": '
              f'{_ints(fields["dims"], "  ")},\n  "lambda": {_ints(fields["lambda"], "  ")},\n  "strata": ')
        arrays = {}  # per orbit, the text of its parts
        _write_list(write, (
            f'{{\n      "dim_num4": {dim4},\n      "mu": '
            f'{arrays.get(mu) or arrays.setdefault(mu, _ints(mu, "      "))},\n      "tau": [\n        '
            + ",\n        ".join(map(encode_basestring_ascii, texts)) + "\n      ]\n    }"
            for texts, mu, dim4 in rows))
        write(f',\n  "t": {fields["t"]}\n}}\n')
        return 0
    write(f"lambda={format_partition(lam)}  n={sum(lam)}  t={fields['t']}"
          f"  dims={','.join(map(str, fields['dims']))}"
          f"  dimM={fields['dimM']}  dimN={fields['dimN']}\n")
    ends = {}  # per (orbit, dimension), the marker and the line's tail
    for texts, mu, dim4 in rows:
        end = ends.get((mu, dim4))
        if end is None:
            end = ends[mu, dim4] = (
                " * " if mu == lam else "   ",
                f"    mu={format_partition(mu)}  dim={Fraction(dim4, 4)}\n",
            )
        write(end[0] + " | ".join(texts) + end[1])
    return 0


def _cmd_verify(args) -> int:
    cap = 10**9 if args.full_counterexamples else verify.COUNTEREXAMPLE_CAP
    if args.lemma == "all":
        reports = verify.run_all(args.max_n, max_counterexamples=cap)
    else:
        reports = [verify.run_suite(args.lemma, args.max_n, max_counterexamples=cap)]
    if args.format == "json":
        _write_json([r.to_dict() for r in reports])
    else:
        for r in reports:
            status = "ok  " if r.ok else "FAIL"
            print(
                f"{status} {r.lemma_id:<15} n<={r.n_range[1]:<3}"
                f" instances={r.instances_checked:<9}"
                f" counterexamples={len(r.counterexamples)}"
                f" ({r.elapsed_s:.2f}s)"
            )
            for ce in r.counterexamples:
                print(f"      {json.dumps(ce, sort_keys=True)}")
    return 0 if all(r.ok for r in reports) else 1


def _poset_data(n: int) -> tuple[list[tuple[str, bool, int]], list[tuple[str, str]]]:
    """The dominance poset of P(n): per partition, in enumeration order,
    (name, normal, dim_orbit); and the covers as (name, name), in
    dominance_covers order."""
    names = {lam: format_partition(lam) for lam in enumerate_partitions(n)}
    nodes = [(name, s_step(lam, 1), int(dim_orbit(lam))) for lam, name in names.items()]
    edges = [(names[lam], names[mu]) for lam, mu in dominance_covers(n)]
    return nodes, edges


def _cmd_poset(args) -> int:
    n = args.n
    if n < 1 or n > POSET_BOUND:
        raise ValueError(f"poset size must be between 1 and {POSET_BOUND}")
    nodes, edges = _poset_data(n)
    if args.format == "json":
        # json.dumps(sort_keys=True, indent=2)'s bytes, one write per edge and per
        # node; partition names are digits and commas, so they need no escaping
        write = sys.stdout.write
        write('{\n  "edges": ')
        _write_list(write, (f'[\n      "{src}",\n      "{dst}"\n    ]' for src, dst in edges))
        write(f',\n  "n": {n},\n  "nodes": ')
        _write_list(write, (f'{{\n      "dim_orbit": {dim},\n      "normal": {"true" if normal else "false"}'
                            f',\n      "partition": "{name}"\n    }}' for name, normal, dim in nodes))
        write("\n}\n")
        return 0
    tags = ("not normal", "normal")
    if args.format == "dot":
        lines = [f'digraph "dominance_{n}" {{']
        for name, normal, dim in nodes:
            lines.append(f'  "{name}" [shape={"box" if normal else "ellipse"},'
                         f' label="{name}\\ndim={dim} {tags[normal]}"];')
        for src, dst in edges:
            lines.append(f'  "{src}" -> "{dst}";')
        lines.append("}")
        print("\n".join(lines))
        return 0
    print(f"dominance order on partitions of {n}: {len(nodes)} nodes, {len(edges)} edges")
    for name, normal, dim in nodes:
        print(f"  {name:<12} dim={dim:<4} {tags[normal]}")
    for src, dst in edges:
        print(f"  {src} > {dst}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symorbit",
        description="Nilpotent orbit closures in the orthogonal symmetric space:"
        " normality, stratum dimensions, and exhaustive lemma checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_normal = sub.add_parser("normal", help="decide normality of an orbit closure")
    p_normal.add_argument("partition", help="partition literal, e.g. 3,1 or [3,1]")
    p_normal.add_argument(
        "--certify",
        action="store_true",
        help="also compute the minimum stratum gap (small partitions only)",
    )
    p_normal.add_argument("--format", choices=("text", "json"), default="text")
    p_normal.set_defaults(func=_cmd_normal)

    p_strata = sub.add_parser("strata", help="list stratum labels and dimensions")
    p_strata.add_argument("partition")
    p_strata.add_argument("--format", choices=("text", "json"), default="text")
    p_strata.set_defaults(func=_cmd_strata)

    p_verify = sub.add_parser("verify", help="run exhaustive lemma suites")
    p_verify.add_argument(
        "lemma",
        help="a lemma id or 'all'; known ids: " + ", ".join(verify.SUITES),
    )
    p_verify.add_argument("--max-n", type=int, default=None, dest="max_n")
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.add_argument(
        "--full-counterexamples",
        action="store_true",
        help=f"do not cap the counterexample list at {verify.COUNTEREXAMPLE_CAP} per suite",
    )
    p_verify.set_defaults(func=_cmd_verify)

    p_poset = sub.add_parser("poset", help="export the dominance poset of P(n)")
    p_poset.add_argument("n", type=int)
    p_poset.add_argument("--format", choices=("text", "json", "dot"), default="text")
    p_poset.set_defaults(func=_cmd_poset)

    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """build_parser(), built on the first call of main and reused: building
    it costs about 20 times as much as parsing one command line."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
