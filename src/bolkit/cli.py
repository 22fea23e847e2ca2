"""Command-line surface for bolkit.

Commands
--------
bolkit check FILE                structural report for a .tbl file
bolkit construct SPEC -o FILE    build a table and write it out
bolkit classify FILE...          isomorphism classes of the given tables
bolkit enumerate-q9 [--classify] the 512-member nine-parameter family
bolkit oracle order8             exhaustive order-8 left Bol search
bolkit verify-paper [--json]     run the whole claim suite
bolkit iso FILE1 FILE2           isomorphism between two tables

Construction spec grammar (the SPEC argument of ``construct``):

    q9 BBBBBBBBB            nine bits, e.g. "q9 000000000"
    exceptional
    named order12
    named order16cyclic
    named order16elem
    named order4n:N         N > 2
    named commutant:K       K > 2
    semidirect K=<grp> E=<grp> tau=<spec>

where <grp> is ``cyclic:N`` or ``elem2:M`` and <spec> is either
``trivial`` or a comma-separated list of 0-based indices into the
canonically sorted automorphism list of K (index 0 is the identity),
one per element of E in element order, starting with 0 for element 1.

Exit codes: 0 success, 1 verification/isomorphism failure, 2 input error.
A reader that closes stdout early (``bolkit enumerate-q9 | head -1``)
ends the command with exit 1 and no message.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .errors import BadSpec, BolkitError, Malformed, TooLarge
from .extensions import (
    MAX_AUT_MAPS,
    GroupTable,
    TauMap,
    automorphism_group,
    build_named_example,
    build_semidirect,
    cyclic_group,
    elem_abelian_2,
    trivial_tau,
)
from .gf2 import build_exceptional, build_q9, classify_q9, enumerate_q9
from .iso import classification_report, classify, find_isomorphism
from .loop_core import MAX_ORDER, LoopTable, check_order, decimal_ints, parse_table, render
from .oracle import summarize_order8, witnessed_search
from .structure import _predicates, involution_count, structure_report
from .verify import VerificationSuite, report_json_lines, report_lines

def _load(path: str) -> LoopTable:
    """The table in the file at path; every error names the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_table(fh.read(), name=path)
    except UnicodeDecodeError as exc:
        raise Malformed(f"{path}: not UTF-8 text: {exc}") from None
    except BolkitError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _spec_int(field: str, error: str) -> int:
    """A spec field of ASCII decimal digits as an int, else BadSpec(error)."""
    try:
        [value] = decimal_ints([field])
    except ValueError:
        raise BadSpec(error) from None
    return value


def _parse_group(token: str) -> tuple[str, int]:
    """The kind and order of the group a spec token names, before it is built.

    N for ``cyclic:N`` and 2^M for ``elem2:M``; an M whose 2^M exceeds
    MAX_ORDER is rejected before 2^M is formed.
    """
    kind, _, num = token.partition(":")
    size = _spec_int(num, f"bad group spec {token!r}")
    if kind == "cyclic":
        return kind, size
    if kind == "elem2":
        if size >= MAX_ORDER.bit_length():
            raise TooLarge(f"order 2^{size} exceeds supported maximum {MAX_ORDER}")
        return kind, 1 << size
    raise BadSpec(f"unknown group kind {kind!r}")


def _build_group(kind: str, order: int) -> tuple[GroupTable, int]:
    """The group of a parsed spec token, and its number of automorphisms.

    |Aut(Z_N)| is phi(N), and |Aut(Z2^M)| = |GL(M,2)| is the product of
    2^M - 2^i over i < M; both are counted after the group is built, which
    checks its size.
    """
    if kind == "cyclic":
        return cyclic_group(order), sum(math.gcd(k, order) == 1 for k in range(1, order + 1))
    m = order.bit_length() - 1
    return elem_abelian_2(m), math.prod(order - 2**i for i in range(m))


def construct_from_spec(spec: str) -> LoopTable:
    words = spec.split()
    if not words:
        raise BadSpec("empty construction spec")
    head, rest = words[0], words[1:]
    if head == "q9":
        if len(rest) != 1 or len(rest[0]) != 9 or set(rest[0]) - {"0", "1"}:
            raise BadSpec("q9 expects nine bits, e.g. 'q9 000000000'")
        return build_q9(tuple(int(ch) for ch in rest[0]))
    if head == "exceptional":
        if rest:
            raise BadSpec("exceptional takes no arguments")
        return build_exceptional()
    if head == "named":
        if len(rest) != 1:
            raise BadSpec("named expects one name")
        name, _, arg = rest[0].partition(":")
        if name in ("order12", "order16cyclic", "order16elem"):
            if arg:
                raise BadSpec(f"{name} takes no parameter")
            return build_named_example(name)
        if name == "order4n":
            n = _spec_int(arg, "order4n:N needs an integer N")
            return build_named_example("order4n", n=n)
        if name == "commutant":
            k = _spec_int(arg, "commutant:K needs an integer K")
            return build_named_example("commutant_order", k=k)
        raise BadSpec(f"unknown named example {rest[0]!r}")
    if head == "semidirect":
        fields = dict(w.partition("=")[::2] for w in rest)
        if len(fields) != len(rest) or set(fields) != {"K", "E", "tau"}:
            raise BadSpec("semidirect needs K=, E=, tau=, each once")
        k_kind, k_order = _parse_group(fields["K"])
        e_kind, e_order = _parse_group(fields["E"])
        # |K| * |E| from the tokens: TauMap checks |E| automorphisms at |K|^2
        # products each, long before build_semidirect would check the order
        check_order(k_order * e_order)
        K, aut_count = _build_group(k_kind, k_order)
        E, _ = _build_group(e_kind, e_order)
        if fields["tau"] == "trivial":
            tau = trivial_tau(K, E)
        else:
            error = "tau must be 'trivial' or comma-separated indices"
            indices = [_spec_int(t, error) for t in fields["tau"].split(",")]
            if len(indices) != E.order:
                raise BadSpec(f"tau needs {E.order} indices, got {len(indices)}")
            # the same cap automorphism_group enforces, before listing a single map
            if aut_count > MAX_AUT_MAPS:
                raise TooLarge(f"automorphism enumeration capped at {MAX_AUT_MAPS} maps")
            auts = automorphism_group(K)
            if any(i >= len(auts) for i in indices):
                raise BadSpec(f"tau indices must be in 0..{len(auts) - 1}")
            tau = TauMap(E, K, tuple(auts[i] for i in indices))
        return build_semidirect(tau, name=f"semidirect({fields['K']},{fields['E']})")
    raise BadSpec(f"unknown construction {head!r}")


def cmd_check(args: argparse.Namespace) -> int:
    sys.stdout.write(structure_report(_load(args.file)))
    return 0


def cmd_construct(args: argparse.Namespace) -> int:
    Q = construct_from_spec(args.spec)
    text = render(Q)
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {Q.name or 'table'} ({Q.order}x{Q.order}) to {args.output}")
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    loops = [_load(path) for path in args.files]
    classes = classify(loops)
    sys.stdout.write(classification_report(loops, classes))
    print(f"{len(loops)} tables in {len(classes)} isomorphism classes")
    return 0


def cmd_enumerate_q9(args: argparse.Namespace) -> int:
    loops = enumerate_q9()
    if args.classify:
        classes = classify_q9(loops)
        sys.stdout.write(classification_report(loops, classes))
        print(f"{len(loops)} loops in {len(classes)} isomorphism classes")
    else:
        for Q in loops:
            com, nuc, _ = _predicates(Q)
            print(
                f"{Q.name} commutant={len(com)}"
                f" involutions={involution_count(Q)} rnuc={len(nuc.right)}"
            )
        print(f"{len(loops)} loops")
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    try:
        rep = summarize_order8(witnessed_search(8))
    except BolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"tables found: {rep.tables_found}")
    print(f"isomorphism classes: {rep.class_count}")
    print(f"associative classes: {rep.associative_classes}")
    print(f"nonassociative classes: {rep.nonassociative_classes}")
    print(f"all commutants are subloops: {'yes' if rep.all_commutants_subloops else 'NO'}")
    failed = rep.failures()
    if failed:
        print(f"error: failed checks: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def cmd_verify_paper(args: argparse.Namespace) -> int:
    suite = VerificationSuite()
    results = suite.run()
    lines = report_json_lines(results) if args.json else report_lines(results)
    for line in lines:
        print(line)
    return 0 if all(r.passed for r in results) else 1


def cmd_iso(args: argparse.Namespace) -> int:
    phi = find_isomorphism(_load(args.file1), _load(args.file2))
    if phi is None:
        print("non-isomorphic")
        return 1
    print("isomorphic: " + " ".join(str(v) for v in phi))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``bolkit`` parser; each subcommand sets ``fn`` to its handler."""
    parser = argparse.ArgumentParser(prog="bolkit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="structural report for a table file")
    p.add_argument("file")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("construct", help="build a table from a construction spec")
    p.add_argument("spec")
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("classify", help="classify table files up to isomorphism")
    p.add_argument("files", nargs="+")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("enumerate-q9", help="enumerate the 512-member family")
    p.add_argument("--classify", action="store_true")
    p.set_defaults(fn=cmd_enumerate_q9)

    p = sub.add_parser("oracle", help="exhaustive searches")
    p.add_argument("target", choices=["order8"])
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("verify-paper", help="run the full verification suite")
    p.add_argument("--json", action="store_true", help="one JSON object per claim")
    p.set_defaults(fn=cmd_verify_paper)

    p = sub.add_parser("iso", help="find an isomorphism between two tables")
    p.add_argument("file1")
    p.add_argument("file2")
    p.set_defaults(fn=cmd_iso)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; an unreadable file or a bad input is exit 2."""
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader has gone; Python flushes stdout again at exit, so
        # point it at devnull, as the signal module's docs advise
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except (OSError, BolkitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
