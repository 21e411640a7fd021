"""Command-line front end.

Subcommands: ``order``, ``rank``, ``gens``, ``member``, ``calc``,
``verify`` and ``selftest``; ``--version`` prints the package version.
Exit codes: 0 on success, 1 when a verification or self-test claim fails,
2 on usage or parse errors, 141 (128 + SIGPIPE) when the reader of standard
output closes it early, as ``head`` does.

Randomized suites take an explicit ``--seed``; the default (1729) is fixed,
so every command is deterministic given its arguments.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from sylow2 import __version__, composite, derived, verify, wreath
from sylow2.permgroup import format_cycles
from sylow2.portrait import (
    compose,
    format_portrait,
    inverse,
    leaf_permutation,
    parse_portrait,
)

_MEMBER_PREDICATES = {
    "G": wreath.in_G,
    "W": wreath.in_W,
    "derived-B": derived.in_derived_B,
    "derived-G": derived.in_derived_G,
    "frattini-G": derived.in_derived_G,  # in G, Frattini = derived
    "typeT": wreath.is_type_T,
    "typeC": wreath.is_type_C,
}


def _portrait_text(g):
    return f"{format_portrait(g)}\n{format_cycles(leaf_permutation(g))}"


def _commutator(a, b):
    return compose(compose(a, b), compose(inverse(a), inverse(b)))


_CALC_OPS = {  # op: (operand count, operation, text of its result)
    "mul": (2, compose, _portrait_text),
    "inv": (1, inverse, _portrait_text),
    "comm": (2, _commutator, _portrait_text),
    "abelianize-B": (1, derived.abelianization_B, derived.format_parity_vector),
    "abelianize-G": (1, derived.abelianization_G, derived.format_parity_vector),
}


def _int(text: str) -> int:
    """An optional '-' then ASCII digits; int() alone also takes "1_000",
    " +12" and non-ASCII digits."""
    digits = text.removeprefix("-")
    try:
        if digits.isascii() and digits.isdigit():
            return int(text)
    except ValueError:  # more digits than the interpreter converts
        pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _cmd_order(args):
    print(f"2^{composite.order_log2_syl2(args.kind, args.n)}")
    return 0


def _cmd_rank(args):
    print(composite.rank_syl2(args.kind, args.n))
    return 0


def _format_tuple(element):
    return "|".join(
        "e" if part is None else format_portrait(part) for part in element.parts
    )


def _cmd_gens(args):
    for element in composite.build_tuples(args.kind, args.n):
        if args.format == "cycles":
            print(format_cycles(composite.embed(element)))
        else:
            print(_format_tuple(element))
    return 0


def _cmd_member(args):
    g = parse_portrait(args.element)
    verdict = _MEMBER_PREDICATES[args.predicate](g)
    print("yes" if verdict else "no")
    return 0


def _cmd_calc(args):
    count, operation, output = _CALC_OPS[args.op]
    operands = [parse_portrait(text) for text in args.elements]
    if len(operands) != count:
        noun = "one operand" if count == 1 else "two operands"
        raise ValueError(f"{args.op} takes exactly {noun}")
    print(output(operation(*operands)))
    return 0


def _cmd_verify(args):
    run: dict = {}  # the claims' workspace, shared with the report summary
    records = verify.run_verification(
        args.kind, args.target, args.level, args.seed, run
    )
    for r in records:
        status = "pass" if r.passed else "FAIL"
        print(
            f"{status} {r.claim} {r.params} expected={r.expected} "
            f"computed={r.computed} [{r.provenance}] ({r.wall_time_s:.3f}s)"
        )
    if args.json is not None:  # an empty path is an error, not no report
        doc = verify.report_to_json(
            args.kind, args.target, args.level, args.seed, records, run
        )
        try:
            verify.write_report(args.json, doc)
        except OSError as exc:
            print(f"error: cannot write the report: {exc}", file=sys.stderr)
            return 2
    return 0 if all(r.passed for r in records) else 1


def _cmd_selftest(args):
    return 0 if verify.run_selftest(args.seed) else 1


@functools.cache  # one parser per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sylow2",
        description="Sylow 2-subgroups of symmetric and alternating groups, "
        "computed from binary rooted-tree portraits and checked against a "
        "permutation-group oracle.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("order", help="2-adic order of the Sylow 2-subgroup")
    p.add_argument("kind", choices=("S", "A"))
    p.add_argument("n", type=_int)
    p.set_defaults(func=_cmd_order)

    p = sub.add_parser("rank", help="minimal generating set size")
    p.add_argument("kind", choices=("S", "A"))
    p.add_argument("n", type=_int)
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("gens", help="emit a minimal generating set")
    p.add_argument("kind", choices=("S", "A"))
    p.add_argument("n", type=_int)
    p.add_argument("--format", choices=("cycles", "portrait"), default="cycles")
    p.set_defaults(func=_cmd_gens)

    p = sub.add_parser("member", help="membership predicates on portraits")
    p.add_argument("predicate", choices=sorted(_MEMBER_PREDICATES))
    p.add_argument("element", help="portrait text, e.g. 0/00/1001")
    p.set_defaults(func=_cmd_member)

    p = sub.add_parser("calc", help="portrait calculator")
    p.add_argument("op", choices=list(_CALC_OPS))
    p.add_argument("elements", nargs="+", help="portrait text operands")
    p.set_defaults(func=_cmd_calc)

    p = sub.add_parser("verify", help="run the verification claims")
    p.add_argument("kind", choices=("S", "A", "B", "G"))
    p.add_argument("target", type=_int, help="n for kinds S/A, depth k for B/G")
    p.add_argument("--level", choices=("quick", "full"), default="quick")
    p.add_argument("--json", help="write the report to this path")
    p.add_argument("--seed", type=_int, default=verify.DEFAULT_SEED)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("selftest", help="run the invariant self tests")
    p.add_argument("--seed", type=_int, default=verify.DEFAULT_SEED)
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so that a closed pipe fails here, however short the output
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader is gone; what is still buffered goes to devnull, so
        # that the interpreter's flush at exit does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


if __name__ == "__main__":
    sys.exit(main())
