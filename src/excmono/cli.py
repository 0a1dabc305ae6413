"""Command-line entry point.

Every subcommand emits one JSON manifest on stdout: the command, its
parameters, the toolkit version, the result blob, and `checks`, the
`obs.runs()` of the command: each named check that ran with its run
count, and each verdict (`strictly-rigid`, the verify-all criteria) with
a count of 1.  Logs and timing go to stderr so stdout stays byte-stable
across runs.  CSV output exists only for the a1 scan table.  Exit codes:
0 all checks passed, 1 a check failed, 2 usage.  `run` is the process
entry of `python -m excmono` and of the installed `excmono` script;
in-process callers use `main`.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from contextlib import ExitStack
from time import perf_counter

from . import __version__, obs


def _cmd_roots(args):
    from .rootsys import root_system
    return root_system(args.label).json_dict()


def _cmd_k_type(args):
    from .affine_k import K_TYPE_TABLE, k_type_row
    labels = sorted(K_TYPE_TABLE) if args.label == "all" else [args.label]
    rows = [k_type_row(label) for label in labels]
    return rows[0] if len(rows) == 1 else rows


def _cmd_atilde(args):
    from .twogroup import atilde_result
    return atilde_result(args.label)


def _cmd_monodromy(args):
    from .chevalley import monodromy_result
    return monodromy_result(args.label, args.seed, 500)


def _cmd_a1(args):
    from .a1lab import MAX_Q, a1_result, render_csv
    primes = []
    for x in filter(None, args.primes.split(",")):
        # a longer decimal is above MAX_Q; int refuses 4 300 digits
        digits = x.strip().lstrip("+").lstrip("0")
        if digits.isdecimal() and len(digits) > len(str(MAX_Q)):
            raise ValueError(f"{obs.clip(x)} is above the bound MAX_Q = "
                             f"{MAX_Q} on the a1 prime")
        try:
            primes.append(int(x))
        except ValueError:
            raise ValueError(
                f"--primes: {obs.clip(x)!r} is not an integer") from None
    if not primes:
        raise ValueError("--primes lists no prime")
    if len(set(primes)) != len(primes):
        raise ValueError(f"--primes {args.primes} lists a prime twice")
    result = a1_result(primes)
    if args.format == "csv":
        return render_csv(result["records"])
    return result


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _load_file_group(path: str):
    """The `FiniteGroup` of a `file:` input; ValueError unless its shape
    is right and every generator is invertible."""
    from .arith import is_prime
    from .rigidity import MAX_POINTS, FiniteGroup, MatrixRep
    try:
        with open(path) as fh:
            blob = json.load(fh)
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ValueError(f"{path}: not JSON: {exc}") from None
    if not isinstance(blob, dict):
        raise ValueError(f"{path}: want a JSON object, not a JSON "
                         f"{type(blob).__name__}")
    p, n, gens, scalars = (blob.pop(key, None)
                           for key in ("p", "n", "generators", "scalars"))
    if blob:
        raise ValueError(f"{path}: unknown key {next(iter(blob))!r}; want "
                         "only p, n, generators, scalars")
    if not _is_int(p) or not is_prime(p):
        raise ValueError(f"{path}: p = {p!r} is not a prime")
    # the n basis vectors are n points of the frame orbit
    if not _is_int(n) or not 1 <= n <= MAX_POINTS:
        raise ValueError(f"{path}: n = {n!r} is not an integer in 1 .. "
                         f"{MAX_POINTS}")
    if not isinstance(gens, list) or not all(
            isinstance(g, list) and len(g) == n * n and all(map(_is_int, g))
            for g in gens):
        raise ValueError(f"{path}: generators must be a list of lists of "
                         f"{n * n} integers")
    if scalars is not None and not (
            isinstance(scalars, list)
            and all(_is_int(s) and s % p for s in scalars)):
        raise ValueError(f"{path}: scalars must be null or a list of "
                         f"units mod {p}")
    # the cyclic group F_p^x has one subgroup of each order d | p-1, the
    # roots of x^d = 1; canonical multiples need S to be one of them
    units = {s % p for s in scalars or ()}
    if units and ((p - 1) % len(units)
                  or any(pow(s, len(units), p) != 1 for s in units)):
        raise ValueError(f"{path}: scalars are not a subgroup of the "
                         f"units mod {p}")
    rep = MatrixRep(p, n, scalars=tuple(scalars) if scalars else None)
    try:   # singular, too many points, or too many elements
        return FiniteGroup(rep.permutations(gens))
    except (ValueError, OverflowError) as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _cmd_rigid(args):
    from .rigidity import predicted_triple, psl2_group, rigid_result
    if args.group.startswith("file:"):
        if args.ell is not None:
            raise ValueError("--ell needs --group pgl2 or psl2; a file: "
                             "group gives its own p")
        group = _load_file_group(args.group[5:])
    elif args.group not in ("pgl2", "psl2"):
        raise ValueError(
            f"unknown --group {args.group!r}; use pgl2, psl2, or file:<path>")
    elif args.ell is None:
        args.ell = 5   # recorded in the manifest's parameters
    if args.group == "pgl2":
        if args.classes is not None:
            raise ValueError("--classes needs --group psl2 or file:<path>; "
                             "pgl2 reports its fixture triple")
        return predicted_triple(args.ell)
    if args.group == "psl2":
        group = psl2_group(args.ell)
    labels = () if args.classes is None else args.classes.split(",")
    result = rigid_result(group, labels)
    if args.group == "psl2":
        result["label"] = f"psl2-{args.ell}"
        if "triple" in result:   # a file: triple is reported, not judged
            obs.verdict("strictly-rigid", result["triple"]["strictly_rigid"])
    return result


def _cmd_verify_all(args):
    from .verify import CriterionResult, run_all
    results: list[CriterionResult] = run_all(seed=args.seed)
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"[{status}] criterion {res.number} {res.name} "
              f"({res.elapsed:.2f}s)", file=sys.stderr)
        obs.verdict(f"criterion-{res.number}-{res.name}", res.passed)
    result = {
        "criteria": [{"number": r.number, "name": r.name,
                      "passed": r.passed, "details": r.details}
                     for r in results],
        "all_passed": all(r.passed for r in results),
    }
    return result


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="excmono",
        description="exact checks for exceptional-group monodromy data")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="also write stdout payload to this file")

    p = sub.add_parser("roots", parents=[common],
                       help="root-system card for one label")
    p.add_argument("label")
    p.set_defaults(fn=_cmd_roots)

    p = sub.add_parser("k-type", parents=[common],
                       help="symmetric-subgroup row(s) of the type table")
    p.add_argument("label", help="a label such as E8, or 'all'")
    p.set_defaults(fn=_cmd_k_type)

    p = sub.add_parser("atilde", parents=[common],
                       help="coroot-mod-2 Heisenberg group summary")
    p.add_argument("label")
    p.set_defaults(fn=_cmd_atilde)

    p = sub.add_parser("monodromy", parents=[common],
                       help="Chevalley centralizer dims and rigidity budget")
    p.add_argument("label")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_monodromy)

    p = sub.add_parser("a1", parents=[common],
                       help="quartic trace-sum scan over chosen primes")
    p.add_argument("--primes", default="5,13,17,29")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(fn=_cmd_a1)

    p = sub.add_parser("rigid", parents=[common],
                       help="triple rigidity report for a small group")
    p.add_argument("--group", default="pgl2",
                   help="pgl2, psl2, or file:<path> with generator matrices")
    p.add_argument("--ell", type=int, help="for pgl2 and psl2 only; default 5")
    p.add_argument("--classes",
                   help="comma list of class labels for a psl2 or file: "
                        "triple")
    p.set_defaults(fn=_cmd_rigid)

    p = sub.add_parser("verify-all", parents=[common],
                       help="run every acceptance criterion")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_verify_all)

    return parser


def render_manifest(manifest: dict) -> str:
    return json.dumps(manifest, indent=2, sort_keys=True) + "\n"


def _parameters(args) -> dict:
    skip = {"command", "fn", "out", "format"}
    return {k: v for k, v in sorted(vars(args).items())
            if k not in skip and v is not None}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # the checks of this command alone, run from cold caches
    obs.reset()
    t0 = perf_counter()
    with ExitStack() as stack:
        try:
            # opened first, so a path that cannot be written costs no work,
            # and to append, so a failed command leaves an old file whole
            out = args.out is not None and stack.enter_context(
                open(args.out, "a"))
            result = args.fn(args)
        except (ValueError, OverflowError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except obs.CheckFailed as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            return 1
        checks = obs.runs()
        if args.command == "a1" and args.format == "csv":
            payload = result
        else:
            payload = render_manifest({
                "command": args.command,
                "parameters": _parameters(args),
                "version": __version__,
                "result": result,
                "checks": checks,
            })
        where = args.out
        try:   # the file first, so a failed write to it prints no manifest
            if out:
                out.truncate(0)
                out.write(payload)
                out.close()
            where = "stdout"
            sys.stdout.write(payload)
            sys.stdout.flush()
        except OSError as exc:
            print(f"error: {where}: {exc}", file=sys.stderr)
            return 2
    print(f"{args.command}: done in {perf_counter() - t0:.2f}s",
          file=sys.stderr)
    return 0 if all(c["passed"] for c in checks) else 1


def run() -> None:
    """Exit the process with `main`'s code, skipping the collector's
    exit-time passes.

    At exit CPython's finalization runs cyclic collections over every
    module, function and class the process loaded.  `gc.freeze` moves
    them all to the permanent generation, which no collection scans.
    Everything else about exit is kept: `main` has closed `--out`, and
    stdout, stderr and atexit are flushed and run as usual.  `main`
    itself never freezes, so in-process callers keep their collector.
    A stdout that `main` could not flush is pointed at os.devnull, so the
    flush at exit does not fail again and change the exit code.
    """
    try:
        code = main()
        try:
            sys.stdout.flush()
        except OSError:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(code)
    finally:
        gc.freeze()
