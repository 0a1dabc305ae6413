"""Command-line entry point.

Every subcommand emits one JSON manifest on stdout: the command, its
parameters, the toolkit version, the result blob, and `checks`, the
`obs.runs()` of the command: each named check that ran with its run
count, and each verdict (`strictly-rigid`, the verify-all criteria) with
a count of 1.  Logs and timing go to stderr so stdout stays byte-stable
across runs.  CSV output exists only for the a1 scan table.  Exit codes:
0 all checks passed, 1 a check failed, 2 usage.  Argv is read against
`COMMANDS`, one row per subcommand, so no command builds a parser, and
a usage error is one `error:` line like any other refused input.  `run`
is the process entry of `python -m excmono` and of the installed
`excmono` script; in-process callers use `main`.
"""

from __future__ import annotations

import gc
import json
import os
import sys
from contextlib import ExitStack
from time import perf_counter
from types import SimpleNamespace

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


def _cmd_rigid(args):
    from .rigidity import (load_file_group, predicted_triple, psl2_group,
                           rigid_result)
    if args.group.startswith("file:"):
        if args.ell is not None:
            raise ValueError("--ell needs --group pgl2 or psl2; a file: "
                             "group gives its own p")
        group = load_file_group(args.group[5:])
    elif args.group not in ("pgl2", "psl2"):
        raise ValueError(
            f"unknown --group {obs.clip(args.group)!r}; use pgl2, psl2, or "
            "file:<path>")
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


# subcommand -> (handler, help, positional names, {option: (type,
# default, choices)}); every subcommand also takes --out FILE, which gets
# the stdout payload too
COMMANDS = {
    "roots": (_cmd_roots, "root-system card for one label", ("label",), {}),
    "k-type": (_cmd_k_type, "symmetric-subgroup row(s) of the type table; "
               "LABEL may be 'all'", ("label",), {}),
    "atilde": (_cmd_atilde, "coroot-mod-2 Heisenberg group summary",
               ("label",), {}),
    "monodromy": (_cmd_monodromy,
                  "Chevalley centralizer dims and rigidity budget",
                  ("label",), {"--seed": (int, 0, None)}),
    "a1": (_cmd_a1, "quartic trace-sum scan over chosen primes", (),
           {"--primes": (str, "5,13,17,29", None),
            "--format": (str, "json", ("json", "csv"))}),
    "rigid": (_cmd_rigid, "triple rigidity report; GROUP pgl2, psl2 or "
              "file:PATH; ELL 5 by default", (),
              {"--group": (str, "pgl2", None), "--ell": (int, None, None),
               "--classes": (str, None, None)}),
    "verify-all": (_cmd_verify_all, "run every acceptance criterion", (),
                   {"--seed": (int, 0, None)}),
}


def parse_args(argv):
    """The namespace of one command line, read against COMMANDS: the
    command, each positional under its name, and each option under its
    name without the dashes, at its last value or else its default.  An
    option is `--opt value` or `--opt=value`, before or after the
    positionals; an int option is read here, once.  ValueError for any
    other shape: no or an unknown command, an unknown or abbreviated
    option, a missing value, a missing or extra positional, an int
    option that is no integer, or a value outside an option's choices."""
    if not argv or argv[0] not in COMMANDS:
        got = f"unknown command {obs.clip(argv[0])!r}" if argv else \
            "no command"
        raise ValueError(f"{got}; choose from {', '.join(COMMANDS)}")
    command = argv[0]
    _, _, positionals, options = COMMANDS[command]
    options = {**options, "--out": (str, None, None)}
    args = {"command": command}
    args.update((name[2:], default) for name, (_, default, _) in
                options.items())
    free = []
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            free.append(token)
            continue
        name, eq, value = token.partition("=")
        if name not in options:
            raise ValueError(f"{command} has no option {obs.clip(name)!r}")
        kind, _, choices = options[name]
        value = value if eq else next(tokens, None)
        if value is None:
            raise ValueError(f"{name} needs a value")
        if kind is int:
            try:
                value = int(value)
            except ValueError:   # also a string of over 4 300 digits
                raise ValueError(f"{name}: {obs.clip(value)!r} is not an "
                                 "integer") from None
        if choices and value not in choices:
            raise ValueError(f"{name}: {obs.clip(value)!r} is not one of "
                             f"{', '.join(choices)}")
        args[name[2:]] = value
    if len(free) != len(positionals):
        want = " ".join(positionals).upper() or "no argument"
        got = repr(obs.clip(" ".join(free))) if free else "none"
        raise ValueError(f"{command} takes {want}; got {got}")
    args.update(zip(positionals, free))
    return SimpleNamespace(**args)


def usage() -> str:
    """The --help text: each subcommand of COMMANDS with its arguments."""
    lines = ["usage: excmono COMMAND [ARGS] [--out FILE]",
             "       excmono --help | --version", "",
             "Exact checks for exceptional-group monodromy data.  An option",
             "is --opt VALUE or --opt=VALUE; --out also writes stdout to "
             "FILE.", ""]
    for command, (_, text, positionals, options) in COMMANDS.items():
        words = [command, *(p.upper() for p in positionals)]
        words += (f"[{name} {'|'.join(choices or [name[2:].upper()])}]"
                  for name, (_, _, choices) in options.items())
        lines += ["  " + " ".join(words), "      " + text]
    return "\n".join(lines) + "\n"


def render_manifest(manifest: dict) -> str:
    return json.dumps(manifest, indent=2, sort_keys=True) + "\n"


def _parameters(args) -> dict:
    skip = {"command", "out", "format"}
    return {k: v for k, v in sorted(vars(args).items())
            if k not in skip and v is not None}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv == ["--version"] or {"-h", "--help"} & set(argv):
        try:
            sys.stdout.write(__version__ + "\n" if argv == ["--version"]
                             else usage())
            sys.stdout.flush()
        except OSError as exc:
            print(f"error: stdout: {exc}", file=sys.stderr)
            return 2
        return 0
    # the checks of this command alone, run from cold caches
    obs.reset()
    t0 = perf_counter()
    with ExitStack() as stack:
        try:
            args = parse_args(argv)
            # opened first, so a path that cannot be written costs no work,
            # and to append, so a failed command leaves an old file whole
            out = args.out is not None and stack.enter_context(
                open(args.out, "a"))
            result = COMMANDS[args.command][0](args)
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
