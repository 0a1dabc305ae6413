"""Named checks of exact identities, counted per name.

`check` is a plain call, not an `assert`, so it runs under `python -O`;
its detail is formatted only when the check fails.  `verdict` records an
outcome that a command reports without requiring it.  Every CLI manifest
lists `runs()`.
"""

from collections import defaultdict

_runs = defaultdict(int)
_failed = set()


class CheckFailed(AssertionError):
    """An exact identity did not hold."""


def check(name: str, ok, detail: str, *args) -> None:
    """Count a run of `name`; if not `ok`, raise CheckFailed with
    "<name>: " + detail.format(*args)."""
    _runs[name] += 1
    if not ok:
        _failed.add(name)
        raise CheckFailed(f"{name}: " + detail.format(*args))


def verdict(name: str, passed: bool) -> None:
    _runs[name] += 1
    if not passed:
        _failed.add(name)


def reset() -> None:
    _runs.clear()
    _failed.clear()


def runs() -> list:
    """{"name", "passed", "runs"} per name since `reset`, sorted by name;
    `passed` is false once any run of the name failed."""
    return [{"name": name, "passed": name not in _failed, "runs": n}
            for name, n in sorted(_runs.items())]
