"""Named checks of exact identities, counted per name.

`check` is a plain call, not an `assert`, so it runs under `python -O`;
its detail is formatted only when the check fails.  `verdict` records an
outcome that a command reports without requiring it.  Every CLI manifest
lists `runs()`.  `memo` is the one cache mechanism: `reset` empties the
counts and every `memo` cache, so a command's checks all run again.
"""

from collections import defaultdict
from functools import lru_cache

_runs = defaultdict(int)
_failed = set()
_caches = []


class CheckFailed(AssertionError):
    """An exact identity did not hold."""


def check(name: str, ok, detail: str, *args) -> None:
    """Count a run of `name`; if not `ok`, raise CheckFailed with
    "<name>: " + detail.format(*args)."""
    _runs[name] += 1
    if not ok:
        _failed.add(name)
        raise CheckFailed(f"{name}: " + detail.format(*args))


def clip(text: str) -> str:
    """An input echoed in a refusal, cut to 24 characters and "..."."""
    return text if len(text) <= 24 else text[:24] + "..."


def verdict(name: str, passed: bool) -> None:
    _runs[name] += 1
    if not passed:
        _failed.add(name)


def memo(fn):
    """`fn` in an unbounded `lru_cache`, registered for `clear_caches`.

    The cache object itself is returned and registered, so a wrapper put
    later around a module attribute (a tracer, a test patch) cannot hide
    it from `clear_caches`."""
    cached = lru_cache(maxsize=None)(fn)
    _caches.append(cached)
    return cached


def clear_caches() -> None:
    """Empty every `memo` cache, so the next call recomputes."""
    for cached in _caches:
        cached.cache_clear()


def reset() -> None:
    _runs.clear()
    _failed.clear()
    clear_caches()


def runs() -> list:
    """{"name", "passed", "runs"} per name since `reset`, sorted by name;
    `passed` is false once any run of the name failed."""
    return [{"name": name, "passed": name not in _failed, "runs": n}
            for name, n in sorted(_runs.items())]
