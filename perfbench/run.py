"""excmono benchmark: end-to-end and per-layer metrics for one workload.

    python3 perfbench/run.py --workload verify_all --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; excmono is imported from ./src.
The load is a closed loop with one client: each operation is one
`python -m excmono ...` in a fresh interpreter, started only after the
previous one has exited, so no module cache survives between operations.
Every operation's stdout is checked against known answers (checks.py).

--trace 0 times passes of the workload for about --seconds, each command
back to back with the same command on the pinned copy of excmono in
pinned/, and prints the end-to-end metrics relative to that copy,
scaled to seconds (README.md).  --trace 1
runs one pass untraced, the same pass with every layer wrapped in spans
(traced_op.py), and the same pass untraced again, and prints the
per-layer metrics.  The last stdout line is a JSON object with the keys
correct, attempted, failed and metrics; a summary with the seed, nproc
and Python version goes to stderr and is appended to
.perfbench/results.jsonl.  --workload all runs the three workloads in
turn.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import spans
from checks import Checker
from workloads import WORKLOADS, Workload

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# printed and logged with every timed run but not gated: fail_frac is 0 on a
# correct program, the op quantiles of verify_all and a1_scan rest on a
# handful of commands, and plain seconds swing with the host (README.md)
REPORTED = {"op_p50_s": "s", "op_p90_s": "s", "fail_frac": "ratio",
            "raw_wall_s": "s", "pinned_wall_s": "s", "raw_setup_s": "s"}

PER_LAYER = {f"{layer}.{kind}": unit for layer in spans.LAYERS
             for kind, unit in (("self_s", "s"), ("calls", "count"),
                                ("errors", "count"))}
PER_LAYER.update({
    "rootsys.root_system.hit_ratio": "ratio",
    "twogroup.build_tilde_group.hit_ratio": "ratio",
    "chevalley.build_algebra.hit_ratio": "ratio",
    "twogroup.build_s": "s", "twogroup.irreps_s": "s",
    "twogroup.pairs_checked": "count",
    "chevalley.centralizer_s": "s", "chevalley.centralizer_dim.calls": "count",
    "a1lab.fibers": "count", "a1lab.fibers_per_s": "1/s", "a1lab.ctx_s": "s",
    "a1lab.trace_sums_per_fiber": "ratio",
    "rigidity.elements": "count", "rigidity.mul_calls": "count",
    "rigidity.group_build_s": "s", "rigidity.triple_s": "s",
    "rigidity.generate_s": "s", "rigidity.generate_calls": "count",
    **{f"verify.c{n}_s": "s" for n in range(1, 10)},
    "cli.render_s": "s", "cli.stdout_bytes": "count",
    "trace.overhead_frac": "ratio",
})

# per-layer metric <- inclusive time ("#s") or call count ("#calls") of a
# span name, nested calls of the same name counted once
SPAN_METRICS = {
    "twogroup.build_s": "twogroup.TildeGroup.__init__#s",
    "twogroup.irreps_s": "twogroup.odd_irreps#s",
    "chevalley.centralizer_s": "chevalley.ChevalleyAlgebra.centralizer_dim#s",
    "chevalley.centralizer_dim.calls":
        "chevalley.ChevalleyAlgebra.centralizer_dim#calls",
    "a1lab.fibers": "a1lab.compute_record#calls",
    "a1lab.ctx_s": "a1lab.FiniteFieldCtx.__init__#s",
    "rigidity.elements": "rigidity.elements",
    "rigidity.mul_calls": "rigidity.mul_calls",
    "rigidity.group_build_s": "rigidity.FiniteGroup.__init__#s",
    "rigidity.triple_s": "rigidity.triple_count#s",
    "rigidity.generate_s": "rigidity.FiniteGroup.subgroup_generated#s",
    "rigidity.generate_calls": "rigidity.FiniteGroup.subgroup_generated#calls",
    "cli.render_s": "cli.render_manifest#s",
    **{f"verify.c{n}_s": f"verify.c{n}_s" for n in range(1, 10)},
}

MIN_PASSES = 2          # timed passes per run, however slow the host
SETUP_SAMPLES = 9       # at least this many `import excmono` samples per run
CHILD_TIMEOUT_S = 150   # one command; kills a hung child
WORKDIR = Path(".perfbench")
BENCH_DIR = Path(__file__).resolve().parent
PINNED_DIR = BENCH_DIR / "pinned"   # excmono as it was when the benchmark was added

# fixed scales that make the pinned-relative times read as seconds: the
# medians, over ten 40 s runs of the pinned code on the 2-core VM the
# benchmark was built on, of each run's fastest pass and of its median
# `import excmono` (README.md)
PINNED_PASS_S = {"verify_all": 6.33, "a1_scan": 4.94, "cli_readme": 1.50}
PINNED_IMPORT_S = 0.13


class Op:
    """One finished command: timings from wait4 and the checked stdout."""

    def __init__(self, argv, wall, cpu, rss_kb, rc, stdout):
        self.argv, self.wall, self.cpu, self.rss_kb = argv, wall, cpu, rss_kb
        self.rc, self.stdout = rc, stdout
        self.problems: list[str] = []

    @property
    def failed(self) -> bool:
        return self.rc != 0 or bool(self.problems)


class Runner:
    """Starts one child at a time and judges each finished command."""

    def __init__(self, root: Path, checker: Checker):
        self.root = root
        self.checker = checker
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.pinned_env = dict(os.environ, PYTHONPATH=str(PINNED_DIR))
        self.work = root / WORKDIR / "work"
        self.ops: list[Op] = []
        self._first_stdout: dict[tuple, str] = {}

    def spawn(self, cmd, env=None) -> tuple[float, float, int, int, str]:
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=err, env=env or self.env,
                                    cwd=self.root)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, ru = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout = out_path.read_text(errors="replace")
        return wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss, proc.returncode, stdout

    def run(self, argv: list[str], traced_as: int | None = None) -> Op:
        """Run `excmono argv`; with traced_as set, under traced_op.py with
        that op id, its spans written to work/trace-<id>.json."""
        if traced_as is None:
            cmd = [sys.executable, "-m", "excmono", *argv]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "traced_op.py"),
                   str(self.trace_path(traced_as)), str(traced_as), "--", *argv]
        op = Op(argv, *self.spawn(cmd))
        self.judge(op)
        self.ops.append(op)
        return op

    def judge(self, op: Op) -> None:
        if op.rc != 0:
            op.problems.append(f"exit code {op.rc}")
            return
        op.problems += self.checker.problems(op.argv, op.stdout)
        first = self._first_stdout.setdefault(tuple(op.argv), op.stdout)
        if op.stdout != first:
            op.problems.append("stdout differs from an earlier identical command")

    def trace_path(self, op_id: int) -> Path:
        return self.work / f"trace-{op_id}.json"

    def pinned(self, argv: list[str]) -> tuple[float, float]:
        """Wall and CPU time of `excmono argv` on the pinned copy."""
        wall, cpu, _, rc, _ = self.spawn([sys.executable, "-m", "excmono", *argv],
                                         self.pinned_env)
        if rc != 0:
            raise RuntimeError(f"pinned excmono {' '.join(argv)} exited with {rc}")
        return wall, cpu

    def import_time(self, pinned: bool = False) -> float:
        """Spawn-to-exit time of a fresh interpreter doing `import excmono`,
        from the program or from the pinned copy."""
        wall, _, _, rc, _ = self.spawn([sys.executable, "-c", "import excmono"],
                                       self.pinned_env if pinned else None)
        if rc != 0:
            raise RuntimeError(f"`import excmono` exited with {rc}")
        return wall


def pinned_scaled(scale: float, program: list[float],
                  pinned: list[float]) -> float:
    """`scale` times the median of program[i] / pinned[i], where each pair
    was timed back to back.  A slow phase of the host stretches both sides
    of a pair alike and cancels out; a change to the program shows in
    full, because the pinned copy never changes."""
    return scale * statistics.median(p / q for p, q in zip(program, pinned))


def timed_passes(runner: Runner, wl: Workload, seconds: float):
    """Passes until about `seconds` have gone.  Every command, and the
    `import excmono` sample that starts each pass, runs twice back to back,
    on the program and on the pinned copy; which side goes first flips from
    one pair to the next, and from one pass to the next for a pass of one
    command.  Returns the metric values and the raw samples."""
    def pair(k, on_program, on_pinned):
        if k % 2:
            pin = on_pinned()
            return on_program(), pin
        return on_program(), on_pinned()

    passes, pins, setup, spans_s = [], [], [], []
    t0 = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - t0 + \
            statistics.median(spans_s) <= seconds:
        t_pass = time.perf_counter()
        k = len(passes)
        setup.append(pair(k, runner.import_time,
                          lambda: runner.import_time(pinned=True)))
        ops, pin = [], []
        for j, argv in enumerate(wl.next_pass()):
            op, p = pair(k + j, lambda: runner.run(argv),
                         lambda: runner.pinned(argv))
            ops.append(op)
            pin.append(p)
        passes.append(ops)
        pins.append(pin)
        spans_s.append(time.perf_counter() - t_pass)
    while len(setup) < SETUP_SAMPLES:
        setup.append(pair(len(setup), runner.import_time,
                          lambda: runner.import_time(pinned=True)))
    raw = {"setup": setup,
           "passes": [[[op.argv, op.wall, op.cpu, *p] for op, p in zip(ops, pin)]
                      for ops, pin in zip(passes, pins)]}
    walls = [sum(op.wall for op in p) for p in passes]
    pinned_walls = [sum(w for w, _ in p) for p in pins]
    scale = PINNED_PASS_S[wl.name]
    op_walls = [op.wall for op in runner.ops]
    return {
        "wall_s": pinned_scaled(scale, walls, pinned_walls),
        "cpu_s": pinned_scaled(scale, [sum(op.cpu for op in p) for p in passes],
                               [sum(c for _, c in p) for p in pins]),
        "peak_rss_mb": max(op.rss_kb for op in runner.ops) / 1024,
        "setup_s": pinned_scaled(PINNED_IMPORT_S, *zip(*setup)),
        "raw_wall_s": statistics.median(walls),
        "pinned_wall_s": statistics.median(pinned_walls),
        "raw_setup_s": statistics.median(a for a, _ in setup),
        "op_p50_s": statistics.median(op_walls),
        "op_p90_s": statistics.quantiles(op_walls, n=10, method="inclusive")[8],
    }, raw


def traced_pass(runner: Runner, wl: Workload) -> dict:
    """One pass untraced, traced and untraced again; per-layer metrics from
    the traced one, tracing overhead against the mean of the other two."""
    cmds = wl.next_pass()
    untraced = [runner.run(argv) for argv in cmds]
    traced = [runner.run(argv, traced_as=i) for i, argv in enumerate(cmds)]
    untraced += [runner.run(argv) for argv in cmds]
    dumps = [json.loads(runner.trace_path(i).read_text())
             for i in range(len(cmds)) if runner.trace_path(i).exists()]
    (runner.root / WORKDIR / "last_trace.json").write_text(json.dumps(dumps))
    agg = spans.layer_metrics(dumps)
    m = {name: float(agg.get(name, 0.0)) for name in PER_LAYER}
    m.update({name: float(agg.get(key, 0.0)) for name, key in SPAN_METRICS.items()})
    for name in spans.CACHED:
        m[f"{name}.hit_ratio"] = spans.hit_ratio(dumps, name)
    fibers, scan_s = m["a1lab.fibers"], agg.get("a1lab.scan#s", 0.0)
    m["a1lab.fibers_per_s"] = fibers / scan_s if scan_s else 0.0
    m["a1lab.trace_sums_per_fiber"] = (
        agg.get("a1lab.trace_sums#calls", 0) / fibers if fibers else 0.0)
    m["twogroup.pairs_checked"] = float(sum(
        _pairs_checked(op.stdout) for op in traced
        if op.argv[0] == "verify-all" and not op.failed))
    m["cli.stdout_bytes"] = float(sum(len(op.stdout.encode()) for op in traced))
    untraced_wall = sum(op.wall for op in untraced) / 2
    m["trace.overhead_frac"] = sum(op.wall for op in traced) / untraced_wall - 1
    return m


def _pairs_checked(stdout: str) -> int:
    for crit in json.loads(stdout)["result"]["criteria"]:
        if crit["number"] == 3:
            return crit["details"]["pairs_checked"]
    return 0


def run_workload(root: Path, name: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    work = root / WORKDIR / "work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        wl = Workload(name, seed, str(WORKDIR / "work"))
        wl.write_inputs()
        runner = Runner(root, Checker(seed, wl.file_order))
        if trace:
            values, raw, units = traced_pass(runner, wl), {}, PER_LAYER
        else:
            (values, raw), units = timed_passes(runner, wl, seconds), END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = [op for op in runner.ops if op.failed]
    values["fail_frac"] = len(failed) / len(runner.ops)
    for op in failed[:5]:
        print(f"FAILED excmono {' '.join(op.argv)}: {op.problems[:3]}",
              file=sys.stderr)
    result = {
        "correct": not failed,
        "attempted": len(runner.ops),
        "failed": len(failed),
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    record = {"workload": name, "seed": seed, "trace": int(trace),
              "seconds": seconds, "nproc": os.cpu_count(),
              "python": platform.python_version(),
              **result, "reported": {k: values[k] for k in REPORTED if k in values},
              "raw": raw}
    with open(root / WORKDIR / "results.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    print(f"# {name} seed={seed} trace={int(trace)} nproc={record['nproc']} "
          f"python={record['python']} ops={len(runner.ops)}", file=sys.stderr)
    for k, unit in {**units, **REPORTED}.items():
        if k in values:
            print(f"#   {k:40s} {values[k]:.6g} {unit}", file=sys.stderr)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    root = Path.cwd()
    if not (root / "src" / "excmono" / "__init__.py").is_file():
        print("error: run from the root of an excmono checkout "
              "(no src/excmono here)", file=sys.stderr)
        return 2
    if "EXCMONO_THREADS" in os.environ:
        print("error: unset EXCMONO_THREADS; the benchmark measures the "
              "single-process a1 scan", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        result = run_workload(root, name, args.seed, args.seconds,
                              bool(args.trace))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
