import json
import os
import subprocess
import sys

import pytest

import spans
from conftest import BENCH, ROOT


def span(name, start, end, parent=-1, error=False):
    return [name, name.split(".")[0], start, end, parent, 0, error]


def dump(span_list, counts=None, values=None):
    return {"op": 0, "spans": span_list, "counts": counts or {},
            "values": values or {}, "cache": {}}


def test_covered_merges_overlaps_and_gaps():
    assert spans.covered([]) == 0.0
    assert spans.covered([(0, 2), (1, 3), (5, 6)]) == 4
    assert spans.covered([(1, 4), (2, 3)]) == 3


def test_self_time_subtracts_children_once():
    # cli.main [0, 10] -> rigidity.f [1, 6] -> linalg.g [2, 3], linalg.h [4, 5]
    #                  -> rootsys.r [7, 9]
    tree = [span("cli.main", 0, 10), span("rigidity.f", 1, 6, parent=0),
            span("linalg.g", 2, 3, parent=1), span("linalg.h", 4, 5, parent=1),
            span("rootsys.r", 7, 9, parent=0)]
    assert spans.self_times(tree) == [3, 3, 1, 1, 2]
    m = spans.layer_metrics([dump(tree)])
    assert m["cli.self_s"] == 3 and m["rigidity.self_s"] == 3
    assert m["linalg.self_s"] == 2 and m["linalg.calls"] == 2
    assert sum(m[f"{layer}.self_s"] for layer in
               ("cli", "rigidity", "linalg", "rootsys")) == 10


def test_self_time_clips_children_to_parent():
    tree = [span("cli.main", 0, 4), span("rootsys.r", 3, 6, parent=0)]
    assert spans.self_times(tree) == [3, 3]


def test_nested_calls_of_one_name_count_their_union():
    tree = [span("a1lab.Ctx", 0, 5), span("a1lab.Ctx", 1, 2, parent=0),
            span("a1lab.other", 6, 7)]
    m = spans.layer_metrics([dump(tree), dump(tree)])
    assert m["a1lab.Ctx#calls"] == 4
    assert m["a1lab.Ctx#s"] == 10
    assert m["a1lab.calls"] == 6


def test_error_is_counted_in_the_span_that_raised_it():
    tracer = spans.Tracer()

    def inner():
        raise ValueError("boom")

    def outer():
        return wrapped_inner()

    wrapped_inner = tracer.wrap("linalg", "linalg.inner", inner)
    wrapped_outer = tracer.wrap("cli", "cli.outer", outer)
    with pytest.raises(ValueError):
        wrapped_outer()
    m = spans.layer_metrics([tracer.dump()])
    assert m["linalg.errors"] == 1 and m["cli.errors"] == 0
    assert tracer.spans[1][spans.PARENT] == 0


def test_traced_command_keeps_stdout_and_records_layers(tmp_path):
    argv = ["rigid", "--group", "psl2", "--ell", "7", "--classes", "2A,3A,7A"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    plain = subprocess.run([sys.executable, "-m", "excmono", *argv], env=env,
                           capture_output=True, text=True, check=True)
    out = tmp_path / "trace.json"
    traced = subprocess.run(
        [sys.executable, str(BENCH / "traced_op.py"), str(out), "3", "--", *argv],
        env=env, capture_output=True, text=True, check=True)
    assert traced.stdout == plain.stdout
    d = json.loads(out.read_text())
    m = spans.layer_metrics([d])
    assert d["op"] == 3
    assert m["cli.calls"] >= 1 and m["rigidity.calls"] >= 1
    assert m["rigidity.FiniteGroup.__init__#calls"] == 1
    assert m["rigidity.elements"] == 168
    assert m["rigidity.mul_calls"] > 0
    root = d["spans"][0]
    assert root[spans.NAME] == "cli.main" and root[spans.PARENT] == -1
