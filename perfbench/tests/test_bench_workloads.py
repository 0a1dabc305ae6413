import json
from collections import Counter

import pytest

from checks import linear_group_order
from conftest import ROOT
from run import END_TO_END, PER_LAYER
from workloads import WORKLOADS, Workload, closure_order, random_group_file


def passes(name, seed, n=4):
    wl = Workload(name, seed, "work")
    return [wl.next_pass() for _ in range(n)], wl.file_group


@pytest.mark.parametrize("name", WORKLOADS)
def test_same_seed_gives_same_inputs(name):
    assert passes(name, 7) == passes(name, 7)


def test_other_seeds_give_other_inputs():
    for name in ("a1_scan", "cli_readme"):
        runs = {json.dumps(passes(name, seed)) for seed in range(6)}
        assert len(runs) > 1


@pytest.mark.parametrize("seed", range(5))
def test_every_a1_pass_scans_each_prime_once(seed):
    for cmds in passes("a1_scan", seed)[0]:
        primes = Counter(int(q) for argv in cmds
                         for q in argv[argv.index("--primes") + 1].split(","))
        assert primes == Counter({37: 1, 41: 1, 53: 1, 61: 1})
        assert all(len(argv[2].split(",")) == 2 for argv in cmds)


def test_cli_pass_has_one_command_of_each_readme_kind():
    for cmds in passes("cli_readme", 3)[0]:
        kinds = sorted(argv[0] for argv in cmds)
        assert kinds == ["a1", "a1", "atilde", "k-type", "k-type",
                         "monodromy", "rigid", "rigid", "rigid", "roots"]
        assert ["k-type", "all"] in cmds


@pytest.mark.parametrize("kind,p", [("sl2", 5), ("psl2", 7), ("pgl2", 5)])
def test_random_file_group_generates_the_whole_group(kind, p):
    import random
    blob = random_group_file(kind, p, random.Random(kind))
    assert closure_order(blob["generators"], p, blob["scalars"]) == \
        linear_group_order(kind, p)


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
