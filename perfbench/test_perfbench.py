"""Tests of the benchmark's own machinery: span arithmetic, rebinding, names, checks."""

import json
from pathlib import Path

import numpy as np

import checks
import spec
from tracer import Tracer, aggregate, self_times

ROOT = Path(__file__).resolve().parent.parent


def test_self_time_arithmetic_on_synthetic_spans():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3].
    names = np.array(["root", "a", "b", "c"])
    name = np.array([0, 1, 2, 3])
    parent = np.array([-1, 0, 0, 1])
    start = np.array([0.0, 1.0, 5.0, 2.0])
    end = np.array([10.0, 4.0, 9.0, 3.0])
    assert self_times(parent, start, end).tolist() == [3.0, 2.0, 4.0, 1.0]
    # repeated names add up: two spans named "a" nested in one root
    agg = aggregate(np.array(["root", "a"]), np.array([0, 1, 1]), np.array([-1, 0, 0]),
                    np.array([0.0, 1.0, 3.0]), np.array([5.0, 2.0, 4.5]))
    assert agg == {"root": (1, 2.5), "a": (2, 2.5)}
    assert sum(t for _, t in aggregate(names, name, parent, start, end).values()) == 10.0


def test_call_through_tower_binding_counts_under_maps():
    from quenched_limits import maps, tower
    from quenched_limits.omega import make_sequence

    orig_apply = maps.apply
    tracer = Tracer(run_id=7)
    tracer.install()
    try:
        assert tower.apply is maps.apply is not orig_apply
        with tracer.span("cli.test"):
            rec = tower.return_time(make_sequence(3, "doubling", (0.1, 0.1)), 0.75, cap=8)
    finally:
        tracer.uninstall()
    assert tower.apply is orig_apply and maps.apply is orig_apply
    spans = tracer.arrays()
    names = [str(spans["names"][i]) for i in spans["name"]]
    assert names.count("maps.apply") == rec.R
    for i, n in enumerate(names):
        if n == "maps.apply":
            assert names[spans["parent"][i]] == "tower.return_time"
    assert set(spans["run"].tolist()) == {7}
    metrics = tracer.layer_metrics(spec.SUBCOMMANDS)
    assert metrics["maps.apply_calls"] == rec.R
    assert metrics["maps.apply_points"] == rec.R
    assert metrics["omega.param_calls"] == rec.R
    assert metrics["tower.calls"] == 1


def test_every_name_is_well_formed_and_benchmark_json_is_current():
    names = [*spec.WORKLOADS, *(n for n, *_ in spec.END_TO_END), *(n for n, _ in spec.PER_LAYER)]
    assert all(spec.NAME_RE.fullmatch(n) for n in names), names
    assert len(names) == len(set(names))
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == spec.benchmark_json()
    assert spec.SUBCOMMANDS == tuple(checks.ARTIFACTS)


def test_run_check_catches_a_changed_artifact(tmp_path):
    from quenched_limits.cli import main

    out = tmp_path / "partition"
    assert main(spec.cli_argv("partition", {"depth_cap": 6}, 5, str(out))) == 0
    problems, digests = checks.check_run("partition", out, 0)
    assert problems == [] and set(digests) == {"partition.csv", "partition.json"}
    with open(out / "partition.csv", "a") as fh:
        fh.write("\n")
    problems, _ = checks.check_run("partition", out, 0)
    assert problems == ["partition manifest sha256 values do not match the files"]
    assert checks.check_run("partition", out, 3)[0] == ["partition exited with 3"]
