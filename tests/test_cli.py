import contextlib
import copy
import functools
import hashlib
import importlib.util
import io
import json
import operator
import os
import re
import signal
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import dense_orbit
from primegrid import cli, dynsim, zbattery
from primegrid.cli import main, read_config
from primegrid.dynsim import (
    BernoulliSystem,
    CyclicSystem,
    RotationSystem,
    StepObservable,
    indicator,
)
from primegrid.rng import derive_seed

ROOT = Path(__file__).parents[1]


@pytest.fixture(scope="module")
def demo_ledger_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "ledger.json"
    assert main(["gen-params", "--profile", "demo", "--horizon", "6",
                 "--out", str(path)]) == 0
    return path


def test_gen_params_deterministic(tmp_path, capsys, demo_ledger_file):
    other = tmp_path / "ledger2.json"
    assert main(["gen-params", "--profile", "demo", "--horizon", "6",
                 "--out", str(other)]) == 0
    assert other.read_bytes() == demo_ledger_file.read_bytes()
    # stdout gets the same bytes as the file
    capsys.readouterr()
    assert main(["gen-params", "--profile", "demo", "--horizon", "6"]) == 0
    assert capsys.readouterr().out.encode() == demo_ledger_file.read_bytes()


def test_parser_is_built_once_and_survives_bad_argv(tmp_path, capsys):
    assert cli.make_parser() is cli.make_parser()
    for bad in (["ops-test", "--seed", "x"], ["no-such-command"],
                ["ops-test", "--trials", "3"], ["verify", "--bogus", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
    assert "usage: primegrid" in capsys.readouterr().err
    out = tmp_path / "b.jsonl"
    argv = ["ops-test", "--seed", "5", "--trials", "2", "--out", str(out)]
    assert vars(cli.make_parser().parse_args(argv)) == \
        vars(cli.make_parser.__wrapped__().parse_args(argv))
    assert main(argv) == 0 and out.exists()


def test_gen_params_faithful_infeasible(capsys):
    code = main(["gen-params", "--profile", "faithful", "--horizon", "3"])
    assert code == 1
    err = capsys.readouterr().err
    assert "InfeasibleAtScale" in err
    assert "128424079523840001" in err      # the exact K bound for block 3


def test_emit_json_fails_on_values_json_cannot_hold(tmp_path):
    # a stray Fraction must fail, not be written as a quoted string
    with pytest.raises(TypeError):
        cli._emit_json({"x": F(1, 3)}, str(tmp_path / "out.json"))


def test_gen_params_constant_overrides(tmp_path, capsys):
    out = tmp_path / "custom.json"
    assert main(["gen-params", "--profile", "demo", "--horizon", "3",
                 "--set", "gamma_small=1/6", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["constants"]["profile"] == "demo+custom"
    assert data["constants"]["gamma_small"] == {"num": "1", "den": "6"}
    assert data["blocks"][1]["primes"] == [73, 79]   # tighter deletion margin
    # inconsistent constants are a failed check, unknown names a config error
    assert main(["gen-params", "--profile", "demo", "--horizon", "3",
                 "--set", "gamma_small=1/4", "--out", str(out)]) == 1
    capsys.readouterr()
    # 1 - gamma_2 = 7/8 cannot clear this floor, whatever beta_1 is
    assert main(["gen-params", "--profile", "demo", "--horizon", "3",
                 "--set", "f4c_floor=9/10", "--out", str(out)]) == 1
    assert "f4c_gamma" in capsys.readouterr().err
    assert main(["gen-params", "--profile", "demo", "--horizon", "3",
                 "--set", "bogus=1", "--out", str(out)]) == 2


@pytest.mark.parametrize("pair", ["gamma_small=1/0", "gamma_main=3/0"])
def test_gen_params_zero_denominator_is_config_error(tmp_path, capsys, pair):
    out = tmp_path / "custom.json"
    assert main(["gen-params", "--profile", "demo", "--horizon", "3",
                 "--set", pair, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error: " in err and pair in err and "zero denominator" in err
    assert not out.exists()


@pytest.mark.parametrize("horizon", ["0", "-3"])
def test_gen_params_rejects_nonpositive_horizon(tmp_path, capsys, horizon):
    out = tmp_path / "ledger.json"
    assert main(["gen-params", "--horizon", horizon, "--out", str(out)]) == 2
    assert "--horizon must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_tracer_finds_its_names(tmp_path):
    # perfbench's tracer wraps library names it looks up by string; a missing
    # one breaks every traced benchmark run
    code = (
        "import sys, tracing\n"
        "from primegrid import cli\n"
        "tracer = tracing.Tracer('t')\n"
        "tracing.install(tracer)\n"
        "code = cli.main(['gen-params', '--horizon', '4', '--out', sys.argv[1]])\n"
        "print(code, tracer.counters['ledger.endpoint_candidates'])\n"
        "code = cli.main(['ops-test', '--seed', '5', '--trials', '8',\n"
        "                 '--out', sys.argv[1] + 'l'])\n"
        "print(code, *(f'{k}={v[\"trials\"]}' for k, v in\n"
        "              sorted(tracer.battery_summary.items())))\n"
        "print(*sorted({s[1] for s in tracer.spans}))\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")])}
    res = subprocess.run([sys.executable, "-c", code, str(tmp_path / "l.json")],
                         cwd=tmp_path, env=env, capture_output=True, text=True,
                         timeout=120)
    assert res.returncode == 0, res.stderr
    gen, ops, spans = res.stdout.splitlines()
    exit_code, candidates = map(int, gen.split())
    assert exit_code == 0 and candidates > 0
    # run_all's summary reaches the tracer, and each battery's span opens
    assert ops.split() == ["0", "deviation_l2=8", "progression_weak=9",
                           "window_strong=8", "window_weak=8"]
    assert {"zbattery.run_all", "zbattery.window_weak",
            "zbattery.window_strong", "zbattery.progression_weak",
            "zbattery.deviation_l2"} <= set(spans.split())


@pytest.mark.parametrize("workload, spans", [
    pytest.param("pipeline", {"cli.ops-test_s", "cli.simulate.rotation_s",
                              "zbattery.deviation_l2_s"}, id="pipeline"),
    pytest.param("construct-h10", {
        "dynsim.count_bounds_s", "sequence.verify_block_s",
        "sequence.banach_density_s", "sequence.write_elements_s",
        "ledger.report_s"}, id="construct-h10"),
])
def test_traced_pipeline_worker_runs(tmp_path, workload, spans):
    # the benchmark's own traced run: every hook tracing.install sets must
    # still resolve and see its stage, or --trace breaks while the untraced
    # benchmark runs on
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    res = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"),
         "--workload", workload, "--seed", "20250809",
         "--workdir", str(tmp_path / "run"), "--trace", "t"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    result = json.loads((tmp_path / "run" / "result.json").read_text())
    assert set(result["codes"].values()) == {0}, result["codes"]
    stages = {f"{step}_s" for step in result["codes"]}
    assert {"cli.gen-params_s", "cli.build-seq_s", "cli.verify_s"} <= stages
    assert stages | spans | {"ledger.build_s", "sequence.build_store_s"} \
        <= set(result["trace"])


def test_gen_params_faithful_two_blocks(tmp_path):
    out = tmp_path / "faithful.json"
    assert main(["gen-params", "--profile", "faithful", "--horizon", "2",
                 "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["blocks"][0]["beta"] == 97979797
    assert data["blocks"][1]["primes"] == [97, 101]


def test_build_seq_and_export(tmp_path, demo_ledger_file):
    seq = tmp_path / "seq.txt"
    summ = tmp_path / "blocks.json"
    assert main(["build-seq", "--ledger", str(demo_ledger_file),
                 "--out", str(seq), "--summary-out", str(summ)]) == 0
    lines = seq.read_text().splitlines()
    assert lines[:3] == ["0", "1", "2"]
    assert all(int(a) < int(b) for a, b in zip(lines, lines[1:]))
    summary = json.loads(summ.read_text())
    assert [s["m"] for s in summary] == [1, 2, 3, 4, 5]


def test_verify_demo_passes(tmp_path, demo_ledger_file):
    rep = tmp_path / "verify.json"
    assert main(["verify", "--ledger", str(demo_ledger_file),
                 "--out", str(rep)]) == 0
    report = json.loads(rep.read_text())
    assert report["overall"] is True
    kinds = {c["kind"] for c in report["checks"]}
    assert kinds == {"ledger", "block_windows", "count_bounds"}
    ds = [json.loads(json.dumps(d)) for d in report["banach_density"]]
    assert [d["L"] for d in ds] == [1000, 10000, 100000, 1000000]


@pytest.mark.parametrize("horizon", [6, 10])
def test_construct_matches_recorded_digests(tmp_path, horizon):
    # the benchmark's demo h6 and h10 constructions must stay byte-identical
    # to the digests it records in perfbench/refs.json; only h10 has
    # elements of more than eight digits and blocks of thousands of periods
    refs = json.loads((ROOT / "perfbench" / "refs.json")
                      .read_text(encoding="utf-8"))["exact"][f"h{horizon}"]
    ledger = str(tmp_path / "ledger.json")
    for argv in (["gen-params", "--profile", "demo", "--horizon", str(horizon),
                  "--out", ledger],
                 ["build-seq", "--ledger", ledger,
                  "--out", str(tmp_path / "sequence.txt"),
                  "--summary-out", str(tmp_path / "blocks.json")],
                 ["verify", "--ledger", ledger,
                  "--out", str(tmp_path / "verify.json")]):
        assert main(argv) == 0, argv
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in refs}
    assert got == refs


# sha256 of `ops-test --trials 250` output: 20250809 and 20250816 recorded at
# commit 42ed48a, when every trial still ran through its own kernel calls;
# the other six at commit 3792f90, before the battery kernels lost their
# index matrices
OPS_TEST_DIGESTS = {
    20250809: "c4ac9ba9f906c611570f5ec296645cfb0983aaa514c9e0d60b3b80dceb8d8e13",
    20250810: "1743dac65fa5a62d16bbc90ca1826b36fa76138340a05b919a5c2e81dcd65c3c",
    20250811: "aa733e49f6640d393510d4394d211f9af2367fefe1e83f99079fe15ac9b11569",
    20250812: "ce1c9c4c9d89e60df6cd9174827045013703fdb497b895ea826f46d3e9741dec",
    20250813: "c46c161378ddee7343070d35fbc77e7ac8ed2f26f4baab371f70e49ba092823f",
    20250814: "efa540bc5b861bfac8350835f27daf86f6e600319f3b396cb0727d762796e853",
    20250815: "f737658c1c802c759fc33d5f46df42e03818e407d9c4060c822ba66f2531a27a",
    20250816: "771dd4f50b80c870ffba58e2ff96a5dec0496fa1b6f3e0d3c6aad5090080247c",
}


@pytest.mark.parametrize("seed", sorted(OPS_TEST_DIGESTS))
def test_ops_test_matches_recorded_digests(tmp_path, seed):
    out = tmp_path / "battery.jsonl"
    assert main(["ops-test", "--seed", str(seed), "--trials", "250",
                 "--out", str(out)]) == 0
    data = out.read_bytes()
    assert data.count(b"\n") == 1004
    assert hashlib.sha256(data).hexdigest() == OPS_TEST_DIGESTS[seed]


def test_ops_test_seeds_cover_the_benchmark_pool():
    assert set(OPS_TEST_DIGESTS) == set(WORKLOADS.PROGRAM_SEEDS)


def test_verify_flags_corruption(tmp_path, demo_ledger_file):
    data = json.loads(demo_ledger_file.read_text())
    data["blocks"][1]["beta_prev"] += 1       # break divisibility
    data["blocks"][0]["beta"] += 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["verify", "--ledger", str(bad)]) == 1


def _retype_prime(d, retype):
    primes = d["blocks"][2]["primes"]
    primes[0] = retype(primes[0])


def _float_beta(d):
    # block 4 still starts where block 3 ends
    d["blocks"][2]["beta"] += 0.5
    d["blocks"][3]["beta_prev"] = d["blocks"][2]["beta"]


# each defect on row 3 (index 2) of the demo ledger unless it names another
# row, and the words of its error
LEDGER_DEFECTS = {
    "row-numbering": ("row 3 is numbered 7",
                      lambda d: d["blocks"][2].update(m=7)),
    "beta-prev-moved": ("block 3 starts at", lambda d: d["blocks"][2].update(
        beta_prev=d["blocks"][2]["beta_prev"] + d["blocks"][2]["p"])),
    "count-unset": ("only one of beta and count",
                    lambda d: d["blocks"][2].update(count=None)),
    "open-row-not-last": ("block 3 is open",
                          lambda d: d["blocks"][2].update(beta=None, count=None)),
    "nbar-short": ("running sum", lambda d: d["nbar"].pop()),
    "nbar-raised": ("running sum",
                    lambda d: d["nbar"].__setitem__(3, d["nbar"][3] + 5)),
    # K, p and Q that the primes (83, 89) do not give
    "K-disagrees": ("ledger row 3 has K = 3, but its primes give 2",
                    lambda d: d["blocks"][2].update(K=3)),
    "p-disagrees": ("ledger row 3 has p = 7388, but its primes give 7387",
                    lambda d: d["blocks"][2].update(p=7388)),
    "Q-disagrees": ("ledger row 3 has Q = 173/7387, but its primes give "
                    "172/7387", lambda d: d["blocks"][2].update(
                        Q={"num": "173", "den": "7387"})),
    # integer fields that int() would read, retyped
    "prime-float": ("each prime must be a JSON integer, not 83.5",
                    lambda d: _retype_prime(d, lambda q: q + 0.5)),
    "prime-string": ("each prime must be a JSON integer, not '83'",
                     lambda d: _retype_prime(d, str)),
    "d-float": ("d must be a JSON integer, not 3.7",
                lambda d: d["blocks"][2].update(d=3.7)),
    "beta-float": ("beta must be a JSON integer, not 208060.5", _float_beta),
    "m-bool-row-1": ("ledger row 1 is malformed (TypeError: m must be a JSON "
                     "integer, not True)",
                     lambda d: d["blocks"][0].update(m=True)),
    # a num or den that int() would truncate or read loosely
    "gamma-num-float": ("ledger row 3 is malformed (TypeError: num must be a "
                        "JSON integer or an integer string, not 1.9)",
                        lambda d: d["blocks"][2].update(
                            gamma={"num": 1.9, "den": "5"})),
    "gamma-den-padded": ("den must be a JSON integer or an integer string, "
                         "not ' 5'", lambda d: d["blocks"][2].update(
                             gamma={"num": "1", "den": " 5"})),
    "constant-den-float": ("ledger constants is malformed (TypeError: den must "
                           "be a JSON integer or an integer string, not 1.0)",
                           lambda d: d["constants"]["f19_p"].update(den=1.0)),
    # values frac_json and Family.to_json never write, which int() and
    # Fraction() would read loosely
    "lin-short": ("ledger constants is malformed (IndexError: list index "
                  "out of range)",
                  lambda d: d["constants"]["k_growth"].update(lin=[0])),
    "lin-float-and-bool": ("ledger constants is malformed (TypeError: each "
                           "lin entry must be a JSON integer, not 1.9)",
                           lambda d: d["constants"]["k_growth"].update(
                               lin=[1.9, True])),
    "gamma-float": ("ledger row 3 is malformed (TypeError: a fraction must be "
                    "a {num, den} object, not 0.2)",
                    lambda d: d["blocks"][2].update(gamma=0.2)),
    "gamma-small-bool": ("ledger constants is malformed (TypeError: a fraction "
                         "must be a {num, den} object, not True)",
                         lambda d: d["constants"].update(gamma_small=True)),
}


@pytest.mark.parametrize("command", ["build-seq", "verify"])
@pytest.mark.parametrize("defect", sorted(LEDGER_DEFECTS))
def test_ledger_rows_must_chain(tmp_path, capsys, demo_ledger_file, defect,
                                command):
    words, corrupt = LEDGER_DEFECTS[defect]
    data = json.loads(demo_ledger_file.read_text())
    corrupt(data)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert main([command, "--ledger", str(bad), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error: " in err and words in err
    assert not out.exists()


# ledger files of the wrong shape, and the words of their error
LEDGER_SHAPES = {
    "top-level-list": ("not list", lambda d: [1, 2]),
    "no-nbar": ("has no nbar",
                lambda d: {k: v for k, v in d.items() if k != "nbar"}),
    "no-constants-or-blocks": ("has no constants, blocks", lambda d: {
        "nbar": d["nbar"]}),
    "constants-not-object": ("ledger constants is malformed",
                             lambda d: {**d, "constants": [1]}),
    "constants-missing-key": ("ledger constants is malformed", lambda d: {
        **d, "constants": {k: v for k, v in d["constants"].items()
                           if k != "f19_p"}}),
    "blocks-not-list": ("blocks must be a JSON list, not int",
                        lambda d: {**d, "blocks": 3}),
    "row-not-object": ("ledger row 2 is malformed", lambda d: {
        **d, "blocks": [d["blocks"][0], 7, *d["blocks"][2:]]}),
    "row-missing-key": ("ledger row 3 is malformed", lambda d: {
        **d, "blocks": [*d["blocks"][:2],
                        {k: v for k, v in d["blocks"][2].items() if k != "p"},
                        *d["blocks"][3:]]}),
    "nbar-not-list": ("nbar must be a JSON list, not str",
                      lambda d: {**d, "nbar": "0"}),
    "nbar-entry-not-number": ("ledger nbar is malformed",
                              lambda d: {**d, "nbar": [0, None]}),
}


@pytest.mark.parametrize("command", ["build-seq", "verify"])
@pytest.mark.parametrize("shape", sorted(LEDGER_SHAPES))
def test_ledger_shape_errors_exit_2(tmp_path, capsys, demo_ledger_file, shape,
                                    command):
    words, reshape = LEDGER_SHAPES[shape]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(reshape(json.loads(demo_ledger_file.read_text()))))
    out = tmp_path / "out"
    assert main([command, "--ledger", str(bad), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error: " in err and words in err
    assert not out.exists()


def test_verify_checks_ledger_counts_against_blocks(tmp_path, demo_ledger_file):
    # the ledger still chains, but built block 3 holds 3 more elements than
    # its row says
    data = json.loads(demo_ledger_file.read_text())
    data["blocks"][2]["count"] -= 3
    data["nbar"][3:] = [n - 3 for n in data["nbar"][3:]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    rep = tmp_path / "verify.json"
    assert main(["verify", "--ledger", str(bad), "--out", str(rep)]) == 1
    checks = json.loads(rep.read_text())["checks"]
    assert {c["block"]: c["overall"] for c in checks
            if c["kind"] == "count_bounds"} == {1: True, 2: True, 3: False,
                                                4: True, 5: True}


@pytest.mark.parametrize("row,change", [
    (3, lambda b: b.update(count=b["count"] - 3)),
    (2, lambda b: b.update(d=10**9)),           # deletes every point
], ids=["count-short", "huge-d"])
def test_build_seq_checks_ledger_counts(tmp_path, capsys, demo_ledger_file,
                                        row, change):
    data = json.loads(demo_ledger_file.read_text())
    blk = data["blocks"][row - 1]
    count = blk["count"]
    change(blk)
    data["nbar"][row:] = [n - count + blk["count"] for n in data["nbar"][row:]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    out = tmp_path / "seq.txt"
    assert main(["build-seq", "--ledger", str(bad), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"config error: ledger row {row} has count = {blk['count']}" in err
    assert not out.exists()


def test_build_seq_rejects_ledger_without_closed_block(tmp_path, capsys):
    ledger = tmp_path / "h1.json"     # block 1 open: nothing to build
    assert main(["gen-params", "--horizon", "1", "--out", str(ledger)]) == 0
    capsys.readouterr()
    out, summary = tmp_path / "seq.txt", tmp_path / "blocks.json"
    assert main(["build-seq", "--ledger", str(ledger), "--out", str(out),
                 "--summary-out", str(summary)]) == 2
    assert "config error: ledger closes only 0 blocks" in \
        capsys.readouterr().err
    assert not out.exists() and not summary.exists()


def test_build_seq_rejects_negative_d(tmp_path, capsys, demo_ledger_file):
    data = json.loads(demo_ledger_file.read_text())
    data["blocks"][1]["d"] = -1               # nothing deleted: overlaps stay
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["build-seq", "--ledger", str(bad),
                 "--out", str(tmp_path / "seq.txt")]) == 2
    assert "distance d" in capsys.readouterr().err


def test_ops_test_deterministic(tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    assert main(["ops-test", "--seed", "5", "--trials", "8",
                 "--out", str(a)]) == 0
    assert main(["ops-test", "--seed", "5", "--trials", "8",
                 "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    rec = json.loads(a.read_text().splitlines()[0])
    assert {"test", "seed", "trial", "lhs", "rhs", "ratio", "pass"} <= set(rec)


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_ops_test_rejects_nonpositive_trials(tmp_path, capsys, trials):
    out = tmp_path / "b.jsonl"
    assert main(["ops-test", "--seed", "5", "--trials", trials,
                 "--out", str(out)]) == 2
    assert "trials must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_ops_test_rejects_too_many_trials(monkeypatch, tmp_path, capsys):
    # the bound holds before anything is drawn: a draw past it fails fast
    def no_draw(*args, **kwargs):
        raise AssertionError("drew trials past MAX_TRIALS")

    monkeypatch.setattr(zbattery, "_draw", no_draw)
    out = tmp_path / "b.jsonl"
    assert main(["ops-test", "--seed", "5", "--trials",
                 str(zbattery.MAX_TRIALS + 1), "--out", str(out)]) == 2
    assert f"<= {zbattery.MAX_TRIALS}" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(zbattery.TrialsOutOfRange):
        zbattery.run_all(5, zbattery.MAX_TRIALS + 1)


@pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
def test_ops_test_rejects_out_of_range_seed(tmp_path, capsys, seed):
    # reduced mod 2^64 these would replay the runs of 2^64 - 1 and 0
    out = tmp_path / "b.jsonl"
    assert main(["ops-test", "--seed", seed, "--trials", "2",
                 "--out", str(out)]) == 2
    assert f"seed must be in [0, 2^64), got {seed}" in capsys.readouterr().err
    assert not out.exists()


def test_ops_test_accepts_largest_seed(tmp_path):
    assert main(["ops-test", "--seed", str((1 << 64) - 1), "--trials", "2",
                 "--out", str(tmp_path / "b.jsonl")]) == 0


@pytest.mark.parametrize("system", ["system=bernoulli",
                                    "system=rotation\nx0=random"])
@pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
def test_simulate_rejects_out_of_range_seed(tmp_path, capsys, demo_ledger_file,
                                            system, seed):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{system}\nseed={seed}\n")
    out = tmp_path / "x.csv"
    assert main(["simulate", "--config", str(cfg),
                 "--ledger", str(demo_ledger_file), "--out", str(out)]) == 2
    assert f"config error: seed must be in [0, 2^64), got {seed}" in \
        capsys.readouterr().err
    assert not out.exists()


def test_simulate_constant_observable(tmp_path, demo_ledger_file):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("system=rotation\nalpha=golden\nf_lo=0\nf_hi=1\nx0=1/7\n")
    out = tmp_path / "conv.csv"
    assert main(["simulate", "--config", str(cfg),
                 "--ledger", str(demo_ledger_file), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "N,A,deviation,block_m"
    assert all(line.split(",")[2] == "0.0" for line in lines[1:])


def test_simulate_deterministic(tmp_path, demo_ledger_file):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "system=rotation\nalpha=golden\nf_lo=0\nf_hi=1/2\nx0=random\nseed=9\n")
    outs = []
    for name in ("c1.csv", "c2.csv"):
        out = tmp_path / name
        assert main(["simulate", "--config", str(cfg),
                     "--ledger", str(demo_ledger_file), "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def _load_workloads():
    # perfbench is not a package: load its workload table by path
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module          # its dataclass looks itself up
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load_workloads()

# sha256 of the benchmark's golden-rotation `simulate` CSV, recorded at commit
# 5811e81, when every orbit point was one 128-bit Python multiply and bisect
ROTATION_DIGESTS = {
    (6, 20250809): "519943bc2aa191c9090342beb8bbbc7b95a64ffb20c5afd7d164e12f7d11df9f",
    (6, 20250810): "2e239ee7d4723e7bf34202e15319436cae962aaf6df897296975255ed289aede",
    (6, 20250811): "b852509d6d65d658c0d8405b4e95c25d7ce7ae9fbc2a8d87cea24a7bedd74223",
    (6, 20250812): "c7dafea1c40751543567c31c9c39b18cf6bca7132ed363fe4a427a5d7ecf6f02",
    (6, 20250813): "2037e08e46c80c65f1f9f1be89371927a574cf81c0325bb1f23a43d3f27768e7",
    (6, 20250814): "842a5e310fdaf30535aaf57bf1e949b34f970ae8a5680c63e74d9b3935021dfa",
    (6, 20250815): "35402744ee4a9a75525fae10edf48fce98311fa6d4453bed724ca28500e009d7",
    (6, 20250816): "da13df1bb4dc5236c0c73dffac027ccace12d932028a9241a9936bb7ddd6bce2",
    (10, 20250809): "88644747abcf1312cb65822a1ec8e282ced5ecbf465b4a02599672b045a634f4",
}


@pytest.fixture(scope="module")
def demo_h10_ledger_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "ledger10.json"
    assert main(["gen-params", "--profile", "demo", "--horizon", "10",
                 "--out", str(path)]) == 0
    return path


def test_rotation_seeds_cover_the_benchmark_pool():
    assert {s for h, s in ROTATION_DIGESTS if h == 6} == \
        set(WORKLOADS.PROGRAM_SEEDS)


@pytest.mark.parametrize("horizon,seed", sorted(ROTATION_DIGESTS))
def test_simulate_rotation_matches_recorded_digests(tmp_path, demo_ledger_file,
                                                   demo_h10_ledger_file,
                                                   horizon, seed):
    ledger = demo_ledger_file if horizon == 6 else demo_h10_ledger_file
    cfg = tmp_path / "rotation.cfg"
    cfg.write_text(WORKLOADS.ROTATION_CFG.format(seed=seed))
    out = tmp_path / "rotation.csv"
    assert main(["simulate", "--config", str(cfg), "--ledger", str(ledger),
                 "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        ROTATION_DIGESTS[horizon, seed]


def test_simulate_cyclic_and_checkpoints(tmp_path, demo_ledger_file):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "system=cyclic\ncyclic_p=4087\nresidues=0-6\nx0=0\ncheckpoints=blocks\n")
    out = tmp_path / "conv.csv"
    assert main(["simulate", "--config", str(cfg),
                 "--ledger", str(demo_ledger_file), "--out", str(out)]) == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 5                     # one per block boundary


def test_simulate_config_errors(tmp_path, demo_ledger_file):
    cfg = tmp_path / "broken.cfg"
    cfg.write_text("system=nonsense\n")
    assert main(["simulate", "--config", str(cfg),
                 "--ledger", str(demo_ledger_file),
                 "--out", str(tmp_path / "x.csv")]) == 2
    cfg.write_text("system=rotation\nx0=random\n")   # random x0 without seed
    assert main(["simulate", "--config", str(cfg),
                 "--ledger", str(demo_ledger_file),
                 "--out", str(tmp_path / "x.csv")]) == 2
    assert main(["simulate", "--config", str(tmp_path / "missing.cfg"),
                 "--ledger", str(demo_ledger_file),
                 "--out", str(tmp_path / "x.csv")]) == 2
    open_ledger = tmp_path / "h1.json"     # block 1 open: nothing to build
    assert main(["gen-params", "--horizon", "1", "--out", str(open_ledger)]) == 0
    assert main(["simulate", "--ledger", str(open_ledger),
                 "--out", str(tmp_path / "x.csv")]) == 2
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("text", [
    "system=rotation\nx0=3/2\n",
    "system=rotation\nf_lo=1/2\nf_hi=1/2\nx0=0\n",
    "system=bernoulli\nprob=3/2\nseed=1\n",
    "system=cyclic\ncyclic_p=7\nresidues=0\nx0=1/2\n",
    "system=rotation\nx0=0\ncheckpoints=0\n",
    "system=rotation\nx0=0\ncheckpoints=1,99999999\n",
    "system=cyclic\ncyclic_p=4\nresidues=0,9\nx0=0\n",
    "system=cyclic\ncyclic_p=4\nresidues=3-1\nx0=0\n",
    "systme=cyclic\ncyclic_p=4\nresidues=1\nx0=0\n",
    "system=rotation\nx0=0\nhorizon=1\n",
    "system=rotation\nx0=1/0\n",
    "system=rotation\nalpha=1/0\nx0=0\n",
    "system=cyclic\nresidues=0\nx0=0\n",
    "system=cyclic\ncyclic_p=7\nresidues=0\ncyclic_p=11\n",
    # only the value one above the cap: the check comes before the table
    f"system=cyclic\ncyclic_p={cli.MAX_CYCLIC_P + 1}\n",
], ids=["x0-outside-unit", "empty-indicator", "prob-outside-unit",
        "fractional-residue", "checkpoint-zero", "checkpoint-past-horizon",
        "residue-outside-cycle", "empty-residue-range", "unknown-key",
        "retired-horizon-key", "x0-zero-denominator",
        "alpha-zero-denominator", "cyclic-without-period", "key-set-twice",
        "cyclic-period-over-cap"])
def test_simulate_rejects_bad_spec(tmp_path, capsys, demo_ledger_file, text):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    out = tmp_path / "x.csv"
    assert main(["simulate", "--config", str(cfg),
                 "--ledger", str(demo_ledger_file), "--out", str(out)]) == 2
    assert "config error: " in capsys.readouterr().err
    assert not out.exists()


def _oracle_rows(csv_lines, store, system, x0, obs, mean):
    """The convergence CSV rebuilt from a dense orbit at the CSV's horizons."""
    Ns = [int(line.split(",")[0]) for line in csv_lines[1:]]
    dense = dense_orbit(system, x0, max(Ns), obs)
    pref = np.cumsum(dense[store.elements[store.elements < max(Ns)]])
    rows = [csv_lines[0]]
    for N in Ns:
        k = int(np.searchsorted(store.elements, N))
        a = float(pref[k - 1]) / k if k else 0.0
        rows.append(f"{N},{a!r},{abs(a - float(mean))!r},{store.block_of(N - 1)}")
    return rows


STEP3_VALUES = (F(1, 2), F(-7, 4), F(5, 2))
P_CYC = 4087
CYC_TABLE = tuple(1 if r <= 6 or r == 100 else 0 for r in range(P_CYC))
ORACLE_CASES = {
    "indicator": ("system=rotation\nalpha=golden\nf_lo=1/4\nf_hi=2/3\nx0=1/7\n",
                  RotationSystem.golden(), F(1, 7), indicator(F(1, 4), F(2, 3))),
    "step3": ("system=rotation\nalpha=377/610\nf_lo=1/3\nf_hi=3/4\nx0=2/9\n",
              RotationSystem.from_fraction(F(377, 610)), F(2, 9),
              StepObservable((F(0), F(1, 3), F(3, 4), F(1)), STEP3_VALUES)),
    "cyclic": ("system=cyclic\ncyclic_p=4087\nresidues=0-6,100\nx0=5\n",
               CyclicSystem(P_CYC, CYC_TABLE), 5, None),
    "bernoulli": ("system=bernoulli\nprob=1/3\nseed=7\n",
                  BernoulliSystem(F(1, 3), derive_seed(7, "orbit")), 0, None),
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_simulate_csv_matches_dense_oracle(tmp_path, monkeypatch, demo_store,
                                           demo_ledger_file, case):
    text, system, x0, obs = ORACLE_CASES[case]
    if case == "step3":
        # the config language has only indicators: keep the CLI's breaks
        # (1/3, 3/4) and give the three pieces fractional values
        monkeypatch.setattr(cli, "indicator", lambda lo, hi: StepObservable(
            (F(0), lo, hi, F(1)), STEP3_VALUES))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text + "checkpoints=1,17,1000,8174,51709,200000\n")
    out = tmp_path / "conv.csv"
    assert main(["simulate", "--config", str(cfg),
                 "--ledger", str(demo_ledger_file), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    mean = obs.mean if obs is not None else system.mean
    assert lines == _oracle_rows(lines, demo_store, system, x0, obs, mean)
    assert len(lines) == 7


def test_simulate_samples_only_sequence_elements(tmp_path, monkeypatch, demo_store,
                                                 demo_ledger_file):
    evaluated = []
    sample_at = dynsim.sample_at

    def counting(system, x0, positions, observable=None):
        values = sample_at(system, x0, positions, observable)
        evaluated.append(values.size)
        return values

    monkeypatch.setattr(dynsim, "sample_at", counting)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("system=rotation\nalpha=golden\nf_lo=0\nf_hi=1/2\n"
                   "x0=random\nseed=20250809\n")
    assert main(["simulate", "--config", str(cfg),
                 "--ledger", str(demo_ledger_file),
                 "--out", str(tmp_path / "conv.csv")]) == 0
    assert 0 < sum(evaluated) <= demo_store.total


def test_export_jsonl_to_csv(tmp_path):
    src = tmp_path / "r.jsonl"
    assert main(["ops-test", "--seed", "3", "--trials", "4",
                 "--out", str(src)]) == 0
    out = tmp_path / "r.csv"
    assert main(["export", "--in", str(src), "--format", "csv",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert "lhs" in lines[0] and len(lines) > 4


def test_export_rejects_non_object_line(tmp_path, capsys):
    src = tmp_path / "r.jsonl"
    src.write_text('{"a": 1}\n[1, 2]\n')
    out = tmp_path / "r.csv"
    assert main(["export", "--in", str(src), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"config error: {src}:2: a row is a JSON object, not list" in err
    assert not out.exists()


@pytest.fixture(scope="module")
def battery_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("export") / "battery.jsonl"
    assert main(["ops-test", "--seed", "5", "--trials", "4",
                 "--out", str(path)]) == 0
    return path


def test_export_json_output_exports_again(tmp_path, battery_file):
    # export's own JSON array reads back as the rows it was written from
    direct, array, again = (tmp_path / n for n in ("d.csv", "a.json", "a.csv"))
    for src, fmt, out in ((battery_file, "csv", direct),
                          (battery_file, "json", array),
                          (array, "csv", again)):
        assert main(["export", "--in", str(src), "--format", fmt,
                     "--out", str(out)]) == 0
    assert again.read_bytes() == direct.read_bytes()
    assert direct.read_text().count("\n") == \
        battery_file.read_text().count("\n") + 1


def test_export_reads_json_lines_after_blank_lines(tmp_path, battery_file):
    src, out = tmp_path / "rows.txt", tmp_path / "rows.csv"
    src.write_text("\n  \n" + battery_file.read_text())
    assert main(["export", "--in", str(src), "--out", str(out)]) == 0
    direct = tmp_path / "direct.csv"
    assert main(["export", "--in", str(battery_file), "--out",
                 str(direct)]) == 0
    assert out.read_bytes() == direct.read_bytes()


def test_export_rejects_non_object_element(tmp_path, capsys):
    src, out = tmp_path / "r.json", tmp_path / "r.csv"
    src.write_text('  [{"a": 1}, {"a": 2}, 3]')
    assert main(["export", "--in", str(src), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"config error: {src}: element 2: a row is a JSON object, " \
        "not int" in err
    assert not out.exists()


def test_verify_ledger_directory_is_config_error(tmp_path, capsys):
    assert main(["verify", "--ledger", str(tmp_path)]) == 2
    assert "config error: " in capsys.readouterr().err


def test_read_config_parsing(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("# comment\na=1\n b = two words \n\n")
    assert read_config(cfg) == {"a": "1", "b": "two words"}
    cfg.write_text("oops\n")
    with pytest.raises(ValueError):
        read_config(cfg)
    cfg.write_text("a=1\nb=2\na=3\n")
    with pytest.raises(ValueError, match=re.escape(f"{cfg}:3: key 'a' is set twice")):
        read_config(cfg)


# ---------------------------------------------------------------------------
# fuzzing: one field of a valid input dropped, retyped or perturbed, and the
# subcommand that reads it run in-process.  Whatever the field, the run ends
# in exit 0, 1 or 2 without a traceback, and a retyped integer field is a
# configuration error

_RUN_SECONDS = 20        # a run of the h6 inputs takes well under 0.1 s
_DROP = object()


def _run_bounded(argv) -> tuple[int, str]:
    """main(argv) under a wall-time alarm: its exit code and its stderr."""
    def expire(signum, frame):
        raise TimeoutError(f"{argv} ran past {_RUN_SECONDS} s")

    err = io.StringIO()
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, _RUN_SECONDS)
    try:
        with contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, err.getvalue()


def _fields(obj, path=()):
    """The path of every value inside a JSON document."""
    items = obj.items() if isinstance(obj, dict) else \
        enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _fields(value, path + (key,))


@st.composite
def _json_edit(draw, doc):
    """(path, new value or _DROP, whether an integer field was retyped)."""
    path = draw(st.sampled_from(list(_fields(doc))))
    value = functools.reduce(operator.getitem, path, doc)
    integer = type(value) is int
    how = draw(st.sampled_from(["drop", "retype", "perturb"]))
    if how == "drop":
        return path, _DROP, False
    if how == "retype":
        if integer:
            return path, draw(st.sampled_from(
                [float(value), value % 2 == 1, str(value)])), True
        return path, draw(st.sampled_from(
            [None, 7, 1.5, True, "x", [], {}]).filter(
                lambda v: type(v) is not type(value))), False
    if integer:
        # value << 64 is past int64
        new = [value + k for k in (-3, -2, -1, 1, 2, 3)] \
            + [-value, 2 * value, value << 64]
    elif isinstance(value, str):
        # num and den are integer strings; a zero den is a ValueError too
        new = [str(int(value) + k) for k in range(-2, 3)] \
            if value.lstrip("-").isdigit() else [value + "x", ""]
    elif isinstance(value, list):
        new = [[*value, *value[-1:]]]
    elif isinstance(value, dict):
        new = [{**value, "extra": 1}]
    elif type(value) is float:
        new = [-value, 2 * value, value + 1]
    else:
        new = [not value, None]         # a bool or null
    return path, draw(st.sampled_from(new)), False


def _edited(doc, path, new):
    doc = copy.deepcopy(doc)
    *head, last = path
    parent = functools.reduce(operator.getitem, head, doc)
    if new is _DROP:
        del parent[last]
    else:
        parent[last] = new
    return doc


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def demo_ledger_doc(demo_ledger_file):
    return json.loads(demo_ledger_file.read_text())


@settings(max_examples=60, deadline=None)
@given(data=st.data(), command=st.sampled_from(["build-seq", "verify"]))
def test_fuzzed_ledger_field(fuzz_dir, demo_ledger_doc, data, command):
    path, new, retyped_int = data.draw(_json_edit(demo_ledger_doc))
    ledger = fuzz_dir / "ledger.json"
    ledger.write_text(json.dumps(_edited(demo_ledger_doc, path, new)))
    code, err = _run_bounded([command, "--ledger", str(ledger),
                              "--out", str(fuzz_dir / "out")])
    assert code in (0, 1, 2) and "Traceback" not in err, (path, new, err)
    if retyped_int:
        assert code == 2 and "config error: " in err, (path, new, err)


# simulate configs that read every integer field: seed, cyclic_p, and the
# integer lists residues and checkpoints
FUZZ_CONFIGS = (
    {"system": "rotation", "alpha": "377/610", "f_lo": "1/4", "f_hi": "2/3",
     "x0": "random", "seed": "7", "checkpoints": "1,1000,8174"},
    {"system": "cyclic", "cyclic_p": "211", "residues": "0-6,100", "x0": "5",
     "checkpoints": "17,51709"},
    {"system": "bernoulli", "prob": "1/3", "seed": "7",
     "checkpoints": "1000"},
)
_INTEGER_KEYS = {"seed", "cyclic_p", "residues", "checkpoints"}


@st.composite
def _config_edit(draw):
    """(config text, whether an integer field was retyped)."""
    cfg = dict(draw(st.sampled_from(FUZZ_CONFIGS)))
    key = draw(st.sampled_from(sorted(cfg)))
    how = draw(st.sampled_from(["drop", "retype", "perturb"]))
    text = cfg[key]
    if how == "drop":
        del cfg[key]
    elif how == "retype":
        # a float, a bool or a word where a number was
        cfg[key] = draw(st.sampled_from([text + ".0", "true", "x" + text]))
    elif key == "system":
        cfg[key] = draw(st.sampled_from(["rotation", "cyclic", "bernoulli",
                                         "nonsense"]))
    else:
        # one number of the value replaced; cyclic_p stays <= 10^5, and the
        # largest value has its own test
        numbers = list(re.finditer(r"\d+", text))
        if numbers:
            hit = draw(st.sampled_from(numbers))
            cfg[key] = (text[:hit.start()]
                        + str(draw(st.integers(-2, 10**5)))
                        + text[hit.end():])
    return ("".join(f"{k}={v}\n" for k, v in cfg.items()),
            how == "retype" and key in _INTEGER_KEYS)


@settings(max_examples=60, deadline=None)
@given(edit=_config_edit())
def test_fuzzed_simulate_config(fuzz_dir, demo_ledger_file, edit):
    text, retyped_int = edit
    cfg = fuzz_dir / "run.cfg"
    cfg.write_text(text)
    code, err = _run_bounded(["simulate", "--config", str(cfg),
                              "--ledger", str(demo_ledger_file),
                              "--out", str(fuzz_dir / "conv.csv")])
    assert code in (0, 1, 2) and "Traceback" not in err, (text, err)
    if retyped_int:
        assert code == 2 and "config error: " in err, (text, err)


@pytest.fixture(scope="module")
def battery_rows(fuzz_dir):
    src = fuzz_dir / "battery.jsonl"
    assert main(["ops-test", "--seed", "5", "--trials", "2",
                 "--out", str(src)]) == 0
    return [json.loads(line) for line in src.read_text().splitlines()]


@settings(max_examples=40, deadline=None)
@given(data=st.data(), fmt=st.sampled_from(["csv", "json"]))
def test_fuzzed_jsonl_row(fuzz_dir, battery_rows, data, fmt):
    # export has no schema: any row that is still a JSON object exports
    path, new, _ = data.draw(_json_edit(battery_rows))
    rows = _edited(battery_rows, path, new)
    src = fuzz_dir / "rows.jsonl"
    src.write_text("".join(json.dumps(row) + "\n" for row in rows))
    code, err = _run_bounded(["export", "--in", str(src), "--format", fmt,
                              "--out", str(fuzz_dir / f"rows.{fmt}")])
    assert code in (0, 1, 2) and "Traceback" not in err, (path, new, err)
