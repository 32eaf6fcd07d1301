"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py

Each workload runs two ops untraced and two traced, in process.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402

run.import_program()

import tracing  # noqa: E402
import workloads  # noqa: E402
from albert import maps, multipoly, rpaths  # noqa: E402

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

# spans each workload must reach, from the layer predictions in meta.json
EXPECTED_SPANS = {
    "scenarios": [
        "scenario.parse_scenario", "scenario.run_suite", "linalg.mat_mul.qq",
        "linalg.inverse", "cubicnorm.u_matrix", "cubicnorm.axiom_suite",
        "maps.certify", "rpaths.conj_path", "rpaths.path_certify",
        "multipoly.proportionality", "tits.norm_program", "deg3.mul",
        "deg3.inverse_coords",
    ],
    "certificates": [
        "linalg.mat_mul.kt", "rpaths.path_certify", "rpaths.compose_path_with_map",
        "rpaths.conj_path", "rpaths.sl1_path_split", "rpaths.cert_check",
        "upoly.gcd", "upoly.lcm", "upoly.ratfunc", "maps.certify",
        "deg3.transvection_factorization", "certfile.render", "certfile.parse",
        "multipoly.mul", "multipoly.add", "tits.norm_program",
    ],
    "identities": [
        "multipoly.mul", "multipoly.add", "tits.norm_program",
        "tits.sharp_program", "cubicnorm.u_op",
    ],
}


@pytest.fixture(scope="module")
def workdir():
    path = run.make_workdir()
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.fixture(scope="module")
def tiny_runs(workdir):
    """{workload: (untraced (warmup, ops), traced (warmup, ops), tracer)}"""
    out = {}
    for name in run.WORKLOADS:
        runs = []
        for tracer in (None, tracing.Tracer()):
            wl = workloads.make(name, workdir)
            warmup = run.prepare(wl)
            runs.append((warmup, run.measure(wl, 3, 0, tracer, cycle=2)))
        out[name] = (runs[0], runs[1], tracer)
    return out


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_tiny_run_is_correct(tiny_runs, name):
    (warmup, ops), _, _ = tiny_runs[name]
    assert warmup.ok
    result = run.result_line(run.end_to_end_metrics(ops, [1.0]), run.END_TO_END, ops)
    assert result["correct"] and result["attempted"] == 2 and result["failed"] == 0
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_run_reaches_predicted_layers(tiny_runs, name):
    (warmup, ops), (t_warmup, t_ops), tracer = tiny_runs[name]
    for span in EXPECTED_SPANS[name]:
        assert tracer.stats[span]["calls"] > 0, span
    if name == "identities":
        assert not [s for s in tracer.stats if s.startswith("linalg.")]
    if name == "scenarios":
        # jmap_choice rejects one variant through the certify oracle
        assert tracer.stats["maps.certify"]["rejected"] > 0
    assert run.verdict_digest(warmup, ops) == run.verdict_digest(t_warmup, t_ops)
    metrics = run.per_layer_metrics(t_ops, tracer)
    assert set(metrics) == set(run.PER_LAYER)


def test_tracer_patches_every_binding_and_restores():
    originals = {
        "radd": vars(multipoly.MPoly)["__radd__"],
        "rmul": vars(multipoly.MPoly)["__rmul__"],
        "certify": rpaths.certify,
        "lcm": rpaths.poly_lcm,
        "factor": rpaths.transvection_factorization,
        "prop": maps.proportionality,
    }
    tracer = tracing.Tracer()
    tracer.install()
    try:
        current = {
            "radd": vars(multipoly.MPoly)["__radd__"],
            "rmul": vars(multipoly.MPoly)["__rmul__"],
            "certify": rpaths.certify,
            "lcm": rpaths.poly_lcm,
            "factor": rpaths.transvection_factorization,
            "prop": maps.proportionality,
        }
        for key, fn in current.items():
            assert getattr(fn, "__wrapped__", None) is originals[key], key
        assert vars(multipoly.MPoly)["__radd__"] is vars(multipoly.MPoly)["__add__"]
    finally:
        tracer.uninstall()
    assert rpaths.certify is originals["certify"]
    assert vars(multipoly.MPoly)["__rmul__"] is originals["rmul"]


def test_gate_catches_mislabelled_tampered_certificate():
    wl = workloads.Certificates()
    make_input = wl.make_input

    def mislabelled(seed, index):
        inp = make_input(seed, index)
        inp.claims = {"genuine": True, "tampered": True}  # tampered called genuine
        return inp

    wl.make_input = mislabelled
    warmup = run.prepare(wl)
    ops = run.measure(wl, 3, 0, cycle=2)
    assert warmup.ok
    detail = run.detail_line(_args("certificates"), warmup, ops, [1.0])["detail"]
    assert detail["fail_share"] == 1.0
    result = run.result_line(run.end_to_end_metrics(ops, [1.0]), run.END_TO_END, ops)
    assert not result["correct"] and result["failed"] == 2


def test_metric_names_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        assert declared == table
        assert all(NAME_RE.match(name) for name in declared)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_same_seed_regenerates_identical_inputs():
    code = (
        "import sys, hashlib; sys.path[:0] = [sys.argv[1], sys.argv[2]]; import workloads\n"
        "h = hashlib.sha256()\n"
        "for name, fn in (('s', workloads.scenario_input), ('c', workloads.certificate_input),"
        " ('i', workloads.identity_input)):\n"
        "    for i in range(8): h.update(fn(int(sys.argv[3]), i).text.encode())\n"
        "print(h.hexdigest())\n"
    )
    digests = []
    for seed, hashseed in ((5, "1"), (5, "2"), (6, "1")):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        out = subprocess.run([sys.executable, "-c", code, run.SRC, BENCH_DIR, str(seed)],
                             env=env, capture_output=True, text=True, check=True)
        digests.append(out.stdout.strip())
    assert digests[0] == digests[1]
    assert digests[0] != digests[2]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "identities", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_tail_percentile_has_ten_ops_beyond():
    value, percentile, beyond = run.tail([float(i) for i in range(1, 101)])
    assert (value, percentile, beyond) == (90.0, 90.0, 10)
    assert run.tail([float(i) for i in range(99, 0, -1)]) == (99.0, 100.0, 0)


def _args(workload):
    class Args:
        seed, trace = 3, 0
    Args.workload = workload
    return Args
