"""Benchmark of albert: time to a correct verdict on seeded inputs.

    python3 bench/run.py --workload {scenarios,certificates,identities}
                         --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout and nothing else.  One process, one thread, one
client in a closed loop: op i+1 starts when op i has its verdict.  A run is
whole cycles of the workload's ops (``Workload.cycle``), since op i's input
class is fixed by i mod cycle: every run then does the same mix of classes
whatever its seed and length.  The loop runs at least one cycle and starts
another only while half a cycle of median length would end within
``--seconds``, so a run ends within half a cycle of ``--seconds``.

Every op's verdict is checked against the known answer its input was built
with (see ``workloads.py``).  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones:

* ``setup_s``: median over three fresh processes (this one and two probes)
  of the time to import the program, build the workload's structures and run
  one fixed warm-up op, timed inside each process;
* ``ops_per_s``: ops completed over the time spent in them;
* ``op_p50_s`` and ``op_tail_s``: median op time, and the highest percentile
  with at least ten ops beyond it once that is the 90th (100 ops), else the
  maximum; the detail line names the percentile and the count of ops beyond
  it;
* ``peak_rss_mb``: peak resident set of the measuring process.

With ``--trace 1`` the layer functions are wrapped (``tracing.py``) and the
metrics are the per-layer ones: counts are means per op, ``*_share`` values
are shares of op time (or of work, for ``nonzero_share``).  The line before
the result is a JSON ``detail`` object: the share of failed ops, the tail
percentile, the verdict digest, the per-phase medians, the share of ops with
each input property and, when traced, each layer's self seconds per op.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("scenarios", "certificates", "identities")
# the verdict digest covers the warm-up op and the first DIGEST_OPS ops, which
# every run completes (a cycle is at least this long), so runs of any length
# with one seed share a digest
DIGEST_OPS = 2
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
}


def _per_layer():
    """Per-layer metric names and units.

    Layer times are shares of op time, not seconds: a layer that a workload
    never reaches reads 0 there in every run, and a time that reads the same
    in every run is taken for a stub.  Seconds per op are in the detail line."""
    spans = [
        "linalg.inverse", "multipoly.add", "cubicnorm.u_matrix", "cubicnorm.u_op",
        "cubicnorm.axiom_suite", "upoly.gcd", "upoly.lcm", "upoly.ratfunc",
        "rpaths.path_certify", "rpaths.compose_path_with_map", "rpaths.conj_path",
        "rpaths.sl1_path_split", "rpaths.cert_check", "maps.certify", "deg3.mul",
        "deg3.inverse_coords", "deg3.transvection_factorization",
        "scenario.parse_scenario", "scenario.run_suite",
    ]
    out = {}
    for kind in ("kt", "qq"):
        span = f"linalg.mat_mul.{kind}"
        out.update({f"{span}.calls": "count", f"{span}.self_share": "ratio",
                    f"{span}.total_share": "ratio", f"{span}.products": "count",
                    f"{span}.nonzero_share": "ratio"})
    out.update({"multipoly.mul.calls": "count", "multipoly.mul.self_share": "ratio",
                "multipoly.mul.pairs": "count", "multipoly.mul.terms_out": "count",
                "multipoly.mul.yield": "ratio", "multipoly.mul.max_terms_out": "count",
                "multipoly.proportionality.self_share": "ratio",
                "tits.norm_program.calls": "count", "tits.norm_program.self_share": "ratio",
                "tits.norm_program.total_share": "ratio",
                "tits.norm_program.terms_out": "count",
                "tits.sharp_program.self_share": "ratio"})
    for span in spans:
        out.update({f"{span}.calls": "count", f"{span}.self_share": "ratio"})
    for span in ("rpaths.path_certify", "rpaths.cert_check", "maps.certify"):
        out[f"{span}.total_share"] = "ratio"
    out.update({"rpaths.path_certify.rejected": "count", "maps.certify.rejected": "count",
                "certfile.render.self_share": "ratio", "certfile.render.bytes": "bytes",
                "certfile.parse.self_share": "ratio", "certfile.parse.bytes": "bytes",
                "bench.cert_build.share": "ratio", "bench.cert_check.share": "ratio",
                "bench.tamper_reject.share": "ratio", "bench.op.self_share": "ratio",
                "trace.ops_per_s": "1/s"})
    return out


PER_LAYER = _per_layer()


def import_program():
    """Put the checkout's ``src`` first on the path; fail if it is absent."""
    if not os.path.isfile(os.path.join(SRC, "albert", "__init__.py")):
        sys.exit(f"error: no program source at {os.path.relpath(SRC)}/albert")
    sys.path.insert(0, SRC)
    import albert

    if os.path.dirname(os.path.dirname(os.path.abspath(albert.__file__))) != SRC:
        sys.exit("error: albert was imported from outside this checkout")


def make_workdir():
    return tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT)


# -- measuring ---------------------------------------------------------------


class Op:
    __slots__ = ("index", "ok", "records", "phases", "props")

    def __init__(self, index, ok, records, phases, props):
        self.index, self.ok, self.records = index, ok, records
        self.phases, self.props = phases, props


def run_op(wl, inp, tracer=None):
    """One op through the known-answer gate; an op that raises has failed."""
    t0 = time.perf_counter()
    try:
        if tracer is not None:
            tracer.op_max_terms = 0
            records, phases = tracer.run("bench.op", wl.run, inp)
            inp.props["max_product_terms"] = tracer.op_max_terms
        else:
            records, phases = wl.run(inp)
        ok = wl.gate(inp, records)
    except Exception as exc:  # the benchmark must keep going and count it
        traceback.print_exc(file=sys.stderr)
        records = [(f"raised:{type(exc).__name__}", False)]
        phases, ok = {"op": time.perf_counter() - t0}, False
    return Op(inp.index, ok, records, phases, inp.props)


def prepare(wl):
    """Build the workload's structures and run the warm-up op untimed."""
    wl.setup()
    return run_op(wl, wl.warmup_input())


def measure(wl, seed, seconds, tracer=None, cycle=None):
    """Whole cycles of ``cycle`` ops (the workload's own by default) in a
    closed loop: after the first, the next cycle starts only if half a cycle
    of median length would end within ``seconds``."""
    cycle = cycle or wl.cycle
    ops, cycle_s = [], []
    if tracer is not None:
        tracer.install()
    try:
        start = time.perf_counter()
        while not cycle_s or (time.perf_counter() - start
                              + statistics.median(cycle_s) / 2 < seconds):
            t0 = time.perf_counter()
            for _ in range(cycle):
                ops.append(run_op(wl, wl.make_input(seed, len(ops)), tracer))
            cycle_s.append(time.perf_counter() - t0)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return ops


def setup_probe(workload, started):
    """Child-process body of one ``setup_s`` sample; prints its seconds."""
    import workloads

    workdir = make_workdir()
    try:
        if not prepare(workloads.make(workload, workdir)).ok:
            sys.exit("error: warm-up op failed its known-answer gate")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(time.perf_counter() - started)


def probe_setup(workload):
    """``setup_s`` samples from fresh processes, timed inside each."""
    samples = []
    for _ in range(SETUP_PROBES - 1):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--probe-setup", "--workload", workload],
            cwd=ROOT, timeout=PROBE_TIMEOUT_S, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.exit(f"error: set-up probe exited with status {proc.returncode}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


# -- reporting ---------------------------------------------------------------


def tail(times):
    """(value, percentile, ops beyond): the highest percentile with at least
    ten ops beyond it, by nearest rank, once that is the 90th or higher
    (100 ops).  A run of this benchmark completes 8 to 20 ops, where that
    percentile would swing between the median and the 60th from run to run,
    so the maximum is reported instead."""
    ordered = sorted(times)
    n = len(ordered)
    rank = n - 10 if n >= 100 else n
    return ordered[rank - 1], 100.0 * rank / n, n - rank


def verdict_digest(warmup, ops):
    h = hashlib.sha256()
    for label, op in [("w", warmup)] + [(str(o.index), o) for o in ops[:DIGEST_OPS]]:
        for cid, ok in op.records:
            h.update(f"{label}:{cid}:{int(ok)}\n".encode())
    return h.hexdigest()


def _bucket(value):
    return f"<={2 ** max(0, math.ceil(math.log2(value)))}" if value > 0 else "0"


def input_shares(ops):
    counts = {}
    for op in ops:
        for key, value in op.props.items():
            label = _bucket(value) if isinstance(value, int) and key != "dim" else str(value)
            counts.setdefault(key, {}).setdefault(label, 0)
            counts[key][label] += 1
    return {key: {label: round(c / len(ops), 4) for label, c in sorted(vals.items())}
            for key, vals in sorted(counts.items())}


def phase_medians(ops):
    names = sorted({name for op in ops for name in op.phases})
    return {name: statistics.median(op.phases[name] for op in ops if name in op.phases)
            for name in names}


def end_to_end_metrics(ops, setup_samples):
    times = [op.phases["op"] for op in ops]
    tail_value, _, _ = tail(times)
    return {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": len(ops) / sum(times),
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail_value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer_metrics(ops, tracer):
    n = len(ops)
    op_s = sum(op.phases["op"] for op in ops)
    out = {}
    for name in PER_LAYER:
        span, stat = name.rsplit(".", 1)
        st = tracer.stats.get(span, {})
        if stat in ("self_share", "total_share"):
            value = st.get(stat[:-6] + "_s", 0.0) / op_s
        elif stat == "share":
            value = sum(op.phases.get(span.split(".", 1)[1], 0.0) for op in ops) / op_s
        elif stat == "nonzero_share":
            value = st.get("nonzero_products", 0) / st["products"] if st.get("products") else 0.0
        elif stat == "yield":
            value = st.get("terms_out", 0) / st["pairs"] if st.get("pairs") else 0.0
        elif stat == "max_terms_out":
            value = statistics.median(op.props.get("max_product_terms", 0) for op in ops)
        elif name == "trace.ops_per_s":
            value = n / op_s
        else:
            value = st.get(stat, 0) / n
        out[name] = value
    return out


def layer_seconds(ops, tracer):
    """Self seconds per op of every span reached."""
    return {span: st["self_s"] / len(ops) for span, st in sorted(tracer.stats.items())}


def result_line(metrics, units, ops):
    failed = sum(1 for op in ops if not op.ok)
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def detail_line(args, warmup, ops, setup_samples, tracer=None):
    times = [op.phases["op"] for op in ops]
    _, percentile, beyond = tail(times)
    return {"detail": {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": sys.version.split()[0], "nproc": os.cpu_count(),
        "ops": len(ops), "fail_share": sum(1 for op in ops if not op.ok) / len(ops),
        "warmup_ok": warmup.ok,
        "op_tail_percentile": round(percentile, 2), "op_tail_beyond": beyond,
        "verdict_digest": verdict_digest(warmup, ops), "digest_ops": min(DIGEST_OPS, len(ops)),
        "phase_p50_s": phase_medians(ops), "setup_samples_s": setup_samples,
        "input_shares": input_shares(ops),
        "layer_self_s": layer_seconds(ops, tracer) if tracer is not None else {},
    }}


def main(argv=None):
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_program()
    if args.probe_setup:
        setup_probe(args.workload, started)
        return 0
    import tracing
    import workloads

    workdir = make_workdir()
    try:
        wl = workloads.make(args.workload, workdir)
        warmup = prepare(wl)
        # this process's own set-up is one sample; fresh processes give the rest
        setup_samples = [] if args.trace else [time.perf_counter() - started]
        if not args.trace:
            setup_samples += probe_setup(args.workload)
        tracer = tracing.Tracer() if args.trace else None
        ops = measure(wl, args.seed, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if tracer is None:
        metrics, units = end_to_end_metrics(ops, setup_samples), END_TO_END
    else:
        metrics, units = per_layer_metrics(ops, tracer), PER_LAYER
    print(json.dumps(detail_line(args, warmup, ops, setup_samples, tracer), sort_keys=True))
    result = result_line(metrics, units, ops)
    result["correct"] = result["correct"] and warmup.ok
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
