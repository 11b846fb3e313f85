"""ftlab benchmark: run one seeded workload against the package and report.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py): dm-circuits, mc-gadgets, certify. Each is a
fixed list of jobs run back to back by one client in this process (a
closed loop); a job is an in-process `ftlab.cli.main([...])` call on a
generated config or a call to an exported library function. The package is
imported from `src/` of the checkout this file sits in.

--trace 0 measures the end-to-end metrics: setup_s (median over fresh
interpreters of the time to import ftlab and ftlab.cli and load the first
schema), then, after one untimed warm-up job, repeated passes over the job
list for --seconds: wall_s (median pass time), slowest_job_s (median time of
the workload's largest job) and peak_rss_mb (peak RSS of this process).

--trace 1 alternates untraced and traced passes for --seconds, then makes
one pass with tracemalloc on, and reports the per-layer metrics from spans
recorded around each layer's public functions (see spans.py).

Every job's output is checked. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics; the full record,
including spans, goes to bench/out/. A benchmark that cannot run at all (for
example, with no package source next to it) exits 1 without a result line.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from spans import Tracer, child_calls, summarize

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_RUNS = 7
READOUT_PROBE_REPEATS = 3

SETUP_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import json
from importlib import resources
import jsonschema
import ftlab, ftlab.cli
schema = json.loads(resources.files("ftlab").joinpath("schemas/config.schema.json").read_text())
jsonschema.validate({"command": "threshold", "params": {}}, schema)
print("ready", flush=True)
"""


def measure_setup(runs: int) -> list[float]:
    """Seconds from spawning a fresh interpreter until it reports ready.

    One extra spawn goes first and is not counted, so every counted one
    finds the files in the page cache.
    """
    times = []
    for i in range(runs + 1):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_PROBE, str(SRC)],
                              stdin=subprocess.DEVNULL, stdout=subprocess.PIPE) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - t0
                proc.wait(timeout=120)
            except BaseException:
                proc.kill()
                raise
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed (exit {proc.returncode})")
        if i:
            times.append(elapsed)
    return times


def blas_threads() -> int | None:
    """Thread count of numpy's bundled OpenBLAS, when it can be asked."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "mem_total_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**20,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "git_sha": git_sha(),
    }


# -- passes -------------------------------------------------------------------------


@dataclass
class Pass:
    wall: float
    times: dict[str, float]
    problems: dict[str, list[str]]
    notes: dict


def run_pass(workload, tracer=None) -> Pass:
    """Run every job once; time `run`, then check its output untimed."""
    times, problems, notes = {}, {}, {}
    for job in workload.jobs:
        if tracer is not None:
            tracer.job = job.name
        t0 = time.perf_counter()
        try:
            result, errors = job.run(), []
        except Exception:  # a failing job is counted, and the pass goes on
            result, errors = None, [traceback.format_exc()]
        times[job.name] = time.perf_counter() - t0
        if not errors:
            try:
                errors = job.check(result, notes)
            except Exception:
                errors = [traceback.format_exc()]
        if errors:
            problems[job.name] = errors
    return Pass(sum(times.values()), times, problems, notes)


def traced_pass(workload, alloc: bool = False):
    tracer = Tracer(alloc=alloc)
    tracer.install()
    try:
        result = run_pass(workload, tracer)
    finally:
        tracer.uninstall()
    return result, tracer.spans


def readout_share(circuit: dict) -> float:
    """1 - t(simulate_ideal without final read-out) / t(simulate_ideal)."""
    import ftlab

    full = ftlab.circuit_from_json(circuit)
    bare = ftlab.circuit_from_json({**circuit, "final_measure": []})

    def best_of(c) -> float:
        times = []
        for _ in range(READOUT_PROBE_REPEATS):
            t0 = time.perf_counter()
            ftlab.simulate_ideal(c)
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    return 1.0 - best_of(bare) / best_of(full)


# -- metrics --------------------------------------------------------------------------

MiB = 2**20


def _per(name, key):
    return lambda med, facts: med(name, key)


def _useful_probe_ratio(med, facts) -> float:
    probes, half = facts["mc_probes"], facts["notes"].get("pseudo_half_width")
    if not probes or half is None:
        return 0.0
    return sum(1 for k in range(probes) if 0.5 * 2.0**-k > half) / probes


def _ratio(num, den):
    return num / den if den else 0.0


# name -> (unit, function of (median over traced passes of a span statistic,
# run facts)); BENCHMARK.json lists the same names and units.
PER_LAYER = {
    "matcore.embed_operator.calls": ("count", _per("matcore.embed_operator", "calls")),
    "matcore.embed_operator.self_s": ("s", _per("matcore.embed_operator", "self_s")),
    "matcore.embed_operator.bytes_computed": ("B", _per("matcore.embed_operator", "bytes")),
    "matcore.trace_norm.self_s": ("s", _per("matcore.trace_norm", "self_s")),
    "matcore.partial_trace.self_s": ("s", _per("matcore.partial_trace", "self_s")),
    "circuit.simulate_ideal.calls": ("count", _per("circuit.simulate_ideal", "calls")),
    "circuit.simulate_ideal.self_s": ("s", _per("circuit.simulate_ideal", "self_s")),
    "circuit.simulate_noisy.calls": ("count", _per("circuit.simulate_noisy", "calls")),
    "circuit.simulate_noisy.self_s": ("s", _per("circuit.simulate_noisy", "self_s")),
    "circuit.simulate_with_environment.self_s":
        ("s", _per("circuit.simulate_with_environment", "self_s")),
    "circuit.simulate.peak_alloc_mb": ("MiB", lambda med, f: max(
        f["alloc"].get(n, {}).get("peak_alloc", 0) for n in (
            "circuit.simulate_ideal", "circuit.simulate_noisy",
            "circuit.simulate_with_environment")) / MiB),
    "circuit.readout_share": ("ratio", lambda med, f: f["readout_share"]),
    "faultpaths.accuracy_delta_exact.self_s":
        ("s", _per("faultpaths.accuracy_delta_exact", "self_s")),
    "faultpaths.zeta_earliest.self_s": ("s", _per("faultpaths.zeta_earliest", "self_s")),
    "faultpaths.zeta_subset.self_s": ("s", _per("faultpaths.zeta_subset", "self_s")),
    "faultpaths.verify_ie_identity.self_s":
        ("s", _per("faultpaths.verify_ie_identity", "self_s")),
    "faultpaths.verify_ie_identity.peak_alloc_mb": ("MiB", lambda med, f: f["alloc"].get(
        "faultpaths.verify_ie_identity", {}).get("peak_alloc", 0) / MiB),
    "channels.diamond_distance.calls": ("count", _per("channels.diamond_distance", "calls")),
    "channels.diamond_distance.self_s": ("s", _per("channels.diamond_distance", "self_s")),
    "channels.diamond_gap_rel_max": ("ratio", lambda med, f: max(
        f["notes"].get("diamond_gap_rel", {}).values(), default=0.0)),
    "channels.strength_markovian.calls": ("count", _per("channels.strength_markovian", "calls")),
    "channels.strength_markovian.self_s": ("s", _per("channels.strength_markovian", "self_s")),
    "channels.compose_channels.self_s": ("s", _per("channels.compose_channels", "self_s")),
    "gadgets.level_reduce_mc.self_s": ("s", _per("gadgets.level_reduce_mc", "self_s")),
    "gadgets.level_reduce_mc.leaves_per_s": ("1/s", lambda med, f: _ratio(
        f["notes"].get("leaves", 0), med("gadgets.level_reduce_mc", "self_s"))),
    "gadgets.zero_hit_levels": ("count", lambda med, f: f["notes"].get("zero_hit_levels", 0)),
    "gadgets.truncate_and_classify.calls":
        ("count", _per("gadgets.truncate_and_classify", "calls")),
    "gadgets.truncate_and_classify.us_per_call": ("us", lambda med, f: 1e6 * _ratio(
        med("gadgets.truncate_and_classify", "self_s"),
        med("gadgets.truncate_and_classify", "calls"))),
    "gadgets.sample_fault_config.self_s": ("s", _per("gadgets.sample_fault_config", "self_s")),
    "gadgets.level1_failure_mc.calls": ("count", _per("gadgets.level1_failure_mc", "calls")),
    "gadgets.level1_failure_mc.self_s": ("s", _per("gadgets.level1_failure_mc", "self_s")),
    "threshold.pseudothreshold_mc.self_s": ("s", _per("threshold.pseudothreshold_mc", "self_s")),
    "threshold.pseudothreshold_mc.useful_probe_ratio": ("ratio", _useful_probe_ratio),
    "threshold.threshold_report.self_s": ("s", _per("threshold.threshold_report", "self_s")),
    "cli.main.self_s": ("s", _per("cli.main", "self_s")),
    "cli.schema_validate.self_s": ("s", _per("cli.schema_validate", "self_s")),
    "cli.emit_report.self_s": ("s", _per("cli.emit_report", "self_s")),
    "cli.json_dumps.self_s": ("s", _per("cli.json_dumps", "self_s")),
    "cli.report_bytes": ("B", _per("cli.emit_report", "bytes")),
    "trace.overhead_s": ("s", lambda med, f: f["overhead_s"]),
}

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "slowest_job_s": "s", "peak_rss_mb": "MiB"}


def per_layer_metrics(traced: list[tuple[Pass, list]], alloc_spans: list, untraced: list[Pass],
                      readout: float) -> dict[str, float]:
    summaries = [summarize(spans) for _, spans in traced]

    def med(name: str, key: str) -> float:
        return statistics.median(s.get(name, {}).get(key, 0) for s in summaries)

    last_pass, last_spans = traced[-1]
    facts = {
        "alloc": summarize(alloc_spans),
        "notes": last_pass.notes,
        "readout_share": readout,
        "mc_probes": child_calls(last_spans, "threshold.pseudothreshold_mc",
                                 "gadgets.level1_failure_mc"),
        "overhead_s": statistics.median(p.wall for p, _ in traced)
        - statistics.median(p.wall for p in untraced),
    }
    return {name: float(fn(med, facts)) for name, (_, fn) in PER_LAYER.items()}


# -- entry point --------------------------------------------------------------------------


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_package():
    if not (SRC / "ftlab" / "__init__.py").is_file():
        raise SystemExit(f"bench: no package source at {SRC / 'ftlab'}; run from a full checkout")
    sys.path[:0] = [str(SRC), str(BENCH)]
    import ftlab

    if not Path(ftlab.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"bench: imported ftlab from {ftlab.__file__}, not from {SRC}")
    import workloads

    return workloads


def measured_passes(workload, seconds: float, traced: bool):
    """Passes for about `seconds`: stop at the pass boundary nearest to it.

    With `traced`, each step is an untraced pass followed by a traced one.
    """
    untraced, traced_passes = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        untraced.append(run_pass(workload))
        if traced:
            traced_passes.append(traced_pass(workload))
        step = time.perf_counter() - t0
        if time.perf_counter() - start + step / 2 > seconds:
            return untraced, traced_passes


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = load_package()
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"bench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    setup = measure_setup(SETUP_RUNS) if not args.trace else []
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        # warm-up: the largest job once, untimed, so BLAS threads and the
        # allocator's large-block pools exist before the first timed pass
        largest = [j for j in workload.jobs if j.name == workload.slowest_job]
        passes = [run_pass(workloads.Workload(workload.name, largest, workload.slowest_job))]
        untraced, traced = measured_passes(workload, args.seconds, bool(args.trace))
        passes += untraced + [p for p, _ in traced]
        if args.trace:
            alloc_pass, alloc_spans = traced_pass(workload, alloc=True)
            passes.append(alloc_pass)
            readout = readout_share(workload.readout_circuit) if workload.readout_circuit else 0.0
            values = per_layer_metrics(traced, alloc_spans, untraced, readout)
            metrics = {k: {"value": v, "unit": PER_LAYER[k][0]} for k, v in values.items()}
        else:
            values = {
                "setup_s": statistics.median(setup),
                "wall_s": statistics.median(p.wall for p in untraced),
                "slowest_job_s": statistics.median(p.times[workload.slowest_job] for p in untraced),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(p.times) for p in passes)
    failed = sum(len(p.problems) for p in passes)
    for p in passes:
        for job, errors in p.problems.items():
            for err in errors:
                print(f"bench: {job}: {err}", file=sys.stderr)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine(), "sizes": workload.sizes,
        "setup_s": setup, "passes": [p.times for p in passes],
        "measured_passes": len(untraced), "failed_ratio": failed / attempted,
        "metrics": metrics,
    }
    if args.trace:
        record["spans"] = [[s.__dict__ for s in spans] for _, spans in traced]
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))

    job_medians = {j.name: round(statistics.median(p.times[j.name] for p in untraced), 4)
                   for j in workload.jobs}
    print(f"# {args.workload} seed={args.seed} machine={json.dumps(record['machine'])}")
    print(f"# sizes {json.dumps(workload.sizes)}")
    print(f"# job median s over {len(untraced)} untraced passes: {json.dumps(job_medians)}")
    print(f"# notes of the last pass: {json.dumps(passes[-1].notes)}")
    counts = {"setup_s": f"median of {len(setup)} interpreters",
              "wall_s": f"median of {len(untraced)} passes",
              "slowest_job_s": f"{workload.slowest_job}, median of {len(untraced)} passes"}
    print(f"{'failed_ratio':<48} {failed / attempted:.6g} ratio ({failed}/{attempted} jobs)")
    for name, m in metrics.items():
        print(f"{name:<48} {m['value']:.6g} {m['unit']} {counts.get(name, '')}".rstrip())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
