"""Seeded workloads: the job lists the benchmark runs against ftlab.

A workload is a fixed list of jobs run back to back in one process. Every
input (circuit, noise map, environment, gadget graph, channel parameters,
config) is generated here from the workload seed, and each job carries a
check that compares its output with values computed by `reference`.

Checks never compare bytes. Integers, flags and statuses must match
exactly; floats from exact computation must agree to a relative tolerance;
Monte Carlo estimates must lie within 4 sigma of the exact value; a diamond
interval must be ordered, overlap the reference interval, and its upper end
must not fall below the reference lower end.

Sizes are held fixed across seeds (location counts, noise kinds per circuit,
sample counts) so that timings compare across seeds; the seed moves gate
choices, qubits, angles, noise parameters and sampler streams.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import ftlab
import ftlab.cli

import reference as ref

# Relative and absolute tolerance for floats that come from exact computation.
REL = 1e-8
ABS = 1e-12
# Slack allowed on a certified upper end above the reference certificate.
UPPER_SLACK = 1e-6


@dataclass
class Job:
    """One unit of work: `run` is timed, `check(result, notes)` is not.

    check returns a list of problems (empty when the output is correct) and
    may record derived numbers in `notes` for the traced run.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object, dict], list[str]]


@dataclass
class Workload:
    name: str
    jobs: list[Job]
    slowest_job: str
    sizes: dict = field(default_factory=dict)
    # circuit whose read-out share the traced run measures
    readout_circuit: dict | None = None


def close(x: float, want: float, rel: float = REL) -> bool:
    return abs(x - want) <= rel * abs(want) + ABS


class Problems(list):
    def expect(self, ok: bool, msg: str) -> None:
        if not ok:
            self.append(msg)


def interval_problems(lo: float, hi: float, ref_lo: float, ref_hi: float) -> Problems:
    p = Problems()
    p.expect(0.0 <= lo <= hi + ABS, f"interval [{lo}, {hi}] is not ordered")
    p.expect(lo <= ref_hi * (1 + REL) + ABS, f"lower {lo} above reference upper {ref_hi}")
    p.expect(hi >= ref_lo * (1 - REL) - ABS, f"upper {hi} below reference lower {ref_lo}")
    return p


def upper_end_problems(eps: float, ref_lo: float, ref_hi: float) -> Problems:
    """A certified strength: never below the reference lower end, and no
    looser than the reference certificate."""
    p = Problems()
    p.expect(eps >= ref_lo * (1 - REL) - ABS, f"strength {eps} under-reports ({ref_lo})")
    p.expect(eps <= ref_hi * (1 + UPPER_SLACK) + ABS, f"strength {eps} above certificate {ref_hi}")
    return p


def qubit_strength_interval(spec: dict) -> tuple[float, float]:
    """Reference diamond interval of a single-qubit zoo channel vs identity."""
    return _qubit_interval(json.dumps(spec, sort_keys=True))


@functools.lru_cache(maxsize=None)
def _qubit_interval(spec_json: str) -> tuple[float, float]:
    return ref.qubit_interval(ref.noise_kraus(json.loads(spec_json)), [np.eye(2, dtype=complex)])


def noise_map_interval(noise: dict) -> tuple[float, float]:
    """Reference interval for max over the map of each channel's strength.

    The upper end is exact to compute; lower ends need a search, so only
    channels whose upper end can still beat the best lower end get one.
    """
    uppers = sorted(
        ((ref.diamond_upper(ref.noise_kraus(s), [np.eye(2, dtype=complex)]), s) for s in noise.values()),
        key=lambda pair: -pair[0],
    )
    best_lo = 0.0
    for hi, spec in uppers:
        if hi < best_lo:
            break
        best_lo = max(best_lo, qubit_strength_interval(spec)[0])
    return best_lo, uppers[0][0]


class CliJobs:
    """Writes each job's config once and runs it through ftlab.cli.main."""

    def __init__(self, workdir: Path):
        self.workdir = workdir

    def job(self, name: str, config: dict, check, extra_args: tuple = ()) -> Job:
        cfg = self.workdir / f"{name}.config.json"
        out = self.workdir / f"{name}.report.json"
        cfg.write_text(json.dumps(config))
        argv = [config["command"], "--config", str(cfg), "--out", str(out), *extra_args]

        def run() -> int:
            return ftlab.cli.main(argv)

        def check_report(code: int, notes: dict) -> list[str]:
            if code != 0:
                return [f"exit code {code}"]
            doc = json.loads(out.read_text())
            out.unlink()  # a later failed run must not find a stale report
            if doc.get("command") != config["command"]:
                return [f"report is for command {doc.get('command')!r}"]
            return check(doc["results"], notes)

        return Job(name, run, check_report)


# -- dm-circuits --------------------------------------------------------------------

CIRCUIT_LOCATIONS = 16
NOISE_KINDS = ["depolarizing"] * 6 + ["amplitude_damping"] * 5 + ["control_rotation"] * 5


def random_circuit(rng: np.random.Generator, n: int) -> dict:
    """Prep every qubit, then single-qubit gates, CNOTs and one wait.

    The number of CNOTs and waits is fixed by n, so every seed gives the
    same location count and the same mix of location kinds.
    """
    locs = [
        {"kind": "prep", "support": [q], "state": str(rng.choice(["0", "1", "+"])), "step": 1}
        for q in range(n)
    ]
    body = CIRCUIT_LOCATIONS - n
    kinds = ["CNOT"] * (body // 3) + ["wait"] + ["1q"] * (body - body // 3 - 1)
    rng.shuffle(kinds)
    for step, kind in enumerate(kinds, start=2):
        if kind == "CNOT":
            a, b = (int(q) for q in rng.choice(n, 2, replace=False))
            locs.append({"kind": "gate", "support": [a, b], "gate": "CNOT", "step": step})
        elif kind == "wait":
            locs.append({"kind": "identity", "support": [int(rng.integers(n))], "step": step})
        else:
            gate = str(rng.choice(["H", "X", "Z", "Rz"]))
            if gate == "Rz":
                gate = f"Rz({float(rng.uniform(0, 2 * math.pi))!r})"
            locs.append({"kind": "gate", "support": [int(rng.integers(n))], "gate": gate, "step": step})
    return {"n_system": n, "locations": locs}


def random_noise(rng: np.random.Generator, circuit: dict) -> dict:
    """One single-qubit zoo channel on one qubit of every location."""
    kinds = list(NOISE_KINDS)
    rng.shuffle(kinds)
    noise = {}
    for index, (loc, kind) in enumerate(zip(circuit["locations"], kinds), start=1):
        q = int(rng.choice(loc["support"]))
        x = float(rng.uniform(1e-3, 1e-2))
        spec = {
            "depolarizing": {"kind": kind, "p": x},
            "amplitude_damping": {"kind": kind, "t0": x, "t1": 1.0},
            "control_rotation": {"kind": kind, "delta_theta": x},
        }[kind]
        noise[str(index)] = {**spec, "support": [q]}
    return noise


def random_unitary_near_identity(rng: np.random.Generator, d: int, theta: float) -> np.ndarray:
    """exp(-i theta H) for a random Hermitian H of operator norm 1."""
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = (z + z.conj().T) / 2
    w, v = np.linalg.eigh(h)
    w = w / np.max(np.abs(w))
    return (v * np.exp(-1j * theta * w)) @ v.conj().T


def random_environment(rng: np.random.Generator, supports: list, n_sys: int, n_env: int) -> dict:
    """A coupling of one qubit of each location's support to one environment qubit."""
    couplings = {}
    for index, support in enumerate(supports, start=1):
        q = int(rng.choice(support))
        e = n_sys + int(rng.integers(n_env))
        u = random_unitary_near_identity(rng, 4, float(rng.uniform(0.01, 0.03)))
        couplings[str(index)] = {"support": [q, e], "unitary": ref.to_pairs(u)}
    return {"n_env": n_env, "couplings": couplings}


def accuracy_check(circuit: dict, noise: dict):
    want = ref.accuracy_delta(circuit, noise)
    eps_lo, eps_hi = noise_map_interval(noise)

    def check(r: dict, notes: dict) -> list[str]:
        p = Problems()
        p.expect(close(r["delta"], want), f"delta {r['delta']} != reference {want}")
        p.expect(r["locations"] == len(circuit["locations"]), "wrong location count")
        p.expect(r["variant"] == "linear", f"variant {r['variant']!r}")
        p += upper_end_problems(r["eps"], eps_lo, eps_hi)
        p.expect(close(r["bound"], r["locations"] * r["eps"], 1e-12), "bound != L*eps")
        p.expect(r["within_bound"] is True, "delta exceeds L*eps")
        return p

    return check


def env_accuracy_check(circuit: dict, env: dict):
    want = ref.env_accuracy_delta(circuit, env)
    eps = ref.strength_unitary_couplings(
        ref.square_from_pairs(c["unitary"]) for c in env["couplings"].values()
    )

    def check(r: dict, notes: dict) -> list[str]:
        p = Problems()
        p.expect(close(r["delta"], want), f"delta {r['delta']} != reference {want}")
        p.expect(close(r["eps"], eps), f"eps {r['eps']} != reference {eps}")
        p.expect(r["variant"] == "non_markovian", f"variant {r['variant']!r}")
        p.expect(close(r["bound"], 2 * r["locations"] * r["eps"], 1e-12), "bound != 2*L*eps")
        p.expect(r["within_bound"] is True, "delta exceeds 2*L*eps")
        return p

    return check


def zeta_check(want: np.ndarray, echo: dict):
    norm = ref.trace_norm_hermitian(want)
    scale = float(np.max(np.abs(want)))

    def check(r: dict, notes: dict) -> list[str]:
        p = Problems()
        for key, value in echo.items():
            p.expect(r[key] == value, f"{key} {r[key]!r} != {value!r}")
        got = ref.square_from_pairs(r["matrix"])
        p.expect(got.shape == want.shape, f"matrix shape {got.shape}")
        if got.shape == want.shape:
            err = float(np.max(np.abs(got - want)))
            p.expect(err <= REL * scale + ABS, f"matrix differs from reference by {err}")
        p.expect(close(r["trace_norm"], norm), f"trace norm {r['trace_norm']} != {norm}")
        return p

    return check


def dm_circuits(seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng([seed, 1])
    cli = CliJobs(workdir)
    circuits = {n: random_circuit(rng, n) for n in (6, 7, 8)}
    noises = {n: random_noise(rng, c) for n, c in circuits.items()}
    jobs = []
    for n in (6, 7, 8):
        config = {"command": "accuracy", "seed": seed,
                  "params": {"circuit": circuits[n], "noise": noises[n]}}
        jobs.append(cli.job(f"accuracy-n{n}", config, accuracy_check(circuits[n], noises[n])))
    # The earliest fault sits on the first gate after the preps, so every
    # seed applies the same number of noise channels after it.
    r = 8 + 1
    config = {"command": "faultpaths", "seed": seed,
              "params": {"circuit": circuits[8], "noise": noises[8], "mode": "earliest", "r": r}}
    want = ref.as_matrix(ref.walk(circuits[8], noises[8], fault_at={r}, ideal_before=r), 8)
    jobs.append(cli.job("faultpaths-earliest-n8", config, zeta_check(want, {"mode": "earliest", "r": r})))
    subset = sorted(int(i) for i in rng.choice(np.arange(1, CIRCUIT_LOCATIONS + 1), 4, replace=False))
    config = {"command": "faultpaths", "seed": seed,
              "params": {"circuit": circuits[7], "noise": noises[7], "mode": "subset", "subset": subset}}
    want = ref.as_matrix(ref.walk(circuits[7], noises[7], fault_at=set(subset)), 7)
    echo = {"mode": "subset", "subset": subset, "complement": "noisy"}
    jobs.append(cli.job("faultpaths-subset-n7", config, zeta_check(want, echo)))
    env_circuit = random_circuit(rng, 7)
    env = random_environment(rng, [loc["support"] for loc in env_circuit["locations"]], 7, 3)
    config = {"command": "accuracy", "seed": seed,
              "params": {"circuit": env_circuit, "environment": env}}
    jobs.append(cli.job("accuracy-env-n7e3", config, env_accuracy_check(env_circuit, env)))
    sizes = {"n": [6, 7, 8], "locations": CIRCUIT_LOCATIONS, "env": [7, 3], "earliest_r": r, "subset_r": 4}
    return Workload("dm-circuits", jobs, "accuracy-n8", sizes, circuits[8])


# -- mc-gadgets ------------------------------------------------------------------------

N_GADGETS = 50
TRUNCATE_JOBS = 50
TRUNCATE_EPS = 0.05
ANY_BAD_SAMPLES = 2000
ANY_BAD_REFERENCE_SAMPLES = 100_000
LEVELRED = {"levels": 3, "L0": 7, "t": 1, "eps": 0.01, "samples": 300_000}
IE_CHECK = {"mode": "ie_check", "L0": 12, "t": 2}


def random_gadget_graph(rng: np.random.Generator) -> dict:
    """A chain of gadgets sharing ER segments, plus skip links.

    Own-location and segment counts are fixed multisets shuffled per seed,
    so the total location count is the same for every seed.
    """
    own = np.repeat([3, 4, 5, 6], N_GADGETS // 4 + 1)[:N_GADGETS]
    rng.shuffle(own)
    chain = np.repeat([1, 2, 3], N_GADGETS // 3 + 1)[: N_GADGETS - 1]
    rng.shuffle(chain)
    skips = set(int(i) for i in rng.choice(N_GADGETS - 2, 10, replace=False))
    gadgets = []
    for i in range(N_GADGETS):
        er_out = []
        if i + 1 < N_GADGETS:
            er_out.append({"count": int(chain[i]), "to": i + 1})
        if i in skips:
            er_out.append({"count": 1, "to": i + 2})
        gadgets.append({"own_locations": int(own[i]), "er_out": er_out})
    return {"gadgets": gadgets, "t": 1}


def levelred_check(params: dict):
    exact = ref.failure_map(params["levels"], params["L0"], params["t"], params["eps"])

    def check(r: dict, notes: dict) -> list[str]:
        p = Problems()
        for key in ("L0", "t", "eps", "samples"):
            p.expect(r[key] == params[key], f"{key} echo {r[key]!r}")
        rows = r["levels"]
        p.expect(len(rows) == params["levels"], f"{len(rows)} level rows")
        zero = 0
        for level, (row, want) in enumerate(zip(rows, exact), start=1):
            trials = params["samples"] * params["L0"] ** (params["levels"] - level)
            p.expect(row["level"] == level and row["trials"] == trials, f"level {level} trial count")
            p.expect(close(row["exact"], want, 1e-9), f"level {level} exact {row['exact']} != {want}")
            hits = round(row["estimate"] * row["trials"])
            p.expect(ref.hits_consistent(hits, trials, want), f"level {level}: {hits} hits vs p={want}")
            p.expect(row["stderr"] >= 0.0, f"level {level} negative stderr")
            zero += hits == 0
        notes["zero_hit_levels"] = zero
        notes["leaves"] = params["samples"] * params["L0"] ** params["levels"]
        return p

    return check


def ie_check(r: dict, notes: dict) -> list[str]:
    p = Problems()
    p.expect(r["ok"] is True, f"identity check failed: {r.get('detail')}")
    p.expect(r["counterexample"] == [], "counterexample reported")
    return p


def truncate_check(graph: ref.GraphRef):
    def check(r: dict, notes: dict) -> list[str]:
        p = Problems()
        p.expect(r["t"] == graph.t and r["total_locations"] == graph.total, "graph echo")
        faults = r["faults"]
        p.expect(all(1 <= f <= graph.total for f in faults) and faults == sorted(set(faults)),
                 "fault ids out of range or unsorted")
        p.expect(ref.hits_consistent(len(faults), graph.total, TRUNCATE_EPS),
                 f"{len(faults)} faults of {graph.total} at eps={TRUNCATE_EPS}")
        bad = graph.classify(graph.fault_matrix([faults]))[0]
        want = ["bad" if b else "good" for b in bad]
        p.expect(r["statuses"] == want, "statuses differ from reference sweep")
        p.expect(r["truncated"] == graph.truncated(bad), "truncated sets differ from reference")
        p.expect(r["any_bad"] == bool(bad.any()), "any_bad flag")
        return p

    return check


def any_bad_job(graph_json: dict, graph: ref.GraphRef, seed: int) -> Job:
    p_ref = graph.any_bad_probability(TRUNCATE_EPS, ANY_BAD_REFERENCE_SAMPLES, [seed, 2])

    def run():
        g, t = ftlab.gadget_graph_from_json(graph_json)
        faults, statuses = [], []
        for i in range(ANY_BAD_SAMPLES):
            fc = ftlab.sample_fault_config(g, TRUNCATE_EPS, [seed, 3, i])
            cls = ftlab.truncate_and_classify(g, fc, t)
            faults.append(sorted(fc.faulty))
            statuses.append(cls.statuses)
        return faults, statuses

    def check(result, notes: dict) -> list[str]:
        faults, statuses = result
        p = Problems()
        bad = graph.classify(graph.fault_matrix(faults))
        got = np.array([[s == "bad" for s in row] for row in statuses])
        p.expect(got.shape == bad.shape and bool(np.all(got == bad)), "statuses differ from reference sweep")
        est = float(bad.any(axis=1).mean())
        var = p_ref * (1 - p_ref) * (1 / ANY_BAD_SAMPLES + 1 / ANY_BAD_REFERENCE_SAMPLES)
        p.expect(abs(est - p_ref) <= 4 * math.sqrt(var) + ABS, f"P[any bad] {est} vs reference {p_ref}")
        n_faults = sum(len(f) for f in faults)
        p.expect(ref.hits_consistent(n_faults, ANY_BAD_SAMPLES * graph.total, TRUNCATE_EPS),
                 f"{n_faults} faults sampled")
        return p

    return Job("any-bad-library", run, check)


def mc_gadgets(seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng([seed, 2])
    cli = CliJobs(workdir)
    workers = min(2, os.cpu_count() or 1)
    jobs = [
        cli.job("levelred", {"command": "levelred", "seed": seed, "params": LEVELRED},
                levelred_check(LEVELRED), ("--workers", str(workers))),
        cli.job("ie-check", {"command": "faultpaths", "seed": seed, "params": IE_CHECK}, ie_check),
    ]
    graph_json = random_gadget_graph(rng)
    graph = ref.GraphRef(graph_json)
    for j in range(TRUNCATE_JOBS):
        config = {"command": "truncate", "seed": int(rng.integers(2**31)),
                  "params": {"graph": graph_json, "eps": TRUNCATE_EPS}}
        jobs.append(cli.job(f"truncate-{j:02d}", config, truncate_check(graph)))
    jobs.append(any_bad_job(graph_json, graph, seed))
    sizes = {"levelred": LEVELRED, "workers": workers, "ie_check": IE_CHECK, "gadgets": N_GADGETS,
             "locations": graph.total, "truncate_jobs": TRUNCATE_JOBS, "eps": TRUNCATE_EPS,
             "any_bad_samples": ANY_BAD_SAMPLES}
    return Workload("mc-gadgets", jobs, "levelred", sizes)


# -- certify --------------------------------------------------------------------------------

RESTARTS = 32
DEP_CNOT = {"kind": "depolarizing", "p": 0.05}
AD_CNOT = {"kind": "amplitude_damping", "t0": 0.2, "t1": 1.0}
# gamma = 1 - exp(-t0/t1) = 0.095, the single-qubit case of the baseline
AD_QUBIT = {"kind": "amplitude_damping", "t0": 0.1, "t1": 1.0}
PSEUDO_SAMPLES = 100_000
IDENTITY_SPEC = {"kind": "control_rotation", "delta_theta": 0.0}


def random_hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (z + z.conj().T) / 2


def strength_job(cli: CliJobs, seed: int, params: dict, check) -> Job:
    config = {"command": "strength", "seed": seed, "params": params}
    return cli.job(f"strength-{params['evaluator']}", config, check)


def scalar_check(key: str, want: float, extra: dict | None = None):
    def check(r: dict, notes: dict) -> list[str]:
        p = Problems()
        p.expect(close(r[key], want), f"{key} {r[key]} != reference {want}")
        for k, v in (extra or {}).items():
            p.expect(r[k] == v, f"{k} {r[k]!r} != {v!r}")
        return p

    return check


def diamond_check(name: str, ref_lo: float, ref_hi: float):
    """Interval check that also notes the relative gap under the job's name."""

    def check(result, notes: dict) -> list[str]:
        lo, hi = (result["lower"], result["upper"]) if isinstance(result, dict) else map(float, result)
        notes.setdefault("diamond_gap_rel", {})[name] = (hi - lo) / hi if hi > 0 else 0.0
        return interval_problems(lo, hi, ref_lo, ref_hi)

    return check


def strength_jobs(rng: np.random.Generator, cli: CliJobs, seed: int) -> list[Job]:
    jobs = []
    noisy = {"kind": "amplitude_damping", "t0": float(rng.uniform(0.005, 0.02)), "t1": 1.0}
    lo, hi = qubit_strength_interval(noisy)

    def markovian(r: dict, notes: dict) -> list[str]:
        return upper_end_problems(r["strength"], lo, hi)

    jobs.append(strength_job(cli, seed, {"evaluator": "markovian", "noisy": noisy}, markovian))

    params = {"evaluator": "diamond", "a": AD_QUBIT, "b": IDENTITY_SPEC, "restarts": RESTARTS}
    check = diamond_check("strength-diamond", *qubit_strength_interval(AD_QUBIT))
    jobs.append(strength_job(cli, seed, params, check))

    labels = [1, 1, 2, 2, 3, 3, 4, 5, 6, 6]
    terms = [
        {"support": [lab % 4, lab % 4 + 1], "op": ref.to_pairs(random_hermitian(rng, 4)), "label": lab}
        for lab in labels
    ]
    t0 = float(rng.uniform(0.01, 0.1))
    params = {"evaluator": "local_hamiltonian", "terms": terms, "t0": t0}
    jobs.append(strength_job(cli, seed, params,
                             scalar_check("strength", ref.strength_local_hamiltonian(terms, t0))))

    pairs = [[int(j), int(k)] for j, k in (sorted(rng.choice(8, 2, replace=False)) for _ in range(10))]
    terms = [
        {"support": [0, 1], "op": ref.to_pairs(random_hermitian(rng, 4)), "label": pair}
        for pair in pairs
    ]
    t0 = float(rng.uniform(0.001, 0.01))
    eps = ref.strength_long_range(terms, t0, 2 * math.e)
    params = {"evaluator": "long_range", "terms": terms, "t0": t0}
    jobs.append(strength_job(cli, seed, params,
                             scalar_check("strength", eps, {"within_validity": eps * eps <= math.e})))

    grid = {
        "delta_abs": rng.uniform(0, 1, size=(8, 3, 8, 3)).tolist(),
        "cell_volume": float(rng.uniform(0.005, 0.02)),
        "gate_regions": [[2 * j, 2 * j + 1] for j in range(4)],
    }
    params = {"evaluator": "gaussian", "grid": grid}
    jobs.append(strength_job(cli, seed, params,
                             scalar_check("strength", ref.strength_gaussian(grid, 2 * math.e))))

    units = [random_unitary_near_identity(rng, 4, float(rng.uniform(0.01, 0.1))) for _ in range(5)]
    params = {"evaluator": "unitary_couplings", "couplings": [ref.to_pairs(u) for u in units]}
    jobs.append(strength_job(cli, seed, params,
                             scalar_check("strength", ref.strength_unitary_couplings(units))))

    env = random_environment(rng, [[q % 4] for q in range(6)], 4, 2)
    want = ref.strength_unitary_couplings(ref.square_from_pairs(c["unitary"]) for c in env["couplings"].values())
    params = {"evaluator": "environment", "environment": env}
    jobs.append(strength_job(cli, seed, params, scalar_check("strength", want)))
    return jobs


def threshold_job(cli: CliJobs, seed: int, rng: np.random.Generator, mode: str) -> Job:
    L0, t, xi = 7, 1, math.e
    eps0 = ref.threshold_eps0(L0, t, xi)
    L, delta0 = 10**6, 1e-9
    eps = eps0 * float(rng.uniform(0.05, 0.2))
    k = ref.required_level(L, delta0, eps, L0, t, xi)
    per_level = [ref.strength_at_level(eps, j, L0, t, xi) for j in range(k + 1)]
    crossing = ref.pseudothreshold(L0, t)
    # exact mode bisects to 1e-8; MC mode may also miss by 4 sigma
    slack = 2e-8 + (4 * ref.pseudothreshold_sigma(L0, t, PSEUDO_SAMPLES) if mode == "mc" else 0.0)
    config = {"command": "threshold", "seed": seed,
              "params": {"L0": L0, "t": t, "L": L, "delta0": delta0, "eps": eps,
                         "pseudothreshold": {"samples": PSEUDO_SAMPLES, "mode": mode}}}

    def check(r: dict, notes: dict) -> list[str]:
        p = Problems()
        p.expect(r["L0"] == L0 and r["t"] == t and close(r["xi"], xi), "scheme echo")
        p.expect(close(r["eps0"], eps0), f"eps0 {r['eps0']} != {eps0}")
        p.expect(r["k_required"] == k, f"k_required {r['k_required']} != {k}")
        p.expect(len(r["per_level"]) == k + 1 and all(
            close(a, b, 1e-6) for a, b in zip(r["per_level"], per_level)), "per-level strengths")
        p.expect(close(r["overhead_ratio"], float(L0) ** k), "overhead ratio")
        p.expect(close(r["exponent_a"], math.log(L0) / math.log(t + 1)), "exponent a")
        pt = r["pseudothreshold"]
        p.expect(pt["mode"] == mode, "pseudothreshold mode echo")
        p.expect(pt["ci_low"] <= pt["crossing"] <= pt["ci_high"], "crossing outside its interval")
        p.expect(abs(pt["crossing"] - crossing) <= slack,
                 f"{mode} crossing {pt['crossing']} vs reference {crossing}")
        if mode == "mc":
            notes["pseudo_half_width"] = (pt["ci_high"] - pt["ci_low"]) / 2
        return p

    return cli.job(f"threshold-{mode}", config, check)


def cnot_diamond_job(name: str, spec: dict, ref_lo: float, ref_hi: float) -> Job:
    """diamond_distance of (N x N) o CNOT against CNOT, built from the library.

    Channel parameters and restart seed are fixed, not drawn from the
    workload seed: the ascent's cost moves by a factor of two across them
    (2.1 to 5.2 s for depolarizing p in [0.01, 0.05]), which would bury
    any change to the code in input noise.
    """

    def run():
        noise = ftlab.compose_channels(
            ftlab.make_noise_channel(ftlab.NoiseSpec(**spec), support=(1,)),
            ftlab.make_noise_channel(ftlab.NoiseSpec(**spec), support=(0,)),
        )
        cnot = ftlab.Channel.unitary(ref.CNOT, (2, 2), (0, 1))
        return ftlab.diamond_distance(ftlab.compose_channels(noise, cnot), cnot,
                                      restarts=RESTARTS, seed=0)

    return Job(name, run, diamond_check(name, ref_lo, ref_hi))


def certify(seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng([seed, 3])
    cli = CliJobs(workdir)
    jobs = strength_jobs(rng, cli, seed)
    jobs += [threshold_job(cli, seed, rng, "exact"), threshold_job(cli, seed, rng, "mc")]
    # Pauli channels: ||(N x N) - id||_diamond = 2 (1 - q0) with q0 = (1 - p)^2
    exact = 2 * (1 - (1 - DEP_CNOT["p"]) ** 2)
    jobs.append(cnot_diamond_job("diamond-dep-cnot", DEP_CNOT, exact, exact))
    k1 = ref.noise_kraus(AD_CNOT)
    ka = [np.kron(a, b) @ ref.CNOT for a in k1 for b in k1]
    lo = ref.diamond_lower_max_entangled(ka, [ref.CNOT])
    hi = ref.diamond_upper(ka, [ref.CNOT])
    jobs.append(cnot_diamond_job("diamond-ad-cnot", AD_CNOT, lo, hi))
    sizes = {"evaluators": 7, "restarts": RESTARTS, "pseudothreshold_samples": PSEUDO_SAMPLES,
             "scheme": {"L0": 7, "t": 1}, "dep_cnot": DEP_CNOT, "ad_cnot": AD_CNOT, "ad_qubit": AD_QUBIT}
    return Workload("certify", jobs, "diamond-dep-cnot", sizes)


WORKLOADS = {"dm-circuits": dm_circuits, "mc-gadgets": mc_gadgets, "certify": certify}
