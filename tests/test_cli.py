import ast
import collections
import enum
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from typing import Mapping, Sequence

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ftlab
from ftlab import cli
from ftlab.channels import NOISE_KINDS
from ftlab.cli import emit_report, json_dumps, main, matrix_from_json, matrix_to_json


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(capsysbinary, argv):
    code = main(argv)
    captured = capsysbinary.readouterr()
    return code, captured.out, captured.err


def test_threshold_command_reports_eps0(tmp_path, capsysbinary):
    cfg = write_config(
        tmp_path,
        "th.json",
        {"command": "threshold", "params": {"L0": 100, "t": 1}},
    )
    code, out, err = run(capsysbinary, ["threshold", "--config", cfg])
    assert code == 0
    assert err == b""
    doc = json.loads(out)
    assert doc["command"] == "threshold"
    assert doc["results"]["eps0"] == pytest.approx(7.431e-5, rel=1e-3)
    assert doc["provenance"]["package"] == "ftlab"
    assert doc["provenance"]["seed"] == 0
    assert doc["config"]["output"] == {"format": "json"}


def test_threshold_command_eps0_past_float_range(tmp_path, capsysbinary):
    # xi * C(10^6, 101) overflows a float; eps0 is then taken in log space
    cfg = write_config(
        tmp_path, "th.json", {"command": "threshold", "params": {"L0": 10**6, "t": 100}}
    )
    code, out, err = run(capsysbinary, ["threshold", "--config", cfg])
    assert code == 0, err
    want = math.exp(-(1 + math.log(math.comb(10**6, 101))) / 100)
    assert json.loads(out)["results"]["eps0"] == pytest.approx(want, rel=1e-12)


def test_malformed_json_exits_2_without_report(tmp_path, capsysbinary):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    out_path = tmp_path / "report.json"
    code, out, err = run(
        capsysbinary,
        ["threshold", "--config", str(bad), "--out", str(out_path)],
    )
    assert code == 2
    assert out == b""
    assert not out_path.exists()
    msg = json.loads(err)
    assert msg["exit"] == 2
    assert msg["error"]


def test_schema_rejects_unknown_keys_and_bad_command(tmp_path, capsysbinary):
    cfg = write_config(
        tmp_path, "extra.json", {"command": "threshold", "params": {}, "typo": 1}
    )
    code, _, err = run(capsysbinary, ["threshold", "--config", cfg])
    assert code == 2
    # one line: the failing value's JSON path and jsonschema's message
    assert json.loads(err) == {
        "error": "config $: Additional properties are not allowed ('typo' was unexpected)", "exit": 2
    }

    cfg = write_config(tmp_path, "mismatch.json", {"command": "strength", "params": {}})
    code, _, err = run(capsysbinary, ["threshold", "--config", cfg])
    assert code == 2
    assert "strength" in json.loads(err)["error"]


def test_missing_param_reports_key(tmp_path, capsysbinary):
    cfg = write_config(
        tmp_path, "lr.json", {"command": "levelred", "params": {"L0": 5, "t": 1}}
    )
    code, _, err = run(capsysbinary, ["levelred", "--config", cfg])
    assert code == 2
    assert "missing config key" in json.loads(err)["error"]


def _h_chain(n_system, count):
    locs = [{"kind": "prep", "support": [0], "state": "0"}]
    locs += [{"kind": "gate", "support": [0], "gate": "H"}] * (count - 1)
    return {"n_system": n_system, "locations": locs}


def _diamond_restarts(restarts):
    """A diamond strength config asking for `restarts` ascent starts."""
    dep = {"kind": "depolarizing", "p": 0.1}
    ident = {"kind": "control_rotation", "delta_theta": 0.0}
    return {"evaluator": "diamond", "a": dep, "b": ident, "restarts": restarts}


def _shift(k):
    """The cyclic shift |i> -> |i + 1 mod 2^k> on k qubits: a permutation matrix."""
    return matrix_to_json(np.roll(np.eye(2**k), 1, axis=0))


def _one_gate(k):
    """A k-qubit circuit whose one location is the k-qubit shift."""
    return {"n_system": k, "locations": [{"kind": "gate", "support": list(range(k)), "gate": _shift(k)}]}


REFUSALS = {
    "ie_check_L0_13": (
        "faultpaths",
        {"mode": "ie_check", "L0": 13, "t": 1},
        "capped at L0 <= 12",
    ),
    "levelred_budget": (
        "levelred",
        {"levels": 10, "L0": 5, "t": 1, "eps": 0.01, "samples": 10**6},
        "leaf budget",
    ),
    # L0^levels is neither built nor printed: 7^10^4 has 8451 digits
    "levelred_levels_1e4": (
        "levelred",
        {"levels": 10**4, "L0": 7, "t": 1, "eps": 0.01, "samples": 1000},
        "1000 samples x 7^10000 leaves exceeds the 1000000000 leaf budget",
    ),
    "levelred_levels_1e8": (
        "levelred",
        {"levels": 10**8, "L0": 7, "t": 1, "eps": 0.01, "samples": 1000},
        "1000 samples x 7^100000000 leaves exceeds the 1000000000 leaf budget",
    ),
    # at L0 = 1 a sample is one leaf at any depth, yet each level costs a pass
    "levelred_L0_1_levels_30": (
        "levelred",
        {"levels": 30, "L0": 1, "t": 0, "eps": 0.01, "samples": 1000},
        "levels 30 is over the cap of 29",
    ),
    "dim_cap_13_qubits": (
        "accuracy",
        {"circuit": _h_chain(13, 2)},
        "total dimension 8192 exceeds cap 4096",
    ),
    "prep_13_qubits": (
        "accuracy",
        {
            "circuit": {
                "n_system": 13,
                "locations": [
                    {"kind": "prep", "support": list(range(13)), "state": [[1, 0]] + [[0, 0]] * 8191}
                ],
            }
        },
        "total dimension 8192 exceeds cap 4096",
    ),
    "diamond_restarts_4097": ("strength", _diamond_restarts(4097), "restarts <= 4096"),
    "n_system_2e7": (
        "accuracy",
        {"circuit": {"n_system": 20000000, "locations": []}},
        "total dimension 2^20000000 exceeds cap 4096",
    ),
    "n_env_24": (
        "strength",
        {"evaluator": "environment", "environment": {"n_env": 24, "couplings": {}}},
        "total dimension 16777216 exceeds cap 4096",
    ),
    "graph_2e6_locations": (
        "truncate",
        {"graph": {"gadgets": [{"own_locations": 2000000}]}, "eps": 0.01},
        "gadget graph has 2000000 locations, over the 1000000 cap",
    ),
    # a 7-qubit map's superoperator or Choi matrix has side 2^14, 4 GiB
    "gate_7_qubits": ("accuracy", {"circuit": _one_gate(7)}, "total dimension 16384 exceeds cap 4096"),
    "markovian_e_op_7_qubits": (
        "strength",
        {"evaluator": "markovian", "noisy": {"kind": "probabilistic", "p": 0.1, "e_op": _shift(7)}},
        "total dimension 16384 exceeds cap 4096",
    ),
    "pseudothreshold_budget": (
        "threshold",
        {"L0": 7, "t": 1, "pseudothreshold": {"samples": 10**12, "mode": "mc"}},
        "1000000000000 samples x 7 leaves exceeds the 1000000000 leaf budget",
    ),
    # 7 x 10^8 leaves per probe fit the budget, but the bisection takes 26
    # probes and each scans the whole sample
    "pseudothreshold_budget_over_probes": (
        "threshold",
        {"L0": 7, "t": 1, "pseudothreshold": {"samples": 10**8, "mode": "mc"}},
        "26 probes x 100000000 samples x 7 leaves exceeds the 1000000000 leaf budget",
    ),
}


# a 7-qubit refusal first builds its 128 x 128 channel and checks it, a few
# MiB beside the parsed config; 16 MiB is still far below the 4 GiB map
WIDE_MAP_PEAK = {"gate_7_qubits": 2**24, "markovian_e_op_7_qubits": 2**24}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_cap_refusal_exits_3(tmp_path, capsysbinary, case):
    # refused before the work is allocated: under 1 MiB traced beyond the
    # parsed config (prep_13_qubits spells out 8192 amplitudes)
    command, params, reason = REFUSALS[case]
    cfg = write_config(tmp_path, "cfg.json", {"command": command, "params": params})
    tracemalloc.start()
    try:
        code = main([command, "--config", cfg])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = capsysbinary.readouterr()
    assert peak < WIDE_MAP_PEAK.get(case, 2**20 + 16 * os.path.getsize(cfg))
    assert code == 3
    assert out == b""
    assert err.count(b"\n") == 1 and err.endswith(b"\n")
    msg = json.loads(err)
    assert set(msg) == {"error", "exit"}
    assert msg["exit"] == 3
    assert reason in msg["error"]


def test_six_qubit_gate_runs(tmp_path, capsysbinary):
    # a 6-qubit map's superoperator has side 2^12, DIM_CAP: still built
    cfg = write_config(tmp_path, "cfg.json", {"command": "accuracy", "params": {"circuit": _one_gate(6)}})
    code, out, err = run(capsysbinary, ["accuracy", "--config", cfg])
    assert code == 0, err
    assert json.loads(out)["results"]["delta"] == 0.0


@pytest.mark.parametrize(
    "params",
    [
        {"circuit": _h_chain(1, 5), "mode": "subset", "subset": [1, 2, 3, 4, 5]},
        {"circuit": _h_chain(1, 17), "mode": "subset", "subset": [1]},
    ],
    ids=["subset_r5", "subset_17_locations"],
)
def test_subset_of_any_size_exits_0(tmp_path, capsysbinary, params):
    # one subset is one walk: r = 5 and L = 17 once exited 3 under caps
    cfg = write_config(tmp_path, "cfg.json", {"command": "faultpaths", "params": params})
    code, out, err = run(capsysbinary, ["faultpaths", "--config", cfg])
    assert code == 0, err
    assert json.loads(out)["results"]["trace_norm"] == 0.0  # no noise: every insertion is 0


@pytest.mark.parametrize(
    "flag, value, reason",
    [
        ("--seed", "-1", "-1 is less than the minimum of 0"),
        ("--workers", "0", "0 is less than the minimum of 1"),
        ("--out", "", "should be non-empty"),
    ],
    ids=["seed_-1", "workers_0", "out_empty"],
)
def test_cli_overrides_pass_the_schema(tmp_path, capsysbinary, flag, value, reason):
    # a flag is checked like the config key it overrides, and exits 2 the same way
    cfg = write_config(tmp_path, "th.json", {"command": "threshold", "params": {"L0": 100, "t": 1}})
    code, out, err = run(capsysbinary, ["threshold", "--config", cfg, flag, value])
    assert code == 2 and out == b""
    assert reason in json.loads(err)["error"]


def _z_term_params(label, support=(0,)):
    """A long_range strength config with one Z term on `support` under `label`."""
    z = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [-1.0, 0.0]]
    return {
        "evaluator": "long_range",
        "t0": 1.0,
        "terms": [{"support": list(support), "op": z, "label": label}],
    }


def _one_location(**entry):
    """A one-qubit circuit whose one location is `entry`."""
    return {"n_system": 1, "locations": [entry]}


def _conditioned_x(condition):
    """Two qubits: measure qubit 0, then X on qubit 1 under `condition`."""
    return {
        "n_system": 2,
        "locations": [
            {"kind": "measure", "support": [0]},
            {"kind": "gate", "support": [1], "gate": "X", "condition": condition},
        ],
    }


def _conditioned_measure(condition):
    """One qubit measured twice, the second measurement under `condition`."""
    return {
        "n_system": 1,
        "locations": [
            {"kind": "measure", "support": [0]},
            {"kind": "measure", "support": [0], "condition": condition},
        ],
    }


def test_circuit_from_json_builds_each_location_once(monkeypatch):
    # a conditioned gate takes its condition at construction, not by a second copy
    built = []
    real = ftlab.Location.__post_init__

    def counted(self):
        built.append(self.index)
        real(self)

    monkeypatch.setattr(ftlab.Location, "__post_init__", counted)
    obj = _conditioned_x([1, 0])
    obj["locations"] = [{"kind": "prep", "support": [1], "state": "+"}, *obj["locations"]]
    obj["locations"][2]["condition"] = [2, 1]
    obj["locations"].append({"kind": "identity", "support": [0]})
    c = cli.circuit_from_json(obj)
    assert c.locations[2].condition == (2, 1)
    assert built == [1, 2, 3, 4]


def _couplings(*entry):
    """A unitary_couplings config whose 2 x 2 matrix starts with `entry`."""
    return {"evaluator": "unitary_couplings", "couplings": [[list(entry), [0, 0], [0, 0], [1, 0]]]}


_HALF_I = [[0.5, 0], [0, 0], [0, 0], [0.5, 0]]

MALFORMED = {
    "locations_string": ("accuracy", {"circuit": {"n_system": 1, "locations": "ab"}}, "locations"),
    "locations_list": ("accuracy", {"circuit": {"n_system": 1, "locations": [[1]]}}, "locations"),
    "gadgets_int": ("truncate", {"graph": {"gadgets": [3]}, "faults": []}, "gadgets"),
    "er_out_list": (
        "truncate", {"graph": {"gadgets": [{"own_locations": 1, "er_out": [[1, 1]]}]}, "faults": []},
        "gadgets[0] er_out entry must be an object",
    ),
    "couplings_list": (
        "strength",
        {"evaluator": "environment", "environment": {"n_env": 1, "couplings": [1]}},
        "couplings",
    ),
    "pseudothreshold_string": (
        "threshold", {"L0": 7, "t": 1, "pseudothreshold": "x"}, "pseudothreshold"
    ),
    # pair lists of the wrong length
    "label_short": ("strength", _z_term_params([1]), "label"),
    "label_long": ("strength", _z_term_params([1, 2, 3]), "label"),
    "condition_short": ("accuracy", {"circuit": _conditioned_x([1])}, "condition"),
    "condition_long": ("accuracy", {"circuit": _conditioned_x([1, 0, 0])}, "condition"),
    # a condition on an entry that is not a gate
    "condition_on_measure": (
        "accuracy",
        {"circuit": _conditioned_measure([1, 0])},
        "invalid circuit: location 2: only gates may be conditioned",
    ),
    "condition_short_on_measure": (
        "accuracy",
        {"circuit": _conditioned_measure([1])},
        "condition must be [measure index, outcome], got (1,)",
    ),
    # operators that sum to I but are no projectors: the fault-path map
    # would not be trace preserving
    "measure_not_projector": (
        "faultpaths",
        {
            "mode": "earliest",
            "r": 2,
            "circuit": {
                "n_system": 1,
                "locations": [
                    {"kind": "prep", "support": [0], "state": "+"},
                    {"kind": "measure", "support": [0], "projectors": [_HALF_I, _HALF_I]},
                ],
            },
            "noise": {"2": {"kind": "depolarizing", "p": 0.1}},
        },
        "invalid circuit: location 2: projectors must satisfy P P = P",
    ),
    # a coupling keyed by a location the circuit does not have
    "coupling_unknown_location": (
        "accuracy",
        {
            "circuit": _h_chain(1, 1),
            "environment": {
                "n_env": 1,
                "couplings": {"99": {"support": [0, 1], "unitary": matrix_to_json(np.eye(4))}},
            },
        },
        "noise references unknown location 99",
    ),
    # restarts is taken as given, never cast to an int
    "restarts_float": ("strength", _diamond_restarts(2.7), "restarts must be an integer, got 2.7"),
    "restarts_bool": ("strength", _diamond_restarts(True), "restarts must be an integer, got True"),
    "restarts_string": ("strength", _diamond_restarts("8"), "restarts must be an integer, got '8'"),
    # matrix entries must be finite numbers within float range
    "coupling_nan": ("strength", _couplings(math.nan, 0), "pairs of finite numbers"),
    "coupling_infinity": ("strength", _couplings(0, math.inf), "pairs of finite numbers"),
    "coupling_huge_int": ("strength", _couplings(10**400, 0), "int too large to convert to float"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_non_object_config_entry_exits_2(tmp_path, capsysbinary, case):
    command, params, key = MALFORMED[case]
    cfg = write_config(tmp_path, "cfg.json", {"command": command, "params": params})
    code, out, err = run(capsysbinary, [command, "--config", cfg])
    assert code == 2
    assert out == b""
    assert err.count(b"\n") == 1 and err.endswith(b"\n")
    msg = json.loads(err)
    assert set(msg) == {"error", "exit"}
    assert msg["exit"] == 2
    assert key in msg["error"]


def test_memory_error_exits_3(tmp_path, capsysbinary, monkeypatch):
    def exhausted(params, seed, workers):
        raise MemoryError

    monkeypatch.setitem(cli._COMMANDS, "threshold", (exhausted, ""))
    cfg = write_config(tmp_path, "th.json", {"command": "threshold", "params": {}})
    code, out, err = run(capsysbinary, ["threshold", "--config", cfg])
    assert code == 3
    assert out == b""
    assert err.count(b"\n") == 1
    msg = json.loads(err)
    assert set(msg) == {"error", "exit"}
    assert msg["exit"] == 3
    assert "out of memory" in msg["error"]


def test_ie_check_runs_clean(tmp_path, capsysbinary):
    cfg = write_config(
        tmp_path,
        "ie.json",
        {"command": "faultpaths", "params": {"mode": "ie_check", "L0": 6, "t": 2}},
    )
    code, out, _ = run(capsysbinary, ["faultpaths", "--config", cfg])
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["ok"] is True
    assert doc["results"]["counterexample"] == []


def test_byte_identity_across_runs_and_workers(tmp_path, capsysbinary):
    payload = {
        "command": "levelred",
        "params": {"levels": 2, "L0": 5, "t": 1, "eps": 0.05, "samples": 20000},
        "seed": 9,
    }
    cfg = write_config(tmp_path, "lr.json", payload)
    outs = []
    for i, workers in enumerate((1, 1, 8)):
        path = tmp_path / f"r{i}.json"
        code, _, _ = run(
            capsysbinary,
            [
                "levelred",
                "--config",
                cfg,
                "--out",
                str(path),
                "--workers",
                str(workers),
            ],
        )
        assert code == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1] == outs[2]
    doc = json.loads(outs[0])
    assert "workers" not in doc["config"]
    assert all("path" not in doc["config"]["output"] for doc in map(json.loads, outs))
    assert not list(tmp_path.glob("*.tmp.*"))


def test_levelred_csv_projection(tmp_path, capsysbinary):
    cfg = write_config(
        tmp_path,
        "lr.json",
        {
            "command": "levelred",
            "params": {"levels": 3, "L0": 5, "t": 1, "eps": 0.05, "samples": 5000},
            "output": {"format": "csv"},
        },
    )
    code, out, _ = run(capsysbinary, ["levelred", "--config", cfg])
    assert code == 0
    lines = out.decode().splitlines()
    assert lines[0] == "level,estimate,stderr,trials,exact"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[4]) == pytest.approx(
        1 - 0.95**5 - 5 * 0.05 * 0.95**4, rel=1e-12
    )


def test_seed_flag_overrides_config(tmp_path, capsysbinary):
    payload = {
        "command": "truncate",
        "params": {
            "graph": {
                "gadgets": [
                    {"own_locations": 4, "er_out": {"count": 2, "to": 1}},
                    {"own_locations": 4},
                ],
                "t": 1,
            },
            "eps": 0.5,
        },
        "seed": 1,
    }
    cfg = write_config(tmp_path, "tr.json", payload)
    code, out1, _ = run(capsysbinary, ["truncate", "--config", cfg])
    assert code == 0
    code, out2, _ = run(capsysbinary, ["truncate", "--config", cfg, "--seed", "2"])
    assert code == 0
    doc1, doc2 = json.loads(out1), json.loads(out2)
    assert doc1["provenance"]["seed"] == 1
    assert doc2["provenance"]["seed"] == 2
    assert doc1["results"]["faults"] != doc2["results"]["faults"]
    # partition sizes always cover the ten locations
    for doc in (doc1, doc2):
        sizes = sum(len(s) for s in doc["results"]["truncated"])
        assert sizes == doc["results"]["total_locations"] == 10


def test_truncate_with_explicit_faults(tmp_path, capsysbinary):
    payload = {
        "command": "truncate",
        "params": {
            "graph": {
                "gadgets": [
                    {"own_locations": 2, "er_out": {"count": 1, "to": 1}},
                    {"own_locations": 2},
                ],
                "t": 1,
            },
            "faults": [3, 4, 5],
        },
    }
    cfg = write_config(tmp_path, "tr.json", payload)
    code, out, _ = run(capsysbinary, ["truncate", "--config", cfg])
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["statuses"] == ["good", "bad"]
    assert doc["results"]["truncated"] == [[1, 2], [3, 4, 5]]


def test_strength_markovian_command(tmp_path, capsysbinary):
    cfg = write_config(
        tmp_path,
        "st.json",
        {
            "command": "strength",
            "params": {
                "evaluator": "markovian",
                "noisy": {"kind": "control_rotation", "delta_theta": 0.05},
            },
        },
    )
    code, out, _ = run(capsysbinary, ["strength", "--config", cfg])
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["strength"] == pytest.approx(2 * math.sin(0.05), rel=1e-6)


PAULI_Z = [[1, 0], [0, 0], [0, 0], [-1, 0]]
PAULI_X = [[0, 0], [1, 0], [1, 0], [0, 0]]
ZZ = matrix_to_json(np.diag([1.0, -1.0, -1.0, 1.0]))


def _grid_params(**extra):
    """Two one-cell regions, one Pauli index, |Delta| 1 from cell 0 and 3 from cell 1."""
    delta = np.ones((2, 1, 2, 1))
    delta[1] = 3.0
    grid = {"delta_abs": delta.tolist(), "cell_volume": 0.1, "gate_regions": [[0], [1]]}
    return {"evaluator": "gaussian", "grid": grid, **extra}


# evaluator params -> expected results, each worked out by hand
STRENGTHS = {
    # location 1 sums Z on qubit 0 and X on qubit 1: t0 ||Z ⊗ I + I ⊗ X|| = 2 t0
    "local_hamiltonian": (
        {
            "evaluator": "local_hamiltonian",
            "t0": 0.3,
            "terms": [
                {"support": [0], "op": PAULI_Z, "label": 1},
                {"support": [1], "op": PAULI_X, "label": 1},
                {"support": [0], "op": matrix_to_json(0.5 * np.eye(2)), "label": 2},
            ],
        },
        {"strength": 0.6},
    ),
    # one unit pair term: sqrt(c t0 ||ZZ||) = sqrt(2e) by default, outside eps^2 <= e
    "long_range_default_c": (
        {"evaluator": "long_range", "t0": 1.0, "terms": [{"support": [0, 1], "op": ZZ, "label": [0, 1]}]},
        {"strength": math.sqrt(2 * math.e), "within_validity": False},
    ),
    "long_range_c_1": (
        {
            "evaluator": "long_range",
            "t0": 0.5,
            "c": 1.0,
            "terms": [{"support": [0, 1], "op": ZZ, "label": [0, 1]}],
        },
        {"strength": math.sqrt(0.5), "within_validity": True},
    ),
    # worst region is cell 1: c * (3 + 3) * 0.1^2 with c = 2e
    "gaussian": (_grid_params(), {"strength": math.sqrt(2 * math.e * 0.06)}),
    "gaussian_c_1": (_grid_params(c=1.0), {"strength": math.sqrt(0.06)}),
    # against the ideal X, the flip (1 - p) I + p X is (1 - p) times I against X: 2 (1 - p)
    "markovian_ideal": (
        {
            "evaluator": "markovian",
            "noisy": {"kind": "probabilistic", "p": 0.25, "e_op": PAULI_X},
            "ideal": "X",
        },
        {"strength": 1.5},
    ),
}


@pytest.mark.parametrize("case", sorted(STRENGTHS))
def test_strength_evaluators_match_hand_values(tmp_path, capsysbinary, case):
    params, want = STRENGTHS[case]
    cfg = write_config(tmp_path, "st.json", {"command": "strength", "params": params})
    code, out, err = run(capsysbinary, ["strength", "--config", cfg])
    assert code == 0 and err == b""
    results = json.loads(out)["results"]
    assert results["evaluator"] == params["evaluator"]
    for key, value in want.items():
        assert results[key] == (pytest.approx(value, rel=1e-12) if type(value) is float else value)


NON_FINITE = {
    "strength_nan": (
        "strength",
        {"evaluator": "markovian", "noisy": {"kind": "control_rotation", "delta_theta": math.nan}},
        "NaN",
    ),
    "accuracy_nan": (
        "accuracy",
        {
            "circuit": {**_h_chain(1, 2), "final_measure": [0]},
            "noise": {"2": {"kind": "control_rotation", "delta_theta": math.nan}},
        },
        "NaN",
    ),
    "threshold_infinity": ("threshold", {"L0": 7, "t": 1, "eps": -math.inf}, "-Infinity"),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_non_finite_config_number_exits_2_before_any_work(tmp_path, capsysbinary, monkeypatch, case):
    command, params, literal = NON_FINITE[case]
    cfg = write_config(tmp_path, "cfg.json", {"command": command, "params": params})
    assert literal in Path(cfg).read_text()  # json.dumps writes the literal Python reads back
    monkeypatch.setitem(cli._COMMANDS, command, None)  # never reached
    code, out, err = run(capsysbinary, [command, "--config", cfg])
    assert code == 2 and out == b""
    msg = json.loads(err)
    assert msg["exit"] == 2 and msg["error"].startswith(f"config holds the non-finite number {literal}:")


_TWO_GADGETS = {"gadgets": [{"own_locations": 2, "er_out": {"count": 1, "to": 1}}, {"own_locations": 2}]}
_NOISY_H = {"circuit": _h_chain(1, 2), "noise": {"2": {"kind": "depolarizing", "p": 0.1}}}
_Z_GRID = {"delta_abs": [[[[1.0]]]], "cell_volume": 0.1, "gate_regions": [[0]]}
_ENV = {"n_env": 1, "couplings": {}}
_LEVELRED = {"levels": 2, "L0": 5, "t": 1, "eps": 0.05, "samples": 20}

BAD_PARAMS = {
    # a key no run of the command reads, and one of a pair that excludes the other
    "accuracy_misspelt_noise": (
        "accuracy", {"circuit": _h_chain(1, 2), "nosie": _NOISY_H["noise"]}, "'nosie' is not read"
    ),
    "accuracy_noise_and_environment": (
        "accuracy", {**_NOISY_H, "environment": _ENV}, "'noise' is not read"
    ),
    "truncate_faults_and_eps": (
        "truncate", {"graph": _TWO_GADGETS, "faults": [3], "eps": 0.1}, "'eps' is not read"
    ),
    "strength_foreign_key": (
        "strength", {"evaluator": "gaussian", "grid": _Z_GRID, "t0": 1.0}, "'t0' is not read"
    ),
    "faultpaths_r_in_subset_mode": (
        "faultpaths", {**_NOISY_H, "mode": "subset", "subset": [1], "r": 1}, "'r' is not read"
    ),
    "levelred_extra_key": ("levelred", {**_LEVELRED, "seed": 3}, "'seed' is not read"),
    "threshold_partial_target": ("threshold", {"L0": 7, "t": 1, "L": 1000}, "'delta0'"),
    "pseudothreshold_misspelt_mode": (
        "threshold", {"L0": 7, "t": 1, "pseudothreshold": {"mdoe": "mc"}}, "'mdoe' is not read"
    ),
    "pseudothreshold_misspelt_samples": (
        "threshold",
        {"L0": 7, "t": 1, "pseudothreshold": {"sampels": 1000}},
        "pseudothreshold key 'sampels' is not read: this run reads samples, mode",
    ),
    # scalars are checked, never cast
    "levels_fraction": ("levelred", {**_LEVELRED, "levels": 2.9}, "levels must be an integer, got 2.9"),
    "L0_fraction": ("threshold", {"L0": 7.9, "t": 1}, "L0 must be an integer, got 7.9"),
    "L0_string": ("levelred", {**_LEVELRED, "L0": "5"}, "L0 must be an integer, got '5'"),
    "t_bool": ("threshold", {"L0": 7, "t": True}, "t must be an integer, got True"),
    # an integer the level arithmetic would overflow as a float
    "L_beyond_float": (
        "threshold", {"L0": 7, "t": 1, "L": 10**400, "delta0": 0.01, "eps": 0.001}, "L must fit a float"
    ),
    "L0_beyond_float": (
        "threshold", {"L0": 10**400, "t": 1, "L": 10, "delta0": 0.01, "eps": 0.0}, "L0 must fit a float"
    ),
    "L0_beyond_float_without_target": (
        "threshold", {"L0": 10**400, "t": 1, "pseudothreshold": {"mode": "exact"}}, "L0 must fit a float"
    ),
    "eps_bool": ("levelred", {**_LEVELRED, "eps": False}, "eps must be a finite number, got False"),
    "t0_string_nan": (
        "strength", {**_z_term_params([0, 1]), "t0": "nan"}, "t0 must be a finite number, got 'nan'"
    ),
    "c_huge_int": (
        "strength", {**_z_term_params([0, 1]), "c": 10**400}, "c must be a finite number, got 1000"
    ),
    "cell_volume_string": (
        "strength", {"evaluator": "gaussian", "grid": {**_Z_GRID, "cell_volume": "0.1"}},
        "cell_volume must be a finite number, got '0.1'",
    ),
    "faults_fraction": (
        "truncate", {"graph": _TWO_GADGETS, "faults": [3, 4.5]}, "faults entry must be an integer, got 4.5"
    ),
    "faults_string": ("truncate", {"graph": _TWO_GADGETS, "faults": "3"}, "faults must be a list, got '3'"),
    "subset_string_entry": (
        "faultpaths", {**_NOISY_H, "mode": "subset", "subset": ["1"]},
        "subset entry must be an integer, got '1'",
    ),
    "r_fraction": ("faultpaths", {**_NOISY_H, "mode": "earliest", "r": 1.5}, "r must be an integer, got 1.5"),
    "samples_bool": (
        "threshold", {"L0": 7, "t": 1, "pseudothreshold": {"samples": True}},
        "samples must be an integer, got True",
    ),
    # the bound follows from the input: L*eps for a channel map, 2*L*eps for an environment
    "accuracy_variant": ("accuracy", {**_NOISY_H, "variant": "linear"}, "'variant' is not read"),
    # nested config numbers are checked, never cast
    "accuracy_motivation": (
        "accuracy",
        {"circuit": {**_one_location(kind="prep", support=[0.7], state="0"), "n_system": 1.9},
         "noise": {"1": {"kind": "depolarizing", "p": "0.5"}}},
        "n_system must be an integer, got 1.9",
    ),
    "truncate_motivation": (
        "truncate",
        {"graph": {"gadgets": [{"own_locations": 2.7, "er_out": {"count": "1", "to": 1.5}},
                               {"own_locations": 1}], "t": True}, "eps": 0.1},
        "own_locations must be an integer, got 2.7",
    ),
    "hamiltonian_motivation": (
        "strength", {**_z_term_params(1.9, support=[0.9]), "evaluator": "local_hamiltonian"},
        "label must be an integer, got 1.9",
    ),
    "n_system_2e7": (
        "accuracy", {"circuit": {"n_system": 2e7, "locations": []}},
        "n_system must be an integer, got 20000000.0",
    ),
    "own_locations_2e6": (
        "truncate", {"graph": {"gadgets": [{"own_locations": 2e6}]}, "eps": 0.01},
        "own_locations must be an integer, got 2000000.0",
    ),
    "support_fraction": (
        "accuracy", {"circuit": _one_location(kind="prep", support=[0.7], state="0")},
        "support entry must be an integer, got 0.7",
    ),
    "step_fraction": (
        "accuracy", {"circuit": _one_location(kind="prep", support=[0], state="0", step=2.5)},
        "step must be an integer, got 2.5",
    ),
    "condition_float": (
        "accuracy", {"circuit": _conditioned_x([1.0, 0])}, "condition entry must be an integer, got 1.0"
    ),
    "final_measure_float": (
        "accuracy", {"circuit": {**_h_chain(1, 2), "final_measure": [0.0]}},
        "final_measure entry must be an integer, got 0.0",
    ),
    "noise_support_fraction": (
        "accuracy", {**_NOISY_H, "noise": {"2": {"kind": "depolarizing", "p": 0.1, "support": [0.5]}}},
        "support entry must be an integer, got 0.5",
    ),
    "noise_key_float": (
        "accuracy", {**_NOISY_H, "noise": {"2.0": {"kind": "depolarizing", "p": 0.1}}},
        "noise key must be a location index in decimal, got '2.0'",
    ),
    "p_string": (
        "accuracy", {**_NOISY_H, "noise": {"2": {"kind": "depolarizing", "p": "0.5"}}},
        "p must be a finite number, got '0.5'",
    ),
    "delta_theta_bool": (
        "strength", {"evaluator": "markovian", "noisy": {"kind": "control_rotation", "delta_theta": True}},
        "delta_theta must be a finite number, got True",
    ),
    "t1_string": (
        "strength", {"evaluator": "markovian", "noisy": {"kind": "amplitude_damping", "t0": 0.1, "t1": "1"}},
        "t1 must be a finite number, got '1'",
    ),
    "n_env_fraction": (
        "strength", {"evaluator": "environment", "environment": {**_ENV, "n_env": 1.5}},
        "n_env must be an integer, got 1.5",
    ),
    "coupling_key_leading_zero": (
        "accuracy",
        {"circuit": _h_chain(1, 2), "environment": {
            "n_env": 1, "couplings": {"01": {"support": [0, 1], "unitary": matrix_to_json(np.eye(4))}}}},
        "couplings key must be a location index in decimal, got '01'",
    ),
    "coupling_support_float": (
        "strength",
        {"evaluator": "environment", "environment": {
            "n_env": 1, "couplings": {"1": {"support": [0, 1.0], "unitary": matrix_to_json(np.eye(4))}}}},
        "support entry must be an integer, got 1.0",
    ),
    "count_string": (
        "truncate", {"graph": {"gadgets": [{"own_locations": 2, "er_out": {"count": "1", "to": 1}},
                                           {"own_locations": 2}]}, "eps": 0.1},
        "count must be an integer, got '1'",
    ),
    "to_fraction": (
        "truncate", {"graph": {"gadgets": [{"own_locations": 2, "er_out": {"count": 1, "to": 1.5}},
                                           {"own_locations": 2}]}, "eps": 0.1},
        "to must be an integer, got 1.5",
    ),
    "graph_t_bool": (
        "truncate", {"graph": {**_TWO_GADGETS, "t": True}, "eps": 0.1}, "t must be an integer, got True"
    ),
    "label_pair_fraction": ("strength", _z_term_params([0, 1.5]), "label entry must be an integer, got 1.5"),
    "gate_regions_fraction": (
        "strength", {"evaluator": "gaussian", "grid": {**_Z_GRID, "gate_regions": [[0.5]]}},
        "gate_regions entry must be an integer, got 0.5",
    ),
    "delta_abs_string": (
        "strength", {"evaluator": "gaussian", "grid": {**_Z_GRID, "delta_abs": [[[["0.5"]]]]}},
        "delta_abs entry must be a finite number, got '0.5'",
    ),
    "rz_underscore": (
        "accuracy", {"circuit": _one_location(kind="gate", support=[0], gate="Rz(1_0)")},
        "unknown gate name 'Rz(1_0)'",
    ),
    # a key no run reads is refused at every depth, not only in params
    "location_misspelt_condition": (
        "accuracy",
        {"circuit": {"n_system": 2, "locations": [
            {"kind": "measure", "support": [0]},
            {"kind": "gate", "support": [1], "gate": "X", "condtion": [1, 0]}]}},
        "locations[1] key 'condtion' is not read",
    ),
    "location_foreign_payload": (
        "accuracy", {"circuit": _one_location(kind="prep", support=[0], state="0", gate="X")},
        "locations[0] key 'gate' is not read",
    ),
    "circuit_misspelt_final_measure": (
        "accuracy", {"circuit": {**_h_chain(1, 2), "final_measur": [0]}},
        "circuit config key 'final_measur' is not read",
    ),
    "noise_entry_misspelt_support": (
        "accuracy", {**_NOISY_H, "noise": {"2": {"kind": "depolarizing", "p": 0.1, "suport": [0]}}},
        "noise '2' key 'suport' is not read",
    ),
    "noise_later_entry_names_its_location": (
        "accuracy",
        {"circuit": _h_chain(1, 3), "noise": {"2": {"kind": "depolarizing", "p": 0.1},
                                              "3": {"kind": "depolarizing", "p": 0.1, "q": 0.2}}},
        "noise '3' key 'q' is not read",
    ),
    "noise_entry_not_an_object": (
        "accuracy", {**_NOISY_H, "noise": {"2": [0.1]}}, "noise '2' must be an object"
    ),
    "noise_spec_foreign_fields": (
        "strength",
        {"evaluator": "markovian", "noisy": {"kind": "depolarizing", "p": 0.1, "t0": 3, "typo": 1}},
        "noise spec key 't0' is not read",
    ),
    "noise_spec_support_outside_a_map": (
        "strength",
        {"evaluator": "diamond", "a": {"kind": "depolarizing", "p": 0.1},
         "b": {"kind": "depolarizing", "p": 0.2, "support": [0]}},
        "noise spec key 'support' is not read",
    ),
    "hamiltonian_term_extra_key": (
        "strength",
        {**_z_term_params([0, 1]), "terms": [{**_z_term_params([0, 1])["terms"][0], "weight": 2}]},
        "terms[0] key 'weight' is not read",
    ),
    "hamiltonian_later_term_names_its_index": (
        "strength",
        {**_z_term_params([0, 1]), "terms": [_z_term_params([0, 1])["terms"][0]] * 3
         + [{**_z_term_params([0, 1])["terms"][0], "weight": 2}]},
        "terms[3] key 'weight' is not read",
    ),
    "grid_misspelt_cell_volume": (
        "strength", {"evaluator": "gaussian", "grid": {**_Z_GRID, "cell_volum": 0.2}},
        "correlation grid key 'cell_volum' is not read",
    ),
    "environment_extra_key": (
        "strength", {"evaluator": "environment", "environment": {**_ENV, "n_sys": 1}},
        "environment spec key 'n_sys' is not read",
    ),
    "coupling_extra_key": (
        "strength",
        {"evaluator": "environment", "environment": {"n_env": 1, "couplings": {
            "1": {"support": [0, 1], "unitary": matrix_to_json(np.eye(4)), "time": 1}}}},
        "coupling '1' key 'time' is not read",
    ),
    "graph_extra_key": (
        "truncate", {"graph": {**_TWO_GADGETS, "eps": 0.1}, "faults": [3]},
        "gadget graph config key 'eps' is not read",
    ),
    "gadget_misspelt_er_out": (
        "truncate", {"graph": {"gadgets": [{"own_locations": 2, "er_outs": {"count": 1, "to": 1}},
                                           {"own_locations": 2}]}, "faults": [3]},
        "gadgets[0] key 'er_outs' is not read",
    ),
    # a value of the wrong type is named as such, not as a fault of the parser
    "noise_kind_list": (
        "accuracy", {**_NOISY_H, "noise": {"2": {"kind": ["x"], "p": 0.1}}}, "unknown noise kind ['x']"
    ),
    "gadgets_string": ("truncate", {"graph": {"gadgets": "abc"}, "eps": 0.1}, "nonempty gadgets list"),
    # a fault-path subset is a set of locations: a repeated one is refused, not merged
    "subset_repeated": (
        "faultpaths", {**_NOISY_H, "mode": "subset", "subset": [2, 2]}, "subset repeats a location: [2, 2]"
    ),
    "er_out_extra_key": (
        "truncate", {"graph": {"gadgets": [{"own_locations": 2, "er_out": [{"count": 1, "to": 1, "from": 0}]},
                                           {"own_locations": 2}]}, "faults": [3]},
        "gadgets[0] er_out entry key 'from' is not read",
    ),
}

_WORK = [  # every computing call a runner makes
    "accuracy_delta_exact", "diamond_distance", "environment_strength", "iterate_failure_map",
    "level_reduce_mc", "noise_strengths", "pseudothreshold_mc", "sample_fault_config", "strength_gaussian",
    "strength_local_hamiltonian", "strength_long_range", "strength_markovian",
    "strength_unitary_couplings", "threshold_report", "threshold_value", "truncate_and_classify",
    "verify_ie_identity", "zeta_earliest", "zeta_subset",
]


@pytest.mark.parametrize("case", sorted(BAD_PARAMS))
def test_bad_params_exit_2_naming_the_key_before_any_work(tmp_path, capsysbinary, monkeypatch, case):
    command, params, reason = BAD_PARAMS[case]
    cfg = write_config(tmp_path, "cfg.json", {"command": command, "params": params})

    def work(*args, **kwargs):
        raise AssertionError("a refused config reached the computation")

    for name in _WORK:
        monkeypatch.setattr(cli, name, work)
    code, out, err = run(capsysbinary, [command, "--config", cfg])
    assert code == 2 and out == b""
    assert err.count(b"\n") == 1
    msg = json.loads(err)
    assert msg["exit"] == 2 and reason in msg["error"], msg


def test_threshold_overhead_beyond_float_exits_2_naming_L0(tmp_path, capsysbinary):
    # L0 = 1e200 fits a float, but the overhead L0^k of the k = 4 levels the target needs does not
    params = {"L0": 10**200, "t": 2, "L": 10, "delta0": 1e-310, "eps": 1e-300}
    cfg = write_config(tmp_path, "cfg.json", {"command": "threshold", "params": params})
    code, out, err = run(capsysbinary, ["threshold", "--config", cfg])
    assert code == 2 and out == b""
    assert json.loads(err) == {"error": "overhead L0^4 = 1e+200^4 overflows a float", "exit": 2}


_NOISE_FIELDS = {
    "delta_theta": 0.1, "t0": 0.1, "t1": 1.0, "p": 0.1, "e_op": matrix_to_json(np.eye(2)[::-1])
}


@pytest.mark.parametrize("kind", sorted(NOISE_KINDS))
def test_strength_markovian_reads_exactly_the_fields_of_each_noise_kind(tmp_path, capsysbinary, kind):
    noisy = {"kind": kind, **{f: _NOISE_FIELDS[f] for f in NOISE_KINDS[kind][0]}}
    params = {"evaluator": "markovian", "noisy": noisy}
    cfg = write_config(tmp_path, "cfg.json", {"command": "strength", "params": params})
    code, out, err = run(capsysbinary, ["strength", "--config", cfg])
    assert code == 0, err
    doc = json.loads(out)
    assert doc["config"]["params"]["noisy"] == noisy
    assert 0.0 < doc["results"]["strength"] <= 2.0


def test_schema_enums_match_the_command_table_and_format_choices():
    # the shipped schemas are data files, so they keep their own copy of each closed set
    schemas = {
        name: json.loads((Path(cli.__file__).parent / "schemas" / f"{name}.schema.json").read_text())
        for name in ("config", "report")
    }
    for schema in schemas.values():
        assert schema["properties"]["command"]["enum"] == list(cli._COMMANDS)
    formats = schemas["config"]["properties"]["output"]["properties"]["format"]["enum"]
    (commands,) = [a for a in cli.build_parser()._actions if a.dest == "command"]
    assert list(commands.choices) == list(cli._COMMANDS)
    for parser in commands.choices.values():
        (fmt,) = [a for a in parser._actions if a.dest == "format"]
        assert list(fmt.choices) == formats


def test_valid_params_still_run_with_every_key_read(tmp_path, capsysbinary):
    # the complete key sets of the runs the refusals above cut short
    for command, params in [
        ("accuracy", _NOISY_H),
        ("truncate", {"graph": _TWO_GADGETS, "faults": [3]}),
        ("faultpaths", {**_NOISY_H, "mode": "subset", "subset": [1, 2], "complement": "ideal"}),
        ("threshold", {"L0": 7, "t": 1, "xi": 2, "L": 1000, "delta0": 0.01, "eps": 1e-4,
                       "pseudothreshold": {"samples": 1000, "mode": "exact"}}),
        ("strength", {**_z_term_params([0, 1]), "c": 2}),
    ]:
        cfg = write_config(tmp_path, "cfg.json", {"command": command, "params": params})
        code, out, err = run(capsysbinary, [command, "--config", cfg])
        assert code == 0, err


def test_accuracy_command_within_bound(tmp_path, capsysbinary):
    cfg = write_config(
        tmp_path,
        "acc.json",
        {
            "command": "accuracy",
            "params": {
                "circuit": {
                    "n_system": 1,
                    "locations": [
                        {"kind": "prep", "support": [0], "state": "0"},
                        {"kind": "gate", "support": [0], "gate": "H"},
                    ],
                    "final_measure": [0],
                },
                "noise": {
                    "1": {"kind": "depolarizing", "p": 0.02},
                    "2": {"kind": "depolarizing", "p": 0.02},
                },
            },
        },
    )
    code, out, _ = run(capsysbinary, ["accuracy", "--config", cfg])
    assert code == 0
    doc = json.loads(out)
    r = doc["results"]
    assert r["variant"] == "linear"
    assert r["locations"] == 2
    assert r["within_bound"] is True
    assert r["delta"] <= r["bound"] + 1e-12


def ghz_zoo(n):
    """A noisy GHZ preparation on n qubits plus a wait and an Rz, one zoo channel per location."""
    locs = [{"kind": "prep", "support": [q], "state": "+" if q == 0 else "0"} for q in range(n)]
    locs += [{"kind": "gate", "support": [q, q + 1], "gate": "CNOT"} for q in range(n - 1)]
    locs += [{"kind": "identity", "support": [n - 1]}, {"kind": "gate", "support": [0], "gate": "Rz(0.3)"}]
    zoo = [
        {"kind": "depolarizing", "p": 0.004},
        {"kind": "amplitude_damping", "t0": 0.003, "t1": 1.0},
        {"kind": "control_rotation", "delta_theta": 0.005},
    ]
    noise = {
        str(i + 1): {**zoo[i % 3], "support": [loc["support"][-1]]}
        for i, loc in enumerate(locs)
    }
    return {"circuit": {"n_system": n, "locations": locs}, "noise": noise}


@pytest.mark.parametrize("support", [[0, 1], None])
def test_accuracy_two_qubit_probabilistic_noise(tmp_path, capsysbinary, support):
    # X on the control of a Bell pair's CNOT with probability p moves 2p of
    # the read-out weight from 00/11 to 01/10
    p = 0.1
    x_i = np.kron(np.array([[0, 1], [1, 0]]), np.eye(2))
    noise = {"kind": "probabilistic", "p": p, "e_op": matrix_to_json(x_i)}
    if support is not None:
        noise["support"] = support
    circuit = {
        "n_system": 2,
        "locations": [
            {"kind": "prep", "support": [0], "state": "+"},
            {"kind": "prep", "support": [1], "state": "0"},
            {"kind": "gate", "support": [0, 1], "gate": "CNOT"},
        ],
    }
    cfg = write_config(
        tmp_path,
        "acc2q.json",
        {"command": "accuracy", "params": {"circuit": circuit, "noise": {"3": noise}}},
    )
    code, out, err = run(capsysbinary, ["accuracy", "--config", cfg])
    assert code == 0, err
    assert json.loads(out)["results"]["delta"] == pytest.approx(2 * p, abs=1e-12)


def test_accuracy_command_ten_qubits(tmp_path, capsysbinary):
    cfg = write_config(
        tmp_path, "acc10.json", {"command": "accuracy", "params": ghz_zoo(10)}
    )
    code, out, err = run(capsysbinary, ["accuracy", "--config", cfg])
    assert code == 0, err
    r = json.loads(out)["results"]
    assert r["locations"] == 21
    assert 0.0 < r["delta"] <= r["bound"]
    assert r["within_bound"] is True


def test_accuracy_ghz_zoo_eleven_qubits_keeps_delta(tmp_path, capsysbinary):
    # both walks retire each qubit after its last location, so 11 qubits take
    # milliseconds; delta is the value the full-size walk gave, to 1e-12 relative
    cfg = write_config(tmp_path, "acc11.json", {"command": "accuracy", "params": ghz_zoo(11)})
    code, out, err = run(capsysbinary, ["accuracy", "--config", cfg])
    assert code == 0, err
    assert json.loads(out)["results"]["delta"] == pytest.approx(0.048719806365868916, rel=1e-12)


def test_emit_report_csv_edge_cases():
    # the header is the first record's keys, so no records give an empty header
    csv = {"command": "threshold", "seed": 0, "output": {"format": "csv"}}
    assert emit_report("threshold", csv, {}, []) == b"\n"
    records = [{"a": True, "b": None}, {"a": False, "b": 0.5}]
    assert emit_report("threshold", csv, {}, records) == b"a,b\n1,\n0,0.5\n"
    records = [{"a": np.float64(0.1), "b": np.int64(3), "c": np.bool_(False)}]
    assert emit_report("threshold", csv, {}, records) == b"a,b,c\n0.10000000000000001,3,0\n"
    with pytest.raises(ValueError):
        emit_report("threshold", csv, {}, [{"a": "x,y"}])


def test_json_float_round_trip_exact():
    rng = np.random.default_rng(5)
    values = [float(v) for v in rng.uniform(-1e6, 1e6, size=200)]
    values += [float(v) for v in rng.uniform(1e-210, 1e-190, size=20)]
    values += [3e-5, 7.4319079024533802e-05, 0.1 + 0.2]
    doc = json.loads(json_dumps({"xs": values}))
    assert doc["xs"] == values
    with pytest.raises(ValueError):
        json_dumps({"x": math.inf})


def test_json_dumps_golden_bytes():
    # expected strings recorded from the two-pass serializer this one replaced
    doc = {
        "f64": np.float64(0.1),
        "f32": np.float32(0.1),
        "i64": np.int64(-7),
        "b": np.bool_(True),
        "arr": np.array([[1.5, -2.0], [0.25, 3.0]]),
        "fs": frozenset({3, 1, 2}),
        "s": {10, -1, 5},
        "tup": (1, "a", None, False),
        "by_int": {9: "nine", 10: "ten"},
        "text": "h\u00e9llo \u2713 \"q\"",
        "neg0": -0.0,
        "tiny": 1e-300,
    }
    assert json_dumps(doc) == (
        '{"arr":[[1.5,-2],[0.25,3]],"b":true,"by_int":{"10":"ten","9":"nine"},'
        '"f32":0.10000000149011612,"f64":0.10000000000000001,"fs":[1,2,3],'
        '"i64":-7,"neg0":-0,"s":[-1,5,10],"text":"h\u00e9llo \u2713 \\"q\\"",'
        '"tiny":1e-300,"tup":[1,"a",null,false]}'
    )
    with pytest.raises(ValueError, match="non-finite"):
        json_dumps({"x": np.array([1.0, np.nan])})
    with pytest.raises(TypeError, match="complex"):
        json_dumps({"x": 1j})


def test_faultpaths_earliest_ten_qubits(tmp_path, capsysbinary):
    # 2^20 [re, im] rows, formatted in 32 chunks
    cfg = write_config(
        tmp_path,
        "fp10.json",
        {"command": "faultpaths", "params": {"mode": "earliest", "r": 1, **ghz_zoo(10)}},
    )
    out_path = tmp_path / "fp10.report.json"
    code, _, err = run(capsysbinary, ["faultpaths", "--config", cfg, "--out", str(out_path)])
    assert code == 0, err
    r = json.loads(out_path.read_bytes())["results"]
    zeta = matrix_from_json(r["matrix"])
    assert zeta.shape == (1024, 1024)
    # a dense oracle: the report's norm comes from the support of zeta only
    assert r["trace_norm"] == pytest.approx(np.abs(np.linalg.eigvalsh(zeta)).sum(), rel=1e-12)


def test_faultpaths_on_conditioned_circuit_exits_0(tmp_path, capsysbinary):
    # a measurement feeding a conditioned X, noise on every location
    circuit = {
        "n_system": 2,
        "locations": [
            {"kind": "prep", "support": [0], "state": "+"},
            {"kind": "prep", "support": [1], "state": "0"},
            {"kind": "measure", "support": [0]},
            {"kind": "gate", "support": [1], "gate": "X", "condition": [3, 1]},
        ],
    }
    noise = {str(i): {"kind": "depolarizing", "p": 0.01, "support": [(i + 1) % 2]} for i in range(1, 5)}
    for params in ({"mode": "earliest", "r": 3}, {"mode": "subset", "subset": [2, 4]}):
        cfg = write_config(
            tmp_path,
            "fp.json",
            {"command": "faultpaths", "params": {"circuit": circuit, "noise": noise, **params}},
        )
        code, out, err = run(capsysbinary, ["faultpaths", "--config", cfg])
        assert code == 0, err
        assert json.loads(out)["results"]["trace_norm"] > 0.0


def test_environment_accuracy_with_reprepared_qubit_exits_0(tmp_path, capsysbinary):
    # q0 is measured into q1 by a CNOT, then prepared again and reused;
    # couplings exp(-i theta Z (x) X) to one environment qubit
    theta = 0.05
    zx = np.kron(np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]]))
    u = matrix_to_json(np.cos(theta) * np.eye(4) - 1j * np.sin(theta) * zx)
    circuit = {
        "n_system": 2,
        "locations": [
            {"kind": "prep", "support": [0], "state": "+"},
            {"kind": "prep", "support": [1], "state": "0"},
            {"kind": "gate", "support": [0, 1], "gate": "CNOT"},
            {"kind": "prep", "support": [0], "state": "+"},
            {"kind": "gate", "support": [0], "gate": "H"},
        ],
    }
    couplings = {"3": {"support": [0, 2], "unitary": u}, "5": {"support": [0, 2], "unitary": u}}
    params = {"circuit": circuit, "environment": {"n_env": 1, "couplings": couplings}}
    cfg = write_config(tmp_path, "acc.json", {"command": "accuracy", "params": params})
    code, out, err = run(capsysbinary, ["accuracy", "--config", cfg])
    assert code == 0, err
    r = json.loads(out)["results"]
    assert r["variant"] == "non_markovian" and r["within_bound"]
    assert 0.0 < r["delta"] <= r["bound"]


def test_environment_accuracy_on_conditioned_circuit_exits_0(tmp_path, capsysbinary):
    # q1 copies q0's outcome through a conditioned X, which is then undone
    # by a CNOT; couplings exp(-i theta Z (x) X) to one environment qubit
    theta = 0.05
    zx = np.kron(np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]]))
    u = matrix_to_json(np.cos(theta) * np.eye(4) - 1j * np.sin(theta) * zx)
    circuit = {
        "n_system": 2,
        "locations": [
            {"kind": "prep", "support": [0], "state": "+"},
            {"kind": "prep", "support": [1], "state": "0"},
            {"kind": "measure", "support": [0]},
            {"kind": "gate", "support": [1], "gate": "X", "condition": [3, 1]},
            {"kind": "gate", "support": [0, 1], "gate": "CNOT"},
        ],
    }
    couplings = {"1": {"support": [0, 2], "unitary": u}, "4": {"support": [1, 2], "unitary": u}}
    cfg = write_config(
        tmp_path,
        "acc.json",
        {
            "command": "accuracy",
            "params": {"circuit": circuit, "environment": {"n_env": 1, "couplings": couplings}},
        },
    )
    code, out, err = run(capsysbinary, ["accuracy", "--config", cfg])
    assert code == 0, err
    r = json.loads(out)["results"]
    assert r["variant"] == "non_markovian" and r["within_bound"]
    assert 0.0 < r["delta"] <= r["bound"]


README_CONFIGS = re.findall(
    r"```json\n(.*?)```", (Path(__file__).resolve().parents[1] / "README.md").read_text(), re.S
)


@pytest.mark.parametrize("text", README_CONFIGS, ids=lambda text: json.loads(text)["command"])
def test_readme_example_config_runs(tmp_path, capsysbinary, text):
    path = tmp_path / "example.json"
    path.write_text(text)
    code, out, err = run(capsysbinary, [json.loads(text)["command"], "--config", str(path)])
    assert code == 0, err
    assert json.loads(out)["command"] == json.loads(text)["command"]


def test_readme_has_example_configs():
    assert len(README_CONFIGS) >= 3


def test_parser_is_built_once_and_keeps_no_state(tmp_path, capsysbinary):
    assert cli.build_parser() is cli.build_parser()
    cfg = write_config(
        tmp_path, "th.json", {"command": "threshold", "params": {"L0": 100, "t": 1}, "seed": 4}
    )
    code, out, _ = run(
        capsysbinary, ["threshold", "--config", cfg, "--seed", "9", "--format", "csv"]
    )
    assert code == 0
    assert out.startswith(b"eps0,exponent_a\n")
    code, out, _ = run(capsysbinary, ["threshold", "--config", cfg])
    assert code == 0
    doc = json.loads(out)
    assert doc["provenance"]["seed"] == doc["config"]["seed"] == 4
    assert doc["config"]["output"] == {"format": "json"}


HASH_SEED_CONFIGS = {
    "strength": {
        "evaluator": "markovian",
        "noisy": {"kind": "amplitude_damping", "t0": 0.1, "t1": 1.0},
    },
    "accuracy": ghz_zoo(6),
    "faultpaths": {"mode": "earliest", "r": 1, **ghz_zoo(3)},
    "truncate": {
        "graph": {
            "gadgets": [
                {"own_locations": 4, "er_out": {"count": 2, "to": 1}},
                {"own_locations": 4},
            ],
            "t": 1,
        },
        "eps": 0.3,
    },
    "levelred": {"levels": 2, "L0": 5, "t": 1, "eps": 0.05, "samples": 2000},
    "threshold": {"L0": 100, "t": 1, "L": 1000, "delta0": 0.01, "eps": 1e-6},
}


def test_reports_byte_identical_across_hash_seeds(tmp_path):
    # string-keyed sets and dicts iterate in an order fixed per process by
    # PYTHONHASHSEED; no report may depend on it
    argvs = []
    for command, params in HASH_SEED_CONFIGS.items():
        cfg = write_config(
            tmp_path, f"{command}.json", {"command": command, "params": params, "seed": 3}
        )
        argvs.append([command, "--config", cfg, "--out", str(tmp_path / f"{command}.{{}}.json")])
    script = (
        "import json, os, sys\n"
        "from ftlab.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    argv[-1] = argv[-1].format(os.environ['PYTHONHASHSEED'])\n"
        "    assert main(argv) == 0, argv\n"
    )
    src = str(Path(ftlab.__file__).resolve().parents[1])
    for hash_seed in ("1", "3"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        subprocess.run([sys.executable, "-c", script, json.dumps(argvs)], env=env, check=True)
    for command in HASH_SEED_CONFIGS:
        first = (tmp_path / f"{command}.1.json").read_bytes()
        assert first == (tmp_path / f"{command}.3.json").read_bytes(), command


def test_only_cli_defines_or_imports_json_readers():
    # the config format lives in one module: no other module defines a JSON
    # reader or writer, and one names it only to re-export it from cli
    def json_name(name):
        return name.endswith(("_from_json", "_to_json")) or name == "complex_pairs"

    for path in sorted(Path(ftlab.__file__).parent.glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                assert not json_name(node.name), f"{path.name} defines {node.name}"
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                from_cli = isinstance(node, ast.ImportFrom) and (node.level, node.module) == (1, "cli")
                names = [a.name for a in node.names if json_name(a.name.rsplit(".", 1)[-1])]
                assert from_cli or not names, f"{path.name} imports {names}"


def _fresh_env():
    src = str(Path(ftlab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


@pytest.mark.parametrize("code", [
    "import ftlab.cli",
    "import ftlab; ftlab.circuit_from_json",
    "import ftlab, sys; assert not {'ftlab.cli', 'jsonschema'} & set(sys.modules)",
])
def test_package_imports_in_a_fresh_interpreter(code):
    # the package re-exports cli's readers and cli reads the package's
    # __version__: an import cycle shows in one of these orders only; and
    # the package itself loads neither cli nor jsonschema
    subprocess.run([sys.executable, "-c", code], env=_fresh_env(), check=True, timeout=120)


def test_module_run_writes_one_error_line(tmp_path):
    # `python -m ftlab.cli` runs the module that `import ftlab` has not loaded, so
    # runpy has no warning to print ahead of the error
    cfg = write_config(tmp_path, "bad.json", {"command": "threshold", "params": {"L0": 7.9, "t": 1}})
    proc = subprocess.run([sys.executable, "-m", "ftlab.cli", "threshold", "--config", cfg],
                          env=_fresh_env(), capture_output=True, timeout=120)
    assert proc.returncode == 2 and proc.stdout == b""
    assert proc.stderr.count(b"\n") == 1, proc.stderr
    assert json.loads(proc.stderr)["exit"] == 2


# -- serializer parity ----------------------------------------------------------
# The isinstance walk that exact-type dispatch and bulk array formatting
# replaced, kept as the oracle for the bytes and the error texts.


def _oracle_fmt_float(x):
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x}")
    return "%.17g" % x


def oracle_dump(o):
    if isinstance(o, (float, np.floating)):
        return _oracle_fmt_float(o)
    if isinstance(o, (list, tuple)):
        return "[" + ",".join(map(oracle_dump, o)) + "]"
    if isinstance(o, str):
        return json.dumps(o, ensure_ascii=False)
    if o is None:
        return "null"
    if isinstance(o, (bool, np.bool_)):
        return "true" if o else "false"
    if isinstance(o, (int, np.integer)):
        return str(int(o))
    if isinstance(o, np.ndarray):
        return oracle_dump(o.tolist())
    if isinstance(o, (set, frozenset)):
        return oracle_dump(sorted(o))
    if isinstance(o, Mapping):
        return "{" + ",".join(
            json.dumps(str(k), ensure_ascii=False) + ":" + oracle_dump(o[k])
            for k in sorted(o, key=str)
        ) + "}"
    if isinstance(o, Sequence):
        return oracle_dump(list(o))
    raise TypeError(f"cannot serialize {type(o).__name__}")


def test_json_dumps_array_shapes_golden_bytes():
    assert json_dumps(np.array(2.5)) == "2.5"
    assert json_dumps(np.zeros((0,))) == "[]"
    assert json_dumps(np.zeros((3, 0))) == "[[],[],[]]"
    assert json_dumps(np.arange(12.0).reshape(2, 3, 2)) == (
        "[[[0,1],[2,3],[4,5]],[[6,7],[8,9],[10,11]]]"
    )
    extremes = np.array([-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308])
    assert json_dumps(extremes) == (
        "[-0,4.9406564584124654e-324,1.7976931348623157e+308,-1.7976931348623157e+308]"
    )


def test_json_dumps_array_layouts_match_oracle():
    a = np.random.default_rng(3).normal(size=(5, 4, 2)) * 10.0 ** np.arange(-3, 5).reshape(4, 2)
    cases = [
        a,
        a.astype(np.float32),
        np.asfortranarray(a),
        a[::-1, :, ::-1],
        a[1:4, ::2],
        a[:, 0, 1],
        a.astype(np.float16)[0],
        np.array([-0.0, 5e-324, 1.7976931348623157e308]),
        # +0.0 cells are written into the templates unformatted, -0.0 ones are not
        np.array(list(itertools.product([0.0, -0.0, 1.25], repeat=2)) * 3),
        np.array([[0.0, -0.0], [0.0, 0.0]], dtype=np.float32),
        np.array([[0.0, -0.0, 2.5], [0.0, 0.0, 0.0]], dtype=np.float16),
        np.where(np.abs(a) < 1.0, 0.0, a),
        np.where(np.arange(70) < np.arange(4)[:, None] + 62, 0.0, 1.5),  # rows of 70 cells
        np.zeros((0, 2)),
    ]
    for x in cases:
        assert json_dumps({"x": x}) == oracle_dump({"x": x})


def test_json_dumps_array_larger_than_one_chunk():
    rows = cli._CHUNK_ROWS * 2 + 3
    pairs = np.random.default_rng(4).normal(size=(rows, 2))
    assert json_dumps(pairs) == oracle_dump(pairs)
    assert json_dumps(pairs[:, 0]) == oracle_dump(pairs[:, 0])
    zeros = np.zeros((rows, 2))
    assert json_dumps(zeros) == oracle_dump(zeros)


@pytest.mark.parametrize(
    "bad",
    [
        np.array([1.0, np.nan]),
        np.array([[1.0, 2.0], [-np.inf, np.inf]]),
        np.array([[1.0, np.inf], [np.nan, 2.0]]).T,
        np.array([np.inf], dtype=np.float32),
        np.array(-np.inf),
        math.nan,
        np.float64(-math.inf),
        np.array([[0.0, 0.0]] * 100 + [[1.0, -0.0], [0.0, np.nan], [0.0, 0.0]]),
    ],
)
def test_json_dumps_non_finite_error_text_matches_oracle(bad):
    with pytest.raises(ValueError) as want:
        oracle_dump({"x": [bad]})
    with pytest.raises(ValueError) as got:
        json_dumps({"x": [bad]})
    assert str(got.value) == str(want.value)


class Level(enum.IntEnum):
    LOW = 2


class Tag(str):
    pass


def test_json_dumps_exact_types_and_subclasses_match_oracle():
    assert json_dumps([True, 1, False, 0, 1.0]) == "[true,1,false,0,1]"
    doc = collections.OrderedDict(
        [("z", Level.LOW), ("a", Tag("t\u00e9\"")), ("\u2713", (np.int64(5), np.bool_(True)))]
    )
    assert json_dumps(doc) == oracle_dump(doc) == '{"a":"t\u00e9\\"","z":2,"\u2713":[5,true]}'


json_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=8),
    hnp.arrays(
        st.sampled_from([np.float64, np.float32]),
        hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
        elements={"allow_nan": False, "allow_infinity": False},
    ),
)
json_trees = st.recursive(
    json_leaves,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.dictionaries(st.text(max_size=6), kids, max_size=4),
    ),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(json_trees)
def test_json_dumps_matches_oracle_on_random_trees(tree):
    assert json_dumps(tree) == oracle_dump(tree)
