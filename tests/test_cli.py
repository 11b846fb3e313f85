import collections
import enum
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import Mapping, Sequence

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ftlab
from ftlab import cli
from ftlab.cli import Report, emit_report, json_dumps, main
from ftlab.matcore import matrix_from_json, matrix_to_json, trace_norm


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
    assert json.loads(err)["exit"] == 2

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


REFUSALS = {
    "ie_check_L0_13": (
        "faultpaths",
        {"mode": "ie_check", "L0": 13, "t": 1},
        "capped at L0 <= 12",
    ),
    "subset_r5": (
        "faultpaths",
        {"circuit": _h_chain(1, 5), "mode": "subset", "subset": [1, 2, 3, 4, 5]},
        "capped at r <= 4",
    ),
    "subset_17_locations": (
        "faultpaths",
        {"circuit": _h_chain(1, 17), "mode": "subset", "subset": [1]},
        "capped at L <= 16 locations",
    ),
    "levelred_budget": (
        "levelred",
        {"levels": 10, "L0": 5, "t": 1, "eps": 0.01, "samples": 10**6},
        "leaf budget",
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
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_cap_refusal_exits_3(tmp_path, capsysbinary, case):
    command, params, reason = REFUSALS[case]
    cfg = write_config(tmp_path, "cfg.json", {"command": command, "params": params})
    code, out, err = run(capsysbinary, [command, "--config", cfg])
    assert code == 3
    assert out == b""
    assert err.count(b"\n") == 1 and err.endswith(b"\n")
    msg = json.loads(err)
    assert set(msg) == {"error", "exit"}
    assert msg["exit"] == 3
    assert reason in msg["error"]


def _z_term_params(label):
    """A long_range strength config with one Z term under `label`."""
    z = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [-1.0, 0.0]]
    return {
        "evaluator": "long_range",
        "t0": 1.0,
        "terms": [{"support": [0], "op": z, "label": label}],
    }


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


def _couplings(*entry):
    """A unitary_couplings config whose 2 x 2 matrix starts with `entry`."""
    return {"evaluator": "unitary_couplings", "couplings": [[list(entry), [0, 0], [0, 0], [1, 0]]]}


MALFORMED = {
    "locations_string": ("accuracy", {"circuit": {"n_system": 1, "locations": "ab"}}, "locations"),
    "locations_list": ("accuracy", {"circuit": {"n_system": 1, "locations": [[1]]}}, "locations"),
    "gadgets_int": ("truncate", {"graph": {"gadgets": [3]}, "faults": []}, "gadgets"),
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
    def exhausted(config, workers):
        raise MemoryError

    monkeypatch.setitem(cli._RUNNERS, "threshold", exhausted)
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


def test_emit_report_csv_edge_cases():
    # the header is the first record's keys, so no records give an empty header
    assert emit_report(Report("threshold", {"command": "threshold"}, {}, [], 0), "csv") == b"\n"
    rep = Report(
        "threshold",
        {"command": "threshold"},
        {},
        [{"a": True, "b": None}, {"a": False, "b": 0.5}],
        0,
    )
    assert emit_report(rep, "csv") == b"a,b\n1,\n0,0.5\n"
    rep = Report(
        "threshold",
        {"command": "threshold"},
        {},
        [{"a": np.float64(0.1), "b": np.int64(3), "c": np.bool_(False)}],
        0,
    )
    assert emit_report(rep, "csv") == b"a,b,c\n0.10000000000000001,3,0\n"
    with pytest.raises(ValueError):
        emit_report(Report("threshold", {}, {}, [{"a": "x,y"}], 0), "csv")
    with pytest.raises(ValueError):
        emit_report(Report("threshold", {}, {}, [], 0), "toml")


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
    assert trace_norm(zeta) == pytest.approx(r["trace_norm"], rel=1e-12)


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
    ]
    for x in cases:
        assert json_dumps({"x": x}) == oracle_dump({"x": x})


def test_json_dumps_array_larger_than_one_chunk():
    rows = cli._CHUNK_ROWS * 2 + 3
    pairs = np.random.default_rng(4).normal(size=(rows, 2))
    assert json_dumps(pairs) == oracle_dump(pairs)
    assert json_dumps(pairs[:, 0]) == oracle_dump(pairs[:, 0])


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
