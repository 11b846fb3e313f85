import json
import math

import numpy as np
import pytest

from ftlab import cli
from ftlab.cli import Report, emit_report, json_dumps, main


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


def test_accuracy_command_ten_qubits(tmp_path, capsysbinary):
    # a noisy GHZ preparation on 10 qubits, one zoo channel per location
    n = 10
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
    cfg = write_config(
        tmp_path,
        "acc10.json",
        {"command": "accuracy", "params": {"circuit": {"n_system": n, "locations": locs},
                                           "noise": noise}},
    )
    code, out, err = run(capsysbinary, ["accuracy", "--config", cfg])
    assert code == 0, err
    r = json.loads(out)["results"]
    assert r["locations"] == len(locs) == 21
    assert 0.0 < r["delta"] <= r["bound"]
    assert r["within_bound"] is True


def test_emit_report_csv_edge_cases():
    rep = Report("threshold", {"command": "threshold"}, {}, [], ("a", "b"), 0)
    assert emit_report(rep, "csv") == b"a,b\n"
    rep = Report(
        "threshold",
        {"command": "threshold"},
        {},
        [{"a": True, "b": None}, {"a": False, "b": 0.5}],
        (),
        0,
    )
    assert emit_report(rep, "csv") == b"a,b\n1,\n0,0.5\n"
    rep = Report(
        "threshold",
        {"command": "threshold"},
        {},
        [{"a": np.float64(0.1), "b": np.int64(3), "c": np.bool_(False)}],
        (),
        0,
    )
    assert emit_report(rep, "csv") == b"a,b,c\n0.10000000000000001,3,0\n"
    with pytest.raises(ValueError):
        emit_report(
            Report("threshold", {}, {}, [{"a": "x,y"}], (), 0), "csv"
        )
    with pytest.raises(ValueError):
        emit_report(Report("threshold", {}, {}, [], (), 0), "toml")


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
