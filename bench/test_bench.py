"""Self-tests of the benchmark: python3 -m pytest bench"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Span, self_times, summarize  # noqa: E402


def configs(workdir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(workdir.glob("*.config.json"))}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(tmp_path, name):
    build = workloads.WORKLOADS[name]
    dirs = [tmp_path / d for d in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    first, second = build(5, dirs[0]), build(5, dirs[1])
    other = build(6, dirs[2])
    assert [j.name for j in first.jobs] == [j.name for j in second.jobs]
    assert first.sizes == second.sizes == other.sizes
    assert configs(dirs[0]) == configs(dirs[1])
    assert configs(dirs[0]) != configs(dirs[2])


def corrupt_after_run(job, workdir: Path, mutate):
    """The same job, with its report rewritten by `mutate` after each run."""
    report = workdir / f"{job.name}.report.json"

    def run_and_corrupt():
        code = job.run()
        doc = json.loads(report.read_text())
        mutate(doc["results"])
        report.write_text(json.dumps(doc))
        return code

    return workloads.Job(job.name, run_and_corrupt, job.check)


MUTATIONS = [
    ("certify", "strength-gaussian", lambda r: r.update(strength=r["strength"] * (1 + 1e-6))),
    ("certify", "strength-markovian", lambda r: r.update(strength=r["strength"] * 0.9)),
    ("certify", "strength-diamond", lambda r: r.update(upper=r["lower"] * 0.5, lower=r["lower"] * 0.4)),
    ("certify", "strength-long_range", lambda r: r.update(within_validity=not r["within_validity"])),
    ("certify", "threshold-exact", lambda r: r.update(k_required=r["k_required"] + 1)),
    ("certify", "threshold-mc", lambda r: r["pseudothreshold"].update(
        crossing=r["pseudothreshold"]["crossing"] + 0.02)),
    ("mc-gadgets", "truncate-00", lambda r: r["statuses"].__setitem__(
        0, "good" if r["statuses"][0] == "bad" else "bad")),
    ("mc-gadgets", "truncate-01", lambda r: r["truncated"][0].append(10**6)),
    ("mc-gadgets", "ie-check", lambda r: r.update(ok=False)),
]


@pytest.mark.parametrize("workload,job,mutate", MUTATIONS, ids=[m[1] for m in MUTATIONS])
def test_corrupted_output_counts_as_failed(tmp_path, workload, job, mutate):
    wl = workloads.WORKLOADS[workload](3, tmp_path)
    target = next(j for j in wl.jobs if j.name == job)
    clean = run.run_pass(workloads.Workload(workload, [target], job))
    assert clean.problems == {}
    bad = run.run_pass(workloads.Workload(workload, [corrupt_after_run(target, tmp_path, mutate)], job))
    assert list(bad.problems) == [job]


def test_raising_job_and_failed_exit_count_as_failed(tmp_path):
    def boom():
        raise RuntimeError("boom")

    jobs = [
        workloads.Job("raises", boom, lambda r, n: []),
        workloads.CliJobs(tmp_path).job("exit-2", {"command": "levelred", "params": {}}, lambda r, n: []),
        workloads.Job("fine", lambda: 1, lambda r, n: []),
    ]
    result = run.run_pass(workloads.Workload("t", jobs, "fine"))
    assert sorted(result.problems) == ["exit-2", "raises"]
    assert "boom" in result.problems["raises"][0]


def test_hits_consistent_is_a_four_sigma_test():
    n, p = 10**6, 0.01
    sigma = (n * p * (1 - p)) ** 0.5
    assert ref.hits_consistent(round(n * p + 3.9 * sigma), n, p)
    assert not ref.hits_consistent(round(n * p + 4.2 * sigma), n, p)
    assert not ref.hits_consistent(round(n * p - 4.2 * sigma), n, p)
    # expected count 0.04: one hit is plausible, four are not
    assert ref.hits_consistent(1, 300_000, 1.5e-7)
    assert not ref.hits_consistent(4, 300_000, 1.5e-7)


def span(i, parent, start, end, name="x"):
    return Span(i, parent, name, "job", start, end)


def test_self_time_on_synthetic_span_tree():
    spans = [
        span(0, None, 0.0, 10.0, "root"),
        span(1, 0, 1.0, 3.0, "a"),
        span(2, 0, 2.0, 5.0, "b"),  # overlaps a: covered part of root is [1, 5]
        span(3, 0, 6.0, 7.0, "a"),
        span(4, 2, 2.5, 3.5, "c"),
        span(5, None, 20.0, 21.0, "root"),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10 - 4 - 1)
    assert selfs[1] == pytest.approx(2)
    assert selfs[2] == pytest.approx(3 - 1)
    assert selfs[4] == pytest.approx(1)
    summary = summarize(spans)
    assert summary["root"]["calls"] == 2
    assert summary["root"]["self_s"] == pytest.approx(5 + 1)
    assert summary["a"]["self_s"] == pytest.approx(3)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _) in run.PER_LAYER.items()
    }
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
