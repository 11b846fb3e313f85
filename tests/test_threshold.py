import ast
import json
import math
import pathlib
import time

import numpy as np
import pytest

import ftlab
import ftlab.threshold
from ftlab.cli import main
from ftlab.gadgets import level1_failure_exact
from ftlab.threshold import (
    SchemeParams,
    ThresholdReport,
    overhead_ratio,
    pseudothreshold_mc,
    renormalize_strength,
    required_level,
    strength_at_level,
    threshold_report,
    threshold_value,
)

P100 = SchemeParams(100, 1)
P5 = SchemeParams(5, 1)


def test_scheme_params_validation():
    assert P100.xi == math.e
    assert P100.combinations == math.comb(100, 2)
    with pytest.raises(ValueError):
        SchemeParams(5, 0)
    with pytest.raises(ValueError):
        SchemeParams(2, 2)
    with pytest.raises(ValueError):
        SchemeParams(5, 1, xi=0.5)


def test_renormalize_strength():
    assert renormalize_strength(0.0, P5) == 0.0
    assert renormalize_strength(0.01, P5) == pytest.approx(
        math.e * 10 * 1e-4, rel=1e-12
    )
    eps0 = threshold_value(P5)
    assert renormalize_strength(eps0, P5) == pytest.approx(eps0, abs=1e-12)
    with pytest.raises(ValueError):
        renormalize_strength(-0.1, P5)


def test_threshold_value():
    assert threshold_value(P100) == pytest.approx(1.0 / (math.e * 4950), rel=1e-12)
    assert threshold_value(P100) == pytest.approx(7.4319079024533802e-05, rel=1e-12)
    # L0 = t+1 means C(L0, t+1) = 1
    assert threshold_value(SchemeParams(2, 1)) == pytest.approx(1 / math.e, rel=1e-12)
    assert threshold_value(SchemeParams(3, 2)) == pytest.approx(
        math.e ** (-0.5), rel=1e-12
    )
    values = [threshold_value(SchemeParams(l0, 1)) for l0 in range(3, 40)]
    assert all(b < a for a, b in zip(values, values[1:]))


def exact_threshold_value(p):
    """(xi * C(L0, t+1))^(-1/t) from the exact C, in log space once the product
    overflows a float: the formula for every C of at most 2^16 bits."""
    c = math.comb(p.L0, p.t + 1)
    try:
        return (p.xi * c) ** (-1.0 / p.t)
    except OverflowError:
        return math.exp(-(math.log(p.xi) + math.log(c)) / p.t)


def test_threshold_value_is_exact_up_to_two_to_the_sixteen_bits():
    # small schemes, and C past float range (the log-space branch) up to 2^16 bits
    grid = [(l0, t) for l0 in range(2, 41) for t in range(1, l0)]
    grid += [(l0, t) for l0 in (100, 1000, 10**4, 10**6, 10**9, 10**15) for t in (1, 2, 5, 50)]
    grid += [(1000, 499), (1000, 500), (5000, 2000), (10**6, 200), (10**5, 5900)]
    for l0, t in grid:
        assert math.comb(l0, t + 1).bit_length() <= 2**16
        for xi in (1.0, math.e, 7.5):
            p = SchemeParams(l0, t, xi)
            assert threshold_value(p) == exact_threshold_value(p), (l0, t, xi)


def test_log_comb_keeps_its_digits_where_lgamma_cancels():
    # lgamma(n + 1) - lgamma(n - k + 1) loses every digit once n >> k
    for n, k in [(9 * 10**15, 1601), (10**30, 3001), (10**300, 100), (10**5, 6000), (200, 100)]:
        assert ftlab.threshold._log_comb(n, k) == pytest.approx(
            math.log(math.comb(n, k)), rel=1e-14, abs=0
        )


@pytest.mark.parametrize("L0, t", [(10**6, 4 * 10**5), (10**8, 5 * 10**7)])
def test_threshold_of_huge_scheme_constants_answers_within_a_second(
    tmp_path, capsysbinary, L0, t
):
    # C(L0, t+1) has 970,941 and 10^8 bits: its log comes from Stirling's series
    cfg = tmp_path / "big.json"
    cfg.write_text(json.dumps({"command": "threshold", "params": {"L0": L0, "t": t}}))
    start = time.perf_counter()
    code = main(["threshold", "--config", str(cfg)])
    elapsed = time.perf_counter() - start
    out = capsysbinary.readouterr().out
    assert code == 0 and elapsed < 1.0, elapsed
    log_c = math.lgamma(L0 + 1) - math.lgamma(t + 2) - math.lgamma(L0 - t)  # L0 / t is small
    want = math.exp(-(1.0 + log_c) / t)
    assert json.loads(out)["results"]["eps0"] == pytest.approx(want, rel=1e-13)


def test_strength_at_level_examples():
    assert strength_at_level(3e-4, 0, P100) == 3e-4
    eps0 = threshold_value(P100)
    for k in range(6):
        assert strength_at_level(eps0, k, P100) == pytest.approx(eps0, rel=1e-12)

    val = strength_at_level(3e-5, 3, P100)
    closed = eps0 * (3e-5 / eps0) ** 8
    assert val == pytest.approx(closed, rel=1e-12)
    assert val == pytest.approx(5.2e-8, rel=1e-2)


def test_strength_at_level_equals_iterated_renormalization():
    for p in (P100, P5, SchemeParams(10, 2)):
        for eps in (threshold_value(p) / 3, threshold_value(p) * 1.2):
            acc = eps
            for k in range(11):
                got = strength_at_level(eps, k, p)
                if math.isinf(acc) or math.isinf(got):
                    assert math.isinf(acc) == math.isinf(got)
                else:
                    assert got == pytest.approx(acc, rel=1e-9), (p, eps, k)
                acc = renormalize_strength(acc, p)


def test_strength_at_level_monotone_in_k():
    eps0 = threshold_value(P100)
    below = [strength_at_level(eps0 / 2, k, P100) for k in range(6)]
    assert all(b < a for a, b in zip(below, below[1:]))
    above = [strength_at_level(eps0 * 1.5, k, P100) for k in range(5)]
    assert all(b > a for a, b in zip(above, above[1:]))
    assert strength_at_level(0.0, 4, P100) == 0.0


def test_required_level_worked_example():
    k = required_level(10**6, 1e-3, 3e-5, P100)
    # oracle: brute-force scan of the defining inequality
    want = next(
        kk
        for kk in range(65)
        if (math.e - 1) * 10**6 * strength_at_level(3e-5, kk, P100) <= 1e-3
    )
    assert k == want == 4


def test_required_level_raises_when_scan_disagrees_with_log_form(monkeypatch):
    # a scan that stops at level 1 contradicts the log form of the answer (4)
    monkeypatch.setattr(
        ftlab.threshold, "strength_at_level", lambda eps, k, p: eps if k == 0 else 0.0
    )
    with pytest.raises(RuntimeError, match="log form"):
        required_level(10**6, 1e-3, 3e-5, P100)


def test_package_has_no_assert_statements():
    # `python -O` strips assert statements, so no runtime check may use one
    found = []
    for path in sorted(pathlib.Path(ftlab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements in the package: {found}"


def test_required_level_zero_when_bound_already_met():
    assert required_level(10, 0.9, 1e-5, P100) == 0


def test_required_level_boundary_inequalities():
    for L in (10**3, 10**6, 10**9):
        for delta0 in (1e-2, 1e-5, 1e-9):
            for frac in (0.9, 0.5, 0.1):
                eps = threshold_value(P100) * frac
                k = required_level(L, delta0, eps, P100)
                bound = (math.e - 1) * L * strength_at_level(eps, k, P100)
                assert bound <= delta0 * (1 + 1e-9)
                if k > 0:
                    prev = (math.e - 1) * L * strength_at_level(eps, k - 1, P100)
                    assert prev > delta0 * (1 - 1e-9)


def test_required_level_rejects_at_or_above_threshold():
    eps0 = threshold_value(P100)
    with pytest.raises(ValueError):
        required_level(10**6, 1e-3, eps0, P100)
    with pytest.raises(ValueError):
        required_level(10**6, 1e-3, eps0 * 2, P100)


def test_required_level_grows_doubly_logarithmically():
    eps0 = threshold_value(P100)
    eps = eps0 / 2
    ks = []
    for delta0 in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12):
        k = required_level(10**6, delta0, eps, P100)
        ratio = math.log((math.e - 1) * 10**6 * eps0 / delta0) / math.log(eps0 / eps)
        predicted = math.log(ratio) / math.log(2)
        assert k == max(0, math.ceil(predicted - 1e-9)), (delta0, k, predicted)
        ks.append(k)
    # twelve orders of magnitude in the target move k by only a few units
    assert ks[-1] - ks[0] <= 3
    assert all(b >= a for a, b in zip(ks, ks[1:]))


def test_overhead_ratio():
    ratio, a = overhead_ratio(10**6, 0, P100)
    assert ratio == 1.0
    assert a == pytest.approx(math.log(100) / math.log(2), rel=1e-15)
    assert a == pytest.approx(6.6438561897747253, rel=1e-12)
    ratio, _ = overhead_ratio(10**6, 3, P100)
    assert ratio == pytest.approx(1e6, rel=1e-12)
    with pytest.raises(ValueError, match=r"overhead L0\^2 = 1e\+200\^2 overflows a float"):
        overhead_ratio(10, 2, SchemeParams(10**200, 2))


def test_overhead_polylog_bound():
    # L0^k <= L0 * u^a with u the log-ratio from the level inequality
    eps0 = threshold_value(P100)
    for L in (10**4, 10**6, 10**8):
        for delta0 in (1e-4, 1e-7, 1e-10):
            for frac in (0.5, 0.2):
                eps = eps0 * frac
                k = required_level(L, delta0, eps, P100)
                if k == 0:
                    continue
                ratio, a = overhead_ratio(L, k, P100)
                u = math.log((math.e - 1) * L * eps0 / delta0) / math.log(eps0 / eps)
                assert ratio <= 100 * u**a * (1 + 1e-9)


def test_pseudothreshold_exact_mode():
    est, (lo, hi) = pseudothreshold_mc(P5, 10**6, 0, mode="exact")
    assert hi - lo <= 1e-8
    # independent bisection on the closed-form tail
    def f(e):
        return 1 - (1 - e) ** 5 - 5 * e * (1 - e) ** 4 - e

    a, b = 1e-12, 0.5
    for _ in range(80):
        m = 0.5 * (a + b)
        if f(m) > 0:
            b = m
        else:
            a = m
    assert est == pytest.approx(0.5 * (a + b), abs=2e-8)
    assert lo <= 0.5 * (a + b) <= hi or abs(est - 0.5 * (a + b)) <= 2e-8


def test_pseudothreshold_mc_mode_agrees():
    exact, _ = pseudothreshold_mc(P5, 10**6, 0, mode="exact")
    est, (lo, hi) = pseudothreshold_mc(P5, 10**6, 42, mode="mc")
    assert lo <= exact <= hi
    again, _ = pseudothreshold_mc(P5, 10**6, 42, mode="mc")
    assert est == again


@pytest.mark.parametrize("L0, t, samples", [(7, 1, 10**5), (5, 1, 2 * 10**4)])
def test_pseudothreshold_mc_interval_covers_exact_crossing(L0, t, samples):
    # seeds fixed in advance; 180 of 200 is the nominal 95% less about 3 sd
    p = SchemeParams(L0, t)
    exact, _ = pseudothreshold_mc(p, samples, 0, mode="exact")
    covered = 0
    for seed in range(200):
        est, (lo, hi) = pseudothreshold_mc(p, samples, seed, mode="mc")
        assert lo <= est <= hi
        covered += lo <= exact <= hi
    assert covered >= 180


def test_pseudothreshold_mc_is_the_crossing_of_one_sorted_beta_sample():
    # a block's (t+1)-th smallest leaf U ~ Beta(t+1, L0-t); the share of the
    # seed's draws below eps, read off the sorted sample, is bisected here
    L0, t, samples, seed = 7, 1, 10**5, 3
    u = np.sort(np.random.default_rng(seed).beta(t + 1, L0 - t, samples))
    a, b = 1e-12, 0.5
    for _ in range(26):
        m = 0.5 * (a + b)
        if np.searchsorted(u, m, side="left") / samples > m:
            b = m
        else:
            a = m
    est, (lo, hi) = pseudothreshold_mc(SchemeParams(L0, t), samples, seed, mode="mc")
    assert est == 0.5 * (a + b)
    assert lo <= est <= hi


def test_pseudothreshold_above_closed_form_threshold():
    for params in (P5, SchemeParams(7, 1), SchemeParams(10, 2)):
        crossing, _ = pseudothreshold_mc(params, 10**4, 0, mode="exact")
        assert threshold_value(params) <= crossing + 1e-8


def test_pseudothreshold_degenerate_and_validation():
    with pytest.raises(ValueError):
        pseudothreshold_mc(SchemeParams(2, 1), 10**4, 0, mode="exact")
    # samples sets the per-probe draw count, so only mc mode checks it
    assert pseudothreshold_mc(P5, 1, 0, mode="exact") == pseudothreshold_mc(
        P5, 10**6, 0, mode="exact"
    )
    with pytest.raises(ValueError):
        pseudothreshold_mc(P5, 999, 0, mode="mc")
    with pytest.raises(ValueError):
        pseudothreshold_mc(P5, 10**4, 0, mode="fancy")


def test_threshold_report():
    rep = threshold_report(10**6, 1e-3, 3e-5, P100)
    assert isinstance(rep, ThresholdReport)
    assert rep.k_required == 4
    assert rep.eps0 == pytest.approx(threshold_value(P100), rel=1e-15)
    assert len(rep.per_level) == 5
    assert rep.per_level[0] == 3e-5
    assert all(b < a for a, b in zip(rep.per_level, rep.per_level[1:]))
    assert rep.overhead_ratio == pytest.approx(100.0**4, rel=1e-12)
    rows = rep.rows()
    assert [r["level"] for r in rows] == [0, 1, 2, 3, 4]
    assert rows[0]["strength"] == 3e-5
    assert rows[0]["k_required"] == 4


def test_report_sanity_against_level1_map():
    # the closed-form threshold is conservative against the exact binomial map
    eps0 = threshold_value(P5)
    assert level1_failure_exact(5, 1, eps0) <= eps0
