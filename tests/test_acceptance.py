"""Acceptance gate: eleven numbered criteria, one printed verdict each.

Each verdict line goes to the test's captured stdout, and
``tests/conftest.py`` prints every one in pytest's terminal summary, so a
plain run shows all of them.
Monte Carlo checks use pinned counter-based seeds; the stated tolerances
are 3-5 sigma, so a failure means a real regression.
"""

import math
import time

import numpy as np
import pytest

from entrosketch.bench import (
    DEFAULT_DELTA,
    ExperimentSpec,
    _delta_hat_replicates,
    run_end_to_end,
)
from entrosketch.estimator import FISHER_INFO, are, estimate
from entrosketch.montecarlo import bias_correction
from entrosketch.oracle import AccumulationVector, shannon_entropy
from entrosketch.sketch import EntropySketch, new_sketch, sketch_stream
from entrosketch.stable import sample_g0
from entrosketch.tailbounds import required_sketch_size, tail_constants
from paper import char_fn, limit_check, m_series, small_eps_limit


def report(num: int, name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d} [{verdict}] {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _rng(seed):
    return np.random.Generator(np.random.Philox(key=[seed, 0]))


def test_criterion_01_moment_identities():
    # E[exp(m X)] = m^m, 5-sigma tolerances from Var = (2m)^(2m) - m^(2m)
    t0 = time.perf_counter()
    x = sample_g0(_rng(101), 1_000_000)
    checks = []
    for m, target, tol in ((1, 1.0, 0.01), (2, 4.0, 0.08), (3, 27.0, 2.0)):
        est = float(np.mean(np.exp(m * x)))
        checks.append((m, est, abs(est - target) <= tol))
    elapsed = time.perf_counter() - t0
    ok = all(c[2] for c in checks) and elapsed < 10.0
    detail = ", ".join(f"E[e^{m}X]={est:.4f}" for m, est, _ in checks)
    report(1, "moment identities", ok, f"{detail} ({elapsed:.1f}s)")


def test_criterion_02_characteristic_function():
    x = sample_g0(_rng(102), 1_000_000)
    devs = []
    for theta in (0.25, 0.5, 1.0, 2.0):
        ecf = complex(np.mean(np.exp(1j * theta * x)))
        devs.append(abs(abs(ecf) - abs(char_fn(theta))))
    mod1 = abs(char_fn(1.0))
    ok = max(devs) < 0.005 and abs(mod1 - 0.20788) < 1e-4
    report(
        2,
        "characteristic function",
        ok,
        f"max modulus deviation {max(devs):.2e}, |phi(1)|={mod1:.5f}",
    )


def test_criterion_03_bias_table_reproduction(shipped_bias_rows):
    checks = []
    for k, zeta in ((10, 1.0), (100, 1.15)):
        ref, ref_se = shipped_bias_rows[(k, zeta)]
        est = bias_correction(k, zeta, reps=500_000, seed=103)
        combined = math.hypot(ref_se, est.std_error)
        checks.append((k, zeta, est.value, ref, abs(est.value - ref) <= 5 * combined))
    ok = all(c[4] for c in checks)
    detail = "; ".join(
        f"BC(k={k},z={z})={v:.5f} vs {r}" for k, z, v, r, _ in checks
    )
    report(3, "bias table reproduction", ok, detail)


def test_criterion_04_asymptotic_relative_efficiency():
    a1, a115 = are(1.0), are(1.15)
    grid = np.arange(0.8, 1.6, 0.0005)
    argmax = float(grid[int(np.argmax([are(z) for z in grid]))])
    ok = abs(a1 - 0.968) <= 1e-3 and abs(a115 - 0.978) <= 1e-3 and abs(argmax - 1.15) <= 0.01
    report(
        4,
        "efficiency closed form",
        ok,
        f"are(1)={a1:.4f}, are(1.15)={a115:.4f}, argmax={argmax:.3f}",
    )


def test_criterion_05_variance_matches_asymptotics():
    zeta = 1.0
    checks = []
    for k in (20, 50, 100):
        raw = _delta_hat_replicates(k, zeta, 100_000, 3, DEFAULT_DELTA)
        var = float(np.var(raw, ddof=1))
        ratio_asym = var / ((4.0**zeta - 1.0) / (zeta**2 * k))
        ratio_cr = var / (1.0 / (FISHER_INFO * k))
        checks.append(
            (k, ratio_asym, ratio_cr,
             abs(ratio_asym - 1.0) <= 0.10 and 0.95 <= ratio_cr <= 1.15)
        )
    ok = all(c[3] for c in checks)
    detail = "; ".join(f"k={k}: var/asym={a:.3f}, var/CR={c:.3f}" for k, a, c, _ in checks)
    report(5, "variance vs asymptotics", ok, detail)


def test_criterion_06_tail_constants():
    r = tail_constants(1.0, 0.01)
    near6 = abs(r.g_right - 6.0) / 6.0 < 0.02 and abs(r.g_left - 6.0) / 6.0 < 0.02
    half_limit = small_eps_limit(0.5)
    r_half = tail_constants(0.5, 0.002)
    near8 = abs(half_limit - 8.0) < 1e-12 and abs(r_half.g_right - 8.0) / 8.0 < 0.02
    residuals = [
        max(abs(tail_constants(1.0, e).g_right - 6.0), abs(tail_constants(1.0, e).g_left - 6.0))
        for e in (0.5, 0.1, 0.02)
    ]
    decaying = residuals[0] > residuals[1] > residuals[2]
    ok = near6 and near8 and decaying
    report(
        6,
        "tail constants",
        ok,
        f"G_R(1,.01)={r.g_right:.4f}, G_L={r.g_left:.4f}, "
        f"limit(0.5)={half_limit}, residuals={['%.3f' % x for x in residuals]}",
    )


def test_criterion_07_chernoff_validity():
    eps, gamma = 0.3, 0.1
    k = required_sketch_size(eps, gamma, 1.0)
    raw = _delta_hat_replicates(k, 1.0, 10_000, 107, DEFAULT_DELTA)
    freq = float(np.mean(np.abs(raw - DEFAULT_DELTA) >= eps))
    ok = freq <= gamma
    report(7, "sizing bound holds", ok, f"k={k}, exceedance {freq:.4f} <= {gamma}")


def test_criterion_08_end_to_end():
    t0 = time.perf_counter()

    # uniform over 4 items, 10^6 updates, k=1000
    k = 1000
    sketch = new_sketch(k=k, master_seed=108)
    for i in range(1_000_000):
        sketch.update(str(i % 4))
    h_hat = estimate(sketch).entropy_hat
    uniform_ok = abs(h_hat - math.log(4)) <= 0.164

    # Zipf(1.2) over 10^4 items, k=200, 100 replicates
    spec = ExperimentSpec(
        kind="end_to_end", k_values=[200], zeta_values=[1.0], reps=100,
        seed=0, distribution="zipf", n_items=10_000, n_updates=100_000,
        zipf_s=1.2,
    )
    _, rows = run_end_to_end(spec)
    errors = np.array([r[5] for r in rows])
    coverage = float(np.mean(np.abs(errors) <= 0.367))
    zipf_ok = coverage >= 0.99

    # throughput scales like O(k) per element
    def time_updates(width, n=2000):
        s = new_sketch(k=width, master_seed=1)
        start = time.perf_counter()
        for i in range(n):
            s.update(str(i & 63))
        return (time.perf_counter() - start) / n

    t_small, t_big = time_updates(250), time_updates(1000)
    scaling = t_big / t_small
    linear_ok = scaling < 8.0  # 4x widths; allow generous constant overhead

    elapsed = time.perf_counter() - t0
    ok = uniform_ok and zipf_ok and linear_ok and elapsed < 120.0
    report(
        8,
        "end-to-end accuracy",
        ok,
        f"|H-log4|={abs(h_hat - math.log(4)):.4f}<=0.164, zipf coverage {coverage:.2f}, "
        f"4x-width time ratio {scaling:.2f}, {elapsed:.0f}s",
    )


def test_criterion_09_structural_exactness():
    updates = [("a", 2.0), ("b", -1.5), ("c", 0.25), ("a", 3.0)]
    zero = new_sketch(k=64, master_seed=9)

    s = new_sketch(k=64, master_seed=9)
    for item, delta in updates:
        s.update(item, delta)
    for item, delta in updates:
        s.update(item, -delta)
    cancel_ok = s == zero and s.to_bytes() == zero.to_bytes()

    xs, ys = updates[:2], updates[2:]
    merged = sketch_stream(xs, k=64, master_seed=9).merge(
        sketch_stream(ys, k=64, master_seed=9)
    )
    merge_ok = merged.to_bytes() == sketch_stream(xs + ys, k=64, master_seed=9).to_bytes()

    orig = sketch_stream(updates, k=64, master_seed=9)
    rt = EntropySketch.from_bytes(orig.to_bytes())
    roundtrip_ok = rt == orig and rt.to_bytes() == orig.to_bytes()
    json_ok = EntropySketch.from_json(orig.to_json()).to_bytes() == orig.to_bytes()

    repro_ok = (
        sketch_stream(updates, k=64, master_seed=9).to_bytes() == orig.to_bytes()
    )

    ok = cancel_ok and merge_ok and roundtrip_ok and json_ok and repro_ok
    report(
        9,
        "structural exactness",
        ok,
        f"cancel={cancel_ok}, merge={merge_ok}, roundtrip={roundtrip_ok and json_ok}, "
        f"reproducible={repro_ok}",
    )


def test_criterion_10_alpha_limit_diagnostic():
    acc = AccumulationVector.from_stream([(str(i), 1.0) for i in range(4)])
    rows = limit_check(acc, [0.9, 0.99, 0.999])
    r1 = [abs(row[1]) for row in rows]
    r2 = [abs(row[2]) for row in rows]
    ok = r1[0] > r1[1] > r1[2] and r2[0] > r2[1] > r2[2] and max(r1[2], r2[2]) < 5e-3
    report(
        10,
        "alpha-limit diagnostic",
        ok,
        f"r1={['%.1e' % x for x in r1]}, r2={['%.1e' % x for x in r2]}",
    )


def test_criterion_11_series_oracle_agreement():
    z = sample_g0(_rng(0), 2_000_000)
    ez = np.exp(z)
    checks = []
    for t in (0.05, 0.2):
        v = np.exp(t * ez)
        mc, se = float(v.mean()), float(v.std(ddof=1)) / math.sqrt(v.size)
        ref = m_series(1.0, t)
        checks.append((t, mc, ref, abs(mc - ref) <= 5 * se))
    pinned = m_series(1.0, 0.1)
    pinned_ok = abs(pinned - 1.12590) < 5e-5  # reference quoted to 5 decimals
    ok = all(c[3] for c in checks) and pinned_ok
    detail = "; ".join(f"t={t}: mc={mc:.5f} vs {ref:.5f}" for t, mc, ref, _ in checks)
    report(11, "series oracle agreement", ok, f"{detail}; M(0.1)={pinned:.6f}")
