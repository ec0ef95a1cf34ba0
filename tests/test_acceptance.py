"""Acceptance gate: every criterion at its stated tolerance and budget.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output of a failing run) and enforces its runtime limit where one
is stated.
"""

import time

import numpy as np

from oracles import maxexp_scalar_derivative, numerical_jacobian, sigme_derivative, tensor_inner

from tensorpool.attention import RBF, SOFTMAX, AttentionBundle, _attend, multi_head, rbf_similarity
from tensorpool.bench import bench_tso, summarize
from tensorpool.descriptors import FeatureMatrix, hotd, poly_kernel_sum
from tensorpool.heads import HeadWeights
from tensorpool.pipeline import (
    EpisodeBatch,
    SplitConfig,
    forward_episode,
    hop_unit,
    matched_class_similarity_rate,
    synth_episode,
)
from tensorpool.shrinkage import (
    ShrinkageProblem,
    verify_identity_target,
    verify_shrinkage_optimality,
)
from tensorpool.tso import (
    SpectrumVector,
    TsoParams,
    maxexp_f,
    maxexp_scalar,
    sigme,
    tso_fast_even,
    tso_fast_odd,
    tso_naive,
)
from tensorpool.bench import random_normalized_descriptor


def report(number, name, ok, detail):
    line = f"criterion {number:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_kernel_linearization():
    begin = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        r = int(rng.integers(2, 5))
        d = int(rng.integers(2, 9))
        f = FeatureMatrix(rng.normal(size=(d, int(rng.integers(1, 7)))))
        g = FeatureMatrix(rng.normal(size=(d, int(rng.integers(1, 7)))))
        kernel = poly_kernel_sum(f, g, r)
        inner = tensor_inner(hotd(f, r), hotd(g, r))
        worst = max(worst, abs(kernel - inner) / max(1.0, abs(kernel)))
    elapsed = time.perf_counter() - begin
    report(
        1,
        "kernel-linearization",
        worst <= 1e-10 and elapsed < 5.0,
        f"worst rel residual {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_02_tso_fast_equals_naive():
    begin = time.perf_counter()
    worst = 0.0
    etas = list(range(1, 65)) + [1024]
    for order, dim in ((2, 64), (4, 8)):
        t = random_normalized_descriptor(order, dim, seed=order)
        for eta in etas:
            fast = tso_fast_even(t, eta).data
            naive = tso_naive(t, eta).data
            scale = max(1.0, float(np.max(np.abs(naive))))
            worst = max(worst, float(np.max(np.abs(fast - naive))) / scale)
    t3 = random_normalized_descriptor(3, 6, seed=3)
    for eta in (1, 3, 9, 27):
        fast = tso_fast_odd(t3, eta).data
        naive = tso_naive(t3, eta).data
        worst = max(worst, float(np.max(np.abs(fast - naive))))
    elapsed = time.perf_counter() - begin
    report(
        2,
        "tso-fast-vs-naive",
        worst <= 1e-10 and elapsed < 30.0,
        f"worst rel err {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_03_spectral_oracle():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 9))
        basis = rng.normal(size=(d, 3 * d))
        m = basis @ basis.T
        m /= 1e-6 + np.trace(m)
        m = 0.5 * (m + m.T)
        lam = np.clip(np.linalg.eigvalsh(m), 0.0, 1.0)
        for eta in (2, 7, 32):
            out_lam = np.linalg.eigvalsh(maxexp_f(m, eta))
            expected = np.sort([maxexp_scalar(v, eta) for v in lam])
            worst = max(worst, float(np.max(np.abs(out_lam - expected))))
    report(3, "spectral-oracle", worst <= 1e-10, f"worst eigenvalue gap {worst:.2e}")


def test_criterion_04_shrinkage_objective_minimizer():
    begin = time.perf_counter()
    rng = np.random.default_rng(104)
    worst_dist = 0.0
    worst_stat = 0.0
    unconverged = 0
    for _ in range(50):
        d = int(rng.integers(2, 9))
        eta = int(rng.integers(2, 33))
        spectrum = SpectrumVector.from_raw(rng.uniform(0.05, 1.0, size=d))
        prob = ShrinkageProblem(spectrum, eta)
        result = verify_shrinkage_optimality(prob)
        worst_dist = max(worst_dist, result.residual)
        worst_stat = max(worst_stat, result.stationarity)
        unconverged += not result.converged
    elapsed = time.perf_counter() - begin
    report(
        4,
        "shrinkage-minimizer",
        worst_dist <= 1e-4 and worst_stat <= 1e-6 and unconverged == 0 and elapsed < 60.0,
        f"worst distance {worst_dist:.2e}, stationarity {worst_stat:.2e}, "
        f"{unconverged} unconverged, {elapsed:.1f}s",
    )


def test_criterion_05_identity_limit():
    begin = time.perf_counter()
    result = verify_identity_target(8, trials=3, seed=105)
    elapsed = time.perf_counter() - begin
    report(
        5,
        "identity-limit",
        result.limit_deviation <= 1e-6 and result.monotone and elapsed < 1.0,
        f"limit deviation {result.limit_deviation:.2e}, "
        f"monotone={result.monotone}, {elapsed:.2f}s",
    )


def test_criterion_06_complexity_scaling():
    records = bench_tso(
        order=2,
        dim=64,
        etas=(2, 4, 8, 16, 32, 64, 128, 256, 512, 1024),
        repeats=15,
        seed=106,
    )
    summary = summarize(records)
    naive_slope = summary["naive_slope_vs_eta"]
    fast_slope = summary["fast_slope_vs_log2eta"]
    ratio = summary["fast_naive_ratio_at_eta_max"]
    ok = (
        abs(naive_slope - 1.0) <= 0.25
        and abs(fast_slope - 1.0) <= 0.35
        and ratio <= 0.2
    )
    report(
        6,
        "complexity-scaling",
        ok,
        f"naive slope {naive_slope:.3f}, fast slope {fast_slope:.3f}, "
        f"ratio@1024 {ratio:.4f}",
    )


def test_criterion_07_orderless_end_to_end():
    cfg = SplitConfig((2, 1, 1))
    params = TsoParams()
    weights = HeadWeights.seeded(8, seed=107)
    worst = 0.0
    rng = np.random.default_rng(107)
    for seed in range(50):
        episode = synth_episode(seed, 2, 2, 8, 6, 5.0)
        base = forward_episode(episode, cfg, params, weights)
        perm = rng.permutation(6)
        target = int(rng.integers(0, 2))
        maps = list(episode.support_maps)
        maps[target] = maps[target][:, perm]
        shuffled = EpisodeBatch(
            tuple(maps), episode.query_map, episode.boxes, episode.labels
        )
        out = forward_episode(shuffled, cfg, params, weights)
        for a, b in zip(base.relations, out.relations):
            worst = max(worst, float(np.max(np.abs(a.r_combined - b.r_combined))))
        worst = max(worst, float(np.max(np.abs(base.zshot_output - out.zshot_output))))
        worst = max(
            worst, float(np.max(np.abs(base.modulated_map - out.modulated_map)))
        )
    report(7, "orderless-invariance", worst <= 1e-10, f"worst deviation {worst:.2e}")


def test_criterion_08_attention_correctness():
    rng = np.random.default_rng(108)
    d, nq, nk = 8, 5, 7
    q, k, v = rng.normal(size=(d, nq)), rng.normal(size=(d, nk)), rng.normal(size=(d, nk))

    raw = q.T @ k / np.sqrt(d)
    weights = np.exp(raw - raw.max(axis=1, keepdims=True))
    weights /= weights.sum(axis=1, keepdims=True)
    row_gap = float(np.max(np.abs(weights.sum(axis=1) - 1.0)))

    diag_gap = max(
        abs(rbf_similarity(k[:, j], k[:, j], 0.5) - 1.0) for j in range(nk)
    )

    bundle = AttentionBundle(q, k, v, sigma=0.5, heads=1)
    t1_gap = max(
        float(np.max(np.abs(multi_head(bundle, kind) - _attend(q, k, v, 0.5, kind))))
        for kind in (SOFTMAX, RBF)
    )

    perm = rng.permutation(nk)
    perm_gap = max(
        float(
            np.max(
                np.abs(
                    multi_head(AttentionBundle(q, k, v, sigma=0.5), kind)
                    - multi_head(
                        AttentionBundle(q, k[:, perm], v[:, perm], sigma=0.5), kind
                    )
                )
            )
        )
        for kind in (SOFTMAX, RBF)
    )
    ok = (
        row_gap <= 1e-12 and diag_gap <= 1e-15 and t1_gap <= 1e-14 and perm_gap <= 1e-12
    )
    report(
        8,
        "attention-correctness",
        ok,
        f"row-sum {row_gap:.1e}, diag {diag_gap:.1e}, T1 {t1_gap:.1e}, "
        f"perm {perm_gap:.1e}",
    )


def test_criterion_09_gradient_sanity():
    rng = np.random.default_rng(109)
    worst = 0.0
    for p in rng.uniform(-0.04, 0.04, size=20):
        jac = numerical_jacobian(lambda x: sigme(x, 200.0), np.array([p]), step=1e-6)
        analytic = sigme_derivative(p, 200.0)
        worst = max(worst, abs(jac[0, 0] - analytic) / abs(analytic))
    for lam in rng.uniform(0.02, 0.7, size=20):
        for eta in (2, 7):
            jac = numerical_jacobian(
                lambda x: np.array([maxexp_scalar(float(x[0]), eta)]),
                np.array([lam]),
                step=1e-6,
            )
            analytic = maxexp_scalar_derivative(lam, eta)
            worst = max(worst, abs(jac[0, 0] - analytic) / abs(analytic))

    cfg, params = SplitConfig((2, 1, 1)), TsoParams()
    base = np.random.default_rng(1090).normal(size=(8, 4))

    def op(flat):
        return hop_unit(flat.reshape(8, 4), cfg, params)

    coarse = numerical_jacobian(op, base.reshape(-1), step=1e-5)
    fine = numerical_jacobian(op, base.reshape(-1), step=1e-6)
    richardson = float(np.max(np.abs(coarse - fine))) / max(1.0, float(np.max(np.abs(fine))))
    report(
        9,
        "gradient-sanity",
        worst <= 1e-5 and richardson <= 1e-3,
        f"worst derivative gap {worst:.2e}, step-halving {richardson:.2e}",
    )


def test_criterion_10_separation_smoke():
    rate = matched_class_similarity_rate(
        range(100), SplitConfig((5, 2, 1)), TsoParams(), shots=3, dim=32, grid=16,
        separation=10.0,
    )
    report(10, "separation-smoke", rate >= 0.95, f"matched-first rate {rate:.2f}")
