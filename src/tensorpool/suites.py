"""Self-contained invariant suites behind the ``run-suite`` CLI command.

Each suite re-checks its module's core guarantees on seeded random
instances and reports one residual per check.  Suites are deliberately
lighter than the test suite: they are a field diagnostic, not the oracle.
"""

from __future__ import annotations

import json

import numpy as np

from . import shrinkage
from .attention import RBF, SOFTMAX, AttentionBundle, _attend, attention, multi_head
from .descriptors import FeatureMatrix, hotd, poly_kernel_sum
from .errors import InvalidArgumentError, _all_finite, read_int
from .heads import (
    HeadWeights,
    PooledFeatures,
    build_spatial_hop_tokens,
    compute_relations,
    spatial_hop_head,
    zshot_head,
)
from .pipeline import EpisodeBatch, SplitConfig, forward_episode, hop_unit, plan, synth_episode
from .tensor import super_diagonal
from .tso import SpectrumVector, TsoParams, maxexp_f, maxexp_scalar, tso, tso_naive
from .bench import random_normalized_descriptor

SUITE_NAMES = ("descriptors", "tso", "theorems", "attention", "heads", "pipeline")
SCHEMA_VERSION = 1


def _check(name: str, residual: float, threshold: float) -> dict:
    return {"name": name, "passed": bool(residual <= threshold), "residual": float(residual),
            "threshold": threshold}


def suite_descriptors(seed: int = 0) -> list[dict]:
    rng = np.random.default_rng(seed)
    worst_linear = 0.0
    for _ in range(30):
        r = int(rng.integers(2, 5))
        d = int(rng.integers(2, 9))
        f = FeatureMatrix(rng.normal(size=(d, int(rng.integers(1, 7)))))
        g = FeatureMatrix(rng.normal(size=(d, int(rng.integers(1, 7)))))
        kernel = poly_kernel_sum(f, g, r)
        inner = float(hotd(f, r).data @ hotd(g, r).data)
        scale = max(1.0, abs(kernel))
        worst_linear = max(worst_linear, abs(kernel - inner) / scale)

    f = FeatureMatrix(rng.normal(size=(6, 8)))
    perm = rng.permutation(8)
    shuffled = FeatureMatrix(f.columns[:, perm])
    worst_perm = max(
        float(np.max(np.abs(hotd(f, r).data - hotd(shuffled, r).data)))
        for r in (2, 3, 4)
    )

    c = 1.7
    scaled = FeatureMatrix(c * f.columns)
    worst_homog = max(
        float(np.max(np.abs(hotd(scaled, r).data - c**r * hotd(f, r).data)))
        / max(1.0, float(np.max(np.abs(hotd(f, r).data))))
        for r in (2, 3, 4)
    )
    return [
        _check("kernel_linearization", worst_linear, 1e-10),
        _check("column_permutation_invariance", worst_perm, 1e-14),
        _check("homogeneity", worst_homog, 1e-12),
    ]


def suite_tso(seed: int = 0) -> list[dict]:
    rng = np.random.default_rng(seed)
    results = []

    worst = 0.0
    for order, dim in ((2, 8), (3, 5), (4, 4)):
        t = random_normalized_descriptor(order, dim, seed=int(rng.integers(1 << 30)))
        worst = max(worst, float(np.max(np.abs(tso(t, 1).data - t.data))))
    results.append(_check("eta1_identity", worst, 1e-14))

    worst = 0.0
    for order, dim, etas in ((2, 16, (2, 3, 7, 31, 64)), (4, 6, (2, 7, 16))):
        t = random_normalized_descriptor(order, dim, seed=int(rng.integers(1 << 30)))
        for eta in etas:
            fast = tso(t, eta).data
            naive = tso_naive(t, eta).data
            worst = max(worst, float(np.max(np.abs(fast - naive))) / max(1.0, float(np.max(np.abs(naive)))))
    results.append(_check("fast_naive_even", worst, 1e-10))

    t = random_normalized_descriptor(3, 6, seed=int(rng.integers(1 << 30)))
    worst = max(
        float(np.max(np.abs(tso(t, eta).data - tso_naive(t, eta).data)))
        for eta in (1, 3, 9)
    )
    results.append(_check("fast_naive_odd", worst, 1e-10))

    worst = 0.0
    range_excess = 0.0
    for _ in range(10):
        m = shrinkage.random_trace_normalized_psd(rng, 6)
        lam = np.linalg.eigvalsh(m)
        for eta in (2, 7, 32):
            out_lam = np.linalg.eigvalsh(maxexp_f(m, eta))
            expected = np.sort([maxexp_scalar(max(v, 0.0), eta) for v in lam])
            worst = max(worst, float(np.max(np.abs(out_lam - expected))))
            range_excess = max(
                range_excess, float(max(-out_lam[0], out_lam[-1] - 1.0, 0.0))
            )
    results.append(_check("spectral_consistency", worst, 1e-10))
    results.append(_check("eigenvalue_range", range_excess, 1e-10))

    m = shrinkage.random_trace_normalized_psd(rng, 8)
    dev = float(np.max(np.abs(maxexp_f(m, 2**20) - np.eye(8))))
    results.append(_check("diffusion_reversal_limit", dev, 1e-6))

    t = random_normalized_descriptor(4, 4, seed=int(rng.integers(1 << 30)))
    diag = np.column_stack(
        [super_diagonal(tso(t, eta)).values for eta in (1, 2, 4, 8, 16, 32)]
    )
    drop = float(np.max(np.clip(diag[:, :-1] - diag[:, 1:], 0.0, None)))
    results.append(_check("superdiagonal_monotonicity", drop, 1e-12))
    return results


def suite_theorems(seed: int = 0) -> list[dict]:
    rng = np.random.default_rng(seed)
    worst_dist = 0.0
    worst_stat = 0.0
    worst_elem = 0.0
    worst_sum = 0.0
    for _ in range(5):
        d = int(rng.integers(2, 7))
        eta = int(rng.integers(2, 17))
        spectrum = SpectrumVector.from_raw(rng.uniform(0.1, 1.0, size=d))
        prob = shrinkage.ShrinkageProblem(spectrum, eta)
        report = shrinkage.verify_shrinkage_optimality(prob)
        worst_dist = max(worst_dist, report.residual)
        worst_stat = max(worst_stat, report.stationarity)
        closed = shrinkage.closed_form_minimizer(prob)
        elementwise = np.array([maxexp_scalar(v, eta) for v in prob.lam])
        worst_elem = max(worst_elem, float(np.max(np.abs(closed - elementwise))))
        comp_sum = float(np.sum((1.0 - closed) / prob.t))
        worst_sum = max(worst_sum, abs(comp_sum - 1.0))
    ident = shrinkage.verify_identity_target(6, trials=3, seed=seed)
    return [
        _check("numerical_minimizer_distance", worst_dist, 1e-4),
        _check("closed_form_stationarity", worst_stat, 1e-6),
        _check("closed_form_vs_elementwise", worst_elem, 1e-12),
        _check("complement_distribution_sum", worst_sum, 1e-9),
        _check("identity_target_limit", ident.limit_deviation, 1e-6),
        _check("identity_target_monotone", 0.0 if ident.monotone else 1.0, 0.5),
    ]


def suite_attention(seed: int = 0) -> list[dict]:
    rng = np.random.default_rng(seed)
    d, nq, nk = 8, 5, 7
    bundle = AttentionBundle(
        rng.normal(size=(d, nq)), rng.normal(size=(d, nk)), rng.normal(size=(d, nk))
    )

    # one-hot values read the package's attention weights back out, one row
    # per query; the extra key equals query 0, so its RBF weight must be 1
    keys = np.column_stack([bundle.keys, bundle.queries[:, 0]])
    probe = AttentionBundle(bundle.queries, keys, np.eye(d, nk + 1))
    rows = attention(probe, SOFTMAX)[:, : nk + 1]
    weights_resid = float(np.max(np.abs(rows.sum(axis=1) - 1.0)))
    sims = attention(probe, RBF)[:, : nk + 1]
    rbf_excess = float(max(np.max(sims) - 1.0, -np.min(sims), 0.0))

    perm = rng.permutation(nk)
    permuted = AttentionBundle(
        bundle.queries, bundle.keys[:, perm], bundle.values[:, perm]
    )
    worst_perm = max(
        float(np.max(np.abs(attention(bundle, kind) - attention(permuted, kind))))
        for kind in (SOFTMAX, RBF)
    )

    q, k, v = bundle.queries, bundle.keys, bundle.values
    worst_t1 = float(np.max(np.abs(multi_head(bundle, RBF) - _attend(q, k, v, 0.5, RBF))))
    worst_heads = 0.0
    for step in (d // 2, d // 4):  # 2 and 4 heads, each against attention on its rows
        out = multi_head(AttentionBundle(q, k, v, heads=d // step), RBF)
        for rows in (slice(h, h + step) for h in range(0, d, step)):
            alone = attention(AttentionBundle(q[rows], k[rows], v[rows]), RBF)
            worst_heads = max(worst_heads, float(np.max(np.abs(out[:, rows] - alone))))
    return [
        _check("softmax_rows_sum_to_one", weights_resid, 1e-12),
        _check("rbf_similarity_range", rbf_excess, 0.0),
        _check("key_value_permutation_invariance", worst_perm, 1e-12),
        _check("multihead_single_head_equality", worst_t1, 1e-14),
        _check("multihead_per_head_equality", worst_heads, 0.0),
    ]


def suite_heads(seed: int = 0) -> list[dict]:
    rng = np.random.default_rng(seed)
    d, z, b, n = 4, 3, 2, 5
    weights = HeadWeights.seeded(d, seed=seed)
    support = PooledFeatures(rng.normal(size=(2 * d, z)), rng.normal(size=(d, z)))
    query = PooledFeatures(rng.normal(size=(2 * d, b)), rng.normal(size=(d, b)))
    out = zshot_head(support, query, weights)
    perm = rng.permutation(z)
    shuffled = PooledFeatures(
        support.mean_features[:, perm], support.hop[:, perm]
    )
    z_invariance = float(np.max(np.abs(out - zshot_head(shuffled, query, weights))))

    features = rng.normal(size=(2 * d, n))
    hop = rng.normal(size=d)
    tokens = spatial_hop_head(build_spatial_hop_tokens(features, hop, weights))
    perm_n = rng.permutation(n)
    permuted_tokens = spatial_hop_head(
        build_spatial_hop_tokens(features[:, perm_n], hop, weights)
    )
    equivariance = max(
        float(np.max(np.abs(tokens.spatial[:, perm_n] - permuted_tokens.spatial))),
        float(np.max(np.abs(tokens.fo - permuted_tokens.fo))),
        float(np.max(np.abs(tokens.ho - permuted_tokens.ho))),
    )

    other = spatial_hop_head(
        build_spatial_hop_tokens(rng.normal(size=(2 * d, n)), rng.normal(size=d), weights)
    )
    forward = compute_relations(tokens, other, weights)
    backward = compute_relations(other, tokens, weights)
    antisym = float(np.max(np.abs(forward.r_spatial + backward.r_spatial)))

    finite = all(
        _all_finite(arr) for arr in (forward.r_spatial, forward.r_fo_ho, forward.r_combined, out)
    )
    return [
        _check("shot_permutation_invariance", z_invariance, 1e-12),
        _check("spatial_permutation_equivariance", equivariance, 1e-12),
        _check("spatial_relation_antisymmetry", antisym, 0.0),
        _check("outputs_finite", 0.0 if finite else 1.0, 0.5),
    ]


def suite_pipeline(seed: int = 0) -> list[dict]:
    rng = np.random.default_rng(seed)
    cfg = SplitConfig((2, 1, 1))
    params = TsoParams()
    d, n = 8, 6
    weights = HeadWeights.seeded(d, seed=seed)

    worst_orderless = 0.0
    for _ in range(3):
        episode = synth_episode(int(rng.integers(1 << 30)), 2, 2, d, n, 3.0)
        base = forward_episode(episode, cfg, params, weights)
        perm = rng.permutation(n)
        shuffled = EpisodeBatch(
            (episode.support_maps[0][:, perm],) + episode.support_maps[1:],
            episode.query_map,
            episode.boxes,
            episode.labels,
        )
        out = forward_episode(shuffled, cfg, params, weights)
        for a, b in zip(base.relations, out.relations):
            worst_orderless = max(
                worst_orderless,
                float(np.max(np.abs(a.r_combined - b.r_combined))),
            )
        worst_orderless = max(
            worst_orderless,
            float(np.max(np.abs(base.zshot_output - out.zshot_output))),
        )

    episode = synth_episode(11, 2, 2, d, n, 3.0)
    first = forward_episode(episode, cfg, params, weights)
    second = forward_episode(episode, cfg, params, weights)
    determinism = 0.0 if all(
        np.array_equal(a.r_combined, b.r_combined)
        for a, b in zip(first.relations, second.relations)
    ) else 1.0

    features = rng.normal(size=(d, n))
    full = hop_unit(features, cfg, params)
    group_resid = 0.0
    for group in plan(d, n, cfg, params):
        rows = group.channels
        masked = np.zeros_like(features)
        masked[rows] = features[rows]
        alone = hop_unit(masked, cfg, params)
        group_resid = max(group_resid, float(np.max(np.abs(alone[rows] - full[rows]))))

    return [
        _check("support_orderless_end_to_end", worst_orderless, 1e-10),
        _check("seed_determinism", determinism, 0.5),
        _check("group_independence", group_resid, 1e-15),
    ]


_SUITES = {
    "descriptors": suite_descriptors,
    "tso": suite_tso,
    "theorems": suite_theorems,
    "attention": suite_attention,
    "heads": suite_heads,
    "pipeline": suite_pipeline,
}


def run_suite(name: str, seed: int = 0) -> dict:
    """Execute one named suite (or ``all``) and return a JSON-ready report."""
    seed = read_int(seed, "seed", 0)
    if name == "all":
        sub = [run_suite(sub_name, seed=seed) for sub_name in SUITE_NAMES]
        return {
            "schema_version": SCHEMA_VERSION,
            "suite": "all",
            "passed": all(r["passed"] for r in sub),
            "suites": sub,
        }
    if name not in _SUITES:
        raise InvalidArgumentError(
            f"unknown suite {name!r}; expected one of {SUITE_NAMES + ('all',)}"
        )
    checks = _SUITES[name](seed=seed)
    return {
        "schema_version": SCHEMA_VERSION,
        "suite": name,
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
    }


def _checks(report: dict):
    """``(suite name, check)`` for every check of a report, nested suites in order."""
    for sub in report.get("suites", ()):
        yield from _checks(sub)
    for check in report.get("checks", ()):
        yield report["suite"], check


def report_to_csv(report: dict) -> str:
    rows = ["suite,check,passed,residual,threshold"]
    for suite, c in _checks(report):
        rows.append(
            f"{suite},{c['name']},{int(c['passed'])},{c['residual']:.12e},{c['threshold']:.12e}"
        )
    return "\n".join(rows) + "\n"


def report_to_text(report: dict) -> str:
    lines = [
        f"[{'PASS' if c['passed'] else 'FAIL'}] {suite}.{c['name']}: "
        f"residual {c['residual']:.3e} (threshold {c['threshold']:.3e})"
        for suite, c in _checks(report)
    ]
    lines.append(f"overall: {'PASS' if report['passed'] else 'FAIL'}")
    return "\n".join(lines) + "\n"


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"
