"""Workload definitions: seeded input streams and the op each workload times.

Inputs are made here with NumPy alone, from the workload seed, so the
program under test only ever sees generated arrays.  Episodes follow the
construction of ``tensorpool.pipeline.synth_episode`` (fixed class
directions per run, supports from class 0, RoIs alternating between the
classes) but the stream decides itself whether supports are shared between
episodes.  Every query map is drawn fresh, so no query repeats in a run.
"""

from __future__ import annotations

import importlib
import itertools
import os
from dataclasses import dataclass

import numpy as np

ETA = 7  # requested exponent for every order; order 3 is rounded to 9
ETA_ODD = 9
ETA_PRIME = 200.0
SIGMA = 0.5
SEPARATION = 10.0
SPLIT = (5, 2, 1)
ORDERS = (2, 3, 4)
EPSILON = 1e-6  # the package's normalization stabilizer

# tso-boundary: one dense tensor per order, each at its capacity bound.
BOUNDARY_DIMS = {2: 128, 3: 24, 4: 16}
DRIFT_SHARE = 0.25  # share of boundary tensors handed over with drift
# Drift lands between the guard's repair (1e-10) and reject (1e-6)
# thresholds, with a decade of margin on each side.
DRIFT_RANGE = (1e-9, 1e-7)


@dataclass(frozen=True)
class EpisodeSpec:
    dim: int
    shots: int
    rois: int
    grid: int
    heads: int
    fixed_supports: bool


EPISODE_SPECS = {
    # ROADMAP Baseline point: groups 60/24/12, hop_unit dominates.
    "episode-hop": EpisodeSpec(dim=96, shots=3, rois=16, grid=16, heads=1, fixed_supports=False),
    # Wide boxes: relate() tiles N+2 tokens, attention dominates.
    "episode-wide": EpisodeSpec(dim=32, shots=3, rois=8, grid=256, heads=4, fixed_supports=True),
}
WORKLOADS = tuple(EPISODE_SPECS) + ("tso-boundary",)
# Seeds of the three workloads never share a stream.
_STREAM_TAG = {name: i for i, name in enumerate(WORKLOADS)}


def channel_counts(dim: int, split=SPLIT) -> tuple[int, ...]:
    """Channels per order; rounding remainders go to the lowest order."""
    total = sum(split)
    counts = [r * dim // total for r in split]
    counts[0] += dim - sum(counts)
    return tuple(counts)


@dataclass
class Episode:
    supports: tuple  # Z arrays, dim x grid
    query: np.ndarray  # dim x (rois * grid)
    boxes: tuple  # (start, stop) column ranges
    labels: tuple  # class per box, 0 = support class
    support_key: int  # identity of the support set, for the reuse share


class EpisodeStream:
    """Seeded stream of episodes for one of the episode workloads."""

    def __init__(self, spec: EpisodeSpec, seed: int, workload: str):
        self.spec = spec
        self.rng = np.random.default_rng([seed, _STREAM_TAG[workload]])
        directions = self.rng.normal(size=(spec.dim, 2))
        self.directions = directions / np.linalg.norm(directions, axis=0)
        self._fixed = self._supports() if spec.fixed_supports else None
        self._drawn = 0

    def _supports(self) -> tuple:
        s = self.spec
        return tuple(
            SEPARATION * self.directions[:, 0][:, None] + self.rng.normal(size=(s.dim, s.grid))
            for _ in range(s.shots)
        )

    def next(self) -> Episode:
        s = self.spec
        if self._fixed is not None:
            supports, key = self._fixed, -1
        else:
            supports, key = self._supports(), self._drawn
        self._drawn += 1
        query = self.rng.normal(size=(s.dim, s.rois * s.grid))
        boxes, labels = [], []
        for b in range(s.rois):
            a = b * s.grid
            query[:, a : a + s.grid] += SEPARATION * self.directions[:, b % 2][:, None]
            boxes.append((a, a + s.grid))
            labels.append(b % 2)
        return Episode(supports, query, tuple(boxes), tuple(labels), key)


def head_weight_arrays(dim: int, seed: int = 0) -> dict:
    """Projection matrices of the relation heads, uniform in +-1/sqrt(dim).

    Drawn here, as the package's ``HeadWeights.seeded`` draws them, so the
    oracle uses the same arrays without calling the package.
    """
    rng = np.random.default_rng(seed)
    bound = 1.0 / np.sqrt(dim)
    shapes = {"w_q": (2 * dim, 2 * dim), "w_k": (2 * dim, 2 * dim), "w_v": (2 * dim, 2 * dim),
              "w_p": (2 * dim, dim), "w_g": (dim, dim), "w_u": (dim, 2 * dim)}
    return {name: rng.uniform(-bound, bound, size=shape) for name, shape in shapes.items()}


def khatri_rao_power(c: np.ndarray, k: int) -> np.ndarray:
    """Column-wise k-fold Kronecker power: ``(d**k) x N``."""
    out = c
    for _ in range(k - 1):
        out = (out[:, None, :] * c[None, :, :]).reshape(-1, c.shape[1])
    return out


def normalized_descriptor(c: np.ndarray, r: int) -> np.ndarray:
    """Dense trace-normalized order-``r`` descriptor of ``d x N`` columns.

    ``mean_n outer_power(c_n, r) / (eps + mean_n |c_n|**r)``, built as one
    GEMM of Khatri-Rao powers so that generation stays cheap next to an op.
    """
    d, n = c.shape
    unfolding = khatri_rao_power(c, (r + 1) // 2) @ khatri_rao_power(c, r // 2).T / n
    scale = EPSILON + float(np.mean(np.linalg.norm(c, axis=0) ** r))
    return (unfolding / scale).reshape((d,) * r)


def symmetrize(arr: np.ndarray) -> np.ndarray:
    """Average over all index permutations."""
    perms = list(itertools.permutations(range(arr.ndim)))
    return sum(arr.transpose(p) for p in perms) / len(perms)


def asymmetry(arr: np.ndarray) -> float:
    return float(np.max(np.abs(arr - symmetrize(arr))))


@dataclass
class BoundaryTensor:
    order: int
    data: np.ndarray  # dense, shape (d,) * order
    drifted: bool


class BoundaryStream:
    """Seeded stream of order-2/3/4 triples handed over at the trust boundary.

    Exactly ``DRIFT_SHARE`` of the tensors (every fourth one, at a seeded
    phase) carry an asymmetric perturbation whose size is checked to lie
    inside ``DRIFT_RANGE``; the rest are symmetric to rounding.
    """

    def __init__(self, seed: int):
        self.rng = np.random.default_rng([seed, _STREAM_TAG["tso-boundary"]])
        self._period = round(1 / DRIFT_SHARE)
        self._phase = int(self.rng.integers(self._period))
        self._count = 0

    def _tensor(self, r: int) -> BoundaryTensor:
        d = BOUNDARY_DIMS[r]
        arr = normalized_descriptor(self.rng.normal(size=(d, max(2 * d, 8))), r)
        drifted = self._count % self._period == self._phase
        self._count += 1
        if drifted:
            noise = self.rng.normal(size=arr.shape)
            target = 10 ** self.rng.uniform(*np.log10(DRIFT_RANGE))
            arr = arr + noise * (target / asymmetry(noise))
            drift = asymmetry(arr)
            if not DRIFT_RANGE[0] / 2 <= drift <= DRIFT_RANGE[1] * 2:
                raise RuntimeError(f"generated drift {drift:.3e} outside {DRIFT_RANGE}")
        return BoundaryTensor(r, np.ascontiguousarray(arr), drifted)

    def next(self) -> tuple:
        return tuple(self._tensor(r) for r in ORDERS)


def make_stream(workload: str, seed: int):
    if workload in EPISODE_SPECS:
        return EpisodeStream(EPISODE_SPECS[workload], seed, workload)
    if workload == "tso-boundary":
        return BoundaryStream(seed)
    raise ValueError(f"unknown workload {workload!r}")


class Program:
    """The package's public entry points, looked up at call time.

    Every call goes through a module attribute, so the traced run can wrap
    the name a caller looks up without touching the package's files.
    """

    def __init__(self):
        mod = importlib.import_module
        self.pipeline = mod("tensorpool.pipeline")
        self.heads = mod("tensorpool.heads")
        self.tso = mod("tensorpool.tso")
        self.tensor = mod("tensorpool.tensor")
        self.storage = mod("tensorpool.storage")
        self.cfg = self.pipeline.SplitConfig(SPLIT)
        self.params = self.tso.TsoParams(eta2=ETA, eta3=ETA, eta4=ETA, eta_prime=ETA_PRIME)

    def episode_op(self, spec: EpisodeSpec, weights):
        pipeline = self.pipeline

        def op(ep: Episode):
            batch = pipeline.EpisodeBatch(ep.supports, ep.query, ep.boxes, ep.labels)
            return pipeline.forward_episode(
                batch, self.cfg, self.params, weights, heads=spec.heads, sigma=SIGMA
            )

        return op

    def boundary_op(self, tmpdir: str):
        paths = {r: os.path.join(tmpdir, f"order{r}.tnsr") for r in ORDERS}

        def op(triple):
            out = []
            for item in triple:
                t = self.tensor.DenseTensor(item.order, item.data.shape[0], item.data)
                self.storage.write_tensor(paths[item.order], t)
                loaded = self.storage.read_tensor(paths[item.order])
                shrunk = self.tso.tso(loaded, self.params.eta_for_order(item.order))
                diag = self.tensor.super_diagonal(shrunk).values
                out.append((loaded.data, self.tso.sigme(diag, self.params.eta_prime)))
            return out

        return op

    def make_op(self, workload: str, tmpdir: str):
        """Build the op ``workload`` times; constructs the head weights."""
        if workload in EPISODE_SPECS:
            spec = EPISODE_SPECS[workload]
            weights = self.heads.HeadWeights(**head_weight_arrays(spec.dim))
            return self.episode_op(spec, weights)
        return self.boundary_op(tmpdir)
