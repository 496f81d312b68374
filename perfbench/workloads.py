"""The benchmark's workloads: inputs built from the seed, one timed pass, and
the correctness gates every pass must clear.

Each workload calls stokes_lab only through its public entry points:
`stokes_lab.cli.run(ExperimentConfig)` for the CLI experiments and the `bem`
functions for field evaluation.  Calls go through module attributes
(`cli.run`, `bem.evaluate`) so that the traced run's wrappers see them.

`run_pass()` returns the pass's accuracy figures and a digest of its outputs;
the worker requires the digest to repeat within a run (byte-identical CSVs).
It raises `PassFailed` when a gate fails.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os

import numpy as np
from stokes_lab import bem, cli
from stokes_lab.curves import BoundaryCurve
from stokes_lab.tensors import IsotropicModuli


class PassFailed(Exception):
    pass


def _csv_digest(outdir: str) -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(outdir):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".csv"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, outdir).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


class _CliWorkload:
    """One pass runs `configs` through `cli.run`; every verdict must pass."""

    configs: list

    def __init__(self, outdir: str):
        self.outdir = outdir

    def run_pass(self) -> tuple[dict, str]:
        verdicts = {}
        for cfg in self.configs:
            report = cli.run(dataclasses.replace(cfg, notes=[]))
            if not report.ok():
                failed = [v["name"] for v in report.verdicts if not v["pass"]]
                raise PassFailed(f"{cfg.kind}: verdicts failed: {', '.join(failed)}")
            verdicts.update({v["name"]: v["value"] for v in report.verdicts})
        return self.errors(verdicts), _csv_digest(self.outdir)

    def errors(self, verdicts: dict) -> dict:
        return {}


class BemSolve(_CliWorkload):
    def __init__(self, seed: int, outdir: str):
        super().__init__(outdir)
        common = dict(curve="ellipse:2,1", nodes=1024, outdir=outdir)
        self.configs = [
            cli.ExperimentConfig(kind="paradox", data="fourier:1,0.5,0.25", **common),
            cli.ExperimentConfig(kind="basis", **common),
            cli.ExperimentConfig(kind="decay", seed=seed, **common),
        ]

    def errors(self, verdicts):
        return {"err.far_field_slope": abs(verdicts["far_field_slope"] + 1.0)}


class AnnulusOracle(_CliWorkload):
    # closed_form_l2_error at this size when the benchmark was defined, and the
    # share by which it may grow before a pass counts as failed
    L2_AT_DEFINITION = 2.70e-6
    L2_SLACK = 0.25

    def __init__(self, seed: int, outdir: str):
        super().__init__(outdir)
        self.configs = [cli.ExperimentConfig(kind="degiorgi", xi=2.0, grid="128x256",
                                             rmax=64.0, outdir=outdir)]

    def errors(self, verdicts):
        l2 = verdicts["closed_form_l2_error"]
        if l2 > self.L2_AT_DEFINITION * (1 + self.L2_SLACK):
            raise PassFailed(f"err.oracle_l2 {l2:.4g} exceeds {self.L2_AT_DEFINITION:g} "
                             f"by more than {self.L2_SLACK:.0%}")
        return {"err.oracle_l2": l2}


class AnnulusContrast(_CliWorkload):
    def __init__(self, seed: int, outdir: str):
        super().__init__(outdir)
        self.configs = [cli.ExperimentConfig(kind="contraction", contrast_bounds="1,2",
                                             grid="128x256", rmax=64.0, seed=seed,
                                             outdir=outdir)]


# -- field evaluation against an exact exterior solution -----------------------


def kelvin(lam: float, mu: float, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Plane-strain Kelvin matrix U(d) and its gradient [..., i, j, k] = d_k U_ij,
    written out here so the oracle does not share code with stokes_lab."""
    denom = 4.0 * np.pi * mu * (lam + 2.0 * mu)
    a, b = -(lam + 3.0 * mu) / denom, (lam + mu) / denom
    r2 = np.sum(d * d, axis=-1)[..., None, None]
    eye = np.eye(2)
    dd = d[..., :, None] * d[..., None, :]
    u = 0.5 * a * np.log(r2) * eye + b * dd / r2
    r2 = r2[..., None]
    g = (a * eye[:, :, None] * d[..., None, None, :]
         + b * (eye[:, None, :] * d[..., None, :, None] + eye[None, :, :] * d[..., :, None, None])
         ) / r2 - 2.0 * b * dd[..., None] * d[..., None, None, :] / r2**2
    return u, g


class BemField:
    """Dirichlet data from the difference of two Kelvin sources inside an
    ellipse: an exact exterior solution that decays and has zero net traction.
    Values and gradients are evaluated at seeded targets whose distances to the
    boundary are log-uniform in [0.1h, 100h], h the largest node spacing."""

    A, B, N = 2.0, 1.0, 512
    LAM, MU = 1.0, 1.0
    SOURCES = np.array([[0.6, 0.15], [-0.7, -0.1]])
    STRENGTH = np.array([1.0, -0.5])
    N_TARGETS = 10_000
    # err.field_* at this commit (worst of 20 seeds), and the share by which
    # they may grow before a pass counts as failed
    NEAR_AT_DEFINITION = 8.7e-3
    MID_AT_DEFINITION = 6.0e-5
    SLACK = 0.25
    FAR_TOL = 1e-10
    TRACTION_TOL = 1e-10
    TRACTION_RADIUS = 3.0

    def __init__(self, seed: int, outdir: str):
        self.curve = BoundaryCurve.ellipse(self.A, self.B, n=self.N)
        self.moduli = IsotropicModuli(self.LAM, self.MU)
        self.data = self.exact(self.curve.points)[0]

        rng = np.random.default_rng(seed)
        h = float(self.curve.weights.max())
        t = rng.uniform(0.0, 2.0 * np.pi, self.N_TARGETS)
        dist = h * 10.0 ** rng.uniform(-1.0, 2.0, self.N_TARGETS)
        # on a convex curve the offset along the outward normal is the distance
        normal = np.stack([self.B * np.cos(t), self.A * np.sin(t)], axis=-1)
        normal /= np.linalg.norm(normal, axis=-1, keepdims=True)
        self.targets = np.stack([self.A * np.cos(t), self.B * np.sin(t)], axis=-1)
        self.targets += dist[:, None] * normal
        self.u_exact, self.g_exact = self.exact(self.targets)
        self.bands = {"near": dist < h, "mid": (dist >= h) & (dist < 5 * h),
                      "far": dist >= 5 * h}

    def exact(self, x):
        u = np.zeros(x.shape)
        g = np.zeros(x.shape + (2,))
        for y, sign in zip(self.SOURCES, (1.0, -1.0)):
            uk, gk = kelvin(self.LAM, self.MU, x - y)
            u += sign * uk @ self.STRENGTH
            g += sign * np.einsum("...ijk,j->...ik", gk, self.STRENGTH)
        return u, g

    def run_pass(self) -> tuple[dict, str]:
        op = bem.assemble_single_layer(self.curve, self.moduli)
        sol = bem.solve_dirichlet(op, self.data)
        u = bem.evaluate(sol, self.targets)
        g = bem.evaluate_gradient(sol, self.targets)
        total = bem.circle_traction_total(lambda p: bem.evaluate_gradient(sol, p),
                                          self.moduli.tensor(), self.TRACTION_RADIUS)

        err = (np.linalg.norm(u - self.u_exact, axis=-1)
               / np.linalg.norm(self.u_exact, axis=-1).max())
        band = {k: float(err[m].max()) for k, m in self.bands.items()}
        if band["far"] > self.FAR_TOL:
            raise PassFailed(f"far-band error {band['far']:.3g} exceeds {self.FAR_TOL:g}")
        g_far = float(np.abs(g - self.g_exact)[self.bands["far"]].max()
                      / np.abs(self.g_exact).max())
        if g_far > self.FAR_TOL:
            raise PassFailed(f"far-band gradient error {g_far:.3g} exceeds {self.FAR_TOL:g}")
        if np.abs(total).max() > self.TRACTION_TOL:
            raise PassFailed(f"traction total {np.abs(total).max():.3g} on the circle "
                             f"r={self.TRACTION_RADIUS:g} exceeds {self.TRACTION_TOL:g}")
        for name, ceiling in (("near", self.NEAR_AT_DEFINITION), ("mid", self.MID_AT_DEFINITION)):
            if band[name] > ceiling * (1 + self.SLACK):
                raise PassFailed(f"err.field_{name} {band[name]:.4g} exceeds {ceiling:g} "
                                 f"by more than {self.SLACK:.0%}")
        digest = hashlib.sha256(b"".join(a.tobytes() for a in (sol.psi, sol.kappa, u, g)))
        return ({"err.field_near": band["near"], "err.field_mid": band["mid"],
                 "err.field_far": band["far"], "err.field_gradient_far": g_far},
                digest.hexdigest())


WORKLOADS = {
    "bem-solve": BemSolve,
    "bem-field": BemField,
    "annulus-oracle": AnnulusOracle,
    "annulus-contrast": AnnulusContrast,
}
