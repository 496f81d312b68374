"""Command-line front end: deterministic experiment runs with serialized outputs.

Subcommands: paradox, basis, degiorgi, decay, contraction, gym.  Each run
writes a JSON report plus CSV data series (floats at 17 significant digits,
atomic rename) into --outdir.  Exit codes: 0 success, 1 usage/configuration
error, 2 scientific-verdict failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import tempfile
import time
from dataclasses import dataclass, field as dc_field

from .errors import ConfigInvalid, NotContracting

__all__ = ["main", "ExperimentConfig", "validate", "run"]

_EXPERIMENTS = ("paradox", "basis", "degiorgi", "decay", "contraction", "gym")
_RANDOMIZED = ("decay", "contraction", "gym")


@dataclass
class ExperimentConfig:
    kind: str
    curve: str = "circle:1"
    material: str = "iso:1,1"
    data: str = "const:1,0"
    nodes: int = 256
    xi: float = 2.0
    grid: str = "64x128"
    rmax: float = 64.0
    check: str = "all"
    trials: int = 1000
    contrast_bounds: str = ""
    seed: int | None = None
    outdir: str = "runs"
    notes: list = dc_field(default_factory=list)

    def echo(self) -> dict:
        d = {k: v for k, v in self.__dict__.items() if k != "notes"}
        return d


def _parse_pair(text: str, what: str) -> tuple[float, float]:
    try:
        a, b = (float(x) for x in text.split(","))
        return a, b
    except Exception:
        raise ConfigInvalid(f"{what}: expected 'a,b', got {text!r}") from None


def _parse_curve(spec: str, notes: list):
    kind, _, rest = spec.partition(":")
    if kind == "circle":
        try:
            a = float(rest)
        except ValueError:
            raise ConfigInvalid(f"curve: circle radius not a number in {spec!r}") from None
        if a <= 0:
            raise ConfigInvalid("curve: circle radius must be positive")
        return ("circle", (a,))
    if kind == "ellipse":
        a, b = _parse_pair(rest, "curve: ellipse")
        if a <= 0 or b <= 0:
            raise ConfigInvalid("curve: ellipse semi-axes must be positive")
        if b > a:
            a, b = b, a
            notes.append(f"ellipse axes normalized to a >= b: ({a}, {b})")
        return ("ellipse", (a, b))
    if kind == "rounded-square":
        h, r = _parse_pair(rest, "curve: rounded-square")
        if h <= 0 or r <= 0 or r >= h:
            raise ConfigInvalid("curve: rounded-square needs 0 < radius < half_side")
        return ("rounded-square", (h, r))
    raise ConfigInvalid(f"curve: unknown kind {kind!r}")


def _parse_material(spec: str):
    kind, _, rest = spec.partition(":")
    if kind == "iso":
        lam, mu = _parse_pair(rest, "material: iso")
        if mu <= 0 or lam < 0:
            raise ConfigInvalid("material: need mu > 0 and lambda >= 0")
        return lam, mu
    raise ConfigInvalid(f"material: unknown kind {kind!r}; boundary experiments "
                        "need a constant material iso:lambda,mu")


def _parse_grid(spec: str) -> tuple[int, int]:
    try:
        nr, nt = (int(x) for x in spec.lower().split("x"))
    except Exception:
        raise ConfigInvalid(f"grid: expected 'NRxNT', got {spec!r}") from None
    if nr < 3 or nt < 8 or nt % 2:
        raise ConfigInvalid("grid: need nr >= 3 and even nt >= 8")
    return nr, nt


def _parse(cfg: ExperimentConfig) -> tuple[dict, list[str]]:
    """The parsed specs the experiment reads, and the run's notes; raises
    ConfigInvalid with a field-precise message.  cfg is left as it is."""
    spec, notes = {}, list(cfg.notes)
    if cfg.kind not in _EXPERIMENTS:
        raise ConfigInvalid(f"kind: unknown experiment {cfg.kind!r}")
    if cfg.kind in _RANDOMIZED and cfg.seed is None:
        raise ConfigInvalid(f"seed: mandatory for the randomized experiment {cfg.kind!r}")
    if cfg.kind in ("paradox", "basis", "decay"):
        spec["curve"] = _parse_curve(cfg.curve, notes)
        spec["moduli"] = _parse_material(cfg.material)
        if not (16 <= cfg.nodes <= 2048) or cfg.nodes % 2:
            raise ConfigInvalid("nodes: need an even count in [16, 2048]")
    if cfg.kind in ("degiorgi", "contraction"):
        if cfg.xi == 0:
            raise ConfigInvalid("xi: must be nonzero (the counter-example tensor "
                                "is undefined at xi = 0)")
        spec["grid"] = _parse_grid(cfg.grid)
        if cfg.rmax < 16:
            raise ConfigInvalid("rmax: need at least 16 so the fit window [2, rmax/4] "
                                "spans an octave")
    if cfg.kind == "gym":
        if cfg.check not in ("wirtinger", "hardy", "korn", "all"):
            raise ConfigInvalid(f"check: unknown inequality {cfg.check!r}")
        if cfg.trials < 1:
            raise ConfigInvalid("trials: must be positive")
    if (cfg.kind == "contraction" and cfg.material not in ("", ExperimentConfig.material)
            and not cfg.material.startswith("table:")):
        raise ConfigInvalid(f"material: contraction takes only table:<csv>, got "
                            f"{cfg.material!r}; the counter-example tensor is set by xi, "
                            "a random field by contrast_bounds")
    if cfg.kind == "contraction" and cfg.contrast_bounds:
        if cfg.material.startswith("table:"):
            raise ConfigInvalid("material, contrast_bounds: a tabulated material sets its "
                                "own bounds; give one or the other")
        lo, hi = _parse_pair(cfg.contrast_bounds, "contrast_bounds")
        if not (0 < lo <= hi):
            raise ConfigInvalid("contrast_bounds: need 0 < lo <= hi")
        spec["bounds"] = lo, hi
    return spec, notes


def validate(cfg: ExperimentConfig) -> list[str]:
    """Pure validation: the run's notes, or ConfigInvalid with a
    field-precise message."""
    return _parse(cfg)[1]


# -- output helpers ------------------------------------------------------------


def _write_atomic(path: str, text: str):
    d = os.path.dirname(path) or "."
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="\n") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(path: str, header: list[str], columns: list) -> str:
    """Columns of numbers (written as floats at 17 significant digits) or of
    strings under one header line, the whole table formatted by one `%`."""
    import numpy as np

    cells, specs = [], []
    for col in columns:
        text = len(col) > 0 and isinstance(col[0], str)
        cells.append(list(col) if text else np.asarray(col, dtype=float).tolist())
        specs.append("%s" if text else "%.17g")
    n_rows = len(cells[0]) if cells else 0
    body = (",".join(specs) + "\n") * n_rows % tuple(itertools.chain.from_iterable(zip(*cells)))
    _write_atomic(path, ",".join(header) + "\n" + body)
    return path


def _verdict(name: str, quantity: str, value, tolerance: float, ok: bool) -> dict:
    return {
        "name": name,
        "quantity": quantity,
        "value": value if isinstance(value, (int, float)) else [float(v) for v in value],
        "tolerance": tolerance,
        "pass": bool(ok),
    }


@dataclass
class RunReport:
    config: dict
    version: str
    verdicts: list
    condition_numbers: dict
    outputs: list
    wall_clock_s: float
    notes: list

    def ok(self) -> bool:
        return all(v["pass"] for v in self.verdicts)

    def to_json(self) -> str:
        return json.dumps(self.__dict__, indent=2, sort_keys=True) + "\n"


# -- experiment bodies -----------------------------------------------------------


def _build_curve(cfg: ExperimentConfig, spec: dict):
    from .curves import BoundaryCurve

    kind, args = spec["curve"]
    if kind == "circle":
        return BoundaryCurve.circle(args[0], n=cfg.nodes)
    if kind == "ellipse":
        return BoundaryCurve.ellipse(args[0], args[1], n=cfg.nodes)
    return BoundaryCurve.rounded_square(args[0], args[1], n=cfg.nodes)


def _read_csv(path: str, what: str):
    """Finite numeric rows of a CSV file with one header line."""
    import numpy as np

    try:
        arr = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        raise ConfigInvalid(f"{what}: cannot read {path!r}: {exc}") from None
    if not np.all(np.isfinite(arr)):
        raise ConfigInvalid(f"{what}: {path!r} holds non-finite values")
    return arr


def _boundary_data(cfg: ExperimentConfig, curve):
    import numpy as np

    spec = cfg.data
    kind, _, rest = spec.partition(":")
    n = curve.n
    if kind == "const":
        cx, cy = _parse_pair(rest, "data: const")
        return np.tile([cx, cy], (n, 1))
    if kind == "tangent":
        return np.stack([-np.sin(curve.t), np.cos(curve.t)], axis=-1)
    if kind == "fourier":
        try:
            coefs = [float(x) for x in rest.split(",")]
        except Exception:
            raise ConfigInvalid(f"data: bad fourier coefficients {rest!r}") from None
        u = np.zeros((n, 2))
        for k, c in enumerate(coefs, start=1):
            u[:, 0] += c * np.cos(k * curve.t)
            u[:, 1] += c * np.sin(k * curve.t)
        return u
    if kind == "file":
        # CSV of nodal values: header u1,u2 and one row per quadrature node
        arr = _read_csv(rest, "data")
        if arr.shape != (n, 2):
            raise ConfigInvalid(
                f"data: file {rest!r} holds {arr.shape}, expected ({n}, 2) "
                "nodal values matching --nodes"
            )
        return arr
    raise ConfigInvalid(f"data: unknown profile {kind!r}")


# point-sample pairs whose distances the table lookup forms at once
_TABLE_BLOCK_PAIRS = 1 << 18


def _table_material(path: str):
    """Tabulated scalar stiffness: CSV header r,theta,scale; nearest-sample
    lookup, one block of points at a time; Lin bounds certified by the
    tabulated extremes."""
    import numpy as np

    from .tensors import scalar_field

    arr = _read_csv(path, "material")
    if arr.shape[1] != 3 or arr.shape[0] < 1:
        raise ConfigInvalid("material: table needs columns r,theta,scale")
    scales = arr[:, 2]
    if scales.min() <= 0:
        raise ConfigInvalid("material: tabulated scales must be positive")
    tab_pts = np.stack([arr[:, 0] * np.cos(arr[:, 1]), arr[:, 0] * np.sin(arr[:, 1])], axis=-1)

    rows = max(_TABLE_BLOCK_PAIRS // len(tab_pts), 1)

    def nearest(pts):
        flat = pts.reshape(-1, 2)
        idx = np.empty(len(flat), dtype=np.intp)
        for lo in range(0, len(flat), rows):
            d2s = np.sum((flat[lo:lo + rows, None, :] - tab_pts[None, :, :]) ** 2, axis=-1)
            idx[lo:lo + rows] = np.argmin(d2s, axis=1)
        return scales[idx].reshape(pts.shape[:-1])

    return scalar_field(nearest, float(scales.min()), float(scales.max()),
                        name="tabulated-scalar")


def _run_paradox(cfg: ExperimentConfig, spec: dict, out: dict):
    import numpy as np

    from . import bem
    from .tensors import IsotropicModuli

    curve = _build_curve(cfg, spec)
    data = _boundary_data(cfg, curve)
    op = bem.assemble_single_layer(curve, IsotropicModuli(*spec["moduli"]))
    basis = bem.equilibrium_basis(op)
    residual = bem.paradox_residual(data, basis)
    sol = bem.solve_dirichlet(op, data)
    if curve.grad_f_norm is not None:
        compat = bem.ellipse_compatibility(data, curve)
        out["verdicts"].append(_verdict("ellipse_compatibility", "residual", compat, 1e-8, True))

    data_norm = float(np.sqrt(curve.inner_product(data, data)))
    tol_replay = 1e-8 * max(data_norm, 1.0)
    total = float(np.abs(sol.total_density).max())
    out["verdicts"] += [
        _verdict("paradox_residual", "residual", residual, 1e-8, True),
        _verdict("kappa", "kappa", sol.kappa, 1e-10, True),
        _verdict("boundary_replay", "residual", sol.replay_error, tol_replay,
                 sol.replay_error <= tol_replay),
        _verdict("zero_total_density", "residual", total, 1e-10, total <= 1e-10),
    ]
    out["condition_numbers"]["augmented_system"] = sol.cond
    out["condition_numbers"]["totals_matrix"] = basis.cond_totals
    out["files"]["psi.csv"] = (
        ["t", "x1", "x2", "psi1", "psi2"],
        [curve.t, curve.points[:, 0], curve.points[:, 1], sol.psi[:, 0], sol.psi[:, 1]],
    )


def _run_basis(cfg: ExperimentConfig, spec: dict, out: dict):
    import numpy as np

    from . import bem
    from .tensors import IsotropicModuli

    curve = _build_curve(cfg, spec)
    op = bem.assemble_single_layer(curve, IsotropicModuli(*spec["moduli"]))
    basis = bem.equilibrium_basis(op)
    det = float(np.linalg.det(basis.totals))
    out["verdicts"].append(
        _verdict("totals_determinant", "residual", det, 1e-12, abs(det) > 1e-12)
    )
    cols = [curve.t, curve.weights]
    header = ["t", "w"]
    for i in range(2):
        header += [f"psi{i + 1}_x", f"psi{i + 1}_y"]
        cols += [basis.psi[i][:, 0], basis.psi[i][:, 1]]
    if curve.grad_f_norm is not None:
        header.append("grad_f_norm")
        cols.append(curve.grad_f_norm)
        err = bem.ellipse_direction_error(basis)
        out["verdicts"].append(
            _verdict("ellipse_direction_error", "residual", err, 1e-6, err <= 1e-6)
        )
    out["condition_numbers"]["augmented_system"] = op.cond
    out["condition_numbers"]["totals_matrix"] = basis.cond_totals
    out["files"]["basis.csv"] = (header, cols)


def _run_degiorgi(cfg: ExperimentConfig, spec: dict, out: dict):
    import numpy as np

    from .annulus import (
        VariationalProblem,
        decay_exponent_fit,
        energy_profiles,
        growth_monotonicity_check,
        solve_annulus,
    )
    from .degiorgi import CounterexampleParams, closed_form, degiorgi_tensor, epsilon
    from .polar import DiscreteField, PolarGrid, relative_l2_error
    from .tensors import gamma_exponent

    xi = cfg.xi
    grid = PolarGrid(cfg.rmax, *spec["grid"])
    sol = closed_form(CounterexampleParams(xi, 1.0, -1.0))
    fld = degiorgi_tensor(xi)
    prob = VariationalProblem(
        field=fld,
        inner_data=None,
        outer_kind="dirichlet",
        outer_data=lambda th: sol.displacement(
            np.stack([cfg.rmax * np.cos(th), cfg.rmax * np.sin(th)], axis=-1)
        ),
    )
    u = solve_annulus(prob, grid)
    exact = DiscreteField.sample(grid, sol.displacement)
    l2 = relative_l2_error(u, exact)

    # decaying branch: exponent fit and tail monotonicity; the geometric
    # ladder densifies on short grids so the regression keeps >= 5 radii
    dec = closed_form(CounterexampleParams(xi, 0.0, 1.0))
    u_dec = DiscreteField.sample(grid, dec.displacement)
    hi = cfg.rmax / 4.0
    n_pts = max(5, 2 * int(np.log2(max(hi / 2.0, 2.0))) + 1)
    ladder = np.geomspace(2.0, hi, n_pts)
    fit = decay_exponent_fit(u_dec, radii=ladder)
    prof = energy_profiles(u_dec)
    gam = gamma_exponent(fld.mu0, fld.mue)
    rep = growth_monotonicity_check(prof, gam)

    eps = epsilon(xi)
    out["verdicts"] += [
        _verdict("closed_form_l2_error", "residual", l2, 1e-3, l2 <= 1e-3),
        _verdict("decay_exponent", "epsilon", fit.alpha, 0.02, abs(fit.alpha - eps) <= 0.02),
        _verdict("tail_monotonicity", "gamma", rep.worst_q_violation, rep.tolerance, rep.q_ok),
    ]
    out["condition_numbers"]["grading_ratio"] = grid.ratio
    pts = grid.node_points()
    rr = np.linalg.norm(pts, axis=-1)
    tt = np.arctan2(pts[:, 1], pts[:, 0])
    out["files"]["solution.csv"] = (
        ["r", "theta", "u1", "u2", "u1_exact", "u2_exact"],
        [rr, tt, u.flat()[0::2], u.flat()[1::2], exact.flat()[0::2], exact.flat()[1::2]],
    )
    out["files"]["profiles.csv"] = (
        ["R", "G", "Q"],
        [prof.radii, prof.G, prof.Q],
    )


def _run_decay(cfg: ExperimentConfig, spec: dict, out: dict):
    import numpy as np

    from . import bem
    from .tensors import IsotropicModuli

    curve = _build_curve(cfg, spec)
    psi_star = bem.zero_total_density(curve, np.random.default_rng(cfg.seed))
    op = bem.assemble_single_layer(curve, IsotropicModuli(*spec["moduli"]))
    sol = bem.solve_dirichlet(op, op.apply(psi_star))

    radii = np.geomspace(10.0, 1000.0, 9)
    angles = np.linspace(0.0, 2 * np.pi, 8, endpoint=False)
    dist = np.empty(radii.size)
    for i, r in enumerate(radii):
        pts = np.stack([r * np.cos(angles), r * np.sin(angles)], axis=-1)
        vals = bem.evaluate(sol, pts)
        dist[i] = np.linalg.norm(vals - sol.kappa, axis=-1).max()
    slope = float(np.polyfit(np.log(radii), np.log(dist), 1)[0])
    kap = float(np.abs(sol.kappa).max())
    out["verdicts"] += [
        _verdict("far_field_slope", "alpha", slope, 0.05, abs(slope + 1.0) <= 0.05),
        _verdict("kappa_recovery", "kappa", kap, 1e-8, kap <= 1e-8),
    ]
    out["condition_numbers"]["augmented_system"] = sol.cond
    out["files"]["decay.csv"] = (["r", "dist"], [radii, dist])


def _run_contraction(cfg: ExperimentConfig, spec: dict, out: dict):
    import numpy as np

    from .annulus import VariationalProblem, bump_force, contraction_solve, solve_annulus
    from .degiorgi import restricted_tensor
    from .polar import PolarGrid
    from .tensors import random_scalar_field

    grid = PolarGrid(cfg.rmax, *spec["grid"])
    if cfg.material.startswith("table:"):
        fld = _table_material(cfg.material.partition(":")[2])
    elif cfg.contrast_bounds:
        fld = random_scalar_field(*spec["bounds"], np.random.default_rng(cfg.seed))
    else:
        fld = restricted_tensor(cfg.xi, 2.0, max(cfg.rmax / 4.0, 4.0))
    amp = np.random.default_rng(cfg.seed).normal(size=4)

    prob = VariationalProblem(field=fld, inner_data=None, outer_kind="dirichlet",
                              force=bump_force(amp, cfg.rmax))
    u_fix, rep = contraction_solve(prob, grid)
    u_dir = solve_annulus(prob, grid, check_bounds=False)
    agree = float(
        np.abs(u_fix.values - u_dir.values).max() / max(np.abs(u_dir.values).max(), 1e-300)
    )
    lo, hi = fld.lin_bounds_pair
    bound = (hi - lo) / hi
    out["verdicts"] += [
        _verdict("worst_contraction_factor", "residual", rep.worst_factor,
                 max(bound * 1.05, 0.5), rep.worst_factor <= max(bound * 1.05, 0.5)),
        _verdict("direct_solver_agreement", "residual", agree, 1e-4, agree <= 1e-4),
        _verdict("converged", "residual", float(rep.converged), 1.0, rep.converged),
    ]
    out["condition_numbers"]["contrast_bound"] = bound
    iters = np.arange(1, rep.factors.size + 1, dtype=float)
    out["files"]["factors.csv"] = (["iteration", "factor"], [iters, rep.factors])


def _run_gym(cfg: ExperimentConfig, spec: dict, out: dict):
    import numpy as np

    from . import inequalities

    rng = np.random.default_rng(cfg.seed)
    checks = tuple(inequalities.TRIALS) if cfg.check == "all" else (cfg.check,)
    rows = []
    for name in checks:
        for k in range(cfg.trials):
            trial = inequalities.TRIALS[name](rng)
            rows.append((name, k, trial.lhs, trial.rhs, trial.ok))
            if not trial.ok:
                # dump the offending samples for triage
                out["files"][f"failure_{name}_{k}.csv"] = (["sample"], [np.ravel(trial.sample)])

    oks = [row[-1] for row in rows]
    out["verdicts"].append(
        _verdict("all_trials_pass", "residual", float(np.mean(oks)), 1.0, all(oks))
    )
    out["files"]["trials.csv"] = (["check", "trial", "lhs", "rhs", "ok"], list(zip(*rows)))


_RUNNERS = {
    "paradox": _run_paradox,
    "basis": _run_basis,
    "degiorgi": _run_degiorgi,
    "decay": _run_decay,
    "contraction": _run_contraction,
    "gym": _run_gym,
}


def run(cfg: ExperimentConfig) -> RunReport:
    """Validate, execute, and serialize one experiment; returns the report."""
    from . import __version__

    spec, notes = _parse(cfg)
    t0 = time.perf_counter()
    out = {"verdicts": [], "condition_numbers": {}, "files": {}}
    _RUNNERS[cfg.kind](cfg, spec, out)

    outdir = os.path.join(cfg.outdir, cfg.kind)
    written = []
    for fname, (header, cols) in out["files"].items():
        written.append(_write_csv(os.path.join(outdir, fname), header, cols))

    report = RunReport(
        config=cfg.echo(),
        version=__version__,
        verdicts=out["verdicts"],
        condition_numbers=out["condition_numbers"],
        outputs=sorted(os.path.basename(p) for p in written),
        wall_clock_s=round(time.perf_counter() - t0, 3),
        notes=notes,
    )
    _write_atomic(os.path.join(outdir, "report.json"), report.to_json())
    return report


# -- argument parsing ------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    p = _Parser(prog="stokes-lab", description=__doc__)
    sub = p.add_subparsers(dest="kind", required=True)

    def common(sp):
        sp.add_argument("--outdir", default="runs")
        sp.add_argument("--seed", type=int, default=None)

    for name in ("paradox", "basis", "decay"):
        sp = sub.add_parser(name)
        sp.add_argument("--curve", default="circle:1")
        sp.add_argument("--material", default="iso:1,1")
        sp.add_argument("--nodes", type=int, default=256)
        if name == "paradox":
            sp.add_argument("--data", default="const:1,0")
        common(sp)

    for name in ("degiorgi", "contraction"):
        sp = sub.add_parser(name)
        sp.add_argument("--xi", type=float, default=2.0)
        sp.add_argument("--grid", default="64x128")
        sp.add_argument("--rmax", type=float, default=64.0)
        if name == "contraction":
            sp.add_argument("--contrast-bounds", dest="contrast_bounds", default="")
            sp.add_argument("--material", default="")
        common(sp)

    sp = sub.add_parser("gym")
    sp.add_argument("--check", default="all")
    sp.add_argument("--trials", type=int, default=1000)
    common(sp)
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    cfg = ExperimentConfig(kind=args.kind)
    for key, val in vars(args).items():
        if key != "kind" and hasattr(cfg, key) and val is not None:
            setattr(cfg, key, val)
    try:
        report = run(cfg)
    except ConfigInvalid as exc:
        print(f"stokes-lab: configuration error: {exc}", file=sys.stderr)
        return 1
    except NotContracting as exc:
        print(f"stokes-lab: verdict failure: {exc}", file=sys.stderr)
        return 2
    print(report.to_json(), end="")
    return 0 if report.ok() else 2


if __name__ == "__main__":
    raise SystemExit(main())
