"""Command-line front end: deterministic experiment runs with serialized outputs.

Subcommands: paradox, basis, degiorgi, decay, contraction, gym, each with one
option per ExperimentConfig field it reads, plus --outdir.  Each run writes a
JSON report plus CSV data series (floats at 17 significant digits, atomic
rename) into --outdir.  Exit codes: 0 success, 1 usage/configuration error,
2 scientific-verdict failure or a solver error (a StokesLabError other than
ConfigInvalid, named on stderr) on a valid configuration.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import itertools
import json
import math
import numbers
import os
import sys
import tempfile
import time
import warnings
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import ConfigInvalid, CurveNotSmooth, InvalidBounds, StokesLabError

__all__ = ["main", "ExperimentConfig", "validate", "run"]


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


# -- field grammars: each maps a field's value, given the fields parsed before
# -- it in `got`, to what the runner reads, adds any note to `notes`, or raises
# -- ConfigInvalid naming the field


def _parse_numbers(text: str, what: str, count: int | None = 2) -> tuple[float, ...]:
    """`count` comma-separated finite numbers (any positive count for None)."""
    try:
        nums = tuple(float(x) for x in text.split(","))
    except ValueError:
        nums = ()
    if not nums or len(nums) != (count or len(nums)) or not all(map(math.isfinite, nums)):
        raise ConfigInvalid(f"{what}: expected {count or 'some'} comma-separated finite "
                            f"numbers, got {text!r}")
    return nums


def _rule(ok, message: str):
    """The parser that passes a value for which ok(value) holds."""

    def parse(value, got, notes):
        if not ok(value):
            raise ConfigInvalid(f"{message}, got {value!r}")
        return value

    return parse


_parse_nodes = _rule(lambda n: 16 <= n <= 2048 and n % 2 == 0,
                     "nodes: need an even count in [16, 2048]")
_parse_xi = _rule(lambda xi: math.isfinite(xi) and float(xi) * float(xi) > 4.0 / sys.float_info.max,
                  "xi: need a finite xi with |xi| >= about 1.5e-154, so that the counter-example "
                  "tensor's 4/xi^2 is finite (it is undefined at xi = 0)")
_parse_rmax = _rule(lambda r: 16 <= r < math.inf, "rmax: need a finite value of at least 16 "
                    "so the fit window [2, rmax/4] spans an octave")
_parse_check = _rule(lambda c: c in ("wirtinger", "hardy", "korn", "all"),
                     "check: need wirtinger, hardy, korn or all")
_parse_trials = _rule(lambda t: t >= 1, "trials: must be positive")
_parse_seed = _rule(lambda s: s is not None and s >= 0,
                    "seed: a non-negative seed is mandatory for a randomized experiment")


def _parse_curve(spec: str, got: dict, notes: list):
    """The BoundaryCurve of `spec` at got["nodes"] nodes; BoundaryCurve owns
    the curve rules.  A curve that is not smooth is noted."""
    from .curves import BoundaryCurve

    kind, _, rest = spec.partition(":")
    count = {"circle": 1, "ellipse": 2, "rounded-square": 2}.get(kind)
    if count is None:
        raise ConfigInvalid(f"curve: unknown kind {kind!r}")
    args = _parse_numbers(rest, f"curve: {kind}", count)
    if kind == "ellipse" and args[1] > args[0]:
        args = args[::-1]
        notes.append(f"ellipse axes normalized to a >= b: {args}")
    try:
        curve = getattr(BoundaryCurve, kind.replace("-", "_"))(*args, n=got["nodes"])
    except ValueError as exc:
        raise ConfigInvalid(f"curve: {exc}") from None
    if not curve.smooth:
        notes.append(f"{kind} is only piecewise smooth: the boundary quadrature converges "
                     "at the composite trapezoid rate, not spectrally")
    return curve


# decay's sample points: 8 angles on each of 9 radii from 10 to 1000
_DECAY_RADII = np.geomspace(10.0, 1000.0, 9)
_DECAY_ANGLES = np.linspace(0.0, 2 * np.pi, 8, endpoint=False)
_DECAY_POINTS = _DECAY_RADII[:, None, None] * np.stack([np.cos(_DECAY_ANGLES),
                                                        np.sin(_DECAY_ANGLES)], axis=-1)


def _parse_decay_curve(spec: str, got: dict, notes: list):
    """A curve whose nodes lie in |x| < 10 and whose body holds none of
    decay's sample points, where the solution is evaluated."""
    curve = _parse_curve(spec, got, notes)
    if (np.hypot(*curve.points.T).max() >= _DECAY_RADII[0]
            or curve.is_inside(_DECAY_POINTS.reshape(-1, 2)).any()):
        raise ConfigInvalid(f"curve: decay samples the solution from |x| = {_DECAY_RADII[0]:g} "
                            f"out, so the curve must lie inside |x| < {_DECAY_RADII[0]:g}, "
                            f"got {spec!r}")
    return curve


def _parse_material(spec: str, got: dict, notes: list):
    """The IsotropicModuli of iso:lambda,mu; IsotropicModuli owns the Lame rule."""
    from .tensors import IsotropicModuli

    kind, _, rest = spec.partition(":")
    if kind != "iso":
        raise ConfigInvalid(f"material: unknown kind {kind!r}; boundary experiments "
                            "need a constant material iso:lambda,mu")
    try:
        return IsotropicModuli(*_parse_numbers(rest, "material: iso"))
    except InvalidBounds as exc:
        raise ConfigInvalid(f"material: {exc}") from None


def _parse_table(spec: str, got: dict, notes: list) -> str | None:
    """contraction's material: the path of a table:<csv>, or None when the
    material is left unset ("" or the default).  _parse reads the table once
    the run's one material source is known."""
    if spec in ("", ExperimentConfig.material):
        return None
    kind, _, path = spec.partition(":")
    if kind != "table" or not path:
        raise ConfigInvalid(f"material: contraction takes only table:<csv>, got {spec!r}; the "
                            "counter-example tensor is set by xi, a random field by "
                            "contrast_bounds")
    return path


def _parse_bounds(spec: str, got: dict, notes: list) -> tuple[float, float] | None:
    if not spec:
        return None
    lo, hi = _parse_numbers(spec, "contrast_bounds")
    if not (0 < lo <= hi):
        raise ConfigInvalid("contrast_bounds: need 0 < lo <= hi")
    return lo, hi


def _parse_grid(spec: str, got: dict, notes: list):
    """The PolarGrid of NRxNT out to got["rmax"]; PolarGrid owns the grading rule."""
    from .polar import PolarGrid

    try:
        nr, nt = (int(x) for x in spec.lower().split("x"))
    except Exception:
        raise ConfigInvalid(f"grid: expected 'NRxNT', got {spec!r}") from None
    try:
        return PolarGrid(got["rmax"], nr, nt)
    except ValueError as exc:
        raise ConfigInvalid(f"grid: {exc}") from None


def _parse_data(spec: str, got: dict, notes: list):
    """The (N, 2) nodal boundary data `spec` names on got["curve"], built
    without floating-point warnings; data whose weighted L2 norm overflows
    float64 are refused."""
    curve = got["curve"]
    kind, _, rest = spec.partition(":")
    with np.errstate(over="ignore", invalid="ignore"):
        if kind == "const":
            data = np.tile(_parse_numbers(rest, "data: const"), (curve.n, 1))
        elif kind == "tangent" and not rest:
            data = np.stack([-np.sin(curve.t), np.cos(curve.t)], axis=-1)
        elif kind == "fourier":
            data = np.zeros((curve.n, 2))
            for k, c in enumerate(_parse_numbers(rest, "data: fourier", None), start=1):
                data[:, 0] += c * np.cos(k * curve.t)
                data[:, 1] += c * np.sin(k * curve.t)
        elif kind == "file" and rest:
            # CSV of nodal values: header u1,u2 and one row per quadrature node
            data = _read_csv(rest, "data")
            if data.shape != (curve.n, 2):
                raise ConfigInvalid(f"data: file {rest!r} holds {data.shape}, expected "
                                    f"({curve.n}, 2) nodal values matching --nodes")
        else:
            raise ConfigInvalid(f"data: unknown profile {spec!r}; need const:cx,cy, tangent, "
                                "fourier:c1,c2,... or file:<csv>")
        norm2 = curve.inner_product(data, data)
    if not np.isfinite(norm2):
        # every tolerance of the run scales with the norm; float64 cannot hold it
        raise ConfigInvalid("data: the weighted L2 norm of the boundary data overflows float64")
    return data


def _read_csv(path: str, what: str):
    """Finite numeric rows, at least one, of a CSV file with one header line."""
    try:
        with warnings.catch_warnings():
            # a header-only file: refused below, not warned about
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            arr = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        raise ConfigInvalid(f"{what}: cannot read {path!r}: {exc}") from None
    if arr.size == 0:
        raise ConfigInvalid(f"{what}: {path!r} holds no rows")
    if not np.all(np.isfinite(arr)):
        raise ConfigInvalid(f"{what}: {path!r} holds non-finite values")
    return arr


def _table_material(path: str):
    """The tabulated scalar stiffness of a CSV with header r,theta,scale."""
    from .tensors import tabulated_scalar_field

    arr = _read_csv(path, "material")
    if arr.shape[1] != 3:
        raise ConfigInvalid("material: table needs columns r,theta,scale")
    if arr[:, 2].min() <= 0:
        raise ConfigInvalid("material: tabulated scales must be positive")
    return tabulated_scalar_field(arr[:, 0], arr[:, 1], arr[:, 2])


# -- output helpers ------------------------------------------------------------


# rows of a CSV table formatted and written at once
_CSV_BLOCK_ROWS = 1 << 12


@contextlib.contextmanager
def _atomic_file(path: str):
    """A text file, open for writing, that replaces path by one rename when
    the block exits; on an error it is removed and path is left as it was."""
    d = os.path.dirname(path) or "."
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="\n") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_atomic(path: str, text: str):
    with _atomic_file(path) as f:
        f.write(text)


def _csv_block(b) -> tuple[list, str]:
    """One block of one column and its `%` spec: strings as they are; floats
    as Python floats for "%.17g", or, when the block holds at most half as
    many distinct values (by bit pattern, so 0.0 and -0.0 stay apart) as
    rows, as the text of each value, every distinct value formatted once."""
    if isinstance(b, list):
        return b, "%s"
    bits, inverse = np.unique(b.view(np.uint64), return_inverse=True)
    if 2 * bits.size > b.size:
        return b.tolist(), "%.17g"
    text = np.array(["%.17g" % v for v in bits.view(float).tolist()], dtype=object)
    return text[inverse].tolist(), "%s"


def _write_csv(path: str, header: list[str], columns: list) -> str:
    """Columns of numbers (written as floats at 17 significant digits) or of
    strings under one header line, written atomically.  Each block of
    _CSV_BLOCK_ROWS rows is formatted by one `%` and written before the next
    is formatted, so the text and the Python floats of one block are held at
    a time, not those of the whole table; a column that repeats its values
    within a block has each distinct value formatted once (_csv_block)."""
    cells = []
    for col in columns:
        text = len(col) > 0 and isinstance(col[0], str)
        cells.append(list(col) if text else np.asarray(col, dtype=float))
    n_rows = len(cells[0]) if cells else 0
    with _atomic_file(path) as f:
        f.write(",".join(header) + "\n")
        for lo in range(0, n_rows, _CSV_BLOCK_ROWS):
            block, specs = zip(*(_csv_block(c[lo:lo + _CSV_BLOCK_ROWS]) for c in cells))
            row = ",".join(specs) + "\n"
            f.write(row * len(block[0]) % tuple(itertools.chain.from_iterable(zip(*block))))
    return path


def _verdict(name: str, quantity: str, value, tolerance: float, ok: bool | None = None) -> dict:
    """A verdict that passes when ok holds, or, for ok None, when value <= tolerance."""
    return {
        "name": name,
        "quantity": quantity,
        "value": value if isinstance(value, (int, float)) else [float(v) for v in value],
        "tolerance": tolerance,
        "pass": bool(value <= tolerance if ok is None else ok),
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


# -- experiment bodies: each reads only the parsed fields in `spec` -------------


def _run_paradox(spec: dict, out: dict):
    from . import bem

    curve, data = spec["curve"], spec["data"]
    # the data-relative tolerances scale with the weighted L2 norm, at least 1
    scale = max(float(np.sqrt(curve.inner_product(data, data))), 1.0)
    op = bem.assemble_single_layer(curve, spec["material"])
    basis = bem.equilibrium_basis(op)
    residual = bem.paradox_residual(data, basis)
    sol = bem.solve_dirichlet(op, data)
    if curve.grad_f_norm is not None:
        compat = bem.ellipse_compatibility(data, curve)
        # the residual pairs the data with psi_i, the closed form with
        # e_i / |grad f|: on an ellipse these agree to round-off after rescaling
        agreement = bem.ellipse_residual_agreement(residual, compat, basis)
        out["verdicts"] += [
            _verdict("ellipse_compatibility", "residual", compat, 1e-8, True),
            _verdict("ellipse_residual_agreement", "residual", agreement, 1e-10 * scale),
        ]

    total = float(np.abs(sol.total_density).max())
    # reciprocity: with A weighted-symmetric, <data, psi_i>_w = total(psi_i) . kappa;
    # the basis and the Dirichlet solve share one factorization, so this
    # holds to round-off unless that solve path is wrong
    reciprocity = float(np.abs(residual - basis.totals.T @ sol.kappa).max())
    out["verdicts"] += [
        _verdict("paradox_residual", "residual", residual, 1e-8, True),
        _verdict("kappa", "kappa", sol.kappa, 1e-10, True),
        _verdict("kappa_reciprocity", "residual", reciprocity, 1e-10 * scale),
        _verdict("boundary_replay", "residual", sol.replay_error, 1e-8 * scale),
        _verdict("zero_total_density", "residual", total, 1e-10 * scale),
    ]
    out["condition_numbers"]["augmented_system"] = sol.cond
    out["condition_numbers"]["totals_matrix"] = basis.cond_totals
    out["files"]["psi.csv"] = (
        ["t", "x1", "x2", "psi1", "psi2"],
        [curve.t, curve.points[:, 0], curve.points[:, 1], sol.psi[:, 0], sol.psi[:, 1]],
    )


def _run_basis(spec: dict, out: dict):
    from . import bem

    curve = spec["curve"]
    op = bem.assemble_single_layer(curve, spec["material"])
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
        out["verdicts"].append(_verdict("ellipse_direction_error", "residual", err, 1e-6))
    out["condition_numbers"]["augmented_system"] = op.cond
    out["condition_numbers"]["totals_matrix"] = basis.cond_totals
    out["files"]["basis.csv"] = (header, cols)


def _run_degiorgi(spec: dict, out: dict):
    from .annulus import (
        VariationalProblem,
        decay_exponent_fit,
        energy_profiles,
        growth_monotonicity_check,
        oracle_ladder,
    )
    from .degiorgi import ClosedFormSolution, degiorgi_tensor, epsilon
    from .polar import DiscreteField
    from .tensors import gamma_exponent

    xi, rmax, grid = spec["xi"], spec["rmax"], spec["grid"]
    sol = ClosedFormSolution(xi, 1.0, -1.0)
    fld = degiorgi_tensor(xi)
    # zero inner data: the growth branch vanishes on |x| = 1, but |x| is 1 at
    # the inner ring's nodes only to round-off, where it reads up to 1e-16
    prob = VariationalProblem(field=fld, outer_data=sol.displacement)
    oracle = oracle_ladder(prob, sol.displacement, [grid])
    l2 = oracle.errors[-1]

    # decaying branch: exponent fit and tail monotonicity; the geometric
    # ladder densifies on short grids so the regression keeps >= 5 radii
    dec = ClosedFormSolution(xi, 0.0, 1.0)
    u_dec = DiscreteField.sample(grid, dec.displacement)
    hi = rmax / 4.0
    n_pts = max(5, 2 * int(np.log2(max(hi / 2.0, 2.0))) + 1)
    ladder = np.geomspace(2.0, hi, n_pts)
    fit = decay_exponent_fit(u_dec, radii=ladder)
    prof = energy_profiles(u_dec)
    gam = gamma_exponent(fld.mu0, fld.mue)
    rep = growth_monotonicity_check(prof, gam)

    eps = epsilon(xi)
    out["verdicts"] += [
        _verdict("closed_form_l2_error", "residual", l2, 1e-3),
        _verdict("decay_exponent", "epsilon", fit.alpha, 0.02, abs(fit.alpha - eps) <= 0.02),
        _verdict("tail_monotonicity", "gamma", rep.worst_q_violation, rep.tolerance, rep.q_ok),
    ]
    out["condition_numbers"]["grading_ratio"] = grid.ratio
    pts = grid.node_points().reshape(-1, 2)
    rr = np.linalg.norm(pts, axis=-1)
    tt = np.arctan2(pts[:, 1], pts[:, 0])
    out["files"]["solution.csv"] = (
        ["r", "theta", "u1", "u2", "u1_exact", "u2_exact"],
        [rr, tt, *oracle.solution.values.reshape(-1, 2).T, *oracle.exact.values.reshape(-1, 2).T],
    )
    out["files"]["profiles.csv"] = (["R", "G", "Q"], [prof.radii, prof.G, prof.Q])


def _run_decay(spec: dict, out: dict):
    from . import bem

    curve = spec["curve"]
    psi_star = bem.zero_total_density(curve, np.random.default_rng(spec["seed"]))
    op = bem.assemble_single_layer(curve, spec["material"])
    sol = bem.solve_dirichlet(op, op.apply(psi_star))

    dist = np.linalg.norm(bem.evaluate(sol, _DECAY_POINTS) - sol.kappa, axis=-1).max(axis=-1)
    # the r^-2 term still bends the log-log line out to r ~ 100 (slopes off
    # by 0.07 on a 2x1 ellipse): fit the outer three radii, r >= 316
    slope = float(np.polyfit(np.log(_DECAY_RADII[6:]), np.log(dist[6:]), 1)[0])
    kap = float(np.abs(sol.kappa).max())
    out["verdicts"] += [
        _verdict("far_field_slope", "alpha", slope, 0.05, abs(slope + 1.0) <= 0.05),
        _verdict("kappa_recovery", "kappa", kap, 1e-8),
    ]
    out["condition_numbers"]["augmented_system"] = sol.cond
    out["files"]["decay.csv"] = (["r", "dist"], [_DECAY_RADII, dist])


def _run_contraction(spec: dict, out: dict):
    from .annulus import VariationalProblem, bump_force, contraction_solve
    from .degiorgi import restricted_tensor
    from .tensors import random_scalar_field

    rmax, grid = spec["rmax"], spec["grid"]
    rng = np.random.default_rng(spec["seed"])
    if spec["material"] is not None:
        fld = spec["material"]
    elif spec["contrast_bounds"] is not None:
        fld = random_scalar_field(*spec["contrast_bounds"], rng)
    else:
        fld = restricted_tensor(spec["xi"], 2.0, max(rmax / 4.0, 4.0))
    amp = rng.normal(size=4)        # drawn after the material's coefficients

    prob = VariationalProblem(field=fld, inner_data=None, outer_kind="dirichlet",
                              force=bump_force(amp, rmax))
    _, rep = contraction_solve(prob, grid)
    lo, hi = fld.lin_bounds_pair
    bound = (hi - lo) / hi
    out["verdicts"] += [
        _verdict("worst_contraction_factor", "residual", rep.worst_factor,
                 max(bound * 1.05, 0.5)),
        _verdict("direct_solver_agreement", "residual", rep.direct_agreement, 1e-4),
        _verdict("converged", "residual", float(rep.converged), 1.0, rep.converged),
    ]
    out["condition_numbers"]["contrast_bound"] = bound
    iters = np.arange(1, rep.factors.size + 1, dtype=float)
    out["files"]["factors.csv"] = (["iteration", "factor"], [iters, rep.factors])


def _run_gym(spec: dict, out: dict):
    from . import inequalities

    rng = np.random.default_rng(spec["seed"])
    checks = tuple(inequalities.TRIALS) if spec["check"] == "all" else (spec["check"],)
    rows = []
    for name in checks:
        for k in range(spec["trials"]):
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


# Each experiment's runner and the ExperimentConfig fields it reads, each with
# the parser of its grammar: the one statement of what an experiment takes.
# The parser, validation and the report's config echo all derive from it.
# Fields are listed in the order they are parsed: a parser reads the fields
# before it (curve reads nodes, data reads curve, grid reads rmax).
_BOUNDARY = {"nodes": _parse_nodes, "curve": _parse_curve, "material": _parse_material}
_ANNULUS = {"xi": _parse_xi, "rmax": _parse_rmax, "grid": _parse_grid}
_EXPERIMENTS = {
    "paradox": (_run_paradox, {**_BOUNDARY, "data": _parse_data}),
    "basis": (_run_basis, _BOUNDARY),
    "degiorgi": (_run_degiorgi, _ANNULUS),
    "decay": (_run_decay, {**_BOUNDARY, "curve": _parse_decay_curve, "seed": _parse_seed}),
    "contraction": (_run_contraction, {**_ANNULUS, "contrast_bounds": _parse_bounds,
                                       "material": _parse_table, "seed": _parse_seed}),
    "gym": (_run_gym, {"check": _parse_check, "trials": _parse_trials, "seed": _parse_seed}),
}


_FIELDS = {f.name: f for f in dataclasses.fields(ExperimentConfig)}


def _field_type(name: str) -> type:
    """int, float or str: the type that the annotation of an ExperimentConfig
    field names first (str for any other)."""
    return {"int": int, "float": float}.get(_FIELDS[name].type.split()[0], str)


def _has_type(name: str, value) -> bool:
    """Whether value fits the annotation of the field: an int for int (any
    integer, not a bool), a real number for float, None only where the
    annotation allows it."""
    if value is None:
        return "None" in _FIELDS[name].type
    typ = {int: numbers.Integral, float: numbers.Real}.get(_field_type(name), str)
    return isinstance(value, typ) and not isinstance(value, bool)


def _parse(cfg: ExperimentConfig) -> tuple[dict, list[str]]:
    """The built value of each field the experiment reads (the BoundaryCurve
    for curve, the PolarGrid for grid, the nodal array for data, the field of
    a table: material; None for a contraction material source the run does
    not use), and the run's notes; raises ConfigInvalid with a field-precise
    message.  cfg is left as it is."""
    if cfg.kind not in _EXPERIMENTS:
        raise ConfigInvalid(f"kind: unknown experiment {cfg.kind!r}")
    reads = _EXPERIMENTS[cfg.kind][1]
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if f.name not in (*reads, "kind", "outdir", "notes") and value != f.default:
            raise ConfigInvalid(f"{f.name}: {cfg.kind} does not read it, got {value!r}")
    for name in reads:
        if not _has_type(name, getattr(cfg, name)):
            raise ConfigInvalid(f"{name}: expected {_field_type(name).__name__}, "
                                f"got {getattr(cfg, name)!r}")
    notes = list(cfg.notes)
    spec = {}
    for name, parse in reads.items():
        spec[name] = parse(getattr(cfg, name), spec, notes)
    if cfg.kind == "contraction":
        # one material source: a table, a random field or the restricted
        # counter-example tensor of xi (the default)
        given = [f for f in ("material", "contrast_bounds", "xi")
                 if spec[f] is not None and getattr(cfg, f) != getattr(ExperimentConfig, f)]
        if len(given) > 1:
            raise ConfigInvalid(f"{', '.join(given)}: contraction takes one material source, "
                                "a table:<csv> material, contrast_bounds or xi")
        for f in ("material", "contrast_bounds", "xi"):
            if f != (given or ["xi"])[0]:
                spec[f] = None
        if spec["material"] is not None:
            spec["material"] = _table_material(spec["material"])
    return spec, notes


def validate(cfg: ExperimentConfig) -> list[str]:
    """The run's notes, or ConfigInvalid with a field-precise message: every
    input the run reads is built, file: data and table: materials read, and
    nothing is written."""
    return _parse(cfg)[1]


def run(cfg: ExperimentConfig) -> RunReport:
    """Validate, execute, and serialize one experiment; returns the report."""
    from . import __version__

    spec, notes = _parse(cfg)
    t0 = time.perf_counter()
    out = {"verdicts": [], "condition_numbers": {}, "files": {}}
    with warnings.catch_warnings():
        # the curve parser notes a curve that is not smooth
        warnings.simplefilter("ignore", CurveNotSmooth)
        _EXPERIMENTS[cfg.kind][0](spec, out)

    outdir = os.path.join(cfg.outdir, cfg.kind)
    written = [_write_csv(os.path.join(outdir, fname), header, cols)
               for fname, (header, cols) in out["files"].items()]

    report = RunReport(
        config={"kind": cfg.kind,
                **{f: None if v is None else getattr(cfg, f) for f, v in spec.items()}},
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
    for kind, (_, reads) in _EXPERIMENTS.items():
        sp = sub.add_parser(kind)
        for name in (*reads, "outdir"):
            sp.add_argument("--" + name.replace("_", "-"), dest=name, type=_field_type(name))
    return p


def _config(argv) -> ExperimentConfig:
    """The config a command line gives, with defaults for options left out."""
    args = _build_parser().parse_args(argv)
    return ExperimentConfig(**{k: v for k, v in vars(args).items() if v is not None})


def main(argv=None) -> int:
    cfg = _config(argv)
    try:
        report = run(cfg)
    except ConfigInvalid as exc:
        print(f"stokes-lab: configuration error: {exc}", file=sys.stderr)
        return 1
    except StokesLabError as exc:
        # a solver error on a valid config (NotContracting, SingularSystem, ...)
        print(f"stokes-lab: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    print(report.to_json(), end="")
    return 0 if report.ok() else 2


if __name__ == "__main__":
    raise SystemExit(main())
