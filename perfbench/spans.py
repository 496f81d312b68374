"""Per-layer spans around stokes_lab, installed from outside the library.

`Tracer.install()` replaces module and class attributes of stokes_lab with
wrappers that record one span per call: layer name, start, end, parent span
and pass id, plus the work counts of that call (kernel pairs, LU flops, bytes
written, ...).  `uninstall()` puts the originals back.  Spans stay in memory;
the worker writes them out when its run ends.

A target that no longer exists (renamed or deleted by a refactor) is recorded
as absent and its layer reports zeros; tracing never fails because of it.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import itertools
import statistics
import time
import types

import numpy as np


def _pairs(_self, d, *_a, **_k):
    return {"pairs": int(np.prod(np.shape(d)[:-1]))}


def _lu_flops(a, *_a, **_k):
    n = np.shape(a)[0]
    return {"gflop": 2.0 * n**3 / 3.0 / 1e9}


def _text_bytes(_path, text, *_a, **_k):
    return {"bytes": len(text.encode())}


def _points(_self, points, *_a, **_k):
    return {"points": int(np.prod(np.shape(points)[:-1]))}


def _matrix_key(_grid, action_qp, *_a, **_k):
    # distinct material actions give distinct stiffness matrices on one grid;
    # every 61st cell tells the materials apart and keeps the hashing cheap
    sample = np.ascontiguousarray(np.asarray(action_qp)[::61])
    digest = hashlib.blake2b(sample.tobytes(), digest_size=16)
    return {"matrix": digest.hexdigest()}


def _sparse_shape(a, *_a, **_k):
    return {"ndof": int(a.shape[0]), "nnz": int(a.nnz)}


def _iterations(result):
    return {"iterations": int(result[1].n_iter)}


# (layer, module, attribute path, counts from the arguments, counts from the result)
TARGETS = [
    ("cli.run", "stokes_lab.cli", "run", None, None),
    ("cli.write", "stokes_lab.cli", "_write_csv", None, None),
    ("cli.write", "stokes_lab.cli", "_write_atomic", _text_bytes, None),
    ("curves.build", "stokes_lab.curves", "BoundaryCurve.__init__", None, None),
    ("kelvin.angular_part", "stokes_lab.kelvin", "FundamentalSolution.angular_part", None, None),
    ("kelvin.kernel", "stokes_lab.kelvin", "FundamentalSolution.__call__", _pairs, None),
    ("kelvin.kernel_gradient", "stokes_lab.kelvin", "FundamentalSolution.gradient", _pairs, None),
    ("bem.assemble", "stokes_lab.bem", "assemble_single_layer", None, None),
    ("bem.dense_lu", "stokes_lab.bem", "lu_factor", _lu_flops, None),
    ("bem.cond_estimate", "stokes_lab.bem", "_cond_estimate", None, None),
    ("bem.equilibrium_basis", "stokes_lab.bem", "equilibrium_basis", None, None),
    ("bem.solve_dirichlet", "stokes_lab.bem", "solve_dirichlet", None, None),
    ("bem.evaluate", "stokes_lab.bem", "evaluate", None, None),
    ("bem.evaluate_gradient", "stokes_lab.bem", "evaluate_gradient", None, None),
    ("polar.quadrature", "stokes_lab.polar", "PolarGrid._quadrature", None, None),
    ("polar.gradient_at_qp", "stokes_lab.polar", "DiscreteField.gradient_at_qp", None, None),
    ("tensors.field_action", "stokes_lab.tensors", "ElasticityField.__call__", _points, None),
    ("annulus.assemble", "stokes_lab.annulus", "_assemble_stiffness", _matrix_key, None),
    ("annulus.solve", "stokes_lab.annulus", "solve_annulus", None, None),
    ("annulus.solve", "stokes_lab.annulus", "contraction_solve", None, _iterations),
    # scipy is wrapped only as annulus reaches it, through a proxy of its `spla`
    ("annulus.sparse_lu", "stokes_lab.annulus", "spla.spsolve", _sparse_shape, None),
    ("annulus.sparse_lu", "stokes_lab.annulus", "spla.factorized", _sparse_shape, None),
    ("annulus.diagnostics", "stokes_lab.annulus", "energy_profiles", None, None),
    ("annulus.diagnostics", "stokes_lab.annulus", "growth_monotonicity_check", None, None),
    ("annulus.diagnostics", "stokes_lab.annulus", "decay_exponent_fit", None, None),
]

# the solver that `factorized` returns is wrapped too, so back-solves are counted
BACKSOLVE = "annulus.backsolve"
RESULT_LAYERS = {"spla.factorized": BACKSOLVE}

LAYERS = sorted({t[0] for t in TARGETS} | {BACKSOLVE})

# per-layer metrics and their units, in report order
METRICS = {
    "cli.run.s": "s",
    "cli.write.s": "s",
    "cli.write.bytes": "B",
    "curves.build.s": "s",
    "kelvin.angular_part.s": "s",
    "kelvin.angular_part.calls": "count",
    "kelvin.kernel.s": "s",
    "kelvin.kernel_gradient.s": "s",
    "kelvin.pairs": "count",
    "bem.assemble.s": "s",
    "bem.dense_lu.s": "s",
    "bem.dense_lu.calls": "count",
    "bem.dense_lu.gflop": "GFLOP",
    "bem.cond_estimate.s": "s",
    "bem.equilibrium_basis.s": "s",
    "bem.solve_dirichlet.s": "s",
    "bem.problems_per_lu": "1",
    "bem.evaluate.s": "s",
    "bem.evaluate_gradient.s": "s",
    "polar.quadrature.s": "s",
    "polar.gradient_at_qp.s": "s",
    "polar.gradient_at_qp.calls": "count",
    "tensors.field_action.s": "s",
    "tensors.field_action.points": "count",
    "annulus.assemble.s": "s",
    "annulus.assemble.calls": "count",
    "annulus.matrices_per_assembly": "1",
    "annulus.solve.s": "s",
    "annulus.sparse_lu.s": "s",
    "annulus.sparse_lu.calls": "count",
    "annulus.ndof_free": "count",
    "annulus.nnz": "count",
    "annulus.backsolve.s": "s",
    "annulus.backsolve.calls": "count",
    "annulus.iterations": "count",
    "annulus.diagnostics.s": "s",
    "bench.unattributed.s": "s",
    "trace.overhead_s": "s",
}


class _Proxy:
    """Stands in for a foreign module inside one stokes_lab module; attributes
    not set on the proxy are read from the module."""

    def __init__(self, module):
        self._module = module

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self.pass_id: int | None = None
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------------

    def wrap(self, layer, fn, counts_in=None, counts_out=None, result_layer=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts = counts_in(*args, **kwargs) if counts_in else {}
            sid = next(tracer._ids)
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append({"id": sid, "name": layer, "start": start, "end": end,
                                     "parent": parent, "pass": tracer.pass_id,
                                     "counts": counts})
            if counts_out:
                counts.update(counts_out(result))
            if result_layer:
                return tracer.wrap(result_layer, result)
            return result

        return traced

    # -- installation ---------------------------------------------------------

    def install(self):
        """Wrap every target that exists; record the ones that do not."""
        absent = set()
        for layer, module_name, path, counts_in, counts_out in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *owners, attr = path.split(".")
                for name in owners:
                    child = getattr(owner, name)
                    if isinstance(child, types.ModuleType):
                        child = _Proxy(child)
                        self._set(owner, name, child)
                    owner = child
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                absent.add(f"{layer} ({module_name}.{path})")
                continue
            self._set(owner, attr, self.wrap(layer, fn, counts_in, counts_out,
                                             RESULT_LAYERS.get(path)))
        self.absent = sorted(absent)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__.get(attr, _MISSING)
                           if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)

    # -- per-layer figures ----------------------------------------------------

    def pass_metrics(self, pass_id: int, pass_s: float) -> dict:
        """Self seconds, calls and counts of each layer within one pass."""
        spans = [s for s in self.spans if s["pass"] == pass_id]
        child_s = {}
        for s in spans:
            if s["parent"] is not None:
                child_s[s["parent"]] = child_s.get(s["parent"], 0.0) + s["end"] - s["start"]
        self_s = {layer: 0.0 for layer in LAYERS}
        calls = {layer: 0 for layer in LAYERS}
        totals: dict[str, float] = {}
        keys = set()
        ndof = nnz = 0
        root_s = 0.0
        for s in spans:
            dur = s["end"] - s["start"]
            self_s[s["name"]] += dur - child_s.get(s["id"], 0.0)
            calls[s["name"]] += 1
            if s["parent"] is None:
                root_s += dur
            c = s["counts"]
            for k in ("pairs", "gflop", "bytes", "points", "iterations"):
                if k in c:
                    totals[k] = totals.get(k, 0) + c[k]
            if "matrix" in c:
                keys.add(c["matrix"])
            ndof = max(ndof, c.get("ndof", 0))
            nnz = max(nnz, c.get("nnz", 0))

        m = {f"{layer}.s": self_s[layer] for layer in LAYERS}
        m.update({
            "cli.write.bytes": totals.get("bytes", 0),
            "kelvin.angular_part.calls": calls["kelvin.angular_part"],
            "kelvin.pairs": totals.get("pairs", 0),
            "bem.dense_lu.calls": calls["bem.dense_lu"],
            "bem.dense_lu.gflop": totals.get("gflop", 0.0),
            # one assembled operator is one (curve, material) boundary problem
            "bem.problems_per_lu": _ratio(calls["bem.assemble"], calls["bem.dense_lu"]),
            "polar.gradient_at_qp.calls": calls["polar.gradient_at_qp"],
            "tensors.field_action.points": totals.get("points", 0),
            "annulus.assemble.calls": calls["annulus.assemble"],
            "annulus.matrices_per_assembly": _ratio(len(keys), calls["annulus.assemble"]),
            "annulus.sparse_lu.calls": calls["annulus.sparse_lu"],
            "annulus.ndof_free": ndof,
            "annulus.nnz": nnz,
            "annulus.backsolve.calls": calls[BACKSOLVE],
            "annulus.iterations": totals.get("iterations", 0),
            "bench.unattributed.s": pass_s - root_s,
        })
        return {k: m[k] for k in METRICS if k in m}

    def layer_medians(self, traced: list[tuple[int, float]], untraced_s: list[float]) -> dict:
        per_pass = [self.pass_metrics(pid, secs) for pid, secs in traced]
        out = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
        out["trace.overhead_s"] = (statistics.median(s for _, s in traced)
                                   - statistics.median(untraced_s))
        return out


_MISSING = object()


def _ratio(num, den) -> float:
    return num / den if den else 0.0
