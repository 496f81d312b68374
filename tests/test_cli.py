import itertools
import json
import os
import pkgutil
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stokes_lab
from stokes_lab import cli
from stokes_lab.cli import ExperimentConfig, main, run, validate
from stokes_lab.errors import ConfigInvalid

# the config fields each experiment reads, written out independently of cli
READS = {
    "paradox": {"curve", "material", "nodes", "data"},
    "basis": {"curve", "material", "nodes"},
    "degiorgi": {"xi", "grid", "rmax"},
    "decay": {"curve", "material", "nodes", "seed"},
    "contraction": {"xi", "grid", "rmax", "contrast_bounds", "material", "seed"},
    "gym": {"check", "trials", "seed"},
}
# a valid value other than the default for every experiment input
NON_DEFAULT = {"curve": "ellipse:2,1", "material": "iso:2,1", "data": "tangent", "nodes": 64,
               "xi": 3.0, "grid": "32x64", "rmax": 32.0, "check": "korn", "trials": 5,
               "contrast_bounds": "1,2", "seed": 1}
UNREAD = [(kind, f) for kind, reads in READS.items() for f in NON_DEFAULT if f not in reads]


def seeded(kind: str, **fields) -> ExperimentConfig:
    return ExperimentConfig(kind=kind, **({"seed": 1} if "seed" in READS[kind] else {}), **fields)


class TestValidate:
    def test_seed_mandatory_for_randomized(self):
        for kind in ("gym", "decay", "contraction"):
            with pytest.raises(ConfigInvalid, match="seed"):
                validate(ExperimentConfig(kind=kind))

    def test_ellipse_axes_normalized_with_note(self):
        cfg = ExperimentConfig(kind="paradox", curve="ellipse:1,2")
        notes = validate(cfg)
        assert any("normalized" in n for n in notes)

    def test_xi_zero_rejected(self):
        with pytest.raises(ConfigInvalid, match="xi"):
            validate(ExperimentConfig(kind="degiorgi", xi=0.0))

    @pytest.mark.parametrize("kind, field, value", [
        ("paradox", "curve", "circle:nan"), ("basis", "curve", "ellipse:2,inf"),
        ("paradox", "material", "iso:nan,1"), ("paradox", "data", "fourier:1,nan"),
        ("degiorgi", "xi", float("nan")), ("degiorgi", "rmax", float("inf")),
        ("contraction", "contrast_bounds", "1,inf"),
        ("paradox", "material", "iso:0,1e-200"), ("basis", "material", "iso:1e-200,1e-200"),
        ("decay", "material", "iso:0,1e-170"), ("paradox", "material", "iso:1e300,1e300"),
    ])
    def test_non_finite_numbers_rejected(self, kind, field, value):
        """A non-finite number in a spec is a configuration error, not a
        failure deep in the run (circle:nan raised ValueError from the curve,
        xi = nan InvalidBounds); so is a material whose Kelvin denominator
        4 pi mu (lambda + 2 mu) under- or overflows (it divided by zero, or
        ended in SingularSystem)."""
        with pytest.raises(ConfigInvalid, match=field):
            validate(seeded(kind, **{field: value}))

    def test_unknown_kind(self):
        with pytest.raises(ConfigInvalid, match="kind"):
            validate(ExperimentConfig(kind="frobnicate"))

    def test_bad_grid(self):
        with pytest.raises(ConfigInvalid, match="grid"):
            validate(ExperimentConfig(kind="degiorgi", grid="banana"))

    @pytest.mark.parametrize("grid, match", [
        ("16x32", r"grid: geometric grading ratio 1\.3195 outside \[1, 1\.2\]"),
        ("2x32", "grid: need at least 3 radial nodes"),
        ("24x31", "grid: n_theta must be even and >= 8"),
    ], ids=["graded", "rings", "angles"])
    @pytest.mark.parametrize("kind", ["degiorgi", "contraction"])
    def test_grid_rejected_by_polar_grid_rule(self, kind, grid, match):
        """grid and rmax must make a PolarGrid (grading ratio at most 1.2 at
        the default rmax 64): validate reports what run would crash on."""
        with pytest.raises(ConfigInvalid, match=match):
            validate(seeded(kind, grid=grid))

    def test_bad_nodes(self):
        with pytest.raises(ConfigInvalid, match="nodes"):
            validate(ExperimentConfig(kind="paradox", nodes=17))

    def test_degiorgi_material_rejected_for_boundary_runs(self):
        with pytest.raises(ConfigInvalid, match="material"):
            validate(ExperimentConfig(kind="paradox", material="degiorgi:2"))

    def test_table_material_with_contrast_bounds_rejected(self):
        with pytest.raises(ConfigInvalid, match="material, contrast_bounds"):
            validate(ExperimentConfig(kind="contraction", material="table:scales.csv",
                                      contrast_bounds="1,1.2", seed=1))
        validate(ExperimentConfig(kind="contraction", contrast_bounds="1,1.2", seed=1))

    def test_contraction_rejects_unused_material(self, tmp_path, capsys):
        """contraction reads no iso: material, so naming one is an error, not
        a silent run of the counter-example tensor."""
        with pytest.raises(ConfigInvalid, match="material"):
            validate(ExperimentConfig(kind="contraction", material="iso:5,3", seed=1))
        table = tmp_path / "scales.csv"
        table.write_text("r,theta,scale\n2,0,1\n3,1,1.5\n")
        for material in ("", ExperimentConfig.material, f"table:{table}"):
            validate(ExperimentConfig(kind="contraction", material=material, seed=1))
        code = main(["contraction", "--material", "iso:5,3", "--grid", "24x48", "--rmax", "24",
                     "--seed", "1", "--outdir", str(tmp_path)])
        assert code == 1
        assert "material:" in capsys.readouterr().err
        assert not (tmp_path / "contraction").exists()

    @pytest.mark.parametrize("kind, field, spec, text", [
        ("paradox", "data", "const:1e308,0", None),
        ("paradox", "data", "file:{path}", None),
        ("paradox", "data", "file:{path}", "u1,u2\n1,0\n2,0\n"),
        ("contraction", "material", "table:{path}", None),
        ("contraction", "material", "table:{path}", "r,theta\n2,0\n3,1\n"),
        ("contraction", "material", "table:{path}", "r,theta,scale\n2,0,1\n3,1,0\n"),
        ("decay", "curve", "circle:20", None),
    ], ids=["overflowing-data", "missing-file", "file-shape", "missing-table", "table-columns",
            "table-scale", "decay-curve-beyond-samples"])
    def test_refuses_what_run_refuses(self, kind, field, spec, text, tmp_path):
        """validate builds every input the run reads, reading file: data and
        table: materials, so each of these is refused naming its field (each
        passed validation and was refused only by the run)."""
        path = tmp_path / "input.csv"
        if text is not None:
            path.write_text(text)
        with pytest.raises(ConfigInvalid) as exc:
            validate(seeded(kind, **{field: spec.format(path=path)}))
        assert str(exc.value).startswith(f"{field}: ")

    @pytest.mark.parametrize("kind, field, extra", [(k, f, {}) for k, f in UNREAD] + [
        ("contraction", "xi", {"contrast_bounds": "1,2"}),
        ("contraction", "xi", {"material": "table:scales.csv"}),
    ], ids=[f"{k}-{f}" for k, f in UNREAD] + ["contraction-xi-bounds", "contraction-xi-table"])
    def test_unread_field_rejected(self, kind, field, extra):
        """A field the experiment does not read, or contraction's xi beside
        another material source, is a configuration error naming the field."""
        assert len(UNREAD) == 43
        with pytest.raises(ConfigInvalid) as exc:
            validate(seeded(kind, **{field: NON_DEFAULT[field]}, **extra))
        assert field in str(exc.value).partition(":")[0].split(", ")

    @pytest.mark.parametrize("kind, field, value", [
        ("gym", "trials", "5"), ("gym", "seed", 1.5), ("gym", "seed", True),
        ("degiorgi", "grid", 64), ("degiorgi", "rmax", "64"), ("paradox", "nodes", 64.0),
        ("contraction", "contrast_bounds", None),
    ])
    def test_wrong_type_rejected(self, kind, field, value):
        """A Python-API value of the wrong type for a read field is a
        configuration error at validation, not a TypeError in a rule or in
        the run (trials="5" failed the trials rule, seed=1.5 SeedSequence)."""
        cfg = seeded(kind)
        setattr(cfg, field, value)
        with pytest.raises(ConfigInvalid, match=f"{field}: expected"):
            validate(cfg)

    def test_numbers_of_either_kind_accepted(self):
        validate(ExperimentConfig(kind="degiorgi", rmax=64, xi=np.float64(2.0)))
        validate(ExperimentConfig(kind="gym", seed=np.int64(3), trials=5))

    @pytest.mark.parametrize("data", ["bogus:1", "fourier:1,x", "const:1", "tangent:2", "file:"])
    def test_bad_data_rejected(self, data):
        with pytest.raises(ConfigInvalid, match="data"):
            validate(ExperimentConfig(kind="paradox", data=data))

    def test_readme_examples_validate(self):
        """Every command line of README's usage block parses and validates."""
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        lines = [line for line in readme.splitlines() if line.startswith("stokes-lab ")]
        assert {shlex.split(line)[1] for line in lines} == set(READS)
        for line in lines:
            validate(cli._config(shlex.split(line)[1:]))

    def test_options_are_the_fields_read(self):
        """Each subcommand takes --outdir and one option per field it reads,
        and no option sets a default of its own."""
        for kind, reads in READS.items():
            for field in NON_DEFAULT:
                argv = [kind, "--" + field.replace("_", "-"), str(NON_DEFAULT[field])]
                if field in reads:
                    assert getattr(cli._config(argv), field) == NON_DEFAULT[field]
                else:
                    with pytest.raises(SystemExit):
                        cli._config(argv)
            assert cli._config([kind]) == ExperimentConfig(kind=kind)

    def test_pure(self):
        for cfg in (ExperimentConfig(kind="paradox"),
                    ExperimentConfig(kind="basis", curve="ellipse:1,2")):
            assert validate(cfg) == validate(cfg)
            assert cfg.notes == []


class TestRuns:
    def test_paradox_constant_data(self, tmp_path):
        cfg = ExperimentConfig(
            kind="paradox", curve="circle:1", material="iso:1,1",
            data="const:1,0", nodes=128, outdir=str(tmp_path),
        )
        rep = run(cfg)
        assert rep.ok()
        verd = {v["name"]: v for v in rep.verdicts}
        assert np.linalg.norm(verd["paradox_residual"]["value"]) > 1e-3
        assert np.allclose(verd["kappa"]["value"], [1.0, 0.0], atol=1e-9)
        assert (tmp_path / "paradox" / "psi.csv").exists()
        assert (tmp_path / "paradox" / "report.json").exists()
        # every verdict carries its tolerance
        assert all("tolerance" in v for v in rep.verdicts)

    def test_basis_ellipse(self, tmp_path):
        cfg = ExperimentConfig(
            kind="basis", curve="ellipse:2,1", nodes=128, outdir=str(tmp_path)
        )
        rep = run(cfg)
        assert rep.ok()
        header = (tmp_path / "basis" / "basis.csv").read_text().splitlines()[0]
        assert header.startswith("t,w,psi1_x")
        assert "grad_f_norm" in header

    def test_degiorgi_small(self, tmp_path):
        cfg = ExperimentConfig(
            kind="degiorgi", xi=2.0, grid="32x64", rmax=48.0, outdir=str(tmp_path)
        )
        rep = run(cfg)
        verd = {v["name"]: v for v in rep.verdicts}
        assert verd["decay_exponent"]["quantity"] == "epsilon"
        assert abs(verd["decay_exponent"]["value"] - 1 / np.sqrt(2)) < 0.02
        assert (tmp_path / "degiorgi" / "profiles.csv").exists()

    def test_gym_exit_paths(self, tmp_path):
        cfg = ExperimentConfig(kind="gym", check="wirtinger", trials=25, seed=7,
                               outdir=str(tmp_path))
        rep = run(cfg)
        assert rep.ok()
        lines = (tmp_path / "gym" / "trials.csv").read_text().splitlines()
        assert lines[0] == "check,trial,lhs,rhs,ok"
        assert len(lines) == 26

    def test_gym_failure_dumps_offending_field(self, tmp_path, monkeypatch):
        import stokes_lab.inequalities as ineq

        monkeypatch.setattr(
            ineq, "wirtinger_check",
            lambda u, radius=1.0: ineq.Trial(u, lhs=2.0, rhs=1.0, ok=False),
        )
        rep = run(ExperimentConfig(kind="gym", check="wirtinger", trials=2, seed=1,
                                   outdir=str(tmp_path)))
        assert not rep.ok()
        dumps = list((tmp_path / "gym").glob("failure_wirtinger_*.csv"))
        assert len(dumps) == 2
        assert dumps[0].read_text().startswith("sample\n")

    def test_csv_writer_matches_per_cell_format(self, tmp_path):
        """The one-`%` table formatting writes the bytes of a per-cell
        f"{float(x):.17g}" (str for string columns), edge values included."""
        from stokes_lab.cli import _write_csv

        header = ["name", "n", "flag", "x", "y"]
        columns = [
            ["a", "bb", "c", "dd", "e"],
            np.arange(5),
            [True, False, True, True, False],
            np.array([-0.0, 5e-324, 1e308, -1.5e-7, 0.1]),
            [1, 2.5, np.float64(1 / 3), -7, 2**60 + 1],
        ]
        rows = zip(*columns)
        expect = ",".join(header) + "\n" + "".join(
            ",".join(v if isinstance(v, str) else f"{float(v):.17g}" for v in row) + "\n"
            for row in rows
        )
        path = tmp_path / "t.csv"
        _write_csv(str(path), header, columns)
        assert path.read_bytes() == expect.encode()

        _write_csv(str(path), ["r", "dist"], [np.array([]), []])
        assert path.read_bytes() == b"r,dist\n"

    @staticmethod
    def one_percent_table(header, columns) -> bytes:
        """The whole table formatted by one `%`: the reference for the
        streamed writer."""
        cells, specs = [], []
        for col in columns:
            text = len(col) > 0 and isinstance(col[0], str)
            cells.append(list(col) if text else np.asarray(col, dtype=float).tolist())
            specs.append("%s" if text else "%.17g")
        n_rows = len(cells[0]) if cells else 0
        body = (",".join(specs) + "\n") * n_rows % tuple(
            itertools.chain.from_iterable(zip(*cells)))
        return (",".join(header) + "\n" + body).encode()

    @pytest.mark.parametrize("n_rows", [0, 1, cli._CSV_BLOCK_ROWS, cli._CSV_BLOCK_ROWS + 1])
    def test_streamed_csv_matches_one_percent_table(self, n_rows, tmp_path):
        """Written by blocks of rows, a table has the bytes of one `%` over
        the whole of it: a text column, gym's trial and boolean ok columns,
        and floats that cycle through signed zero, the least subnormal,
        huge values, nan and both infinities."""
        rng = np.random.default_rng(0)
        special = [-0.0, 5e-324, 1e308, float("nan"), float("inf"), -float("inf"), 0.1]
        header = ["check", "trial", "x", "y", "ok"]
        columns = [
            tuple(("wirtinger", "hardy", "korn")[k % 3] for k in range(n_rows)),
            list(range(n_rows)),
            np.array([special[k % len(special)] for k in range(n_rows)]),
            rng.normal(size=n_rows) * 10.0 ** rng.integers(-300, 300, size=n_rows),
            [bool(k % 2) for k in range(n_rows)],
        ]
        path = tmp_path / "t.csv"
        cli._write_csv(str(path), header, columns)
        assert path.read_bytes() == self.one_percent_table(header, columns)
        assert os.listdir(tmp_path) == ["t.csv"]

    def test_failed_csv_write_leaves_the_old_file(self, tmp_path):
        """A table that fails to format mid-stream removes its temporary file
        and leaves the file it would have replaced as it was."""
        path = tmp_path / "t.csv"
        path.write_text("old\n")
        ragged = [np.zeros(cli._CSV_BLOCK_ROWS + 1), np.zeros(cli._CSV_BLOCK_ROWS)]
        with pytest.raises(TypeError):
            cli._write_csv(str(path), ["a", "b"], ragged)
        assert path.read_text() == "old\n" and os.listdir(tmp_path) == ["t.csv"]

    def test_csv_write_memory_is_one_block(self, tmp_path):
        """Writing a 32768 x 6 float table holds one block's text and Python
        floats: 1.8 MB traced here, where the whole-table `%` held 18 MB."""
        import tracemalloc

        columns = list(np.random.default_rng(1).normal(size=(6, 32768)))
        header = [f"c{k}" for k in range(6)]
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            cli._write_csv(str(tmp_path / "t.csv"), header, columns)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 2.5e6, f"_write_csv peaked {peak / 1e6:.2f} MB above its input"

    def test_determinism_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            run(ExperimentConfig(kind="gym", check="all", trials=10, seed=3,
                                 outdir=str(out)))
            run(ExperimentConfig(kind="decay", curve="circle:1", nodes=64, seed=5,
                                 outdir=str(out)))
            run(ExperimentConfig(kind="contraction", contrast_bounds="1,1.5", grid="24x48",
                                 rmax=24.0, seed=7, outdir=str(out)))
        for kind, name in (("gym", "trials.csv"), ("decay", "decay.csv"),
                           ("contraction", "factors.csv")):
            assert (out1 / kind / name).read_bytes() == (out2 / kind / name).read_bytes()

    def test_reused_config_reports_one_note(self, tmp_path):
        cfg = ExperimentConfig(kind="basis", curve="ellipse:1,2", nodes=64, outdir=str(tmp_path))
        for _ in range(2):
            assert len(run(cfg).notes) == 1

    def test_decay_slope(self, tmp_path):
        """The 2x1 ellipse at seeds 67 and 111 is solved correctly, but a fit
        from r = 10 read the r^-2 term's bend as a slope off by more than 0.05."""
        for curve, nodes, seed in (("circle:1", 128, 11), ("ellipse:2,1", 256, 67),
                                   ("ellipse:2,1", 256, 111)):
            rep = run(ExperimentConfig(kind="decay", curve=curve, nodes=nodes, seed=seed,
                                       outdir=str(tmp_path)))
            verd = {v["name"]: v for v in rep.verdicts}
            assert verd["far_field_slope"]["quantity"] == "alpha"
            assert abs(verd["far_field_slope"]["value"] + 1.0) <= 0.05, (curve, seed)
            assert rep.ok()

    def test_decay_slope_fails_slower_decay(self, tmp_path, monkeypatch):
        """Control: distances that decay like r^-1/2 fail the verdict."""
        from stokes_lab import bem

        monkeypatch.setattr(bem, "evaluate", lambda sol, pts: sol.kappa + np.linalg.norm(
            pts, axis=-1, keepdims=True) ** -0.5)
        rep = run(ExperimentConfig(kind="decay", nodes=64, seed=11, outdir=str(tmp_path)))
        verd = {v["name"]: v for v in rep.verdicts}
        assert verd["far_field_slope"]["value"] == pytest.approx(-0.5)
        assert not verd["far_field_slope"]["pass"]

    def test_contraction_run(self, tmp_path):
        rep = run(ExperimentConfig(kind="contraction", xi=6.0, grid="24x48", rmax=24.0,
                                   seed=2, outdir=str(tmp_path)))
        assert rep.ok()
        verd = {v["name"]: v for v in rep.verdicts}
        assert verd["direct_solver_agreement"]["value"] <= 1e-4

    @pytest.mark.parametrize("extra", [{"contrast_bounds": "1,2"}, {}], ids=["random", "xi"])
    def test_contraction_force_drawn_after_material(self, extra, tmp_path, monkeypatch):
        """The force amplitudes continue the seed's stream after the random
        material's three coefficients, so they are not those coefficients
        again; with the restricted counter-example (no draws) they are the
        stream's first four numbers, as before."""
        from stokes_lab import annulus

        amps = []
        real = annulus.bump_force

        def recording(amp, r_max):
            amps.append(np.array(amp))
            return real(amp, r_max)

        monkeypatch.setattr(annulus, "bump_force", recording)
        run(ExperimentConfig(kind="contraction", grid="24x48", rmax=24.0, seed=5,
                             outdir=str(tmp_path), **extra))
        draws = np.random.default_rng(5).normal(size=7)
        if extra:
            assert np.array_equal(amps[0], draws[3:])
            assert not np.any(np.isin(amps[0], draws[:3]))
        else:
            assert np.array_equal(amps[0], draws[:4])

    def test_paradox_data_from_file(self, tmp_path):
        n = 64
        t = np.linspace(0, 2 * np.pi, n, endpoint=False)
        vals = np.stack([np.cos(t), np.sin(2 * t)], axis=-1)
        path = tmp_path / "data.csv"
        path.write_text("u1,u2\n" + "\n".join(f"{a:.17g},{b:.17g}" for a, b in vals))
        rep = run(ExperimentConfig(kind="paradox", curve="circle:1", nodes=n,
                                   data=f"file:{path}", outdir=str(tmp_path)))
        assert rep.ok()
        # wrong node count is a field-precise configuration error
        with pytest.raises(ConfigInvalid, match="data"):
            run(ExperimentConfig(kind="paradox", curve="circle:1", nodes=128,
                                 data=f"file:{path}", outdir=str(tmp_path)))

    def test_paradox_on_ellipse_reports_compatibility(self, tmp_path):
        rep = run(ExperimentConfig(kind="paradox", curve="ellipse:2,1", nodes=128,
                                   data="const:1,0", outdir=str(tmp_path)))
        verd = {v["name"]: v for v in rep.verdicts}
        assert "ellipse_compatibility" in verd
        assert abs(verd["ellipse_compatibility"]["value"][0]) > 1.0

    def test_ellipse_residual_agreement_fails_on_perturbed_compatibility(self, tmp_path,
                                                                          monkeypatch):
        """On a circle and an ellipse the residual equals the closed-form
        compatibility, rescaled and signed, to round-off; a compatibility off
        by a factor 1 + 1e-6 fails the verdict."""
        from stokes_lab import bem

        for curve in ("circle:1", "ellipse:2,1"):
            cfg = ExperimentConfig(kind="paradox", curve=curve, nodes=128,
                                   data="const:0.3,-2", outdir=str(tmp_path))
            verd = {v["name"]: v for v in run(cfg).verdicts}["ellipse_residual_agreement"]
            assert verd["pass"] and verd["value"] <= 1e-13, curve
        real = bem.ellipse_compatibility
        monkeypatch.setattr(bem, "ellipse_compatibility",
                            lambda data, curve: real(data, curve) * (1.0 + 1e-6))
        rep = run(cfg)
        verd = {v["name"]: v for v in rep.verdicts}["ellipse_residual_agreement"]
        assert not verd["pass"] and not rep.ok()

    def test_kappa_reciprocity_fails_on_perturbed_kappa(self, tmp_path, monkeypatch):
        """The pairings equal the basis totals times kappa to round-off; a
        kappa off by 1e-6 fails the verdict."""
        from stokes_lab import bem

        cfg = ExperimentConfig(kind="paradox", curve="ellipse:2,1", nodes=128,
                               data="fourier:1,0.5,0.25", outdir=str(tmp_path))
        verd = {v["name"]: v for v in run(cfg).verdicts}["kappa_reciprocity"]
        assert verd["pass"] and verd["value"] <= 1e-13
        real = bem.solve_dirichlet

        def perturbed(op, data):
            sol = real(op, data)
            sol.kappa = sol.kappa + 1e-6
            return sol

        monkeypatch.setattr(bem, "solve_dirichlet", perturbed)
        rep = run(cfg)
        verd = {v["name"]: v for v in rep.verdicts}["kappa_reciprocity"]
        assert not verd["pass"] and not rep.ok()

    @pytest.mark.parametrize("kind", ["paradox", "basis", "decay"])
    def test_one_dense_factorization_per_boundary_run(self, kind, tmp_path, monkeypatch):
        from stokes_lab import bem

        calls = []
        real_lu_factor = bem.lu_factor

        def counting_lu_factor(a, *args, **kwargs):
            calls.append(np.shape(a))
            return real_lu_factor(a, *args, **kwargs)

        monkeypatch.setattr(bem, "lu_factor", counting_lu_factor)
        extra = {"paradox": {"data": "fourier:1,0.5"}, "decay": {"seed": 1}}.get(kind, {})
        rep = run(ExperimentConfig(kind=kind, curve="ellipse:2,1", nodes=64,
                                   outdir=str(tmp_path), **extra))
        assert rep.ok()
        # four blocks of N/2 DOFs, the x- and y-constant classes bordered
        assert calls == [(33, 33), (33, 33), (32, 32), (32, 32)]
        assert set(rep.condition_numbers) <= {"augmented_system", "totals_matrix"}
        assert rep.condition_numbers["augmented_system"] < 1e12

    @pytest.mark.parametrize("kind, extra, n_comparison", [
        ("degiorgi", {}, 0),
        ("contraction", {"contrast_bounds": "1,1.5", "seed": 7}, 1),
        ("contraction", {"seed": 7}, 1),
    ])
    def test_stiffness_builds_per_annulus_run(self, kind, extra, n_comparison, tmp_path,
                                              annulus_calls):
        """Every run builds one polar stencil of its material: one column for
        the rotation-equivariant counter-example tensors, n_theta for the
        seeded random material.  A contraction run shares it between its
        direct reference solve and its fixed-point iteration, and builds one
        more, the one-column stencil of its comparison material.  Every run
        builds its load vector once, a contraction run too."""
        stiffness_builds = annulus_calls("_polar_stencil", lambda S: S.shape[-1])
        comparison_builds = annulus_calls("_identity_stencil", lambda S: S.shape[-1])
        load_builds = annulus_calls("_force_vector")
        rep = run(ExperimentConfig(kind=kind, grid="24x48", rmax=24.0, outdir=str(tmp_path),
                                   **extra))
        assert rep.ok()
        n_cols = 48 if "contrast_bounds" in extra else 1
        assert stiffness_builds == [(24, 48, n_cols)]
        assert comparison_builds == [(24, 48, 1)] * n_comparison
        assert load_builds == [(24, 48)]

    def test_table_lookup_is_blocked(self):
        """A 2000-row table on a 24x48 grid: the nearest-sample lookup stays
        under 32 MB (about 210 MB unblocked) and picks the samples the
        unblocked argmin picks."""
        import tracemalloc

        from stokes_lab.polar import PolarGrid
        from stokes_lab.tensors import tabulated_scalar_field

        rng = np.random.default_rng(4)
        r = rng.uniform(1.0, 24.0, size=2000)
        th = rng.uniform(0, 2 * np.pi, size=2000)
        scale = rng.uniform(1.0, 1.2, size=2000)
        fld = tabulated_scalar_field(r, th, scale)
        pts = PolarGrid(24.0, 24, 48).gauss_points()
        tracemalloc.start()
        try:
            action = fld(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

        tab_pts = np.stack([r * np.cos(th), r * np.sin(th)], axis=-1)
        d2s = np.sum((pts.reshape(-1, 2)[:, None, :] - tab_pts[None, :, :]) ** 2, axis=-1)
        ref = scale[np.argmin(d2s, axis=1)].reshape(pts.shape[:-1])
        assert np.array_equal(action[..., 0, 0, 0, 0], ref)

    def test_contraction_tabulated_material(self, tmp_path):
        rng = np.random.default_rng(0)
        r = rng.uniform(1.0, 24.0, size=40)
        th = rng.uniform(0, 2 * np.pi, size=40)
        scale = rng.uniform(1.0, 1.2, size=40)
        path = tmp_path / "table.csv"
        path.write_text(
            "r,theta,scale\n" + "\n".join(f"{a:.17g},{b:.17g},{c:.17g}" for a, b, c in zip(r, th, scale))
        )
        rep = run(ExperimentConfig(kind="contraction", material=f"table:{path}",
                                   grid="24x48", rmax=24.0, seed=2, outdir=str(tmp_path)))
        assert rep.ok()
        verd = {v["name"]: v for v in rep.verdicts}
        assert verd["worst_contraction_factor"]["value"] <= 0.5


    @pytest.mark.parametrize("kind, fields", [
        ("paradox", {"nodes": 16}), ("basis", {"nodes": 16}), ("decay", {"nodes": 16}),
        ("degiorgi", {"grid": "24x48", "rmax": 16.0}),
        ("contraction", {"grid": "24x48", "rmax": 16.0, "contrast_bounds": "1,1.5"}),
        ("gym", {"check": "wirtinger", "trials": 1}),
    ], ids=["paradox", "basis", "decay", "degiorgi", "contraction", "gym"])
    def test_report_echoes_the_fields_read(self, kind, fields, tmp_path):
        """report.json's config holds the fields the experiment reads, and
        null for a contraction material source the run did not use."""
        run(seeded(kind, outdir=str(tmp_path), **fields))
        config = json.loads((tmp_path / kind / "report.json").read_text())["config"]
        assert set(config) == {"kind"} | READS[kind]
        assert config["kind"] == kind
        for field, value in fields.items():
            assert config[field] == value
        if kind == "contraction":
            assert config["xi"] is None and config["material"] is None


class TestMainExitCodes:
    def test_success(self, tmp_path, capsys):
        code = main(["gym", "--check", "wirtinger", "--trials", "5", "--seed", "1",
                     "--outdir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert json.loads(out)["verdicts"]

    def test_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("kind", ["degiorgi", "contraction"])
    @pytest.mark.parametrize("xi", ["1e-200", "1e-160"])
    def test_tiny_xi_is_a_config_error(self, kind, xi, tmp_path, capsys):
        """Below about 1.5e-154, 4/xi^2 is not a finite float: the run stops
        at validation, naming xi, instead of dividing by zero or passing an
        infinite stiffness to the solver."""
        code = main([kind, "--xi", xi, "--grid", "24x48", "--rmax", "16",
                     "--outdir", str(tmp_path)])
        assert code == 1
        assert "stokes-lab: configuration error: xi:" in capsys.readouterr().err
        assert not (tmp_path / kind).exists()

    def test_config_error(self, tmp_path, capsys):
        code = main(["gym", "--trials", "5", "--outdir", str(tmp_path)])  # no seed
        assert code == 1
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("args, error", [
        (["paradox", "--material", "iso:1e13,1", "--nodes", "64"], "SingularSystem"),
        (["basis", "--material", "iso:1e16,1", "--nodes", "64"], "SingularSystem"),
    ], ids=["paradox", "basis"])
    def test_solver_error_exits_two(self, args, error, tmp_path, capsys):
        """A nearly incompressible material passes validation, but its
        bordered system is too ill-conditioned.  The error is named on
        stderr, without a traceback, and no report is written."""
        code = main(args + ["--outdir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"stokes-lab: {error}: " in err and "Traceback" not in err
        assert not (tmp_path / args[0]).exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("kind, extra", [("degiorgi", []), ("contraction", ["--seed", "0"])],
                             ids=["degiorgi", "contraction"])
    def test_overflowing_pivot_exits_two(self, kind, extra, tmp_path, capsys):
        """xi = 1e-100 passes validation, but the stiffness reaches about
        1e200, so the determinants of an angular mode's pivots overflow.  The
        run stops with a SolverDiverged that says so, not that the mode is
        singular, and without a floating-point warning."""
        code = main([kind, "--xi", "1e-100", "--grid", "24x48", "--rmax", "16", *extra,
                     "--outdir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "stokes-lab: SolverDiverged: " in err and "determinant is not finite" in err
        assert "singular" not in err and "Traceback" not in err
        assert not (tmp_path / kind).exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("args", [
        ["paradox", "--curve", "circle:1e-300", "--nodes", "64"],
        ["decay", "--curve", "circle:1e200", "--nodes", "64", "--seed", "0"],
        ["basis", "--curve", "rounded-square:1e-300,1e-301", "--nodes", "64"],
        ["paradox", "--curve", "ellipse:1,1e-200", "--nodes", "64"],
        *(["decay", "--curve", curve, "--nodes", "64", "--seed", "0"]
          for curve in ("circle:2000", "ellipse:1e6,1", "circle:10", "rounded-square:7.36467,1")),
    ], ids=["tiny-circle", "huge-circle", "tiny-square", "tiny-ellipse", "decay-circle",
            "decay-ellipse", "decay-circle-on-samples", "decay-square-corner"])
    def test_extreme_curve_is_config_error(self, args, tmp_path, capsys):
        """A curve too small or too large for float64 is refused when the
        run is validated, naming curve, without a floating-point warning.
        So is a decay curve that reaches decay's sample points at |x| = 10 to
        1000: one with a node at |x| >= 10, or one whose body holds a sample
        point between its nodes (this rounded square's corner arc reaches
        |x| = 10.001 while its 64 nodes stay below 9.996).  Those decay runs
        ended in PointInsideBody or SingularPoint (exit 2)."""
        code = main(args + ["--outdir", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "stokes-lab: configuration error: curve:" in err and "Traceback" not in err
        assert not (tmp_path / args[0]).exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("data", ["const:1e308,0", "const:1e154,0", "fourier:1e308,1e308"])
    def test_overflowing_data_is_config_error(self, data, tmp_path, capsys):
        """Data whose weighted squared norm float64 cannot hold would crash
        the solve or scale the data-relative tolerances to infinity; the run
        is refused, naming data, and no report is written.  Data that
        overflow while they are built (the sum of two fourier harmonics at
        1e308) are refused by the same check, with no RuntimeWarning."""
        code = main(["paradox", "--data", data, "--nodes", "64", "--outdir", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "stokes-lab: configuration error: data:" in err and "Traceback" not in err
        assert not (tmp_path / "paradox").exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind", ["paradox", "basis"])
    def test_rounded_square_is_noted_not_warned(self, kind, tmp_path, capsys):
        """Under warnings as errors: a rounded-square run reports its
        algebraic quadrature as a note in report.json, and leaves stderr
        empty (it printed a raw CurveNotSmooth warning)."""
        code = main([kind, "--curve", "rounded-square:1,0.25", "--nodes", "64",
                     "--outdir", str(tmp_path)])
        assert code == 0 and capsys.readouterr().err == ""
        notes = json.loads((tmp_path / kind / "report.json").read_text())["notes"]
        assert notes == ["rounded-square is only piecewise smooth: the boundary quadrature "
                         "converges at the composite trapezoid rate, not spectrally"]

    def test_zero_total_density_scales_with_data(self, tmp_path, capsys):
        """A total of round-off relative to large data passes: the verdict's
        tolerance is 1e-10 times the data's weighted L2 norm (at least 1)."""
        code = main(["paradox", "--curve", "circle:1", "--nodes", "256", "--data", "fourier:1e5",
                     "--outdir", str(tmp_path)])
        verd = {v["name"]: v for v in json.loads(capsys.readouterr().out)["verdicts"]}
        total = verd["zero_total_density"]
        assert code == 0 and total["pass"]
        assert total["tolerance"] == pytest.approx(1e-10 * 1e5 * np.sqrt(2 * np.pi))

    def test_not_contracting_exits_two(self, tmp_path, capsys, monkeypatch):
        from stokes_lab import annulus
        from stokes_lab.errors import NotContracting

        def diverge(*args, **kwargs):
            raise NotContracting("factors above 1 for three consecutive iterations")

        monkeypatch.setattr(annulus, "contraction_solve", diverge)
        code = main(["contraction", "--grid", "24x48", "--rmax", "24", "--seed", "1",
                     "--outdir", str(tmp_path)])
        assert code == 2
        assert "stokes-lab: NotContracting: " in capsys.readouterr().err
        assert not (tmp_path / "contraction").exists()

    def test_verdict_failure_exits_two(self, tmp_path, monkeypatch):
        import stokes_lab.inequalities as ineq

        monkeypatch.setattr(
            ineq, "wirtinger_check",
            lambda u, radius=1.0: ineq.Trial(u, lhs=2.0, rhs=1.0, ok=False),
        )
        code = main(["gym", "--check", "wirtinger", "--trials", "2", "--seed", "1",
                     "--outdir", str(tmp_path)])
        assert code == 2

    @pytest.mark.parametrize("args", [["degiorgi"], ["contraction", "--seed", "1"]],
                             ids=["degiorgi", "contraction"])
    def test_coarse_grid_is_config_error(self, args, tmp_path, capsys):
        code = main(args + ["--grid", "16x32", "--outdir", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "configuration error: grid:" in err and "Traceback" not in err
        assert not (tmp_path / args[0]).exists()

    TABLE = ["contraction", "--grid", "24x48", "--rmax", "24", "--seed", "1",
             "--material", "table:{path}"]
    FILE = ["paradox", "--nodes", "16", "--data", "file:{path}"]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("field, args, text, reason", [
        ("material", TABLE, "r,theta,scale\n1,abc,2\n", "cannot read"),
        ("material", TABLE, "r,theta,scale\n2,0,1\n3,1,nan\n", "non-finite"),
        ("data", FILE, "u1,u2\n1,abc\n", "cannot read"),
        ("data", FILE, "u1,u2\n" + "1,0\n" * 15 + "nan,0\n", "non-finite"),
        ("material", TABLE, "r,theta,scale\n", "holds no rows"),
        ("data", FILE, "u1,u2\n", "holds no rows"),
    ], ids=["table", "table-nan", "file", "file-nan", "table-header-only", "file-header-only"])
    def test_malformed_csv_is_config_error(self, field, args, text, reason, tmp_path, capsys):
        """Under warnings as errors: a header-only file is refused by name,
        without NumPy's warning about empty input."""
        path = tmp_path / "input.csv"
        path.write_text(text)
        code = main([a.format(path=path) for a in args] + ["--outdir", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and f"{field}:" in err and reason in err


def _run_fresh(code: str) -> list:
    """The lines `code` prints when run in a fresh interpreter on this
    checkout's stokes_lab."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(stokes_lab.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return out.stdout.splitlines()


LOADED = ("def loaded(absent):\n"
          "    return sorted(m for m in sys.modules\n"
          "                  if any(m == a or m.startswith(a + '.') for a in absent))\n")
LIBRARY = ", ".join(f"stokes_lab.{m.name}" for m in pkgutil.iter_modules(stokes_lab.__path__))


@pytest.mark.parametrize("modules, absent", [
    ("stokes_lab.cli, stokes_lab.annulus, stokes_lab.degiorgi, stokes_lab.inequalities",
     ("scipy",)),
    ("stokes_lab.cli, stokes_lab.bem", ("scipy", "stokes_lab.annulus")),
    (LIBRARY, ("scipy",)),
], ids=["annulus-cli-without-scipy", "bem-without-scipy-or-annulus", "library-without-scipy"])
def test_imports_leave_out(modules, absent):
    """Importing a module loads only what it needs: no library module loads
    scipy (scipy.linalg alone costs about 0.3 s of a CLI start and 28 MB),
    and the boundary solver does not load the annulus."""
    assert _run_fresh(f"import sys, {modules}\n{LOADED}print(loaded({absent!r}))") == ["[]"]


def test_scipy_loads_at_first_factorization():
    """Assembling the boundary operator and evaluating a layer potential load
    no scipy; the first condition estimate, which factors the operator, loads
    scipy.linalg."""
    code = ("import sys\n"
            "import numpy as np\n"
            "from stokes_lab import bem\n"
            "from stokes_lab.curves import BoundaryCurve\n"
            "from stokes_lab.tensors import IsotropicModuli\n"
            f"{LOADED}"
            "curve = BoundaryCurve.ellipse(2.0, 1.0, n=64)\n"
            "op = bem.assemble_single_layer(curve, IsotropicModuli(1.0, 1.0))\n"
            "psi = bem.zero_total_density(curve, np.random.default_rng(0))\n"
            "sol = bem.ExteriorSolution(curve, op.kernel, psi, np.zeros(2), np.nan, np.nan)\n"
            "assert np.isfinite(bem.evaluate(sol, [[3.0, 0.5], [0.0, -2.0]])).all()\n"
            "print(loaded(('scipy',)))\n"
            "assert op.cond < 1e12\n"
            "print('scipy.linalg' in sys.modules)\n")
    assert _run_fresh(code) == ["[]", "True"]
