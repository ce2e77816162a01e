"""Front-end tests: config validation, emission formats, determinism, exits."""

import copy
import io
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beablesim import (
    BeableField,
    NatureChoice,
    ParticleClass,
    SpacetimeGrid,
    SpacetimePoint,
    ToyModelConfig,
    beable_field,
    in_region_of_indeterminacy,
)
from beablesim.cli import (
    _REQUIRED,
    CONFIG,
    Key,
    _build_lattice_model,
    _oracle_field_residual,
    _toy_checks,
    emit_field,
    load_field,
    main,
    parse_config,
    run,
)
from beablesim.errors import ValidationError

T1 = 0.50390625
CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")


def toy_config(prefix, fmt="csv", photons=1, seed=42, **overrides):
    parameters = {
        "x1": 0.0, "x2": 1.0, "sigma1": 0.05, "sigma2": 0.05,
        "amp_a": float(np.sqrt(0.3)), "amp_b": float(np.sqrt(0.7)),
        "mass": 2.0, "t1": T1,
    }
    parameters.update(overrides.pop("parameters", {}))
    config = {
        "schema": 1,
        "kind": "toy1" if photons == 1 else "toy2",
        "seed": seed,
        "grid": {"t_min": -3.0, "t_max": 3.0, "t_steps": 30,
                 "x_min": -2.0, "x_max": 3.0, "x_steps": 260},
        "parameters": parameters,
        "output": {"prefix": prefix, "format": fmt},
    }
    config.update(overrides)
    return config


def classes_config(prefix, **parameter_overrides):
    parameters = {
        "sites": 4,
        "particles": [
            {"mass": 1.0, "statistics": "boson", "class": "B"},
            {"mass": 2.0, "statistics": "fermion", "class": "F"},
        ],
        "initial": {"type": "sites", "sites": [0, 3]},
        "hamiltonian": {"type": "hopping-contact", "hopping": 1.0, "contact": 2.0},
        "t_final": 2.0,
        "beable_class": "B",
    }
    parameters.update(parameter_overrides)
    return {
        "schema": 1,
        "kind": "nonrel-classes",
        "seed": 7,
        "grid": {"t_steps": 4},
        "parameters": parameters,
        "output": {"prefix": prefix, "format": "csv"},
    }


def write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


def run_quiet(path, **kwargs):
    return run(path, stderr=io.StringIO(), **kwargs)


class TestParseConfig:
    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ValidationError, match="unknown keys"):
            parse_config({"schema": 1, "kind": "toy1", "seed": 1, "parameters": {},
                          "grid": {}, "output": {"prefix": "x", "format": "csv"},
                          "extra": True})

    def test_schema_version_required(self):
        with pytest.raises(ValidationError, match="schema"):
            parse_config({"schema": 2, "kind": "toy1", "seed": 1, "parameters": {},
                          "grid": {}, "output": {"prefix": "x", "format": "csv"}})

    def test_seed_must_fit_64_bits(self):
        with pytest.raises(ValidationError, match="64"):
            parse_config({"schema": 1, "kind": "toy1", "seed": 2 ** 64, "parameters": {},
                          "grid": {}, "output": {"prefix": "x", "format": "csv"}})

    def test_abl_check_takes_no_grid(self):
        with pytest.raises(ValidationError, match="grid"):
            parse_config({"schema": 1, "kind": "abl-check", "seed": 1,
                          "parameters": {"count": 1, "max_dim": 4},
                          "grid": {"t_steps": 3},
                          "output": {"prefix": "x", "format": "csv"}})


class TestEmitField:
    def test_csv_round_trip_and_shape(self, tmp_path):
        field = BeableField(np.array([0.0, 1.0]), np.array([0.0, 2.0]),
                            np.zeros((2, 2)))
        path = str(tmp_path / "zeros.csv")
        emit_field(field, "csv", path)
        lines = open(path).read().splitlines()
        assert lines[0] == "t,x,rho"
        assert len(lines) == 5
        assert all(line.endswith(",0") for line in lines[1:])
        # t outer, x inner
        assert lines[1].startswith("0,0") and lines[2].startswith("0,2")
        assert lines[3].startswith("1,0") and lines[4].startswith("1,2")

    def test_csv_seventeen_significant_digits(self, tmp_path):
        value = 1.0 / 3.0
        field = BeableField(np.array([0.1]), np.array([0.2]), np.array([[value]]))
        path = str(tmp_path / "digits.csv")
        emit_field(field, "csv", path)
        row = open(path).read().splitlines()[1]
        assert row == f"{0.1:.17g},{0.2:.17g},{value:.17g}"
        reloaded = load_field("csv", path)
        assert reloaded.values[0, 0] == value

    def test_json_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        field = BeableField(
            np.linspace(0, 1, 4), np.linspace(-1, 1, 5), rng.uniform(size=(4, 5))
        )
        path = str(tmp_path / "field.json")
        emit_field(field, "json", path)
        reloaded = load_field("json", path)
        assert np.array_equal(reloaded.ts, field.ts)
        assert np.array_equal(reloaded.xs, field.xs)
        assert np.array_equal(reloaded.values, field.values)

    def test_csv_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(6)
        field = BeableField(
            np.linspace(0, 2, 3), np.linspace(-1, 1, 7), rng.uniform(size=(3, 7))
        )
        path = str(tmp_path / "field.csv")
        emit_field(field, "csv", path)
        reloaded = load_field("csv", path)
        assert np.array_equal(reloaded.values, field.values)

    @pytest.mark.parametrize(
        "fmt, text",
        [
            ("csv", "t,x,rho\n0,0,1\n0,1\n"),
            ("csv", "t,x,rho\n0,0,1\n0,1,one\n"),
            ("json", json.dumps({"values": [1.0]})),
            ("json", json.dumps({"grid": {"ts": [0.0], "xs": [0.0]}})),
        ],
        ids=["csv-two-cells", "csv-not-a-number", "json-no-grid", "json-no-values"],
    )
    def test_malformed_field_file_is_a_validation_error(self, tmp_path, fmt, text):
        path = tmp_path / f"field.{fmt}"
        path.write_text(text)
        with pytest.raises(ValidationError, match=str(path)):
            load_field(fmt, str(path))


class TestRunToy:
    def test_successful_run_writes_artifacts(self, tmp_path):
        prefix = str(tmp_path / "run")
        path = write_config(tmp_path, toy_config(prefix))
        assert run_quiet(path) == 0
        assert os.path.exists(f"{prefix}_field.csv")
        assert os.path.exists(f"{prefix}_rays.json")
        report = json.loads(open(f"{prefix}_report.json").read())
        assert report["kind"] == "toy1"
        assert all(check["passed"] for check in report["checks"])
        assert all("tolerance" in check for check in report["checks"])

    @pytest.mark.parametrize(
        "make_config, suffixes",
        [(toy_config, ("_field.csv", "_rays.json")), (classes_config, ("_field.csv",))],
        ids=["toy", "lattice"],
    )
    def test_byte_identical_reruns(self, tmp_path, make_config, suffixes):
        outputs = []
        for name in ("a", "b"):
            prefix = str(tmp_path / name)
            assert run_quiet(write_config(tmp_path, make_config(prefix), f"{name}.json")) == 0
            outputs.append([open(f"{prefix}{suffix}", "rb").read() for suffix in suffixes])
        assert outputs[0] == outputs[1]

    def test_report_bytes_deterministic(self, tmp_path):
        prefix = str(tmp_path / "same")
        path = write_config(tmp_path, toy_config(prefix))
        assert run_quiet(path) == 0
        first = open(f"{prefix}_report.json", "rb").read()
        assert run_quiet(path) == 0
        second = open(f"{prefix}_report.json", "rb").read()
        assert first == second

    def test_amplitude_constraint_reported(self, tmp_path):
        prefix = str(tmp_path / "bad")
        config = toy_config(prefix, parameters={"amp_a": 0.8, "amp_b": 0.5})
        path = write_config(tmp_path, config)
        stderr = io.StringIO()
        assert run(path, stderr=stderr) == 2
        assert "amp" in stderr.getvalue()

    def test_unknown_parameter_rejected(self, tmp_path):
        prefix = str(tmp_path / "bad")
        config = toy_config(prefix)
        config["parameters"]["velocity"] = 1.0
        path = write_config(tmp_path, config)
        stderr = io.StringIO()
        assert run(path, stderr=stderr) == 2
        assert "unknown keys" in stderr.getvalue()

    def test_pinned_zero_weight_branch_is_impossible(self, tmp_path):
        prefix = str(tmp_path / "pin")
        config = toy_config(prefix, parameters={"amp_a": 1.0, "amp_b": 0.0, "branch": 2})
        path = write_config(tmp_path, config)
        assert run_quiet(path) == 3

    def test_field_slice_respects_mass_budget(self, tmp_path):
        prefix = str(tmp_path / "run")
        config = toy_config(prefix, parameters={"branch": 1})
        path = write_config(tmp_path, config)
        assert run_quiet(path) == 0
        field = load_field("csv", f"{prefix}_field.csv")
        late = field.slice_integral(field.ts.size - 1)
        assert abs(late - 2.0) <= 1e-6 * 2.0

    @pytest.mark.parametrize("photons", [1, 2])
    @pytest.mark.parametrize("slice_kind", ["uniform", "mixed"])
    def test_scaled_slice_fails_its_mass_budget_check(self, photons, slice_kind):
        toy = ToyModelConfig(
            x1=0.0, x2=1.0, sigma1=0.05, sigma2=0.05,
            amp_a=complex(np.sqrt(0.3)), amp_b=complex(np.sqrt(0.7)), mass=2.0, t1=T1,
            photons=photons, grid=SpacetimeGrid(-3.0, 3.0, 30, -2.0, 3.0, 260),
        )
        field = beable_field(toy, NatureChoice.CLOUD1)
        inside = in_region_of_indeterminacy(toy, SpacetimePoint(field.ts[:, None], field.xs[None, :]))
        uniform_rows = np.nonzero(inside.all(axis=1) | ~inside.any(axis=1))[0]
        mixed_rows = np.nonzero(inside.any(axis=1) & ~inside.all(axis=1))[0]
        rows = uniform_rows if slice_kind == "uniform" else mixed_rows
        values = field.values.copy()
        values[rows[len(rows) // 2]] *= 1.01 if slice_kind == "uniform" else 0.01
        checks = _toy_checks(toy, NatureChoice.CLOUD1, BeableField(field.ts, field.xs, values))
        passed = {check["name"]: check["passed"] for check in checks}
        assert passed["roi-visibility-agreement"]
        assert passed["uniform-slice-mass-budget"] is (slice_kind != "uniform")
        assert passed["mixed-slice-mass-budget"] is (slice_kind != "mixed")
        unperturbed = _toy_checks(toy, NatureChoice.CLOUD1, field)
        assert all(check["passed"] for check in unperturbed)

    def test_seed_override_changes_report(self, tmp_path):
        prefix = str(tmp_path / "run")
        path = write_config(tmp_path, toy_config(prefix, seed=3))
        assert run_quiet(path, seed=11) == 0
        report = json.loads(open(f"{prefix}_report.json").read())
        assert report["seed"] == 11


class TestRunLattice:
    def test_classes_run_with_sampled_selection(self, tmp_path):
        prefix = str(tmp_path / "cls")
        path = write_config(tmp_path, classes_config(prefix))
        assert run_quiet(path) == 0
        report = json.loads(open(f"{prefix}_report.json").read())
        assert "final_sites" in report["selection"]
        names = {check["name"] for check in report["checks"]}
        assert "oracle-agreement" in names
        assert all(check["passed"] for check in report["checks"])

    def test_pinned_impossible_final_sites(self, tmp_path):
        prefix = str(tmp_path / "imp")
        config = classes_config(
            prefix,
            hamiltonian={"type": "frozen"},
            final_sites=[0],  # fermion frozen at site 3 can never be found at 0
        )
        path = write_config(tmp_path, config)
        assert run_quiet(path) == 3

    def test_nparticle_kind(self, tmp_path):
        prefix = str(tmp_path / "npart")
        config = {
            "schema": 1,
            "kind": "nonrel-nparticle",
            "seed": 5,
            "grid": {"t_steps": 3},
            "parameters": {
                "sites": 3,
                "particles": [{"mass": 1.0}, {"mass": 2.0}],
                "initial": {"type": "sites", "sites": [0, 2]},
                "hamiltonian": {"type": "hopping-contact", "hopping": 1.0, "contact": 0.0},
                "t_final": 1.0,
            },
            "output": {"prefix": prefix, "format": "json"},
        }
        path = write_config(tmp_path, config)
        assert run_quiet(path) == 0
        report = json.loads(open(f"{prefix}_report.json").read())
        assert len(report["selection"]["final_sites"]) == 2

    def test_zero_field_range_residual_is_positive_zero(self, tmp_path):
        # the t = 0 row of a site product state has exact zeros, so the
        # field-range residual is an exact zero and must not print as -0.0
        config = json.loads(open(os.path.join(CONFIGS, "nparticle.json")).read())
        prefix = str(tmp_path / "npart")
        assert run_quiet(write_config(tmp_path, config), out=prefix) == 0
        report = json.loads(open(f"{prefix}_report.json").read())
        (residual,) = [c["residual"] for c in report["checks"] if c["name"] == "field-range"]
        assert residual == 0.0
        assert math.copysign(1.0, residual) == 1.0

    def test_oracle_referee_rejects_a_perturbed_field(self, tmp_path):
        config = json.loads(open(os.path.join(CONFIGS, "classes.json")).read())
        prefix = str(tmp_path / "cls")
        assert run_quiet(write_config(tmp_path, config), out=prefix) == 0
        report = json.loads(open(f"{prefix}_report.json").read())
        model = _build_lattice_model(parse_config(config))
        field = load_field("csv", f"{prefix}_field.csv")
        final_sites = report["selection"]["final_sites"]
        beable = ParticleClass.B
        assert _oracle_field_residual(model, beable, final_sites, field) <= 1e-10
        values = field.values.copy()
        values[len(field.ts) // 2, 1] += 1e-8
        perturbed = BeableField(field.ts, field.xs, values)
        assert _oracle_field_residual(model, beable, final_sites, perturbed) > 1e-10

    def test_explicit_matrix_hamiltonian(self, tmp_path):
        prefix = str(tmp_path / "mat")
        config = classes_config(prefix)
        config["parameters"]["sites"] = 2
        config["parameters"]["initial"] = {"type": "sites", "sites": [0, 1]}
        config["parameters"]["hamiltonian"] = {
            "type": "matrix",
            "entries": [
                [0.0, [0.0, -1.0], 0.0, 0.0],
                [[0.0, 1.0], 1.0, 0.0, 0.0],
                [0.0, 0.0, 1.0, 0.0],
                [0.0, 0.0, 0.0, 0.0],
            ],
        }
        path = write_config(tmp_path, config)
        assert run_quiet(path) == 0


class TestRunAblCheck:
    def test_sweep_reports_residual(self, tmp_path):
        prefix = str(tmp_path / "chk")
        config = {
            "schema": 1,
            "kind": "abl-check",
            "seed": 123,
            "parameters": {"count": 40, "max_dim": 10},
            "output": {"prefix": prefix, "format": "csv"},
        }
        path = write_config(tmp_path, config)
        assert run_quiet(path) == 0
        report = json.loads(open(f"{prefix}_report.json").read())
        check = report["checks"][0]
        assert check["name"] == "closed-form-vs-oracle"
        assert check["residual"] <= 1e-10
        assert check["passed"]

    def test_monte_carlo_demonstration_mode(self, tmp_path):
        prefix = str(tmp_path / "mc")
        config = {
            "schema": 1,
            "kind": "abl-check",
            "seed": 321,
            "parameters": {"count": 5, "max_dim": 6, "monte_carlo_trials": 50000},
            "output": {"prefix": prefix, "format": "csv"},
        }
        path = write_config(tmp_path, config)
        assert run_quiet(path) == 0
        report = json.loads(open(f"{prefix}_report.json").read())
        names = [check["name"] for check in report["checks"]]
        assert "monte-carlo-demonstration" in names
        mc = next(c for c in report["checks"] if c["name"] == "monte-carlo-demonstration")
        assert mc["passed"]
        assert report["selection"]["monte_carlo_accepted"] > 0


class TestExitCodes:
    @pytest.mark.parametrize(
        "sample, keys, literal",
        [
            ("toy1.json", ("t1",), "NaN"),
            ("classes.json", ("hamiltonian", "hopping"), "Infinity"),
            ("classes.json", ("hamiltonian", "hopping"), "1e400"),
        ],
        ids=["toy1-t1-NaN", "classes-hopping-Infinity", "classes-hopping-1e400"],
    )
    def test_non_finite_config_number_is_a_validation_error(self, tmp_path, sample, keys, literal):
        config = json.loads(open(os.path.join(CONFIGS, sample)).read())
        record = config["parameters"]
        for key in keys[:-1]:
            record = record[key]
        record[keys[-1]] = "NON-FINITE"
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config).replace('"NON-FINITE"', literal))
        stderr = io.StringIO()
        assert run(str(path), out=str(tmp_path / "out"), stderr=stderr) == 2
        assert f"{keys[-1]}: expected a finite number" in stderr.getvalue()

    @pytest.mark.parametrize(
        "sample, key",
        [("toy1.json", "t1"), ("nparticle.json", "t_final")],
        ids=["toy1-t1", "nparticle-t_final"],
    )
    def test_parameter_error_names_its_key_once(self, tmp_path, sample, key):
        config = json.loads(open(os.path.join(CONFIGS, sample)).read())
        config["parameters"][key] = "NON-FINITE"
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config).replace('"NON-FINITE"', "NaN"))
        stderr = io.StringIO()
        assert run(str(path), out=str(tmp_path / "out"), stderr=stderr) == 2
        assert stderr.getvalue() == f"error: config.parameters.{key}: expected a finite number\n"

    @pytest.mark.parametrize(
        "sample", sorted(name for name in os.listdir(CONFIGS) if name.endswith(".json"))
    )
    def test_sample_config_runs_from_a_fresh_directory(self, tmp_path, monkeypatch, sample):
        # every sample writes under out/, which the run itself must create
        monkeypatch.chdir(tmp_path)
        assert run_quiet(os.path.join(CONFIGS, sample)) == 0
        prefix = json.loads(open(os.path.join(CONFIGS, sample)).read())["output"]["prefix"]
        assert os.path.isfile(f"{prefix}_report.json")

    def test_retired_threads_flag_is_rejected(self, tmp_path):
        path = write_config(tmp_path, classes_config(str(tmp_path / "out")))
        with pytest.raises(SystemExit) as exit_info:
            main(["run", path, "--threads", "2"])
        assert exit_info.value.code == 2

    def test_linear_algebra_failure_is_an_invariant_breach(self, tmp_path, monkeypatch):
        def failing_eigh(matrix):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
        stderr = io.StringIO()
        path = os.path.join(CONFIGS, "abl-check.json")
        assert run(path, out=str(tmp_path / "out"), stderr=stderr) == 4
        assert stderr.getvalue().startswith("invariant breach: Eigenvalues did not converge")

    @pytest.mark.parametrize(
        "entries",
        [[[[True, False]]], [[0.0], [0.0, 1.0]], [[0.0, 1.0]], 5, [5], [[[0.0, "1"]]], [[[0.0, 1.0]]]],
        ids=["boolean-pair", "ragged", "not-square", "not-a-list", "row-not-a-list", "string-part",
             "non-hermitian"],
    )
    def test_bad_matrix_entries_are_a_validation_error(self, tmp_path, entries):
        # one site, so a single [re, im] cell is a whole 1x1 Hamiltonian
        config = json.loads(open(os.path.join(CONFIGS, "nparticle.json")).read())
        config["parameters"].update(
            sites=1,
            initial={"type": "sites", "sites": [0, 0]},
            hamiltonian={"type": "matrix", "entries": entries},
        )
        stderr = io.StringIO()
        path = write_config(tmp_path, config)
        assert run(path, out=str(tmp_path / "out"), stderr=stderr) == 2
        assert "config.parameters.hamiltonian.entries" in stderr.getvalue()

    @pytest.mark.parametrize(
        "record, update, message",
        [
            ("parameters", {"beable_class": 42}, "config.parameters: unknown keys ['beable_class']"),
            ("parameters", {"hamiltonian": {"type": "frozen", "hopping": 1.0}},
             "config.parameters.hamiltonian: unknown keys ['hopping']"),
            ("parameters", {"initial": {"type": "uniform", "sites": [0, 1]}},
             "config.parameters.initial: unknown keys ['sites']"),
        ],
        ids=["beable-class-of-classes-kind", "hopping-of-frozen", "sites-of-uniform"],
    )
    def test_key_of_another_kind_or_variant_is_rejected(self, tmp_path, record, update, message):
        config = json.loads(open(os.path.join(CONFIGS, "nparticle.json")).read())
        config[record].update(update)
        stderr = io.StringIO()
        assert run(write_config(tmp_path, config), out=str(tmp_path / "out"), stderr=stderr) == 2
        assert stderr.getvalue() == f"error: {message}\n"

    @pytest.mark.parametrize(
        "update, key",
        [({"initial": {"type": "sites", "sites": [0, 9]}}, "initial.sites"),
         ({"final_sites": [0, 9]}, "final_sites")],
        ids=["initial-sites", "final-sites"],
    )
    def test_site_index_error_names_its_key(self, tmp_path, update, key):
        config = json.loads(open(os.path.join(CONFIGS, "nparticle.json")).read())
        config["parameters"].update(update)
        stderr = io.StringIO()
        assert run(write_config(tmp_path, config), out=str(tmp_path / "out"), stderr=stderr) == 2
        assert stderr.getvalue() == f"error: config.parameters.{key}: site 9 out of range 0..2\n"

    def test_config_that_fails_the_schema_writes_nothing(self, tmp_path):
        config = json.loads(open(os.path.join(CONFIGS, "toy1.json")).read())
        config["parameters"]["sigma1"] = -1
        fresh = tmp_path / "fresh"
        assert run_quiet(write_config(tmp_path, config), out=str(fresh / "run")) == 2
        assert not fresh.exists()

    @pytest.mark.parametrize(
        "override, flag",
        [({"seed": -1}, "--seed"), ({"out": ""}, "--out"), ({"fmt": "xml"}, "--format")],
        ids=["negative-seed", "empty-out", "unknown-format"],
    )
    def test_override_is_checked_against_its_key(self, tmp_path, monkeypatch, override, flag):
        monkeypatch.chdir(tmp_path)  # an unchecked empty --out would write here
        stderr = io.StringIO()
        assert run(os.path.join(CONFIGS, "nparticle.json"), stderr=stderr, **override) == 2
        assert stderr.getvalue().startswith(f"error: {flag}: ")

    def test_boolean_pair_amplitude_is_a_validation_error(self, tmp_path):
        config = json.loads(open(os.path.join(CONFIGS, "toy1.json")).read())
        config["parameters"]["amp_a"] = [True, False]
        stderr = io.StringIO()
        assert run(write_config(tmp_path, config), out=str(tmp_path / "out"), stderr=stderr) == 2
        assert stderr.getvalue() == (
            "error: config.parameters.amp_a: expected a number or a [re, im] pair\n"
        )

    def test_missing_config_file(self, tmp_path):
        assert run_quiet(str(tmp_path / "absent.json")) == 2

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run_quiet(str(path)) == 2

    def test_unwritable_output_path(self, tmp_path):
        blocker = tmp_path / "blocker.txt"
        blocker.write_text("occupied")
        prefix = str(blocker / "sub" / "run")
        path = write_config(tmp_path, toy_config(prefix))
        assert run_quiet(path) == 5

    def test_main_entry_point(self, tmp_path, capsys):
        prefix = str(tmp_path / "run")
        path = write_config(tmp_path, toy_config(prefix))
        assert main(["run", path]) == 0
        captured = capsys.readouterr()
        assert "check field-dichotomy: pass" in captured.err


# ---------------------------------------------------------------------------
# schema mutations: every value outside a key's declared domain exits 2 naming it

SAMPLES = {
    name: json.loads(open(os.path.join(CONFIGS, name)).read())
    for name in sorted(os.listdir(CONFIGS)) if name.endswith(".json")
}


def schema_keys(table, record, route=()):
    """(route, key, deletable) for every key ``table`` admits in ``record``."""
    for name, key in list(table.items()):
        if isinstance(key, Key) and isinstance(key.choices, dict):
            table = {**table, **key.choices[record[name]]}
    for name, key in table.items():
        here = route + (name,)
        required = not isinstance(key, Key) or key.default is _REQUIRED
        yield here, key, required and name in record
        if isinstance(key, dict):
            yield from schema_keys(key, record[name], here)
        elif isinstance(key, list):
            for index, entry in enumerate(record[name]):
                yield here + (index,), key[0], False
                yield from schema_keys(key[0], entry, here + (index,))


def out_of_domain(key):
    """Values outside ``key``'s declared type and bounds."""
    if isinstance(key, dict):
        return [5, [], "unknown"]
    if isinstance(key, list):
        return [[], {}]
    values = {
        "number": ["1.0", True, float("nan")],
        "integer": [1.5, "1", True, 2 ** 64, 10 ** 30],
        "complex": ["x", [1.0], float("nan"), [True, False]],
        "choice": ["bogus", 42],
        "boolean": [1, "true"],
        "string": ["", 5],
        "integers": ["x", [0.5], [True]],
    }[key.type]
    step = 1 if key.type == "integer" else 1.0
    if key.minimum is not None:
        values.append(key.minimum - step)
    if key.exclusive_minimum is not None:
        values += [key.exclusive_minimum, key.exclusive_minimum - step]
    if key.maximum is not None:
        values.append(key.maximum + step)
    return values


def dotted(route):
    return "config" + "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in route)


@settings(derandomize=True, database=None, deadline=None, max_examples=1000)
@given(st.data())
def test_out_of_domain_mutation_exits_2_naming_its_key(data):
    config = copy.deepcopy(SAMPLES[data.draw(st.sampled_from(sorted(SAMPLES)))])
    route, key, deletable = data.draw(st.sampled_from(list(schema_keys(CONFIG, config))))
    parent = config
    for part in route[:-1]:
        parent = parent[part]
    choices = out_of_domain(key) + (["delete"] if deletable else [])
    mutation = data.draw(st.sampled_from(choices), label="mutation")
    if mutation == "delete":
        del parent[route[-1]]
        expected = f"error: {dotted(route[:-1])}: missing keys [{route[-1]!r}]\n"
    elif mutation == "unknown" and isinstance(key, dict):
        parent[route[-1]]["bogus"] = 1
        expected = f"error: {dotted(route)}: unknown keys ['bogus']\n"
    else:
        parent[route[-1]] = mutation
        expected = f"error: {dotted(route)}: "
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "config.json")
        with open(path, "w") as handle:
            json.dump(config, handle)
        stderr = io.StringIO()
        code = run(path, out=os.path.join(work, "fresh", "run"), stderr=stderr)
        assert (code, stderr.getvalue()[: len(expected)]) == (2, expected)
        assert not os.path.exists(os.path.join(work, "fresh"))
