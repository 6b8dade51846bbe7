"""Config parsing and tiny end-to-end runs of the two experiment drivers."""

import csv
import math
from dataclasses import fields

import numpy as np
import pytest

from nnentropy import (
    DataFormatError,
    EstimatorSettings,
    GammaCache,
    Gaussian,
    IsaExperimentConfig,
    PAPER_SCALE_ISA,
    Product,
    RateExperimentConfig,
    RateRow,
    UniformCube,
    Wireframe3D,
    gaussian_renyi_mi,
    histogram_mi,
    mi_rate_exponent,
    mi_truth,
    renyi_mi,
    run_isa_experiment,
    run_rate_experiment,
    sample,
)

EQUI3 = np.full((3, 3), 0.5) + np.diag(np.full(3, 0.5))


class TestMiTruth:
    def test_uniform_cube_is_independent(self):
        assert mi_truth(UniformCube(3), 0.7) == 0.0

    def test_product_of_scalar_factors_is_independent(self):
        spec = Product((UniformCube(1), Gaussian(np.zeros(1), [[2.0]])))
        assert mi_truth(spec, 0.7) == 0.0

    def test_gaussian_closed_form(self):
        assert mi_truth(Gaussian(np.zeros(3), EQUI3), 0.7) == gaussian_renyi_mi(EQUI3, 0.7)

    @pytest.mark.parametrize(
        "spec",
        [Wireframe3D("spiral"), Product((Wireframe3D("spiral", axes=(0, 1)), UniformCube(1)))],
        ids=["wireframe", "product-with-planar-part"],
    )
    def test_unknown_truth_raises(self, spec):
        with pytest.raises(ValueError, match="no closed-form"):
            mi_truth(spec, 0.7)


class TestRateConfig:
    def test_minimal_dict_resolves_auto_truth(self):
        config = RateExperimentConfig.from_dict({"distribution": {"kind": "uniform_cube", "d": 3}})
        assert config.truth == 0.0
        assert config.alpha == 0.7
        assert config.n_grid == (256, 512, 1024, 2048, 4096)
        assert [label for label, _ in config.estimators] == ["kth", "knn"]

    def test_gaussian_shorthand(self):
        config = RateExperimentConfig.from_dict(
            {"distribution": {"kind": "gaussian", "d": 3, "rho": 0.5}}
        )
        assert isinstance(config.distribution, Gaussian)
        assert np.array_equal(config.distribution.cov, EQUI3)
        assert config.truth == pytest.approx(gaussian_renyi_mi(EQUI3, 0.7), abs=1e-12)

    def test_explicit_estimators(self):
        config = RateExperimentConfig.from_dict(
            {
                "distribution": {"kind": "uniform_cube", "d": 2},
                "estimators": [{"label": "nn1", "S": [1]}],
                "n_grid": [64, 128],
                "runs": 3,
            }
        )
        assert config.estimators[0][0] == "nn1"
        assert config.estimators[0][1].indices == (1,)

    def test_roundtrip(self):
        config = RateExperimentConfig.from_dict(
            {"distribution": {"kind": "gaussian", "d": 3, "rho": 0.5}, "runs": 2}
        )
        assert RateExperimentConfig.from_dict(config.to_dict()).to_dict() == config.to_dict()

    @pytest.mark.parametrize(
        "obj, message",
        [
            ({}, "needs a 'distribution'"),
            ({"distribution": {"kind": "uniform_cube", "d": 2}, "bogus": 1}, "unknown rate config keys"),
            ({"distribution": {"kind": "uniform_cube", "d": 2}, "truth": "later"}, "truth must be a number"),
            ({"distribution": {"kind": "wireframe3d", "shape": "star"}}, "no closed-form"),
            ({"distribution": {"kind": "uniform_cube", "d": 2}, "estimators": "knn"}, "must be a list"),
            (
                {"distribution": {"kind": "uniform_cube", "d": 2}, "estimators": [{"label": "a"}]},
                "exactly 'label' and 'S'",
            ),
            (
                {
                    "distribution": {"kind": "uniform_cube", "d": 2},
                    "estimators": [{"label": "a", "S": [1]}, {"label": "a", "S": [2]}],
                },
                "labels must be distinct",
            ),
            ({"distribution": {"kind": "uniform_cube", "d": 2}, "n_grid": [1]}, "n_grid"),
            (
                {"distribution": {"kind": "uniform_cube", "d": 2}, "n_grid": 64},
                "n_grid must be a nonempty list",
            ),
            ({"distribution": {"kind": "uniform_cube", "d": 2}, "n_grid": [64.0]}, "n_grid size"),
            ({"distribution": {"kind": "uniform_cube", "d": 2}, "alpha": True}, "alpha must lie"),
            ({"distribution": {"kind": "uniform_cube", "d": 2}, "truth": True}, "truth must be a finite"),
            ({"distribution": {"kind": "uniform_cube", "d": 2}, "truth": 10**400}, "truth must be a finite"),
            ({"distribution": {"kind": "uniform_cube", "d": 2}, "reps": True}, "reps must be an integer"),
            (
                {
                    "distribution": {"kind": "uniform_cube", "d": 2},
                    "estimators": [{"label": "a", "S": [0]}],
                },
                "neighbor rank",
            ),
            ({"distribution": {"kind": "gaussian", "d": 3.5, "rho": 0.5}}, "d must be an integer"),
            ("nope", "must be a JSON object"),
            (
                {"distribution": {"kind": "gaussian", "d": 3, "rh0": 0.9}},
                r"unknown gaussian shorthand keys: \['rh0'\]",
            ),
            (
                {"distribution": {"kind": "gaussian", "d": 3, "rho": 0.5, "mean": [1, 1, 1]}},
                r"unknown gaussian shorthand keys: \['mean'\]",
            ),
            (
                {"distribution": {"kind": "uniform_cube", "d": 2, "sid": 2.0}},
                r"unknown uniform_cube distribution keys: \['sid'\]",
            ),
            (
                {"distribution": {"kind": "wireframe3d", "shape": "star", "axis": [0, 1]}},
                r"unknown wireframe3d distribution keys: \['axis'\]",
            ),
            (
                {
                    "distribution": {"kind": "uniform_cube", "d": 2},
                    "estimators": [{"label": None, "S": [1]}],
                },
                "estimator label must be a string, got None",
            ),
            (
                {
                    "distribution": {"kind": "uniform_cube", "d": 2},
                    "estimators": [{"label": 5, "S": [1]}],
                },
                "estimator label must be a string, got 5",
            ),
            (
                {"distribution": {"kind": "uniform_cube", "d": 2}, "n_grid": [50, 3]},
                "n_grid size must be an integer >= 4, got 3",
            ),
        ],
    )
    def test_invalid_configs(self, obj, message):
        with pytest.raises(DataFormatError, match=message):
            RateExperimentConfig.from_dict(obj)

    @pytest.mark.parametrize("label", ["hist", "theoretical"])
    def test_reserved_label_is_rejected(self, label):
        # Its rows would merge with the histogram or reference rows.
        message = f"estimator label '{label}' is reserved"
        with pytest.raises(ValueError, match=message):
            RateExperimentConfig(UniformCube(3), 0.0, estimators=((label, (1, 2, 3)),))
        obj = {"distribution": {"kind": "uniform_cube", "d": 3},
               "estimators": [{"label": "knn", "S": [1]}, {"label": label, "S": [1, 2, 3]}]}
        with pytest.raises(DataFormatError, match=message):
            RateExperimentConfig.from_dict(obj)

    @pytest.mark.parametrize(
        "grid", [[512, 256], [64, 64], [64, 128, 96]], ids=["decreasing", "repeated", "unsorted"]
    )
    def test_n_grid_must_strictly_increase(self, grid):
        message = rf"n_grid must strictly increase, got \[{', '.join(map(str, grid))}\]"
        with pytest.raises(ValueError, match=message):
            RateExperimentConfig(UniformCube(3), 0.0, n_grid=tuple(grid))
        obj = {"distribution": {"kind": "uniform_cube", "d": 3}, "n_grid": grid}
        with pytest.raises(DataFormatError, match=message):
            RateExperimentConfig.from_dict(obj)

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="runs"):
            RateExperimentConfig(distribution=UniformCube(2), truth=0.0, runs=0)
        with pytest.raises(ValueError, match="finite"):
            RateExperimentConfig(distribution=UniformCube(2), truth=math.inf)
        with pytest.raises(ValueError, match="estimator"):
            RateExperimentConfig(distribution=UniformCube(2), truth=0.0, estimators=())


def _tiny_rate_config(**overrides):
    base = {
        "distribution": {"kind": "uniform_cube", "d": 3},
        "n_grid": [64, 128],
        "runs": 2,
        "n_cal": 2000,
        "reps": 1,
    }
    base.update(overrides)
    return RateExperimentConfig.from_dict(base)


class TestRunRateExperiment:
    def test_row_inventory_and_reference_slope(self, gamma_cache):
        config = _tiny_rate_config()
        result = run_rate_experiment(config, seed=3, cache=gamma_cache)
        per_run = [r for r in result.rows if r.run is not None]
        assert len(per_run) == 2 * 2 * 3  # sizes x runs x (kth, knn, hist)
        theory = {r.n: r.abs_error for r in result.rows if r.estimator == "theoretical"}
        assert set(theory) == {64, 128}
        kappa = mi_rate_exponent(3, 3 * (1.0 - config.alpha))
        assert theory[64] == pytest.approx(result.mean_errors()["knn"][64], abs=1e-15)
        assert theory[128] == pytest.approx(theory[64] * 2.0**-kappa, abs=1e-15)

    def test_low_dimension_has_no_reference(self, gamma_cache):
        config = _tiny_rate_config(distribution={"kind": "gaussian", "d": 2, "rho": 0.5})
        result = run_rate_experiment(config, seed=4, cache=gamma_cache)
        assert {r.estimator for r in result.rows} == {"kth", "knn", "hist"}

    def test_infeasible_histogram_noted_once_per_size(self, gamma_cache):
        config = _tiny_rate_config(
            distribution={"kind": "uniform_cube", "d": 9}, n_grid=[512], runs=2
        )
        result = run_rate_experiment(config, seed=5, cache=gamma_cache)
        notes = [r for r in result.rows if r.note]
        assert len(notes) == 1
        assert notes[0].estimator == "hist"
        assert notes[0].run is None and notes[0].abs_error is None
        assert result.summary()["notes"] == ["histogram infeasible in this dimension"]
        assert "hist" not in result.mean_errors()

    @pytest.mark.parametrize("extra", [[], [{"label": "deep", "S": [2, 5]}]])
    def test_rows_equal_per_estimator_calls(self, gamma_cache, extra):
        # run_rate_experiment ranks and searches each sample once; every row must equal
        # what renyi_mi and histogram_mi give on that sample, bitwise.
        estimators = [{"label": "kth", "S": [3]}, {"label": "knn", "S": [1, 2, 3]}, *extra]
        config = _tiny_rate_config(
            distribution={"kind": "gaussian", "d": 3, "rho": 0.5}, estimators=estimators
        )
        result = run_rate_experiment(config, seed=8, cache=gamma_cache)
        settings = {
            label: EstimatorSettings(alpha=config.alpha, spec=spec)
            for label, spec in config.estimators
        }
        streams = np.random.SeedSequence(8).spawn(len(config.n_grid) * config.runs)
        expected = []
        for ni, n in enumerate(config.n_grid):
            for run in range(config.runs):
                points = sample(config.distribution, n, streams[ni * config.runs + run])
                values = [(label, renyi_mi(points, settings[label]).value) for label in settings]
                values.append(("hist", histogram_mi(points, config.alpha).value))
                expected += [RateRow(n, run, l, abs(v - config.truth)) for l, v in values]
        assert [r for r in result.rows if r.run is not None] == expected

    def test_deterministic(self, gamma_cache):
        config = _tiny_rate_config()
        a = run_rate_experiment(config, seed=6, cache=gamma_cache)
        b = run_rate_experiment(config, seed=6, cache=gamma_cache)
        assert a.rows == b.rows

    def test_cache_is_ignored(self, tmp_path):
        config = _tiny_rate_config()
        cache = GammaCache(tmp_path / "gamma.jsonl")
        assert run_rate_experiment(config, seed=9, cache=cache).rows == run_rate_experiment(config, seed=9).rows
        assert not cache.path.exists()

    def test_summary_and_csv(self, gamma_cache, tmp_path):
        config = _tiny_rate_config()
        result = run_rate_experiment(config, seed=7, cache=gamma_cache)
        digest = result.summary()
        assert digest["config"] == config.to_dict()
        assert set(digest["mean_abs_error"]) == {"hist", "kth", "knn"}
        assert set(digest["mean_abs_error"]["knn"]) == {"64", "128"}

        path = tmp_path / "rates.csv"
        result.write_csv(path)
        with open(path, newline="") as handle:
            records = list(csv.DictReader(handle))
        assert len(records) == len(result.rows)
        by_key = {
            (r.n, r.run, r.estimator): r for r in result.rows
        }
        for record in records:
            run = None if record["run"] == "" else int(record["run"])
            row = by_key[(int(record["n"]), run, record["estimator"])]
            if record["abs_error"]:
                assert float(record["abs_error"]) == row.abs_error


class TestIsaConfig:
    def test_paper_scale_fields(self):
        assert PAPER_SCALE_ISA.shapes == ("spiral", "trefoil", "cube_edges", "star", "rings", "zigzag")
        assert PAPER_SCALE_ISA.subspace_dim == 3
        assert PAPER_SCALE_ISA.q == 18
        assert PAPER_SCALE_ISA.n == 2000
        assert PAPER_SCALE_ISA.alpha == 0.99
        assert PAPER_SCALE_ISA.mixing == "gaussian"

    def test_from_dict_and_roundtrip(self):
        obj = {"shapes": ["spiral", "zigzag"], "subspace_dim": 2, "S": [1, 2], "n": 500}
        config = IsaExperimentConfig.from_dict(obj)
        assert config.spec.indices == (1, 2)
        assert config.q == 4
        assert IsaExperimentConfig.from_dict(config.to_dict()).to_dict() == config.to_dict()

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"shapes": ("spiral",)}, "at least two"),
            ({"shapes": ("spiral", "dodecahedron")}, "unknown wireframe shape"),
            ({"shapes": ("spiral", "zigzag"), "subspace_dim": 4}, "subspace_dim"),
            ({"shapes": ("spiral", "zigzag"), "n": 5}, "n must be"),
            ({"shapes": ("spiral", "zigzag"), "mixing": "laplace"}, "mixing"),
            ({"shapes": ("spiral", "zigzag"), "q": 3}, "q must be"),
            ({"shapes": ("spiral", "zigzag"), "mixing": "identity", "q": 6}, "identity mixing"),
        ],
    )
    def test_constructor_validation(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            IsaExperimentConfig(**kwargs)

    @pytest.mark.parametrize(
        "obj, message",
        [
            ({"shapes": "spiral"}, "'shapes' list"),
            ({"shapes": ["spiral", "zigzag"], "blocks": 2}, "unknown ISA config keys"),
            ({"shapes": ["spiral", "zigzag"], "n": 5}, "n must be"),
            ([], "must be a JSON object"),
            ({"shapes": ["spiral", "zigzag"], "q": 4.0}, "q must be an integer"),
            ({"shapes": ["spiral", "zigzag"], "subspace_dim": True}, "subspace_dim must be an integer"),
            ({"shapes": ["spiral", "zigzag"], "reps": 0}, "reps must be an integer"),
        ],
    )
    def test_from_dict_errors(self, obj, message):
        with pytest.raises(DataFormatError, match=message):
            IsaExperimentConfig.from_dict(obj)


@pytest.mark.parametrize(
    "cls, minimal",
    [
        (RateExperimentConfig, {"distribution": {"kind": "uniform_cube", "d": 3}}),
        (IsaExperimentConfig, {"shapes": ["spiral", "zigzag"]}),
    ],
    ids=["rate", "isa"],
)
def test_accepted_json_keys_are_the_to_dict_keys(cls, minimal):
    record = cls.from_dict(minimal).to_dict()
    for key, value in record.items():
        assert cls.from_dict({**minimal, key: value}).to_dict() == record
    # Every other name is rejected, a field's name included where its key differs.
    for key in {f.name for f in fields(cls)} - set(record) | {"bogus", "config"}:
        with pytest.raises(DataFormatError, match=rf"unknown .* keys: \['{key}'\]"):
            cls.from_dict({**minimal, key: 1})


def _tiny_isa_config(**overrides):
    base = dict(
        shapes=("spiral", "zigzag"), subspace_dim=2, n=600, alpha=0.7, n_cal=2000, reps=1
    )
    base.update(overrides)
    return IsaExperimentConfig(**base)


class TestRunIsaExperiment:
    def test_scores_against_known_mixing(self, gamma_cache):
        result = run_isa_experiment(_tiny_isa_config(), seed=0, cache=gamma_cache)
        assert result.solution.score is not None
        assert result.block_norms.shape == (2, 2)
        digest = result.to_dict()
        assert set(digest) == {
            "config", "blocks", "objective", "amari_block_index", "iterations", "converged", "warnings",
        }
        assert digest["amari_block_index"] == result.solution.score
        assert type(digest["iterations"]) is int and digest["iterations"] >= 1
        assert type(digest["converged"]) is bool

    def test_identity_mixing(self, gamma_cache):
        result = run_isa_experiment(_tiny_isa_config(mixing="identity"), seed=1, cache=gamma_cache)
        assert result.solution.score is not None

    def test_deterministic(self, gamma_cache):
        a = run_isa_experiment(_tiny_isa_config(), seed=2, cache=gamma_cache)
        b = run_isa_experiment(_tiny_isa_config(), seed=2, cache=gamma_cache)
        assert a.to_dict() == b.to_dict()
        assert np.array_equal(a.block_norms, b.block_norms)

    def test_cache_is_ignored(self, tmp_path):
        cache = GammaCache(tmp_path / "gamma.jsonl")
        a = run_isa_experiment(_tiny_isa_config(), seed=4, cache=cache)
        b = run_isa_experiment(_tiny_isa_config(), seed=4)
        assert a.to_dict() == b.to_dict()
        assert np.array_equal(a.block_norms, b.block_norms)
        assert not cache.path.exists()

    def test_block_norms_csv(self, gamma_cache, tmp_path):
        result = run_isa_experiment(_tiny_isa_config(), seed=3, cache=gamma_cache)
        path = tmp_path / "norms.csv"
        result.write_block_norms_csv(path)
        with open(path, newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader)
            values = np.array([[float(v) for v in row] for row in reader])
        assert header == ["true_block_0", "true_block_1"]
        assert np.array_equal(values, result.block_norms)
