"""End-to-end command-line behavior, run in process through ``main``."""

import json
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nnentropy import gamma_analytic
from nnentropy.cli import _parse_fast, _parse_lines, _read_csv, main
from nnentropy.errors import DataFormatError

pytestmark = pytest.mark.usefixtures("tmp_path")


def run_cli(argv, capsys):
    """Invoke the CLI and capture (exit_code, stdout, stderr)."""
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors and --version
        code = int(exc.code or 0)
    out, err = capsys.readouterr()
    return code, out, err


def write_csv(path, array, header=None):
    lines = [] if header is None else [",".join(header)]
    lines += [",".join(repr(float(v)) for v in row) for row in np.atleast_2d(array)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def uniform3_csv(tmp_path_factory):
    pts = np.random.default_rng(1234).random((2000, 3))
    path = tmp_path_factory.mktemp("data") / "uniform3.csv"
    return write_csv(path, pts)


@pytest.fixture
def cache_arg(gamma_cache):
    return ["--cache", str(gamma_cache.path)]


class TestCalibrate:
    ARGS = ["calibrate", "--d", "3", "--alpha", "0.7", "--S", "1,2,3"]

    def test_prints_the_closed_forms(self, capsys):
        code, out, _ = run_cli(self.ARGS, capsys)
        assert code == 0
        record = json.loads(out)
        assert set(record) == {"tool_version", "d", "p", "S", "gamma", "b"}
        assert record["d"] == 3 and record["S"] == [1, 2, 3]
        assert record["gamma"] == math.fsum(gamma_analytic(3, record["p"], k) for k in (1, 2, 3))
        assert math.isfinite(record["b"]) and record["b"] > 0.0

    def test_gamma_is_the_entropy_constant_bitwise(self, uniform3_csv, capsys):
        record = json.loads(run_cli(self.ARGS, capsys)[1])
        report = json.loads(run_cli(["entropy", uniform3_csv, "--alpha", "0.7"], capsys)[1])
        assert (record["p"], record["gamma"]) == (report["p"], report["gamma"])

    def test_boundary_factor_gives_the_mi_constant_bitwise(self, uniform3_csv, capsys):
        record = json.loads(run_cli(self.ARGS, capsys)[1])
        report = json.loads(run_cli(["mi", uniform3_csv, "--alpha", "0.7"], capsys)[1])
        n = report["n"]
        assert record["gamma"] * (1.0 + record["b"] * n ** (-1.0 / 3)) == report["gamma"]

    def test_p_flag_matches_derived_p(self, capsys):
        base = ["--d", "2", "--S", "1"]
        via_alpha = run_cli(["calibrate", "--alpha", "0.7"] + base, capsys)
        via_p = run_cli(["calibrate", "--p", str(2 * (1 - 0.7))] + base, capsys)
        assert via_alpha == via_p

    @pytest.mark.parametrize(
        "argv, message",
        [(["--d", "3", "--alpha", "1.2"], "alpha"),
         (["--d", "0", "--alpha", "0.7"], "d must be"),
         (["--d", "x", "--alpha", "0.7"], "--d"),
         (["--d", "3", "--p", "3"], "p must"),
         (["--d", "3", "--p", "0"], "p must"),
         (["--d", "2", "--alpha", "0.7", "--p", "0.6"], "not allowed with")],
        ids=["alpha-out-of-range", "zero-d", "string-d", "p-at-d", "zero-p", "alpha-and-p"],
    )
    def test_bad_parameter_is_usage_error(self, argv, message, capsys):
        code, out, err = run_cli(["calibrate"] + argv, capsys)
        assert (code, out) == (2, "")
        assert message in err

    @pytest.mark.parametrize(
        "flag",
        [["--cache", "x"], ["--n-cal", "10"], ["--reps", "2"], ["--seed", "1"], ["--threads", "1"]],
        ids=["cache", "n-cal", "reps", "seed", "threads"],
    )
    def test_monte_carlo_flags_are_gone(self, flag, capsys):
        code, out, err = run_cli(self.ARGS + flag, capsys)
        assert (code, out) == (2, "")
        assert "unrecognized arguments" in err


class TestEntropy:
    def test_uniform_cube_value_near_zero(self, uniform3_csv, cache_arg, capsys):
        code, out, _ = run_cli(["entropy", uniform3_csv, "--alpha", "0.7"] + cache_arg, capsys)
        assert code == 0
        report = json.loads(out)
        assert abs(report["value"]) < 0.2
        assert report["n"] == 2000 and report["d"] == 3
        assert report["gamma_source"] == "analytic" and "gamma_std_error" not in report
        assert "tool_version" in report and report["input"] == uniform3_csv

    def test_deterministic_given_cache(self, uniform3_csv, cache_arg, capsys):
        argv = ["entropy", uniform3_csv, "--alpha", "0.7"] + cache_arg
        assert run_cli(argv, capsys) == run_cli(argv, capsys)

    def test_cache_flag_is_ignored(self, uniform3_csv, tmp_path, capsys):
        argv = ["entropy", uniform3_csv, "--alpha", "0.7"]
        cache = tmp_path / "gamma.jsonl"
        assert run_cli(argv + ["--cache", str(cache)], capsys) == run_cli(argv, capsys)
        assert not cache.exists()

    def test_header_is_auto_detected(self, tmp_path, capsys):
        pts = np.random.default_rng(5).random((50, 2))
        bare = write_csv(tmp_path / "bare.csv", pts)
        headed = write_csv(tmp_path / "headed.csv", pts, header=["x", "y"])
        out_bare = json.loads(run_cli(["entropy", bare, "--alpha", "0.7", "--gamma", "1.0"], capsys)[1])
        out_headed = json.loads(run_cli(["entropy", headed, "--alpha", "0.7", "--gamma", "1.0"], capsys)[1])
        assert out_bare["value"] == out_headed["value"]

    def test_empty_csv(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("", encoding="utf-8")
        code, _, err = run_cli(["entropy", str(empty), "--alpha", "0.7"], capsys)
        assert code == 3
        assert "no data" in err

    def test_ragged_csv_names_line(self, tmp_path, capsys):
        path = tmp_path / "ragged.csv"
        path.write_text("1.0,2.0\n3.0,4.0\n5.0\n", encoding="utf-8")
        code, _, err = run_cli(["entropy", str(path), "--alpha", "0.7"], capsys)
        assert code == 3
        assert "line 3" in err and "columns" in err

    def test_non_finite_value_names_line(self, tmp_path, capsys):
        path = tmp_path / "inf.csv"
        path.write_text("1.0,2.0\n3.0,inf\n", encoding="utf-8")
        code, _, err = run_cli(["entropy", str(path), "--alpha", "0.7"], capsys)
        assert code == 3
        assert "line 2" in err and "non-finite" in err

    def test_missing_file(self, tmp_path, capsys):
        code, _, err = run_cli(["entropy", str(tmp_path / "nope.csv"), "--alpha", "0.7"], capsys)
        assert code == 3

    def test_invalid_utf8_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "latin.csv"
        path.write_bytes(b"0.1,0.2\n0.3,\xff\n")
        code, out, err = run_cli(["entropy", str(path), "--alpha", "0.7"], capsys)
        assert (code, out) == (3, "")
        assert "not valid UTF-8" in err

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_bad_thread_count_fails_before_reading(self, tmp_path, threads, capsys):
        # The input does not exist: reading it would exit 3.
        argv = ["entropy", str(tmp_path / "nope.csv"), "--alpha", "0.7", "--threads", threads]
        code, _, err = run_cli(argv, capsys)
        assert code == 2
        assert "workers (or -1 for all cores) must be an integer >= 1" in err

    def test_too_few_points(self, tmp_path, capsys):
        path = write_csv(tmp_path / "two.csv", [[0.1, 0.2], [0.3, 0.4]])
        code, _, err = run_cli(["entropy", path, "--alpha", "0.7", "--gamma", "1.0"], capsys)
        assert code == 3

    def test_coincident_points_are_numerical_error(self, tmp_path, capsys):
        path = write_csv(tmp_path / "dup.csv", [[0.5, 0.5]] * 8)
        code, _, err = run_cli(["entropy", path, "--alpha", "0.7", "--gamma", "1.0"], capsys)
        assert code == 4

    @pytest.mark.parametrize("command", ["entropy", "mi"])
    def test_constant_column_is_numerical_error(self, tmp_path, command, capsys):
        pts = np.random.default_rng(7).random((500, 3))
        pts[:, 1] = 0.5
        path = write_csv(tmp_path / "flat.csv", pts)
        code, out, err = run_cli([command, path, "--alpha", "0.7"], capsys)
        assert (code, out) == (4, "")
        assert "coordinate 1 has zero spread" in err

    def test_overflowing_distances_are_numerical_error(self, tmp_path, capsys):
        pts = np.random.default_rng(7).random((500, 3)) * 1e155
        path = write_csv(tmp_path / "huge.csv", pts)
        code, _, err = run_cli(["entropy", path, "--alpha", "0.7", "--gamma", "analytic"], capsys)
        assert code == 4
        assert "overflow float64" in err

    def test_overflowing_edge_powers_are_numerical_error(self, tmp_path, capsys):
        # p = 2.85: the distances fit float64, their powers do not.
        pts = np.random.default_rng(0).random((500, 3)) * 1e150
        path = write_csv(tmp_path / "huge.csv", pts)
        code, out, err = run_cli(["entropy", path, "--alpha", "0.05"], capsys)
        assert (code, out) == (4, "")
        assert "L_p at p = 2.85 overflows float64" in err

    @pytest.mark.parametrize("gamma", ["1e-308", "1e308"])
    @pytest.mark.parametrize("command", ["entropy", "mi"])
    def test_gamma_at_the_float64_limits_is_numerical_error(self, tmp_path, command, gamma, capsys):
        path = write_csv(tmp_path / "pts.csv", np.random.default_rng(0).random((500, 3)))
        code, out, err = run_cli([command, path, "--alpha", "0.7", "--gamma", gamma], capsys)
        assert (code, out) == (4, "")
        assert "estimate out of float64 range" in err

    def test_underflowing_distances_are_numerical_error(self, tmp_path, capsys):
        pts = np.random.default_rng(7).random((500, 3)) * 1e-170
        path = write_csv(tmp_path / "tiny.csv", pts)
        code, _, err = run_cli(["entropy", path, "--alpha", "0.7", "--gamma", "analytic"], capsys)
        assert code == 4
        assert "underflow float64" in err

    def test_bad_gamma_flag(self, tmp_path, capsys):
        path = write_csv(tmp_path / "pts.csv", np.random.default_rng(6).random((10, 2)))
        code, _, _ = run_cli(["entropy", path, "--alpha", "0.7", "--gamma", "magic"], capsys)
        assert code == 2


class TestMi:
    def test_independent_columns_near_zero(self, uniform3_csv, cache_arg, capsys):
        code, out, _ = run_cli(["mi", uniform3_csv, "--alpha", "0.7"] + cache_arg, capsys)
        assert code == 0
        report = json.loads(out)
        assert abs(report["value"]) < 0.3
        assert report["warnings"] == []
        assert report["gamma_source"] == "boundary" and "gamma_std_error" not in report

    def test_cache_flag_is_ignored(self, uniform3_csv, tmp_path, capsys):
        argv = ["mi", uniform3_csv, "--alpha", "0.7"]
        cache = tmp_path / "gamma.jsonl"
        assert run_cli(argv + ["--cache", str(cache)], capsys) == run_cli(argv, capsys)
        assert not cache.exists()

    def test_low_dimension_warns(self, tmp_path, capsys):
        path = write_csv(tmp_path / "pair.csv", np.random.default_rng(7).random((400, 2)))
        code, out, _ = run_cli(
            ["mi", path, "--alpha", "0.7", "--S", "1", "--gamma", "analytic"], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert any("d >= 3" in w for w in report["warnings"])

    def test_duplicated_column_reads_large(self, tmp_path, capsys):
        x = np.random.default_rng(8).random(400)
        path = write_csv(tmp_path / "dup.csv", np.column_stack([x, x]))
        code, out, _ = run_cli(
            ["mi", path, "--alpha", "0.7", "--S", "1", "--gamma", "analytic"], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert report["value"] > 1.0
        assert report["warnings"]  # dependence is perfect but d=2 is outside the guarantee

    @pytest.mark.parametrize("ranks", ["0", "a,b"])
    def test_bad_ranks_are_usage_error(self, uniform3_csv, ranks, capsys):
        code, out, err = run_cli(["mi", uniform3_csv, "--alpha", "0.7", "--S", ranks], capsys)
        assert (code, out) == (2, "")
        assert "argument --S" in err

    def test_single_column_is_usage_error(self, tmp_path, capsys):
        path = write_csv(tmp_path / "one.csv", np.random.default_rng(9).random((50, 1)))
        code, out, err = run_cli(["mi", path, "--alpha", "0.7", "--gamma", "analytic"], capsys)
        assert (code, out) == (2, "")
        assert "d >= 2" in err


ROWS = ["0.11,0.52", "0.23,0.91", "0.37,0.18", "0.45,0.66",
        "0.58,0.34", "0.62,0.07", "0.79,0.83", "0.94,0.29"]
POINTS = [[float(c) for c in row.split(",")] for row in ROWS]
TEXT = "\n".join(ROWS) + "\n"
AFTER_FIRST = "\n".join(ROWS[1:]) + "\n"

# Cells and line breaks the vectorized parse declines or must not misread;
# the per-line parser decides each of them.
DECLINED = ["1_0", '"1.5"', "\u0663", "\u0661.\u0665", "inf", "-inf", "nan", "1e400", "",
            " ", "#1", "1#", "\x1c1", "2\x1f", " 2.5", "1.5 ", "\t3", "\xa01", "x", "1,5",
            "\ufeff1", "\u30001", "2\x85", "\u2028", "\r", "\n", "\r\n", "1e", "0x10", "+-1"]


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("csv")


class TestCsvInput:
    def estimate(self, path, capsys):
        argv = ["entropy", str(path), "--alpha", "0.7", "--gamma", "1.0", "--S", "1"]
        code, out, err = run_cli(argv, capsys)
        return code, (json.loads(out) if code == 0 else None), err

    def test_byte_order_mark_keeps_first_row(self, tmp_path, capsys):
        plain, bom, bom_header = (tmp_path / f"{name}.csv" for name in ("plain", "bom", "head"))
        plain.write_text(TEXT, encoding="utf-8")
        bom.write_text("\ufeff" + TEXT, encoding="utf-8")
        bom_header.write_text("\ufeffx,y\n" + TEXT, encoding="utf-8")
        reports = [self.estimate(path, capsys)[1] for path in (plain, bom, bom_header)]
        assert [r["n"] for r in reports] == [len(ROWS)] * 3
        assert reports[0]["value"] == reports[1]["value"] == reports[2]["value"]

    @pytest.mark.parametrize(
        "text, points",
        [
            ("1_0,0.52\n" + AFTER_FIRST, [[10.0, 0.52]] + POINTS[1:]),
            ('"0.11",0.52\n' + AFTER_FIRST, POINTS),
            ("\r".join(ROWS) + "\r", POINTS),
            ("\u0660.\u0661\u0661,0.52\n" + AFTER_FIRST, POINTS),
            ("\n\n".join(ROWS) + "\n", POINTS),
            ("x,y\n\n" + TEXT, POINTS),
        ],
        ids=["underscore", "quoted-cell", "cr-only", "arabic-indic-digits",
             "blank-lines-between-rows", "header-then-blank-line"],
    )
    def test_declined_input_that_parses(self, tmp_path, text, points, capsys):
        path, reference = tmp_path / "in.csv", tmp_path / "ref.csv"
        path.write_text(text, encoding="utf-8")
        write_csv(reference, np.array(points))
        code, report, err = self.estimate(path, capsys)
        assert (code, err) == (0, "")
        assert report["value"] == self.estimate(reference, capsys)[1]["value"]

    @pytest.mark.parametrize(
        "text, message",
        [
            ("\n".join(ROWS[:3] + ["   "] + ROWS[3:]), "line 4: expected 2 columns, got 1"),
            ("\n".join(ROWS[:3] + ["#0.5,0.5"] + ROWS[3:]), "line 4: invalid number '#0.5'"),
            ("\n".join(ROWS[:2] + ["1e400,0.5"] + ROWS[2:]), "line 3: non-finite value '1e400'"),
            ("\n".join(ROWS[:3] + ["0.5,0.5,"] + ROWS[3:]), "line 4: expected 2 columns, got 3"),
            ("x,y,z\n" + TEXT, "line 2: expected 3 columns, got 2"),
            ("x\r" + TEXT, "line 2: expected 1 columns, got 2"),
            ("\n".join(ROWS[:2] + ["\x1c0.5,0.5"] + ROWS[2:]), "line 3: invalid number '0.5'"),
            ('"a\nb",c\n0.1,0.2\n0.3\n', "line 4: expected 2 columns, got 1"),
            ("\n".join(ROWS[:2] + ['"' + "1" * 140_001 + '",0.5'] + ROWS[2:]),
             "line 3: field larger than field limit (131072)"),
            # Python 3.10's csv reader refuses NUL; from 3.11 the cell reaches float().
            ("\n".join(ROWS[:2] + ["\x000.5,0.5"] + ROWS[2:]),
             "line 3: line contains NUL" if sys.version_info < (3, 11)
             else "line 3: invalid number '\\x000.5'"),
        ],
        ids=["whitespace-only-line", "hash-line", "overflow", "trailing-comma",
             "header-wider-than-data", "bare-cr-in-header", "file-separator",
             "multi-line-quoted-header", "field-over-csv-limit", "nul-byte"],
    )
    def test_declined_input_that_fails(self, tmp_path, text, message, capsys):
        path = tmp_path / "in.csv"
        path.write_text(text, encoding="utf-8")
        assert self.estimate(path, capsys) == (3, None, f"error: {path}: {message}\n")

    def test_bad_second_line_stops_the_parse(self, tmp_path):
        """A bad row is reported before the rows after it are read: on a
        2.9 MB file the traced peak stays below 7 times the file's size (the
        file's bytes and text, and the vectorized parse's split lines, take
        about 5), where holding every row's strings took about 12."""
        rows = np.random.default_rng(8).random((50_000, 3)).tolist()
        lines = [",".join(map(repr, row)) for row in rows]
        lines[1] = "1.0,abc,2.0"
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        tracemalloc.start()
        try:
            with pytest.raises(DataFormatError, match="line 2: invalid number 'abc'"):
                _read_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7 * path.stat().st_size

    def test_vectorized_parse_takes_plain_files(self):
        points = np.random.default_rng(3).random((50, 3)).tolist()
        body = "\n".join(",".join(map(repr, row)) for row in points)
        for text in (body, "a,b,c\n" + body, "temp\u00e9rature,b,c\n" + body,
                     "\n\n" + body + "\n\n", body.replace("\n", "\r\n")):
            fast = _parse_fast(text)
            assert fast is not None
            assert fast.tobytes() == _parse_lines("x.csv", text).tobytes()

    @settings(max_examples=300)
    @given(
        width=st.integers(1, 4),
        noisy=st.booleans(),
        data=st.data(),
        bom=st.booleans(),
        header=st.sampled_from([None, "same", "wider", "numeric"]),
    )
    def test_matches_per_line_parser(self, csv_dir, width, noisy, data, bom, header):
        """Clean files mostly take the vectorized parse; noisy ones add the
        declined cells, ragged rows, whitespace lines and mixed line breaks."""
        finite = st.floats(allow_nan=False, allow_infinity=False).map(repr)
        declined = st.one_of(st.sampled_from(DECLINED), st.text(max_size=3))
        cell = st.one_of(finite, finite, finite, declined) if noisy else finite
        row = st.lists(cell, min_size=width, max_size=width)
        if noisy:
            row = st.one_of(row, st.lists(cell, min_size=1, max_size=width + 1))
        blank = st.sampled_from(["", "", " ", "\t"] if noisy else [""])
        lines = data.draw(st.lists(st.one_of(row.map(",".join), row.map(",".join), blank),
                                   max_size=12))
        if header is not None:
            names = ["1.5"] * width if header == "numeric" else [f"c{i}" for i in range(width)]
            lines.insert(0, ",".join(names + ["extra"] * (header == "wider")))
        if noisy:
            ends = data.draw(st.lists(st.sampled_from(["\n", "\n", "\r\n", "\r"]),
                                      min_size=len(lines), max_size=len(lines)))
        else:
            ends = [data.draw(st.sampled_from(["\n", "\r\n"]))] * len(lines)
        text = "".join(a + b for a, b in zip(lines, ends))
        path = csv_dir / "in.csv"
        path.write_bytes(("\ufeff" if bom else "").encode() + text.encode("utf-8"))

        def outcome(parse):
            try:
                points = parse()
            except DataFormatError as exc:
                return "error", str(exc)
            return points.dtype, points.shape, points.tobytes()

        decoded = path.read_bytes().decode("utf-8-sig")
        assert outcome(lambda: _read_csv(path)) == outcome(lambda: _parse_lines(path, decoded))


class TestRateExperiment:
    CONFIG = {
        "distribution": {"kind": "uniform_cube", "d": 3},
        "n_grid": [64, 128],
        "runs": 2,
        "n_cal": 2000,
        "reps": 1,
    }

    def test_writes_table_and_summary(self, tmp_path, capsys):
        config = tmp_path / "rate.json"
        config.write_text(json.dumps(self.CONFIG), encoding="utf-8")
        out_csv = tmp_path / "rates.csv"
        code, out, _ = run_cli(
            ["rate-experiment", "--config", str(config), "--out", str(out_csv), "--seed", "2"],
            capsys,
        )
        assert code == 0
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "n,run,estimator,abs_error,note"
        # sizes x runs x (kth, knn, hist) per-run rows plus two reference rows
        assert len(lines) - 1 == 2 * 2 * 3 + 2
        summary = json.loads(out)
        assert summary["out"] == str(out_csv)
        assert set(summary["mean_abs_error"]) == {"hist", "kth", "knn"}

    def test_cache_flag_is_gone(self, tmp_path, capsys):
        argv = ["rate-experiment", "--config", "rate.json", "--out", str(tmp_path / "r.csv")]
        code, _, err = run_cli(argv + ["--cache", "gamma.jsonl"], capsys)
        assert code == 2 and "unrecognized arguments: --cache" in err

    def test_out_flag_required(self, tmp_path, capsys):
        config = tmp_path / "rate.json"
        config.write_text(json.dumps(self.CONFIG), encoding="utf-8")
        code, _, _ = run_cli(["rate-experiment", "--config", str(config)], capsys)
        assert code == 2

    def test_unknown_config_key(self, tmp_path, capsys):
        config = tmp_path / "rate.json"
        config.write_text(json.dumps({**self.CONFIG, "plot": True}), encoding="utf-8")
        code, _, err = run_cli(
            ["rate-experiment", "--config", str(config), "--out", str(tmp_path / "r.csv")], capsys
        )
        assert code == 3
        assert "unknown rate config keys" in err

    @pytest.mark.parametrize("label", ["hist", "theoretical"])
    def test_reserved_label_is_data_error(self, tmp_path, label, capsys):
        config = tmp_path / "rate.json"
        estimators = [{"label": label, "S": [1, 2, 3]}]
        config.write_text(json.dumps({**self.CONFIG, "estimators": estimators}), encoding="utf-8")
        out_csv = tmp_path / "r.csv"
        code, out, err = run_cli(
            ["rate-experiment", "--config", str(config), "--out", str(out_csv)], capsys
        )
        assert (code, out) == (3, "")
        assert f"estimator label '{label}' is reserved" in err
        assert not out_csv.exists()

    def test_unknown_distribution_key(self, tmp_path, capsys):
        distribution = {"kind": "gaussian", "d": 3, "rh0": 0.9}
        config = tmp_path / "rate.json"
        config.write_text(json.dumps({**self.CONFIG, "distribution": distribution}), encoding="utf-8")
        out_csv = tmp_path / "r.csv"
        code, _, err = run_cli(
            ["rate-experiment", "--config", str(config), "--out", str(out_csv)], capsys
        )
        assert code == 3
        assert "unknown gaussian shorthand keys: ['rh0']" in err
        assert not out_csv.exists()

    @pytest.mark.parametrize(
        "field, value",
        [("runs", 2.5), ("runs", "3"), ("histogram", "false"),
         ("estimators", [{"label": "a", "S": "1,2"}]), ("n_grid", [128, 64]),
         ("distribution", {"kind": "gaussian", "d": 3, "rho": 1.0}),
         ("distribution", {"kind": "gaussian", "d": 3, "rho": 1.5})],
        ids=["float-runs", "string-runs", "string-histogram", "string-estimator-S",
             "decreasing-n_grid", "singular-shorthand-rho-1", "singular-shorthand-rho-1.5"],
    )
    def test_mistyped_field_is_data_error(self, tmp_path, field, value, capsys):
        config = tmp_path / "rate.json"
        config.write_text(json.dumps({**self.CONFIG, field: value}), encoding="utf-8")
        out_csv = tmp_path / "r.csv"
        code, _, err = run_cli(
            ["rate-experiment", "--config", str(config), "--out", str(out_csv)], capsys
        )
        assert code == 3
        assert field in err
        assert not out_csv.exists()

    def test_one_dimensional_distribution_is_data_error(self, tmp_path, capsys):
        distribution = {"kind": "uniform_cube", "d": 1}
        config = tmp_path / "rate.json"
        config.write_text(json.dumps({**self.CONFIG, "distribution": distribution}), encoding="utf-8")
        out_csv = tmp_path / "r.csv"
        code, _, err = run_cli(
            ["rate-experiment", "--config", str(config), "--out", str(out_csv)], capsys
        )
        assert code == 3
        assert "d >= 2" in err
        assert not out_csv.exists()

    def test_missing_config_file(self, tmp_path, capsys):
        code, _, _ = run_cli(
            ["rate-experiment", "--config", str(tmp_path / "nope.json"),
             "--out", str(tmp_path / "r.csv")],
            capsys,
        )
        assert code == 3

    def test_invalid_json_is_data_error(self, tmp_path, capsys):
        config = tmp_path / "rate.json"
        config.write_text('{"n_grid": [64,', encoding="utf-8")
        out_csv = tmp_path / "r.csv"
        code, out, err = run_cli(
            ["rate-experiment", "--config", str(config), "--out", str(out_csv)], capsys
        )
        assert (code, out) == (3, "")
        assert "invalid JSON in rate config" in err
        assert not out_csv.exists()


class TestIsa:
    CONFIG = {
        "shapes": ["spiral", "zigzag"],
        "subspace_dim": 2,
        "n": 400,
        "alpha": 0.7,
        "n_cal": 2000,
        "reps": 1,
    }

    def _write_config(self, tmp_path):
        path = tmp_path / "isa.json"
        path.write_text(json.dumps(self.CONFIG), encoding="utf-8")
        return str(path)

    def test_writes_solution_and_norms(self, tmp_path, capsys):
        out_dir = tmp_path / "isa-out"
        code, out, _ = run_cli(
            ["isa", "--config", self._write_config(tmp_path), "--out-dir", str(out_dir)], capsys
        )
        assert code == 0
        payload = json.loads((out_dir / "solution.json").read_text())
        assert json.loads(out) == payload
        assert payload["amari_block_index"] is not None
        norms = (out_dir / "block_norms.csv").read_text().strip().splitlines()
        assert norms[0] == "true_block_0,true_block_1"
        assert len(norms) == 3

    def test_deterministic(self, tmp_path, capsys):
        config = self._write_config(tmp_path)
        runs = []
        for name in ("a", "b"):
            out_dir = tmp_path / name
            run_cli(["isa", "--config", config, "--out-dir", str(out_dir), "--seed", "4"], capsys)
            runs.append((out_dir / "solution.json").read_text())
        assert runs[0] == runs[1]

    def test_cache_flag_is_gone(self, tmp_path, capsys):
        argv = ["isa", "--config", "isa.json", "--out-dir", str(tmp_path / "out")]
        code, _, err = run_cli(argv + ["--cache", "gamma.jsonl"], capsys)
        assert code == 2 and "unrecognized arguments: --cache" in err

    @pytest.mark.parametrize(
        "field, value",
        [("alpha", 1.5), ("n_cal", 2.5e5), ("n", 10.9), ("S", "1")],
        ids=["alpha-out-of-range", "float-n_cal", "float-n", "string-S"],
    )
    def test_bad_field_is_data_error(self, tmp_path, field, value, capsys):
        path = tmp_path / "isa.json"
        path.write_text(json.dumps({**self.CONFIG, field: value}), encoding="utf-8")
        out_dir = tmp_path / "isa-out"
        code, _, err = run_cli(["isa", "--config", str(path), "--out-dir", str(out_dir)], capsys)
        assert code == 3
        assert field in err
        assert not out_dir.exists()

    def test_invalid_json_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "isa.json"
        path.write_text("{'shapes': ['spiral']}", encoding="utf-8")
        out_dir = tmp_path / "isa-out"
        code, out, err = run_cli(["isa", "--config", str(path), "--out-dir", str(out_dir)], capsys)
        assert (code, out) == (3, "")
        assert "invalid JSON in ISA config" in err
        assert not out_dir.exists()

    def test_deeply_nested_config_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "isa.json"
        path.write_text('{"shapes": ' + "[" * 5000 + "]" * 5000 + "}", encoding="utf-8")
        out_dir = tmp_path / "isa-out"
        code, out, err = run_cli(["isa", "--config", str(path), "--out-dir", str(out_dir)], capsys)
        assert (code, out) == (3, "")
        assert f"{path}: ISA config is nested too deeply" in err
        assert not out_dir.exists()

    def test_config_and_paper_scale_are_exclusive(self, tmp_path, capsys):
        config = self._write_config(tmp_path)
        both = ["isa", "--config", config, "--paper-scale", "--out-dir", str(tmp_path / "o")]
        assert run_cli(both, capsys)[0] == 2
        neither = ["isa", "--out-dir", str(tmp_path / "o")]
        assert run_cli(neither, capsys)[0] == 2


class TestDiagnostics:
    def test_quick_run_passes(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code, stdout, _ = run_cli(
            ["diagnostics", "--quick", "--seed", "5", "--out", str(out)], capsys
        )
        assert code == 0
        payload = json.loads(stdout)
        assert payload["passed"] is True
        assert payload["quick"] is True and payload["seed"] == 5
        assert json.loads(out.read_text()) == payload


class TestTopLevel:
    def test_version(self, capsys):
        code, out, _ = run_cli(["--version"], capsys)
        assert code == 0
        assert out.startswith("nnentropy ")

    def test_missing_command(self, capsys):
        assert run_cli([], capsys)[0] == 2

    def test_successive_calls_share_no_arguments(self, uniform3_csv, capsys):
        # The parser is built once per process; one call's flags must not
        # become the next call's defaults.
        code, out, _ = run_cli(
            ["mi", uniform3_csv, "--alpha", "0.7", "--gamma", "analytic", "--S", "2"], capsys
        )
        assert code == 0
        assert json.loads(out)["gamma_source"] == "analytic"
        code, out, _ = run_cli(["mi", uniform3_csv, "--alpha", "0.7"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["gamma_source"] == "boundary" and report["S"] == [1, 2, 3]

    def test_threads_flag_does_not_change_results(self, tmp_path, capsys):
        path = write_csv(tmp_path / "pts.csv", np.random.default_rng(9).random((200, 3)))
        argv = ["entropy", path, "--alpha", "0.7", "--gamma", "1.0"]
        single = run_cli(argv + ["--threads", "1"], capsys)
        many = run_cli(argv + ["--threads", "-1"], capsys)
        assert single == many
