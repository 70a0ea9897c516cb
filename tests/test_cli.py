import hashlib
import io
import itertools
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqmeas import (
    ChainQuery,
    MeasurementChain,
    MeasurementStage,
    Pointer,
    backaction_variance,
    backward_stats,
    conditional_stats_k,
    forward_stats,
    spin,
)
from seqmeas.chain import conditional_stats_rows
from seqmeas.cli import (
    _grid_cells,
    _outer_grid,
    _sweep_rows,
    _write_csv,
    build_parser,
    cmd_chain,
    main,
    parse_chain_config,
)
from seqmeas.errors import (
    ConfigParseError,
    FirstFailure,
    SeqMeasError,
    VarianceInconsistency,
)

from reference import dense_kraus_reference

REPO = Path(__file__).resolve().parent.parent
CHAIN4 = REPO / "configs" / "chain4.json"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def parse_csv(text):
    lines = [l for l in text.strip().splitlines()]
    meta = [l for l in lines if l.startswith("#")]
    body = [l for l in lines if not l.startswith("#")]
    header = body[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in body[1:]]
    return meta, header, rows


class TestFig2:
    def test_columns_agree_and_decrease(self, capsys):
        code, out, _ = run_cli(capsys, "fig2", "--steps", "20")
        assert code == 0
        meta, header, rows = parse_csv(out)
        assert header == ["sigma1", "var_sx_rho1_closed", "var_sx_rho1_generic"]
        closed = [r[1] for r in rows]
        generic = [r[2] for r in rows]
        assert max(abs(c - g) for c, g in zip(closed, generic)) < 1e-10
        assert all(a >= b - 1e-15 for a, b in zip(closed, closed[1:]))
        assert any("command:" in m for m in meta)

    def test_weak_endpoint_small(self, capsys):
        code, out, _ = run_cli(capsys, "fig2", "--steps", "5")
        _, _, rows = parse_csv(out)
        assert rows[-1][0] == 100.0
        assert rows[-1][1] < 1e-4

    def test_invalid_range_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "fig2", "--sigma1-min", "5", "--sigma1-max", "1")
        assert code == 2
        assert "error:" in err


class TestFig3:
    def test_zero_row_and_symmetry(self, capsys):
        code, out, _ = run_cli(
            capsys, "fig3", "--x1-steps", "11", "--sigma1-min", "0.2",
            "--sigma1-max", "0.8", "--sigma1-steps", "3",
        )
        assert code == 0
        _, header, rows = parse_csv(out)
        assert header[2:] == ["var_sx_given_sz_closed", "var_sx_given_sz_generic"]
        for x1, sigma1, closed, generic in rows:
            assert abs(closed - generic) < 1e-10
            if x1 == 0.0:
                assert closed == 0.0
        by_key = {(round(x, 9), round(s, 9)): c for x, s, c, _ in rows}
        for (x1, s1), value in by_key.items():
            assert abs(value - by_key[(-x1, s1)]) < 1e-12


    def test_nonpositive_sigma2_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fig3", "--sigma2", "0"])
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert "argument --sigma2: expected a finite positive width" in err


class TestFig4:
    def test_reference_points(self, capsys):
        code, out, _ = run_cli(
            capsys, "fig4", "--x2-steps", "5", "--sigma2-min", "0.1",
            "--sigma2-max", "1.0", "--sigma2-steps", "3",
        )
        assert code == 0
        _, header, rows = parse_csv(out)
        for x2, sigma2, closed, generic in rows:
            # absolute in the bounded region, relative where the backward
            # variance diverges (x2 < 0 at strong sigma2)
            assert abs(closed - generic) < 1e-9 * max(1.0, abs(closed))
            if x2 == 0.0:
                assert abs(closed - 0.25) < 1e-6
            if x2 == 1.0 and abs(sigma2 - 0.1) < 1e-12:
                assert abs(closed - 0.125) < 1e-6
            if x2 == -1.0 and abs(sigma2 - 0.1) < 1e-12:
                assert closed > 0.25

    @pytest.mark.parametrize(
        "sigma1,message",
        [
            # the engine passes the row and the closed form's denominator fails
            ("5e7", "s1*s2 - 2 = 0.000e+00"),
            # the engine fails the row first, so the closed form never sees it
            ("1e8", "backward normalization 0.0 too small"),
        ],
    )
    def test_first_error_engine_before_closed_form(self, capsys, sigma1, message):
        code, out, err = run_cli(
            capsys, "fig4", "--sigma1", sigma1, "--x2-min", "-1", "--x2-max", "1",
            "--sigma2-min", "0.1", "--sigma2-max", "2",
        )
        assert (code, out, err) == (1, "", f"error: x2 = -1.0, sigma2 = 0.1: {message}\n")


class TestChainCommand:
    def test_bundled_config(self, capsys):
        code, out, _ = run_cli(capsys, "chain", str(CHAIN4))
        assert code == 0
        meta, header, rows = parse_csv(out)
        assert header == ["mean", "variance", "extracted_variance"]
        assert len(rows) == 1
        assert abs(rows[0][1] - 0.2581876633529906) < 1e-12
        # the file's own bytes, as `sha256sum configs/chain4.json | cut -c1-16` prints
        assert f"# config-sha256: {hashlib.sha256(CHAIN4.read_bytes()).hexdigest()[:16]}" in meta

    def test_hash_follows_bytes_not_payload(self, capsys, tmp_path):
        payload = json.loads(CHAIN4.read_text())
        outputs = []
        for indent in (None, 4):
            cfg = tmp_path / f"indent{indent}.json"
            cfg.write_text(json.dumps(payload, indent=indent))
            code, out, _ = run_cli(capsys, "chain", str(cfg))
            assert code == 0
            outputs.append(out.replace(str(cfg), "<config>").splitlines())
        a, b = outputs
        assert len(a) == len(b)
        # only the hash line differs; every data row is byte-identical
        assert [x.split(": ")[0] for x, y in zip(a, b) if x != y] == ["# config-sha256"]

    def test_with_oracles_columns(self, capsys, tmp_path):
        out_path = tmp_path / "chain.csv"
        code, _, _ = run_cli(
            capsys, "chain", str(CHAIN4), "--with-oracles",
            "--mc-samples", "30000", "--seed", "5", "--out", str(out_path),
        )
        assert code == 0
        meta, header, rows = parse_csv(out_path.read_text())
        assert header[-3:] == ["quad_variance", "mc_variance", "mc_se"]
        mean, variance, extracted, quad_var, mc_var, mc_se = rows[0]
        assert abs(quad_var - variance) < 1e-8
        assert abs(mc_var - variance) < 3 * mc_se
        assert any("rng: PCG64" in m for m in meta)

    def test_deterministic_output(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run_cli(
                capsys, "chain", str(CHAIN4), "--with-oracles",
                "--mc-samples", "20000", "--seed", "9", "--out", str(path),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_sweep(self, capsys, tmp_path):
        payload = json.loads(CHAIN4.read_text())
        payload["stages"] = payload["stages"][:2]
        payload["query"] = {"free_index": 2, "fixed_outcomes": [0.5]}
        payload["sweep"] = {"path": "query.fixed_outcomes.0", "min": -1.0, "max": 1.0, "steps": 5}
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps(payload))
        code, out, _ = run_cli(capsys, "chain", str(cfg))
        assert code == 0
        _, header, rows = parse_csv(out)
        assert header[0] == "query.fixed_outcomes.0"
        assert [r[0] for r in rows] == [-1.0, -0.5, 0.0, 0.5, 1.0]
        mid = rows[2]
        assert abs(mid[3]) < 1e-12  # x1 = 0: no extracted variance

    def test_invalid_config_diagnostics(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dim": 2, "initial_state": "plus", "stages": [{"observable": "Sy", "sigma": 0.5}], "query": {"free_index": 1, "fixed_outcomes": []}}')
        code, _, err = run_cli(capsys, "chain", str(bad))
        assert code == 2
        assert "stages[0].observable" in err

    def test_malformed_json_diagnostics(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run_cli(capsys, "chain", str(bad))
        assert code == 2
        assert ":1:" in err  # line/column diagnostics

    def test_bad_sigma_field_path(self, tmp_path):
        payload = json.loads(CHAIN4.read_text())
        payload["stages"][1]["sigma"] = -1.0
        with pytest.raises(ConfigParseError, match=r"stages\[1\]\.sigma"):
            parse_chain_config(payload)


R2 = 2**-0.5
SPIN1_Z = [[1, 0, 0], [0, 0, 0], [0, 0, -1]]
SPIN1_X = [[0, R2, 0], [R2, 0, R2], [0, R2, 0]]
QUTRIT_CHAIN = {
    "dim": 3,
    "initial_state": [[0.5, 0.1, 0.0], [0.1, 0.3, [0.0, 0.05]], [0.0, [0.0, -0.05], 0.2]],
    "stages": [
        {"observable": SPIN1_Z, "sigma": 0.6},
        {"observable": SPIN1_X, "sigma": 0.8},
        {"observable": SPIN1_Z, "sigma": 1.5},
        {"observable": SPIN1_X, "sigma": 2.0},
    ],
    "query": {"free_index": 2, "fixed_outcomes": [0.4, -0.3, 0.2]},
}


def csv_cells(text):
    body = [line for line in text.splitlines() if line and not line.startswith("#")]
    return [line.split(",") for line in body[1:]]


def cells_of(*values):
    return [repr(float(v)) for v in values]


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def swept_case(chain, query, path, value):
    """The chain and query of one sweep row, built from public scalar objects."""
    if path.startswith("stages."):
        index = int(path.split(".")[1])
        stages = list(chain.stages)
        stages[index] = MeasurementStage(stages[index].observable, Pointer(value))
        return MeasurementChain(tuple(stages), chain.initial_state), query
    fixed = list(query.fixed_outcomes)
    fixed[int(path.rsplit(".", 1)[1])] = value
    return chain, ChainQuery(query.free_index, tuple(fixed))


class TestBatchedSweepsMatchLoop:
    """Every CSV cell of a batched sweep equals a row-by-row loop of scalar calls, bit for bit."""

    def test_fig2(self, capsys):
        code, out, _ = run_cli(capsys, "fig2", "--steps", "37")
        assert code == 0
        rho0, sz, sx = spin.plus_state(), spin.s_z(), spin.s_x()
        expected = [
            cells_of(s, spin.var_sx_rho1_closed(s), backaction_variance(rho0, MeasurementStage(sz, Pointer(s)), sx))
            for s in np.geomspace(0.01, 100.0, 37).tolist()
        ]
        assert csv_cells(out) == expected

    def test_fig3(self, capsys):
        code, out, _ = run_cli(
            capsys, "fig3", "--x1-steps", "9", "--sigma1-steps", "4", "--sigma2", "0.7"
        )
        assert code == 0
        rho0, sz, sx = spin.plus_state(), spin.s_z(), spin.s_x()
        expected = [
            cells_of(
                x1, s1, spin.var_sx_given_sz_closed(s1, x1),
                forward_stats(
                    rho0, MeasurementStage(sz, Pointer(s1)), MeasurementStage(sx, Pointer(0.7)), x1
                ).extracted_system_variance,
            )
            for s1 in np.geomspace(0.05, 1.0, 4).tolist()
            for x1 in np.linspace(-1.0, 1.0, 9).tolist()
        ]
        assert csv_cells(out) == expected

    def test_fig4(self, capsys):
        code, out, _ = run_cli(capsys, "fig4", "--x2-steps", "9", "--sigma2-steps", "4")
        assert code == 0
        rho0, sz, sx = spin.plus_state(), spin.s_z(), spin.s_x()
        stage1 = MeasurementStage(sz, Pointer(1e3))
        expected = [
            cells_of(
                x2, s2, spin.var_sz_given_sx_closed(1e3, s2, x2),
                backward_stats(rho0, stage1, MeasurementStage(sx, Pointer(s2)), x2).extracted_system_variance,
            )
            for s2 in np.geomspace(0.1, 2.0, 4).tolist()
            for x2 in np.linspace(-1.0, 1.0, 9).tolist()
        ]
        assert csv_cells(out) == expected

    @pytest.mark.parametrize(
        "path,lo,hi", [("query.fixed_outcomes.1", -1.0, 1.0), ("stages.2.sigma", 1.0, 3.0)]
    )
    def test_qutrit_chain_mid_free_index(self, capsys, tmp_path, path, lo, hi):
        payload = dict(QUTRIT_CHAIN, sweep={"path": path, "min": lo, "max": hi, "steps": 7})
        code, out, _ = run_cli(capsys, "chain", write_config(tmp_path, payload))
        assert code == 0
        chain, query, _ = parse_chain_config(QUTRIT_CHAIN)
        expected = []
        for value in np.linspace(lo, hi, 7).tolist():
            result = conditional_stats_k(*swept_case(chain, query, path, value))
            expected.append(cells_of(value, result.mean, result.variance, result.extracted_variance))
        assert csv_cells(out) == expected


FORWARD_CHAIN4 = dict(
    json.loads(CHAIN4.read_text()), query={"free_index": 4, "fixed_outcomes": [0.3, 0.1, -0.4]}
)


class TestSweepFailures:
    """A failing sweep raises what a row-by-row loop raises first: same row, same type."""

    @pytest.mark.parametrize(
        "base,lo,hi,steps,error",
        [
            # a forward query sweeps its second stage's outcome out to 19 widths past an eigenvalue: every row answers
            (FORWARD_CHAIN4, -2.0, 10.0, 13, None),
            # a post-selected query turns its extracted variance negative at row 12
            (json.loads(CHAIN4.read_text()), -1.0, 1.0, 21, VarianceInconsistency),
            # the clamp fails at row 2, before the far rows
            (json.loads(CHAIN4.read_text()), -1.0, 10.0, 12, VarianceInconsistency),
        ],
    )
    def test_first_failing_row_matches_loop(self, capsys, tmp_path, base, lo, hi, steps, error):
        path = "query.fixed_outcomes.1"
        values = np.linspace(lo, hi, steps)
        chain, query, _ = parse_chain_config(base)
        failed = None
        answers = []
        for i, value in enumerate(values.tolist()):
            try:
                result = conditional_stats_k(*swept_case(chain, query, path, value))
            except SeqMeasError as exc:
                failed = (i, type(exc))
                break
            answers.append(cells_of(value, result.mean, result.variance, result.extracted_variance))
        payload = dict(base, sweep={"path": path, "min": lo, "max": hi, "steps": steps})
        if error is None:
            assert failed is None
            code, out, _ = run_cli(capsys, "chain", write_config(tmp_path, payload))
            assert code == 0
            assert csv_cells(out) == answers
            return
        assert failed is not None and failed[1] is error and failed[0] > 0

        fixed = np.repeat([query.fixed_outcomes], steps, axis=0)
        fixed[:, 1] = values
        sigmas = np.repeat([[stage.sigma for stage in chain.stages]], steps, axis=0)
        rows = FirstFailure(steps)
        with pytest.raises(error) as info:
            conditional_stats_rows(chain, query.free_index, fixed, sigmas, rows)
            rows.raise_first()
        assert info.value.row == failed[0]

        code, out, err = run_cli(capsys, "chain", write_config(tmp_path, payload))
        assert code == 1
        assert out == ""
        assert f"{path} = {float(values[failed[0]])!r}:" in err

    def test_width_sweep_through_zero_is_a_config_error(self, capsys, tmp_path):
        payload = json.loads(CHAIN4.read_text())
        payload["sweep"] = {"path": "stages.2.sigma", "min": -1.0, "max": 1.0, "steps": 5}
        code, _, err = run_cli(capsys, "chain", write_config(tmp_path, payload))
        assert code == 2
        assert "stages[2].sigma: expected a positive number, got -1.0" in err


class TestSweepPath:
    @pytest.mark.parametrize(
        "path",
        [
            "stages.0.observable.0.0",
            "query.fixed_outcomes.3",
            "query.fixed_outcomes.-1",
            "stages.4.sigma",
            "stages.0.label",
            "dim",
            7,
        ],
    )
    def test_unsupported_path_is_rejected(self, capsys, tmp_path, path):
        payload = json.loads(CHAIN4.read_text())
        payload["sweep"] = {"path": path, "min": 0.1, "max": 1.0, "steps": 3}
        with pytest.raises(ConfigParseError, match=r"sweep\.path"):
            parse_chain_config(payload)
        code, out, err = run_cli(capsys, "chain", write_config(tmp_path, payload))
        assert code == 2
        assert out == ""
        assert "sweep.path" in err

    @pytest.mark.parametrize(
        "path,index,sets_sigma", [("query.fixed_outcomes.2", 2, False), ("stages.3.sigma", 3, True)]
    )
    def test_supported_paths_resolve_at_parse_time(self, path, index, sets_sigma):
        payload = json.loads(CHAIN4.read_text())
        payload["sweep"] = {"path": path, "min": 0.1, "max": 1.0, "steps": 3}
        _, _, sweep = parse_chain_config(payload)
        assert (sweep.path, sweep.index, sweep.sets_sigma) == (path, index, sets_sigma)


class TestValidateCommand:
    def test_single_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "mpur", "--trials", "200")
        assert code == 0
        lines = [l for l in out.strip().splitlines() if not l.startswith("#")]
        assert lines
        assert all(l.startswith("ok ") for l in lines)

    def test_unknown_suite_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "nonsense"])
        assert exc.value.code == 2


class TestOptionBounds:
    """Option values outside their domain are usage errors at parse time, never a traceback."""

    @pytest.mark.parametrize(
        "argv,option",
        [
            (("chain", str(CHAIN4), "--with-oracles", "--mc-samples", "0"), "--mc-samples"),
            (("chain", str(CHAIN4), "--with-oracles", "--mc-samples", "2"), "--mc-samples"),
            (("chain", str(CHAIN4), "--with-oracles", "--quad-tol", "0"), "--quad-tol"),
            (("chain", str(CHAIN4), "--with-oracles", "--quad-tol", "nan"), "--quad-tol"),
            (("chain", str(CHAIN4), "--with-oracles", "--seed", "-1"), "--seed"),
            (("fig3", "--sigma2", "0"), "--sigma2"),
            (("fig3", "--sigma2", "inf"), "--sigma2"),
            (("fig4", "--sigma1", "-1"), "--sigma1"),
            (("fig4", "--sigma1", "nan"), "--sigma1"),
            (("validate", "pointer", "--trials", "-3"), "--trials"),
            (("validate", "pointer", "--seed", "-1"), "--seed"),
        ],
    )
    def test_rejected_at_parse_time(self, capsys, argv, option):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert f"error: argument {option}: expected " in err.splitlines()[-1]

    def test_smallest_accepted_values_run(self, capsys):
        code, out, _ = run_cli(capsys, "chain", str(CHAIN4), "--with-oracles", "--mc-samples", "3", "--seed", "0")
        assert code == 0 and out
        code, out, _ = run_cli(capsys, "validate", "pointer", "--trials", "1", "--seed", "0")
        assert code == 0 and out


class TestMatrixConfig:
    def test_complex_entries_and_matrix_state(self, capsys, tmp_path):
        payload = {
            "dim": 2,
            "initial_state": [[0.5, [0.0, -0.5]], [[0.0, 0.5], 0.5]],  # |+i> state
            "stages": [
                {"observable": [[0.5, 0.0], [0.0, -0.5]], "sigma": 0.5},
                {"observable": "Sx", "sigma": 0.5},
            ],
            "query": {"free_index": 2, "fixed_outcomes": [0.2]},
        }
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(payload))
        code, out, _ = run_cli(capsys, "chain", str(cfg))
        assert code == 0
        _, _, rows = parse_csv(out)
        assert np.isfinite(rows[0]).all()


class TestParserReuse:
    """The parser is built once per process; no call leaves state behind for the next."""

    def calls(self, tmp_path):
        out_csv = tmp_path / "fig3.csv"
        return [
            ("chain", str(CHAIN4), "--with-oracles", "--seed", "3", "--mc-samples", "4000"),
            ("chain", str(CHAIN4)),
            ("fig3", "--x1-steps", "5", "--sigma1-steps", "2", "--out", str(out_csv)),
            ("fig2", "--steps", "not-a-number"),
            ("--version",),
            ("fig2", "--steps", "7"),
        ], out_csv

    def run(self, capsys, argv, out_csv):
        out_csv.unlink(missing_ok=True)
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        written = out_csv.read_text() if out_csv.exists() else None
        return code, out, err, written

    def test_same_results_in_either_order(self, capsys, tmp_path):
        calls, out_csv = self.calls(tmp_path)
        forward = [self.run(capsys, argv, out_csv) for argv in calls]
        backward = [self.run(capsys, argv, out_csv) for argv in reversed(calls)][::-1]
        assert forward == backward
        codes = [result[0] for result in forward]
        assert codes == [0, 0, 0, 2, 0, 0]
        assert "invalid int value" in forward[3][2]
        assert forward[4][1].startswith("seqmeas ")
        assert forward[2][1] == "" and forward[2][3].count("\n") > 10

    def test_build_parser_still_returns_a_working_parser(self):
        args = build_parser().parse_args(["chain", "cfg.json", "--with-oracles"])
        assert (args.config, args.with_oracles, args.fn) == ("cfg.json", True, cmd_chain)


class TestCsvCells:
    """Every data cell is the shortest repr of a Python float; no numpy repr leaks in."""

    def assert_cells(self, text):
        assert "np." not in text
        rows = csv_cells(text)
        assert rows
        for row in rows:
            for cell in row:
                assert cell == repr(float(cell))

    @pytest.mark.parametrize(
        "argv",
        [
            ("fig2", "--steps", "9"),
            ("fig3", "--x1-steps", "5", "--sigma1-steps", "3"),
            ("fig4", "--x2-steps", "5", "--sigma2-steps", "3"),
            ("chain", str(CHAIN4)),
            ("chain", str(CHAIN4), "--with-oracles", "--mc-samples", "4000", "--seed", "2"),
        ],
    )
    def test_verbs(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        self.assert_cells(out)

    @pytest.mark.parametrize("with_oracles", [False, True])
    def test_swept_chain(self, capsys, tmp_path, with_oracles):
        payload = dict(QUTRIT_CHAIN, sweep={"path": "stages.1.sigma", "min": 0.5, "max": 1.5, "steps": 3})
        argv = ["chain", write_config(tmp_path, payload)]
        if with_oracles:
            argv += ["--with-oracles", "--mc-samples", "4000"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        self.assert_cells(out)
        assert len(csv_cells(out)) == 3


ADVERSARIAL_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e-5, 0.1 + 0.2, 0.1, -1.0, 1e22, 2.0**53 + 2.0]
cell_floats = st.one_of(st.sampled_from(ADVERSARIAL_FLOATS), st.floats(allow_nan=False))
grids = st.lists(cell_floats, min_size=1, max_size=6).map(lambda values: np.array(values, dtype=float))


class TestCsvWriter:
    """The column-by-column writer prints what a row-by-row repr loop printed."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda k: st.lists(st.lists(cell_floats, min_size=k, max_size=k), min_size=1)))
    def test_rows_match_row_repr(self, rows):
        columns = [list(column) for column in zip(*rows)]
        cells = _sweep_rows(len(rows), lambda r: None, lambda n, _: columns, None)
        out = io.StringIO()
        _write_csv(out, ["meta"], ["h"] * len(columns), cells)
        body = out.getvalue().splitlines(keepends=True)[2:]
        assert body == [",".join(map(repr, row)) + "\n" for row in rows]

    @settings(max_examples=150, deadline=None)
    @given(grids, grids.map(np.negative))
    def test_grid_cells_follow_outer_grid(self, inner, outer):
        expected = [list(map(repr, column.tolist())) for column in _outer_grid(inner, outer)]
        assert list(_grid_cells(inner, outer)) == expected


def random_hermitian(rng, dim, real=False):
    a = rng.normal(size=(dim, dim))
    if not real:
        a = a + 1j * rng.normal(size=(dim, dim))
    return ((a + a.conj().T) / 2).astype(complex)


def encode(matrix, encoding):
    """JSON entries of ``matrix``: all ``[re, im]`` pairs, all numbers (real only), or mixed."""
    if encoding == "pairs":
        return [[[z.real, z.imag] for z in row] for row in matrix.tolist()]
    if encoding == "numbers":
        assert not matrix.imag.any()
        return [[z.real for z in row] for row in matrix.tolist()]
    # real diagonal as numbers, the rest as pairs: every row mixes the two
    return [
        [z.real if i == j else [z.real, z.imag] for j, z in enumerate(row)]
        for i, row in enumerate(matrix.tolist())
    ]


class TestComplexObservableConfigs:
    """Complex observables parse to the intended matrices and give the dense-Kraus statistics."""

    @pytest.mark.parametrize("encoding", ["pairs", "mixed", "numbers"])
    def test_matrices_and_statistics(self, capsys, tmp_path, encoding):
        rng = np.random.default_rng({"pairs": 1501, "mixed": 1502, "numbers": 1503}[encoding])
        answered = refused = 0
        for dim, n_stages in itertools.product((2, 3, 4), (2, 3, 4)):
            for free in range(n_stages):
                mats = [random_hermitian(rng, dim, real=encoding == "numbers") for _ in range(n_stages)]
                sigmas = rng.uniform(0.3, 1.5, n_stages).tolist()
                b = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
                rho = b @ b.conj().T
                rho = (rho + rho.conj().T) / (2.0 * np.trace(rho).real)
                fixed = [
                    float(rng.choice(np.linalg.eigvalsh(a)) + s * rng.standard_normal())
                    for j, (a, s) in enumerate(zip(mats, sigmas))
                    if j != free
                ]
                payload = {
                    "dim": dim,
                    "initial_state": encode(rho, "pairs"),
                    "stages": [
                        {"observable": encode(a, encoding), "sigma": s} for a, s in zip(mats, sigmas)
                    ],
                    "query": {"free_index": free + 1, "fixed_outcomes": fixed},
                }
                chain, _, _ = parse_chain_config(json.loads(json.dumps(payload)))
                for stage, a in zip(chain.stages, mats):
                    assert np.array_equal(stage.observable.matrix, a)
                assert np.array_equal(chain.initial_state.matrix, rho)

                code, out, err = run_cli(capsys, "chain", write_config(tmp_path, payload))
                mean, var = dense_kraus_reference(mats, sigmas, rho, free, fixed)
                case = (encoding, dim, n_stages, free)
                if code == 1:
                    # the known refusal of a negative extracted variance (weak-value regime)
                    assert "extracted variance" in err, case
                    assert var - sigmas[free] ** 2 < -1e-9 + 1e-8 * max(1.0, var), case
                    refused += 1
                    continue
                assert code == 0, (case, err)
                got_mean, got_var, _ = parse_csv(out)[2][0]
                assert abs(got_mean - mean) / max(1.0, abs(mean)) < 1e-8, case
                assert abs(got_var - var) / max(1.0, abs(var)) < 1e-8, case
                answered += 1
        assert answered + refused == 27 and answered >= 20


def chain_payload(dim=2, n_stages=3):
    payload = {
        "dim": dim,
        "initial_state": [[1.0 / dim if i == j else 0.0 for j in range(dim)] for i in range(dim)],
        "stages": [
            {"observable": np.diag(np.arange(dim) - 0.5 * k).tolist(), "sigma": 0.5 + 0.1 * k}
            for k in range(n_stages)
        ],
        "query": {"free_index": n_stages, "fixed_outcomes": [0.1] * (n_stages - 1)},
    }
    return json.loads(json.dumps(payload))


NON_HERMITIAN = [[0.0, 1.0], [0.5, 0.0]]


class TestBooleansAreNotNumbers:
    """JSON ``true``/``false`` are rejected wherever a number is expected, naming the field."""

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda p: p["stages"][1].update(sigma=True),
             "stages[1].sigma: expected a positive number, got True"),
            (lambda p: p["query"].update(fixed_outcomes=[0.1, True]),
             "query.fixed_outcomes: expected an array of numbers"),
            (lambda p: p["query"].update(free_index=True),
             "query.free_index: expected an integer, got True"),
            # all numbers but one: the whole-matrix scan falls back to the entry walk
            (lambda p: p["stages"][0].update(observable=[[True, 0.0], [0.0, 1.0]]),
             "stages[0].observable[0][0]: expected a number or [re, im] pair, got True"),
            (lambda p: p["stages"][2].update(observable=[[0.0, 0.0], [0.0, False]]),
             "stages[2].observable[1][1]: expected a number or [re, im] pair, got False"),
            # all pairs, one with a boolean part
            (lambda p: p["stages"][1].update(observable=[[[0.5, False], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]),
             "stages[1].observable[0][0]: expected a number or [re, im] pair, got [0.5, False]"),
            # mixed numbers and pairs
            (lambda p: p["stages"][1].update(observable=[[0.5, [0.0, 0.0]], [[0.0, 0.0], [True, 0.0]]]),
             "stages[1].observable[1][1]: expected a number or [re, im] pair, got [True, 0.0]"),
            (lambda p: p.update(initial_state=[[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, True]]]),
             "initial_state[1][1]: expected a number or [re, im] pair, got [0.5, True]"),
        ],
    )
    def test_rejected_with_field(self, capsys, tmp_path, edit, message):
        payload = chain_payload()
        edit(payload)
        with pytest.raises(ConfigParseError, match=f"^{re.escape(message)}$"):
            parse_chain_config(payload)
        code, out, err = run_cli(capsys, "chain", write_config(tmp_path, payload))
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_free_index_is_an_int(self):
        _, query, _ = parse_chain_config(chain_payload())
        assert type(query.free_index) is int


class TestSweepBounds:
    @pytest.mark.parametrize("key", ["min", "max"])
    @pytest.mark.parametrize("value", ["abc", "0.5", None, [1], True, {"x": 1}])
    def test_non_numbers_rejected(self, capsys, tmp_path, key, value):
        payload = chain_payload()
        payload["sweep"] = {"path": "query.fixed_outcomes.0", "min": -1.0, "max": 1.0, "steps": 3}
        payload["sweep"][key] = value
        message = f"sweep.{key}: expected a number, got {value!r}"
        with pytest.raises(ConfigParseError, match=f"^{re.escape(message)}$"):
            parse_chain_config(payload)
        code, out, err = run_cli(capsys, "chain", write_config(tmp_path, payload))
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_integer_bounds_accepted(self, capsys, tmp_path):
        payload = chain_payload()
        payload["sweep"] = {"path": "stages.0.sigma", "min": 1, "max": 2, "steps": 3}
        code, out, _ = run_cli(capsys, "chain", write_config(tmp_path, payload))
        assert code == 0
        assert [row[0] for row in parse_csv(out)[2]] == [1.0, 1.5, 2.0]


class TestFirstErrorAcrossStages:
    """With errors in two stages the first one in stage order is reported, as a stage-by-stage parse does.

    The order is stage i's observable, then stage i's sigma, then stage i + 1.
    """

    @pytest.mark.parametrize(
        "edits,message",
        [
            # a later stage's spectral check does not overtake an earlier sigma
            ({1: {"observable": NON_HERMITIAN}, 0: {"sigma": -1.0}},
             "stages[0].sigma: expected a positive number, got -1.0"),
            ({0: {"observable": NON_HERMITIAN}, 1: {"observable": [[0.0, "x"], [0.0, 0.0]]}},
             "stages[0].observable: max |M - M^dagger| = 5.000e-01 exceeds 1.0e-12"),
            ({2: {"observable": NON_HERMITIAN}, 1: {"observable": [[0.0, "x"], [0.0, 0.0]]}},
             "stages[1].observable[0][1]: expected a number or [re, im] pair, got 'x'"),
            ({1: {"observable": [[float("nan"), 0.0], [0.0, 0.0]]}, 2: {"observable": NON_HERMITIAN}},
             "stages[1].observable[0][0]: expected a finite number, got nan"),
            ({0: {"observable": "Sy"}, 1: {"observable": NON_HERMITIAN}},
             "stages[0].observable: unknown observable preset 'Sy' (use Sz, Sx or a matrix)"),
            ({2: {"observable": NON_HERMITIAN}, 1: {"sigma": None}},
             "stages[1].sigma: expected a positive number, got None"),
            ({1: {"observable": NON_HERMITIAN}, 2: {"observable": [[0.0, 1.0], [1.0 + 1e-9, 0.0]]}},
             "stages[1].observable: max |M - M^dagger| = 5.000e-01 exceeds 1.0e-12"),
            ({2: {"observable": NON_HERMITIAN}, 1: {"observable": [[0.0, 1.0], [1.0 + 1e-9, 0.0]]}},
             "stages[1].observable: max |M - M^dagger| = 1.000e-09 exceeds 1.0e-12"),
            ({1: {"observable": NON_HERMITIAN}, 0: {"observable": [[0.0, 0.0, 0.0]] * 3}},
             "stages[0].observable: expected a 2x2 matrix"),
            ({2: {"sigma": 0}, 1: {"observable": "Sz"}, 0: {"observable": [[1.0, 0.0], [0.0]]}},
             "stages[0].observable[1]: expected 2 entries"),
            # Python's json reads an integer beyond float range; converting it
            # fails, but only after the earlier stages' errors are reported
            ({0: {"sigma": -1}, 1: {"observable": [[10**400, 0], [0, 1]]}},
             "stages[0].sigma: expected a positive number, got -1"),
            ({0: {"observable": "Sy"}, 1: {"observable": [[[0, 10**400], 0], [0, 1]]}},
             "stages[0].observable: unknown observable preset 'Sy' (use Sz, Sx or a matrix)"),
            ({0: {"observable": NON_HERMITIAN}, 1: {"observable": [[[1, 0], [0, -(10**400)]], [[0, 0], [1, 0]]]}},
             "stages[0].observable: max |M - M^dagger| = 5.000e-01 exceeds 1.0e-12"),
        ],
    )
    def test_stage_order(self, capsys, tmp_path, edits, message):
        payload = chain_payload()
        for stage, fields in edits.items():
            payload["stages"][stage].update(fields)
        code, out, err = run_cli(capsys, "chain", write_config(tmp_path, payload))
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_stage_without_observable_before_bad_matrix(self, capsys, tmp_path):
        payload = chain_payload()
        del payload["stages"][1]["observable"]
        payload["stages"][2]["observable"] = NON_HERMITIAN
        code, _, err = run_cli(capsys, "chain", write_config(tmp_path, payload))
        assert (code, err) == (2, "error: stages[1]: missing required field 'observable'\n")


class TestConfigNumbers:
    """Non-finite numbers and integers beyond float range get a field diagnostic and exit 2.

    Python's ``json`` reads ``NaN``, ``Infinity`` and integers of any size.
    """

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda p: p["stages"][1].update(sigma=float("inf")),
             "stages[1].sigma: expected a finite number, got inf"),
            (lambda p: p["stages"][1].update(sigma=float("nan")),
             "stages[1].sigma: expected a finite number, got nan"),
            (lambda p: p["stages"][1].update(sigma=10**400),
             "stages[1].sigma: integer out of float range"),
            (lambda p: p["query"].update(fixed_outcomes=[0.3, float("nan"), -0.4]),
             "query.fixed_outcomes[1]: expected a finite number, got nan"),
            (lambda p: p["query"].update(fixed_outcomes=[0.3, 0.1, -(10**400)]),
             "query.fixed_outcomes[2]: integer out of float range"),
            (lambda p: p["stages"][2].update(observable=[[10**400, 0], [0, 1]]),
             "stages[2].observable[0][0]: integer out of float range"),
            (lambda p: p["stages"][2].update(observable=[[[0, 0], [1, 10**400]], [[1, 0], [0, 0]]]),
             "stages[2].observable[0][1]: integer out of float range"),
            (lambda p: p["stages"][0].update(observable=[[0.5, 0], [0, float("-inf")]]),
             "stages[0].observable[1][1]: expected a finite number, got -inf"),
            (lambda p: p.update(initial_state=[[10**400, 0], [0, 0]]),
             "initial_state[0][0]: integer out of float range"),
            (lambda p: p.update(sweep={"path": "query.fixed_outcomes.0", "min": -(10**400), "max": 1, "steps": 3}),
             "sweep.min: integer out of float range"),
            (lambda p: p.update(sweep={"path": "stages.1.sigma", "min": 0.1, "max": 10**400, "steps": 3}),
             "sweep.max: integer out of float range"),
            (lambda p: p.update(sweep={"path": "stages.1.sigma", "min": 0.1, "max": float("inf"), "steps": 3}),
             "sweep.max: expected a finite number, got inf"),
        ],
    )
    def test_field_diagnostic(self, capsys, tmp_path, edit, message):
        payload = json.loads(CHAIN4.read_text())
        edit(payload)
        with pytest.raises(ConfigParseError, match=f"^{re.escape(message)}$"):
            parse_chain_config(payload)
        code, out, err = run_cli(capsys, "chain", write_config(tmp_path, payload))
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_integer_entries_keep_their_values(self):
        payload = json.loads(CHAIN4.read_text())
        payload["stages"][1].update(observable=[[1, 2], [2, -1]], sigma=2)
        payload["query"]["fixed_outcomes"] = [1, 0, -1]
        chain, query, _ = parse_chain_config(payload)
        assert np.array_equal(chain.stages[1].observable.matrix, [[1, 2], [2, -1]])
        assert chain.stages[1].sigma == 2.0 and query.fixed_outcomes == (1.0, 0.0, -1.0)


class TestGridLimits:
    """Grids the engine or numpy cannot use are input errors (exit 2), never tracebacks."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("fig2", "--sigma1-min", "1e-170", "--sigma1-max", "1e-160", "--steps", "3"),
            ("fig3", "--sigma1-min", "1e-155", "--x1-steps", "3", "--sigma1-steps", "2"),
            ("fig4", "--sigma2-min", "1e-155", "--x2-steps", "3", "--sigma2-steps", "2"),
        ],
    )
    def test_width_whose_square_underflows(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: log-spaced grid needs a minimum whose square is a normal float")
        assert err.count("\n") == 1

    def test_smallest_width_with_a_normal_square_answers(self, capsys):
        code, out, _ = run_cli(capsys, "fig2", "--sigma1-min", "1.5e-154", "--sigma1-max", "1e-150", "--steps", "3")
        _, _, rows = parse_csv(out)
        assert code == 0 and len(rows) == 3

    # sizes numpy refuses before it allocates anything
    @pytest.mark.parametrize("steps", [10**20, 2**63])
    def test_fig2_steps_beyond_array_size(self, capsys, steps):
        code, out, err = run_cli(capsys, "fig2", "--steps", str(steps))
        assert (code, out) == (2, "")
        assert err == f"error: steps = {steps} is beyond the largest array numpy can build\n"

    def test_chain_sweep_steps_beyond_array_size(self, capsys, tmp_path):
        payload = json.loads(CHAIN4.read_text())
        payload["sweep"] = {"path": "query.fixed_outcomes.0", "min": -1.0, "max": 1.0, "steps": 10**400}
        code, out, err = run_cli(capsys, "chain", write_config(tmp_path, payload))
        assert (code, out) == (2, "")
        assert err == f"error: steps = {10**400} is beyond the largest array numpy can build\n"


class TestConfigIntake:
    """Whatever bytes the config file holds, `chain` answers or exits 2 with one `error: ...` line."""

    def run_bytes(self, capsys, tmp_path, data: bytes):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(data)
        code, out, err = run_cli(capsys, "chain", str(cfg))
        assert (code, out) == (2, "")
        assert err.count("\n") == 1
        return str(cfg), err

    def test_invalid_utf8(self, capsys, tmp_path):
        data = CHAIN4.read_bytes().rstrip()
        path, err = self.run_bytes(capsys, tmp_path, data[:-1] + b"\xff}")
        assert err.startswith(f"error: {path}: 'utf-8' codec can't decode byte 0xff in position ")

    @pytest.mark.parametrize("depth", [1000, 100_000])
    def test_nesting_too_deep_for_the_decoder(self, capsys, tmp_path, depth):
        path, err = self.run_bytes(capsys, tmp_path, b"[" * depth)
        assert err == f"error: {path}: JSON nested too deeply to decode\n"

    def test_deep_matrix_entry_in_a_valid_config(self, capsys, tmp_path):
        entry = "[" * 1000 + "0.5" + "]" * 1000
        text = CHAIN4.read_text().replace('"Sz"', f"[[{entry}, 0], [0, -0.5]]", 1)
        path, err = self.run_bytes(capsys, tmp_path, text.encode())
        assert err == f"error: {path}: JSON nested too deeply to decode\n"

    @pytest.mark.parametrize(
        "old,new,field",
        [
            ('"Sz"', "[[" + "[" * 900 + "0.5" + "]" * 900 + ", 0], [0, -0.5]]", "stages[0].observable[0][0]"),
            ('"sigma": 0.5', '"sigma": ' + json.dumps([0.5] * 10_000), "stages[0].sigma"),
            ('"Sz"', json.dumps("Sz" * 10_000), "stages[0].observable"),
        ],
        ids=["deep-matrix-entry", "long-sigma-list", "long-preset-name"],
    )
    def test_long_bad_value_is_elided(self, capsys, tmp_path, old, new, field):
        text = CHAIN4.read_text().replace(old, new, 1)
        _, err = self.run_bytes(capsys, tmp_path, text.encode())
        assert err.startswith(f"error: {field}: ") and len(err.encode()) < 300

    def test_utf8_bom(self, capsys, tmp_path):
        path, err = self.run_bytes(capsys, tmp_path, b"\xef\xbb\xbf" + CHAIN4.read_bytes())
        assert err == f"error: {path}:1:1: Unexpected UTF-8 BOM (decode using utf-8-sig)\n"

    def test_crlf_error_position_matches_lf(self, capsys, tmp_path):
        text = '{\n  "dim": 2,\n  "stages": [1,\n    2,, 3]\n}\n'
        errors = []
        for newline in ("\n", "\r\n"):
            path, err = self.run_bytes(capsys, tmp_path, text.replace("\n", newline).encode())
            errors.append(err.replace(path, "<config>"))
        assert errors == ["error: <config>:4:7: Expecting value\n"] * 2

    def test_unreadable_path(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "chain", str(tmp_path / "missing.json"))
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot read config: ")
