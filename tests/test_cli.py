import json
from pathlib import Path

import numpy as np
import pytest

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
from seqmeas.cli import build_parser, cmd_chain, main, parse_chain_config
from seqmeas.errors import (
    ConfigParseError,
    FirstFailure,
    SeqMeasError,
    VarianceInconsistency,
    ZeroLikelihood,
)

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


    def test_nonpositive_sigma2_is_rejected(self):
        with pytest.raises(ValueError, match="sigma must be finite and positive"):
            main(["fig3", "--sigma2", "0"])


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


class TestChainCommand:
    def test_bundled_config(self, capsys):
        code, out, _ = run_cli(capsys, "chain", str(CHAIN4))
        assert code == 0
        meta, header, rows = parse_csv(out)
        assert header == ["mean", "variance", "extracted_variance"]
        assert len(rows) == 1
        assert abs(rows[0][1] - 0.2581876633529906) < 1e-12
        assert any("config-sha256" in m for m in meta)

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
            # a forward query crosses the outcome cutoff at row 9
            (FORWARD_CHAIN4, -2.0, 10.0, 13, ZeroLikelihood),
            # a post-selected query turns its extracted variance negative at row 12
            (json.loads(CHAIN4.read_text()), -1.0, 1.0, 21, VarianceInconsistency),
            # the clamp fails at row 2 and the cutoff from row 8: the earlier row wins
            (json.loads(CHAIN4.read_text()), -1.0, 10.0, 12, VarianceInconsistency),
        ],
    )
    def test_first_failing_row_matches_loop(self, capsys, tmp_path, base, lo, hi, steps, error):
        path = "query.fixed_outcomes.1"
        values = np.linspace(lo, hi, steps)
        chain, query, _ = parse_chain_config(base)
        failed = None
        for i, value in enumerate(values.tolist()):
            try:
                conditional_stats_k(*swept_case(chain, query, path, value))
            except SeqMeasError as exc:
                failed = (i, type(exc))
                break
        assert failed is not None and failed[1] is error and failed[0] > 0

        fixed = np.repeat([query.fixed_outcomes], steps, axis=0)
        fixed[:, 1] = values
        sigmas = np.repeat([[stage.sigma for stage in chain.stages]], steps, axis=0)
        rows = FirstFailure(steps)
        with pytest.raises(error) as info:
            conditional_stats_rows(chain, query.free_index, fixed, sigmas, rows)
            rows.raise_first()
        assert info.value.row == failed[0]

        payload = dict(base, sweep={"path": path, "min": lo, "max": hi, "steps": steps})
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
