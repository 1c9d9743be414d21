"""CLI behavior: exit codes, schemas, and byte-level determinism."""

import argparse
import contextlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardyconj.cli import MAX_GEN_BAND, build_parser, main
from hardyconj.jsonio import json_line, record_to_json
from hardyconj.toeplitz import run_trial

QUARTER_TURN_SEQ = '{"values":[{"re":0.0,"im":1.0}]}'


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def stdout_json(out):
    return json.loads(out)


def assert_one_line_usage_error(code, err):
    assert code == 2
    assert "Traceback" not in err
    assert sum("error:" in line for line in err.splitlines()) == 1


class TestCheckConjugation:
    def test_unit_rotation_passes(self, capsys):
        code, out, _ = run(
            ["check-conjugation", "--kind", "lambda", "--theta", "0.0", "--n", "16"], capsys
        )
        assert code == 0
        report = stdout_json(out)
        assert report["schema_version"] == 1
        assert report["results"]["passed"] is True
        assert "runtime_ms" in report

    def test_constant_quarter_turn_sequence_passes(self, capsys):
        code, out, _ = run(
            [
                "check-conjugation",
                "--kind", "zeta",
                "--sequence", '{"constant":{"theta":1.5707963267948966}}',
                "--n", "64",
            ],
            capsys,
        )
        assert code == 0
        assert stdout_json(out)["results"]["passed"] is True

    def test_seeded_unitary_passes(self, capsys):
        code, out, _ = run(
            ["check-conjugation", "--kind", "unitary-seed", "--seed", "7", "--n", "64"], capsys
        )
        assert code == 0
        report = stdout_json(out)
        assert report["inputs"]["conjugation"] == {"kind": "unitary-seed", "seed": 7}
        assert report["results"]["passed"] is True

    def test_non_unimodular_value_is_usage_error(self, capsys):
        code, _, err = run(
            ["check-conjugation", "--kind", "lambda", "--value", '{"re":2.0,"im":0.0}'], capsys
        )
        assert code == 2
        assert "modulus" in err

    def test_bad_sequence_entry_names_index(self, capsys):
        code, _, err = run(
            [
                "check-conjugation",
                "--kind", "alpha",
                "--sequence", '{"values":[{"re":1.0,"im":0.0},{"re":0.5,"im":0.0}]}',
                "--n", "2",
            ],
            capsys,
        )
        assert code == 2
        assert "index 1" in err

    def test_missing_params_usage_error(self, capsys):
        code, _, err = run(["check-conjugation", "--kind", "lambda"], capsys)
        assert code == 2
        assert "lambda" in err

    def test_deterministic_out_file(self, tmp_path, capsys):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            code, _, _ = run(
                [
                    "check-conjugation",
                    "--kind", "unitary-seed",
                    "--seed", "3",
                    "--n", "24",
                    "--out", str(path),
                ],
                capsys,
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
        report = json.loads(paths[0].read_text())
        assert "runtime_ms" not in report


class TestCheckSymmetry:
    def gen(self, tmp_path, capsys, mirror_im=1.0):
        # quarter-turn sequence entry: coefficient -1 must equal i * c(1) * i = -c(1)
        symbol = tmp_path / "sym.json"
        code, _, _ = run(
            [
                "gen-symbol",
                "--onesided", '[{"n":1,"re":1.0,"im":0.0}]',
                "--sequence", QUARTER_TURN_SEQ,
                "--out", str(symbol),
            ],
            capsys,
        )
        assert code == 0
        if mirror_im is not None:
            data = json.loads(symbol.read_text())
            for entry in data["coeffs"]:
                if entry["n"] == -1:
                    entry["re"], entry["im"] = 0.0, mirror_im
            symbol.write_text(json.dumps(data))
        return symbol

    def test_matched_coefficients_exit_zero(self, tmp_path, capsys):
        symbol = self.gen(tmp_path, capsys, mirror_im=None)
        code, out, _ = run(
            [
                "check-symmetry",
                "--symbol", str(symbol),
                "--conjugation", '{"kind":"zeta","sequence":{"constant":{"re":0.0,"im":1.0}}}',
                "--n", "8",
            ],
            capsys,
        )
        assert code == 0
        results = stdout_json(out)["results"]
        assert results["residual"] <= 1e-10
        assert results["coeff_condition_holds"] is True
        assert results["entrywise_holds"] is True
        assert results["agree"] is True

    def test_rotation_kind_with_matched_pair(self, tmp_path, capsys):
        symbol = self.gen(tmp_path, capsys, mirror_im=1.0)  # c(-1) = i = c(1) * i
        code, out, _ = run(
            [
                "check-symmetry",
                "--symbol", str(symbol),
                "--conjugation", '{"kind":"lambda","value":{"re":0.0,"im":1.0}}',
                "--n", "16",
            ],
            capsys,
        )
        assert code == 0
        assert stdout_json(out)["results"]["agree"] is True

    def test_mismatched_coefficients_exit_one(self, tmp_path, capsys):
        symbol = self.gen(tmp_path, capsys, mirror_im=-5.0)
        code, out, _ = run(
            [
                "check-symmetry",
                "--symbol", str(symbol),
                "--conjugation", '{"kind":"lambda","value":{"re":0.0,"im":1.0}}',
                "--n", "16",
            ],
            capsys,
        )
        assert code == 1
        results = stdout_json(out)["results"]
        assert results["residual"] > 1e-10
        assert results["coeff_condition_holds"] is False
        assert results["agree"] is True

    def test_constant_symbol_any_diagonal_kind(self, tmp_path, capsys):
        symbol = tmp_path / "const.json"
        code, _, _ = run(
            ["gen-symbol", "--zero", '{"re":3.0,"im":0.0}', "--out", str(symbol)], capsys
        )
        assert code == 0
        code, out, _ = run(
            [
                "check-symmetry",
                "--symbol", str(symbol),
                "--conjugation", '{"kind":"alpha","sequence":{"constant":{"theta":0.4}}}',
                "--n", "8",
            ],
            capsys,
        )
        assert code == 0
        assert stdout_json(out)["results"]["coeff_condition_holds"] is True

    def test_band_beyond_section_is_usage_error(self, tmp_path, capsys):
        symbol = self.gen(tmp_path, capsys, mirror_im=None)
        code, _, err = run(
            [
                "check-symmetry",
                "--symbol", str(symbol),
                "--conjugation", '{"kind":"j"}',
                "--n", "1",
            ],
            capsys,
        )
        assert code == 2
        assert "band" in err

    def test_short_sequence_is_usage_error(self, tmp_path, capsys):
        symbol = self.gen(tmp_path, capsys, mirror_im=None)
        code, _, err = run(
            [
                "check-symmetry",
                "--symbol", str(symbol),
                "--conjugation", '{"kind":"zeta","sequence":{"values":[{"re":0.0,"im":1.0}]}}',
                "--n", "8",
            ],
            capsys,
        )
        assert code == 2
        assert "missing" in err

    @pytest.mark.parametrize(
        "coeffs",
        [
            [5],
            5,
            [{"re": 1.0, "im": 0.0}],
            [{"n": None, "re": 1.0}],
            [{"n": 0.5, "re": 1.0}],
            [{"n": [1], "re": 1.0}],
            [{"n": True, "re": 1.0}],
        ],
    )
    def test_malformed_symbol_file_is_usage_error(self, tmp_path, capsys, coeffs):
        symbol = tmp_path / "bad.json"
        symbol.write_text(json.dumps({"schema_version": 1, "band": 1, "coeffs": coeffs}))
        code, _, err = run(
            ["check-symmetry", "--symbol", str(symbol), "--conjugation", '{"kind":"j"}'], capsys
        )
        assert_one_line_usage_error(code, err)
        assert "coeff" in err

    @pytest.mark.parametrize("band", [None, 1.7, 1.0, "1", [1], True])
    def test_malformed_band_is_usage_error(self, tmp_path, capsys, band):
        # a fractional band used to be truncated silently; null raised a TypeError
        symbol = tmp_path / "bad.json"
        symbol.write_text(json.dumps({"schema_version": 1, "band": band, "coeffs": []}))
        code, _, err = run(
            ["check-symmetry", "--symbol", str(symbol), "--conjugation", '{"kind":"j"}'], capsys
        )
        assert_one_line_usage_error(code, err)
        assert "band" in err

    def test_huge_band_is_refused_before_allocation(self, tmp_path, capsys):
        # 2 * band + 1 coefficients would need exabytes; the band is checked first
        symbol = tmp_path / "huge.json"
        symbol.write_text('{"schema_version":1,"band":100000000000000000,"coeffs":[]}')
        code, _, err = run(
            ["check-symmetry", "--symbol", str(symbol), "--conjugation", '{"kind":"j"}',
             "--n", "16"],
            capsys,
        )
        assert_one_line_usage_error(code, err)
        assert "band" in err

    def test_dense_kind_rejected(self, tmp_path, capsys):
        symbol = self.gen(tmp_path, capsys, mirror_im=None)
        code, _, err = run(
            [
                "check-symmetry",
                "--symbol", str(symbol),
                "--conjugation", '{"kind":"unitary-seed","seed":1}',
                "--n", "8",
            ],
            capsys,
        )
        assert code == 2
        assert "diagonal" in err


class TestGenSymbol:
    def test_quarter_turn_completion(self, tmp_path, capsys):
        out_path = tmp_path / "sym.json"
        code, out, _ = run(
            [
                "gen-symbol",
                "--onesided", '[{"n":1,"re":1.0,"im":0.0}]',
                "--sequence", QUARTER_TURN_SEQ,
                "--out", str(out_path),
            ],
            capsys,
        )
        assert code == 0
        data = json.loads(out_path.read_text())
        mirror = {entry["n"]: complex(entry["re"], entry["im"]) for entry in data["coeffs"]}
        assert mirror[-1] == -1.0
        assert stdout_json(out)["results"]["band"] == 1

    def test_empty_input_writes_constant_symbol(self, tmp_path, capsys):
        out_path = tmp_path / "c.json"
        code, _, _ = run(
            ["gen-symbol", "--zero", '{"re":3.0,"im":0.0}', "--out", str(out_path)], capsys
        )
        assert code == 0
        data = json.loads(out_path.read_text())
        assert data["band"] == 0
        assert data["coeffs"] == [{"im": 0.0, "n": 0, "re": 3.0}]

    def test_short_sequence_is_usage_error(self, tmp_path, capsys):
        code, _, err = run(
            [
                "gen-symbol",
                "--onesided", '[{"n":2,"re":1.0,"im":0.0}]',
                "--sequence", '{"values":[{"re":0.0,"im":1.0}]}',
                "--out", str(tmp_path / "x.json"),
            ],
            capsys,
        )
        assert code == 2
        assert "missing" in err

    def test_index_just_above_the_limit_is_usage_error(self, tmp_path, capsys):
        # a constant sequence has no length, so the index alone sizes the symbol
        code, _, err = run(
            [
                "gen-symbol",
                "--onesided", json.dumps([{"n": MAX_GEN_BAND + 1, "re": 1.0}]),
                "--sequence", '{"constant":{"theta":0.1}}',
                "--out", str(tmp_path / "x.json"),
            ],
            capsys,
        )
        assert_one_line_usage_error(code, err)
        assert "largest allowed band" in err
        assert not (tmp_path / "x.json").exists()

    def test_round_trip_through_check(self, tmp_path, capsys):
        out_path = tmp_path / "sym.json"
        seq = '{"constant":{"theta":0.9}}'
        code, _, _ = run(
            [
                "gen-symbol",
                "--onesided", '[{"n":1,"re":0.4,"im":-0.2},{"n":3,"theta":0.9}]',
                "--zero", "0.25",
                "--sequence", seq,
                "--out", str(out_path),
            ],
            capsys,
        )
        assert code == 0
        code, out, _ = run(
            [
                "check-symmetry",
                "--symbol", str(out_path),
                "--conjugation", '{"kind":"zeta","sequence":' + seq + "}",
                "--n", "8",
            ],
            capsys,
        )
        assert code == 0
        results = stdout_json(out)["results"]
        assert results["agree"] is True
        assert results["residual"] <= 1e-12
        assert results["max_coeff_violation"] == 0.0

    def test_round_trip_with_nonconstant_sequence_exposes_discrepancy(self, tmp_path, capsys):
        # the one-sided completion rule holds with violation zero by
        # construction, yet for a non-multiplicative multiplier sequence the
        # operator identity genuinely fails; the exit code follows the oracle
        out_path = tmp_path / "sym.json"
        seq = '{"thetas":[0.3,1.1,2.0,0.7,1.9,0.2,2.5]}'
        code, _, _ = run(
            [
                "gen-symbol",
                "--onesided", '[{"n":1,"re":0.4,"im":-0.2},{"n":3,"theta":0.9}]',
                "--zero", "0.25",
                "--sequence", seq,
                "--out", str(out_path),
            ],
            capsys,
        )
        assert code == 0
        code, out, _ = run(
            [
                "check-symmetry",
                "--symbol", str(out_path),
                "--conjugation", '{"kind":"zeta","sequence":' + seq + "}",
                "--n", "8",
            ],
            capsys,
        )
        assert code == 1
        results = stdout_json(out)["results"]
        assert results["max_coeff_violation"] == 0.0
        assert results["coeff_condition_holds"] is True
        assert results["residual"] > 1e-10
        assert results["agree"] is False
        assert results["entrywise_holds"] is False


class TestExplore:
    def test_constant_mode_no_disagreements(self, tmp_path, capsys):
        out_path = tmp_path / "records.jsonl"
        code, out, _ = run(
            [
                "explore",
                "--trials", "10",
                "--n", "12",
                "--band", "3",
                "--seed", "1",
                "--mode", "constant",
                "--out", str(out_path),
            ],
            capsys,
        )
        assert code == 0
        summary = stdout_json(out)["results"]
        assert summary["onesided_disagreements"] == 0
        lines = out_path.read_text().splitlines()
        assert len(lines) == 11  # records plus trailing summary line
        assert json.loads(lines[-1])["summary"] == summary

    def test_mixed_mode_flags_disagreements(self, tmp_path, capsys):
        # symmetrized trials with non-constant sequences hold one-sided while
        # the operator identity fails, so disagreements are expected
        code, out, _ = run(
            [
                "explore",
                "--trials", "12",
                "--n", "16",
                "--band", "3",
                "--seed", "2",
                "--mode", "mixed",
                "--out", str(tmp_path / "r.jsonl"),
            ],
            capsys,
        )
        summary = stdout_json(out)["results"]
        assert summary["onesided_disagreements"] > 0
        assert code == 1
        assert summary["entrywise_mismatch_trials"] == []

    def test_identical_seeds_identical_files(self, tmp_path, capsys):
        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for path in paths:
            run(
                [
                    "explore",
                    "--trials", "8",
                    "--n", "12",
                    "--band", "2",
                    "--seed", "9",
                    "--out", str(path),
                ],
                capsys,
            )
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_records_parse_and_carry_seeds(self, tmp_path, capsys):
        out_path = tmp_path / "records.jsonl"
        run(
            [
                "explore",
                "--trials", "6",
                "--n", "12",
                "--band", "2",
                "--seed", "5",
                "--out", str(out_path),
            ],
            capsys,
        )
        lines = out_path.read_text().splitlines()
        records = [json.loads(line) for line in lines[:-1]]
        for t, record in enumerate(records):
            assert set(record) == {"trial", "seed", "mode", "report"}
            assert record["seed"] == [5, t]
            assert "residual" in record["report"]

    @pytest.mark.parametrize(
        "n, band, trials, mode",
        [(24, 4, 30, "mixed"), (512, 8, 3, "mixed"), (4096, 8, 3, "mixed"), (24, 4, 4, "unitary")],
    )
    def test_records_replay_from_the_file_alone(self, n, band, trials, mode, tmp_path, capsys):
        out_path = tmp_path / "records.jsonl"
        run(
            [
                "explore",
                "--trials", str(trials),
                "--n", str(n),
                "--band", str(band),
                "--seed", "4",
                "--mode", mode,
                "--out", str(out_path),
            ],
            capsys,
        )
        *lines, last = out_path.read_text().splitlines(keepends=True)
        tail = json.loads(last)
        assert set(tail) == {"inputs", "summary"}
        inputs = tail["inputs"]
        assert "out" not in inputs
        assert len(lines) == trials
        for line in lines:
            r = json.loads(line)
            assert set(r) == {"trial", "seed", "mode", "report"}
            assert "window" not in r["report"]
            # n, band and tol come from the file's own last line
            again = run_trial(
                r["trial"], inputs["n"], inputs["band"], r["seed"][0], r["mode"], inputs["tol"]
            )
            assert json_line(record_to_json(again)) == line

    def test_bad_geometry_is_usage_error(self, tmp_path, capsys):
        code, _, err = run(
            [
                "explore",
                "--trials", "3",
                "--n", "4",
                "--band", "4",
                "--out", str(tmp_path / "x.jsonl"),
            ],
            capsys,
        )
        assert code == 2
        assert "band" in err


class TestLargeSections:
    """Diagonal maps at N = 4096, where one dense N x N product would need 256 MB."""

    def test_explore_mixed(self, tmp_path, capsys):
        out_path = tmp_path / "large.jsonl"
        code, out, _ = run(
            [
                "explore",
                "--mode", "mixed",
                "--n", "4096",
                "--band", "8",
                "--trials", "3",
                "--seed", "3",
                "--out", str(out_path),
            ],
            capsys,
        )
        assert code in (0, 1)
        records = [json.loads(line) for line in out_path.read_text().splitlines()[:-1]]
        assert [r["mode"] for r in records] == ["generic", "symmetrized", "constant"]
        for record in records:
            report = record["report"]
            assert report["entrywise_holds"] == (report["residual"] <= report["tol"])
            if record["mode"] == "constant":
                assert report["agree"] is True
        assert stdout_json(out)["results"]["entrywise_mismatch_trials"] == []

    def test_check_symmetry(self, tmp_path, capsys):
        symbol = tmp_path / "sym.json"
        sequence = {"constant": {"theta": 0.7}}
        onesided = [{"n": k, "re": 1.0 / k, "im": 0.5} for k in range(1, 9)]
        code, _, _ = run(
            [
                "gen-symbol",
                "--onesided", json.dumps(onesided),
                "--zero", '{"re":0.3}',
                "--sequence", json.dumps(sequence),
                "--out", str(symbol),
            ],
            capsys,
        )
        assert code == 0
        code, out, _ = run(
            [
                "check-symmetry",
                "--symbol", str(symbol),
                "--conjugation", json.dumps({"kind": "zeta", "sequence": sequence}),
                "--n", "4096",
            ],
            capsys,
        )
        results = stdout_json(out)["results"]
        assert code == 0
        assert results["residual"] <= results["tol"]
        assert results["entrywise_holds"] is True
        assert results["agree"] is True


#: Any JSON value.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def _conjugation(kind, key, spec):
    return lambda v, tmp: [
        "check-conjugation", "--kind", kind, "--n", "4", "--trials", "2",
        key, json.dumps(spec(v)),
    ]


def _symbol(document):
    def argv(v, tmp):
        path = tmp / "sym.json"
        path.write_text(json.dumps(document(v)))
        return ["check-symmetry", "--symbol", str(path), "--conjugation", '{"kind":"j"}',
                "--n", "4"]
    return argv


def _onesided(entries, sequence='{"values":[{"theta":0.5}]}'):
    return lambda v, tmp: [
        "gen-symbol", "--onesided", json.dumps(entries(v)),
        "--sequence", sequence, "--out", str(tmp / "out.json"),
    ]


#: Every numeric slot of the sequence, lambda-value, symbol-file and
#: one-sided specs, as a function of the value placed there.
SLOTS = {
    "sequence theta": _conjugation("zeta", "--sequence", lambda v: {"thetas": [v, 0.5, 1.0]}),
    "sequence constant": _conjugation("zeta", "--sequence", lambda v: {"constant": v}),
    "sequence value": _conjugation("alpha", "--sequence", lambda v: {"values": [v, 1, 1, 1]}),
    "sequence value re": _conjugation(
        "alpha", "--sequence", lambda v: {"values": [{"re": v}, 1, 1, 1]}
    ),
    "sequence value theta": _conjugation(
        "alpha", "--sequence", lambda v: {"values": [{"theta": v}, 1, 1, 1]}
    ),
    "lambda value": _conjugation("lambda", "--value", lambda v: v),
    "lambda im": _conjugation("lambda", "--value", lambda v: {"re": 1.0, "im": v}),
    "lambda theta": _conjugation("lambda", "--value", lambda v: {"theta": v}),
    "symbol band": _symbol(lambda v: {"schema_version": 1, "band": v, "coeffs": []}),
    "symbol n": _symbol(
        lambda v: {"schema_version": 1, "band": 1, "coeffs": [{"n": v, "re": 1.0}]}
    ),
    "symbol re": _symbol(
        lambda v: {"schema_version": 1, "band": 1, "coeffs": [{"n": 1, "re": v}]}
    ),
    "symbol theta": _symbol(
        lambda v: {"schema_version": 1, "band": 1, "coeffs": [{"n": -1, "theta": v}]}
    ),
    "onesided n": _onesided(lambda v: [{"n": v, "re": 1.0}]),
    "onesided n constant": _onesided(
        lambda v: [{"n": v, "re": 1.0}], sequence='{"constant":{"theta":0.5}}'
    ),
    "onesided im": _onesided(lambda v: [{"n": 1, "im": v}]),
    "onesided theta": _onesided(lambda v: [{"n": 1, "theta": v}]),
}


#: Slots that take a JSON integer. They also draw from ``st.integers()``,
#: since ``JSON_VALUES`` alone rarely puts a bare integer at the top.
INTEGER_SLOTS = {"symbol band", "symbol n", "onesided n", "onesided n constant"}


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_subcommand(self, capsys):
        assert main([]) == 2

    def test_malformed_json_argument(self, capsys):
        code, _, err = run(
            ["check-conjugation", "--kind", "zeta", "--sequence", "{not json"], capsys
        )
        assert code == 2
        assert "invalid JSON" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["check-conjugation", "--kind", "zeta", "--sequence", '{"thetas": 5}'],
            ["check-conjugation", "--kind", "alpha", "--sequence", '{"values": 5}'],
            ["check-conjugation", "--kind", "j", "--tol", "-1"],
            ["check-conjugation", "--kind", "j", "--tol", "nan", "--out", "out.json"],
            ["explore", "--tol", "inf", "--out", "out.json"],
            ["check-conjugation", "--kind", "zeta", "--sequence", '{"thetas":[null]}'],
            ["check-conjugation", "--kind", "alpha", "--sequence", '{"values":[{"re":null}]}'],
            ["check-conjugation", "--kind", "lambda", "--value", '{"theta":null}'],
            ["check-conjugation", "--kind", "lambda", "--value", '{"theta":[1]}'],
            ["check-conjugation", "--kind", "lambda", "--value", '{"re":"1"}'],
            ["check-conjugation", "--kind", "lambda", "--value", "1" + "0" * 400],
            ["gen-symbol", "--onesided", '[{"n":null}]', "--out", "out.json"],
            [
                "gen-symbol",
                "--onesided", '[{"n":1.5,"re":1.0}]',
                "--sequence", QUARTER_TURN_SEQ,
                "--out", "out.json",
            ],
            ["check-symmetry", "--symbol", "sym.json", "--conjugation", '{"kind":"j"}',
             "--seed", "1"],
            [
                "gen-symbol",
                "--onesided", '[{"n":100000000000000000,"re":1}]',
                "--sequence", '{"constant":{"theta":0.1}}',
                "--out", "out.json",
            ],
            # sizes numpy refuses outright, without trying to allocate them
            ["check-conjugation", "--kind", "j", "--n", "1000000000000000", "--out", "out.json"],
            [
                "explore", "--n", "1000000000000000", "--band", "1", "--trials", "1",
                "--out", "out.json",
            ],
            [
                "check-conjugation", "--kind", "unitary-seed", "--n", "1000000000",
                "--trials", "1", "--out", "out.json",
            ],
            [
                "check-symmetry", "--symbol", "sym.json", "--conjugation", '{"kind":"j"}',
                "--n", "1000000000000000", "--out", "out.json",
            ],
        ],
    )
    def test_malformed_input_is_one_line_error(self, argv, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        # a valid symbol file, so a check-symmetry case fails on its own flaw only
        (tmp_path / "sym.json").write_text('{"schema_version":1,"band":0,"coeffs":[]}')
        code, _, err = run(argv, capsys)
        assert_one_line_usage_error(code, err)
        assert not (tmp_path / "out.json").exists()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(slot=st.sampled_from(sorted(SLOTS)), data=st.data())
    def test_any_json_in_a_numeric_slot_is_handled(self, slot, data):
        value = data.draw(st.integers() | JSON_VALUES if slot in INTEGER_SLOTS else JSON_VALUES)
        with tempfile.TemporaryDirectory() as tmp:
            argv = SLOTS[slot](value, Path(tmp))
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                code = main(argv)
        assert code in (0, 1, 2), (argv, code)
        if code == 2:
            assert sum("error:" in line for line in err.getvalue().splitlines()) == 1


class TestOptionSurface:
    def test_each_subcommand_has_exactly_these_options(self):
        # a new flag must be added here on purpose
        expected = {
            "check-conjugation": [
                "--kind", "--theta", "--value", "--sequence",
                "--n", "--tol", "--seed", "--trials", "--out",
            ],
            "check-symmetry": ["--symbol", "--conjugation", "--n", "--tol", "--out"],
            "gen-symbol": ["--onesided", "--zero", "--sequence", "--out"],
            "explore": ["--mode", "--n", "--tol", "--seed", "--trials", "--band", "--out"],
        }
        parser = build_parser()
        (subcommands,) = [
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        ]
        found = {
            name: [
                option
                for action in sub._actions
                if not isinstance(action, argparse._HelpAction)
                for option in action.option_strings
            ]
            for name, sub in subcommands.choices.items()
        }
        assert found == expected
        assert sum(map(len, found.values())) == 25


class TestSubprocessDeterminism:
    def test_module_invocation_reproduces_files(self, tmp_path):
        paths = [tmp_path / "p1.jsonl", tmp_path / "p2.jsonl"]
        for path in paths:
            proc = subprocess.run(
                [
                    sys.executable, "-m", "hardyconj",
                    "explore",
                    "--trials", "6",
                    "--n", "12",
                    "--band", "2",
                    "--seed", "11",
                    "--mode", "constant",
                    "--out", str(path),
                ],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
        assert paths[0].read_bytes() == paths[1].read_bytes()
