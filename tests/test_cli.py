"""CLI behavior: exit codes, schemas, and byte-level determinism."""

import argparse
import contextlib
import io
import json
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hardyconj.toeplitz
from hardyconj import (
    canonical_conjugation,
    cli,
    conjugation_from_unitary,
    explore_symmetry,
    phase_conjugation,
    random_unitary,
    rotation_conjugation,
    sequence_conjugation,
    summarize_exploration,
)
from hardyconj.cli import MAX_GEN_BAND, build_parser, main
from hardyconj.jsonio import canonical_json, conjugation_from_spec, json_line, record_to_json
from hardyconj.toeplitz import run_trial

QUARTER_TURN_SEQ = '{"values":[{"re":0.0,"im":1.0}]}'

#: A JSON array nested far deeper than Python's decoder can recurse.
DEEP_JSON = "[" * 100000


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

    def test_large_rotation_passes(self, capsys):
        # the largest exponent is 65535: |lam**n| must stay 1 to roundoff
        code, out, _ = run(
            ["check-conjugation", "--kind", "lambda", "--theta", "0.7", "--n", "65536",
             "--trials", "1"],
            capsys,
        )
        assert code == 0
        assert stdout_json(out)["results"]["a_unitarity_residual"] <= 1e-12

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

    def test_unitary_seed_samples_are_not_rows_of_its_gaussian(self, capsys, monkeypatch):
        # U orthonormalizes G = Re G + i Im G from default_rng(s); the sampled
        # vectors must come from a stream of their own, not from G's rows
        dim, samples = 16, []
        apply = hardyconj.conjugations.apply_antilinear

        def recording(op, f):
            samples.append(f)
            return apply(op, f)

        monkeypatch.setattr(hardyconj.conjugations, "apply_antilinear", recording)
        code, _, _ = run(
            ["check-conjugation", "--kind", "unitary-seed", "--seed", "7", "--n", str(dim)], capsys
        )
        assert code == 0
        rows = np.random.default_rng(7).standard_normal((2 * dim, dim))  # Re G, then Im G
        parts = np.concatenate([np.concatenate((x.real, x.imag)) for x in samples])

        def unit(m):
            return m / np.linalg.norm(m, axis=1, keepdims=True)

        # 1 where a sampled part is parallel to a row of G
        assert np.abs(unit(parts) @ unit(rows).T).max() < 0.99

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

    def test_inputs_echo_the_flags_as_given(self, tmp_path, capsys):
        onesided = [{"n": 1, "re": 0.4, "im": -0.2}, {"n": 3, "theta": 0.9}]
        sequence = {"thetas": [0.3, 1.1, 2.0, 0.7]}
        code, out, _ = run(
            [
                "gen-symbol",
                "--onesided", json.dumps(onesided),
                "--zero", "0.25",
                "--sequence", json.dumps(sequence),
                "--out", str(tmp_path / "sym.json"),
            ],
            capsys,
        )
        assert code == 0
        inputs = stdout_json(out)["inputs"]
        assert inputs == {
            "onesided": onesided,
            "zero": 0.25,
            "sequence": sequence,
            "out": str(tmp_path / "sym.json"),
        }

    def test_absent_flags_echo_null(self, tmp_path, capsys):
        code, out, _ = run(["gen-symbol", "--out", str(tmp_path / "sym.json")], capsys)
        assert code == 0
        inputs = stdout_json(out)["inputs"]
        assert inputs["onesided"] is None and inputs["zero"] is None
        assert inputs["sequence"] is None

    def test_constant_sequence_is_not_expanded_to_the_band(self, tmp_path, capsys):
        code, out, _ = run(
            [
                "gen-symbol",
                "--onesided", json.dumps([{"n": MAX_GEN_BAND, "re": 1.0}]),
                "--sequence", '{"constant":{"theta":0.1}}',
                "--out", str(tmp_path / "sym.json"),
            ],
            capsys,
        )
        assert code == 0
        assert stdout_json(out)["inputs"]["sequence"] == {"constant": {"theta": 0.1}}


#: The angles and values that the sequence specs of :data:`ECHO_SPECS` list.
#: Each list holds one entry more than an N = 6 map uses, so the echo carries
#: an entry that only the echo reads.
ECHO_THETAS = [0.3, 1.1, 2.0, 0.7, 1.9, 0.2, 2.5]
ECHO_VALUES = [complex(np.exp(1j * t)) for t in ECHO_THETAS]

#: Conjugation specs by name, each with the map it describes at dimension n,
#: built from the constructors without any JSON.
ECHO_SPECS = {
    "j": ({"kind": "j"}, canonical_conjugation),
    "lambda theta": (
        {"kind": "lambda", "value": {"theta": 0.3}},
        lambda n: rotation_conjugation(np.exp(1j * 0.3), n),
    ),
    "lambda value": (
        {"kind": "lambda", "value": {"re": 0.6, "im": 0.8}},
        lambda n: rotation_conjugation(0.6 + 0.8j, n),
    ),
    "alpha constant": (
        {"kind": "alpha", "sequence": {"constant": {"theta": 0.7}}},
        lambda n: phase_conjugation(np.full(n, np.exp(1j * 0.7))),
    ),
    "alpha thetas": (
        {"kind": "alpha", "sequence": {"thetas": ECHO_THETAS}},
        lambda n: phase_conjugation(np.exp(1j * np.array(ECHO_THETAS[:n]))),
    ),
    "alpha values": (
        {"kind": "alpha", "sequence": {"values": [{"re": z.real, "im": z.imag}
                                                   for z in ECHO_VALUES]}},
        lambda n: phase_conjugation(np.array(ECHO_VALUES[:n])),
    ),
    "zeta constant": (
        {"kind": "zeta", "sequence": {"constant": {"re": 0.0, "im": 1.0}}},
        lambda n: sequence_conjugation(np.full(n - 1, 1j)),
    ),
    "zeta thetas": (
        {"kind": "zeta", "sequence": {"thetas": ECHO_THETAS}},
        lambda n: sequence_conjugation(np.exp(1j * np.array(ECHO_THETAS[: n - 1]))),
    ),
    "zeta values": (
        {"kind": "zeta", "sequence": {"values": [{"theta": t} for t in ECHO_THETAS]}},
        lambda n: sequence_conjugation(np.exp(1j * np.array(ECHO_THETAS[: n - 1]))),
    ),
    "unitary-seed": (
        {"kind": "unitary-seed", "seed": 5},
        lambda n: conjugation_from_unitary(random_unitary(n, 5)),
    ),
}


def _conjugation_flags(spec, lambda_flag):
    """check-conjugation flags for ``spec``; ``lambda_flag`` picks --theta or --value."""
    flags = ["--kind", spec["kind"]]
    if spec["kind"] == "lambda":
        value = spec["value"]
        if lambda_flag == "--theta":
            return flags + ["--theta", repr(value["theta"])]
        return flags + ["--value", json.dumps(value)]
    if "sequence" in spec:
        return flags + ["--sequence", json.dumps(spec["sequence"])]
    if "seed" in spec:
        return flags + ["--seed", str(spec["seed"])]
    return flags


class TestSpecEcho:
    """Reports echo each conjugation spec as given, and the echo rebuilds the map."""

    N = 6

    def assert_echo_rebuilds(self, path, spec, expected):
        report = json.loads(path.read_text())
        echo = report["inputs"]["conjugation"]
        assert echo == spec
        rebuilt = conjugation_from_spec(echo, report["inputs"]["n"])
        assert rebuilt.factor.tobytes() == expected(self.N).factor.tobytes()

    @pytest.mark.parametrize(
        "name, lambda_flag",
        [(name, "--theta" if name == "lambda theta" else "--value") for name in sorted(ECHO_SPECS)]
        + [("lambda theta", "--value")],
    )
    def test_check_conjugation(self, name, lambda_flag, tmp_path, capsys):
        spec, expected = ECHO_SPECS[name]
        out = tmp_path / "report.json"
        code, _, _ = run(
            ["check-conjugation", *_conjugation_flags(spec, lambda_flag), "--n", str(self.N),
             "--trials", "3", "--out", str(out)],
            capsys,
        )
        assert code == 0
        self.assert_echo_rebuilds(out, spec, expected)

    @pytest.mark.parametrize("name", sorted(set(ECHO_SPECS) - {"unitary-seed"}))
    def test_check_symmetry(self, name, tmp_path, capsys):
        spec, expected = ECHO_SPECS[name]
        symbol = tmp_path / "sym.json"
        symbol.write_text('{"schema_version":1,"band":1,"coeffs":[{"n":1,"re":1.0}]}')
        out = tmp_path / "report.json"
        code, _, _ = run(
            ["check-symmetry", "--symbol", str(symbol), "--conjugation", json.dumps(spec),
             "--n", str(self.N), "--out", str(out)],
            capsys,
        )
        assert code in (0, 1)
        self.assert_echo_rebuilds(out, spec, expected)

    def test_constant_spec_report_stays_small(self, tmp_path, capsys):
        # the spec is echoed as given, not spelled out as N entries
        out = tmp_path / "report.json"
        code, _, _ = run(
            ["check-conjugation", "--kind", "alpha", "--sequence", '{"constant":{"theta":0.3}}',
             "--n", "4096", "--trials", "1", "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert out.stat().st_size < 1024


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

    def test_entrywise_never_fails_what_the_residual_passes(self, tmp_path, capsys):
        # trial 17 is constant, so provably symmetric, and both its values are
        # within roundoff of the tol; as two norms of one array they cannot put
        # the residual under the tol and the entrywise violation over it
        code, out, _ = run(
            ["explore", "--n", "8", "--band", "2", "--seed", "48", "--trials", "18",
             "--tol", "1e-16", "--out", str(tmp_path / "r.jsonl")],
            capsys,
        )
        assert code == 1
        assert stdout_json(out)["results"]["entrywise_mismatch_trials"] == []

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


def rebuilt_explore(trials, n, band, seed, mode, out):
    """The --out bytes and stdout report (less runtime_ms) of explore, rebuilt from the library."""
    records = explore_symmetry(trials, n, band, seed, mode=mode)
    summary = summarize_exploration(records)
    inputs = {"trials": trials, "n": n, "band": band, "seed": seed, "mode": mode, "tol": 1e-10}
    lines = [json_line(record_to_json(r)) for r in records]
    lines.append(json_line({"inputs": inputs, "summary": summary}))
    report = {
        "schema_version": 1,
        "command": "explore",
        "inputs": {**inputs, "out": str(out)},
        "results": summary,
    }
    return "".join(lines), report


class TestExploreStream:
    """explore writes each block's lines as the block finishes, with the reference's bytes."""

    @pytest.mark.parametrize("seed", [0, 777, 10**40])
    @pytest.mark.parametrize(
        "mode, n, band, trials",
        [(mode, 24, 4, 200) for mode in ("mixed", "generic", "symmetrized", "constant", "unitary")]
        + [("mixed", 4096, 8, 40), ("mixed", 2, 1, 30), ("mixed", 300, 299, 20)]
        + [("unitary", 16, 4, 6)],
    )
    def test_output_equals_the_library_reference(self, mode, n, band, trials, seed, tmp_path,
                                                 capsys):
        out_path = tmp_path / "records.jsonl"
        argv = ["explore", "--mode", mode, "--n", str(n), "--band", str(band),
                "--trials", str(trials), "--seed", str(seed), "--out", str(out_path)]
        code, out, err = run(argv, capsys)
        text, report = rebuilt_explore(trials, n, band, seed, mode, out_path)
        shown = stdout_json(out)
        assert shown.pop("runtime_ms") >= 0
        assert out_path.read_text() == text
        assert shown == report
        assert code == (0 if report["results"]["onesided_disagreements"] == 0 else 1)
        assert err == ""

    def test_memory_does_not_grow_with_the_trials(self, tmp_path, capsys):
        # at N = 4096 a block holds 16 trials and its lines are written as it
        # finishes, so ten times the trials peak no higher, but for the
        # summary's list of disagreeing trials
        def peak(trials):
            argv = ["explore", "--n", "4096", "--band", "8", "--trials", str(trials),
                    "--seed", "5", "--out", str(tmp_path / "r.jsonl")]
            tracemalloc.start()
            try:
                assert run(argv, capsys)[0] in (0, 1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(16)  # the parser and the hash schedule are built once per process
        base, tenfold = peak(80), peak(800)
        assert tenfold <= 1.1 * base, (base, tenfold)
        assert tenfold - base < 64 * 720, (base, tenfold)


#: An --out path holding the text of a report's top-level schema_version line.
KEY_IN_PATH = 'echo\n  "schema_version": 1\n}.json'


class TestEnvelope:
    """Every command's stdout report has one envelope, and its exit code is its verdict."""

    VERDICTS = {
        "check-conjugation": lambda inputs, results: results["passed"],
        "check-symmetry": lambda inputs, results: results["residual"] <= inputs["tol"],
        "gen-symbol": lambda inputs, results: True,
        "explore": lambda inputs, results: results["onesided_disagreements"] == 0,
    }

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["check-conjugation", "--kind", "unitary-seed", "--seed", "3", "--n", "16"], 0),
            (["check-conjugation", "--kind", "unitary-seed", "--n", "16", "--tol", "0"], 1),
            (["check-symmetry", "--symbol", "even.json", "--conjugation", '{"kind":"j"}'], 0),
            (["check-symmetry", "--symbol", "uneven.json", "--conjugation", '{"kind":"j"}'], 1),
            (["gen-symbol", "--onesided", '[{"n":1,"re":1.0}]', "--sequence", QUARTER_TURN_SEQ], 0),
            (["explore", "--trials", "4", "--n", "8", "--band", "2", "--mode", "constant"], 0),
            (["explore", "--trials", "12", "--n", "16", "--band", "3", "--seed", "2"], 1),
            # the echoed --out path holds the top-level key's line inside a string
            (["gen-symbol", "--onesided", '[{"n":1,"re":1.0}]', "--sequence", QUARTER_TURN_SEQ,
              "--out", KEY_IN_PATH], 0),
            (["explore", "--trials", "4", "--n", "8", "--band", "2", "--mode", "constant",
              "--out", KEY_IN_PATH], 0),
        ],
    )
    def test_report_envelope_and_exit_code(self, argv, code, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for name, mirror in (("even.json", 1.0), ("uneven.json", 2.0)):
            (tmp_path / name).write_text(json.dumps({
                "schema_version": 1,
                "band": 1,
                "coeffs": [{"n": -1, "re": mirror}, {"n": 1, "re": 1.0}],
            }))
        if "--out" not in argv:
            argv = argv + ["--out", "out.json"]
        got, out, _ = run(argv, capsys)
        report = stdout_json(out)
        # stdout is one canonical document, runtime_ms at its sorted place
        assert out == canonical_json(report)
        assert set(report) == {"command", "inputs", "results", "runtime_ms", "schema_version"}
        if "out" in report["inputs"]:
            assert report["inputs"]["out"] == argv[argv.index("--out") + 1]
        assert report["command"] == argv[0]
        verdict = self.VERDICTS[argv[0]](report["inputs"], report["results"])
        assert got == code == (0 if verdict else 1)
        if argv[0].startswith("check-"):
            del report["runtime_ms"]
            assert (tmp_path / "out.json").read_text() == canonical_json(report)


class TestRefusedOutput:
    """A report that cannot be written exits 2 with one error line and leaves no --out file."""

    def test_check_symmetry_overflow(self, tmp_path, capsys, recwarn):
        symbol = tmp_path / "sym.json"
        symbol.write_text(json.dumps({
            "schema_version": 1,
            "band": 1,
            "coeffs": [{"n": -1, "re": 1e308}, {"n": 1, "re": -1e308}],
        }))
        out_path = tmp_path / "o.json"
        code, out, err = run(
            ["check-symmetry", "--symbol", str(symbol), "--conjugation", '{"kind":"j"}',
             "--n", "4", "--out", str(out_path)],
            capsys,
        )
        assert code == 2
        (line,) = err.splitlines()
        assert line.startswith("error: Out of range float values are not JSON compliant")
        assert out == ""
        assert not out_path.exists()
        assert [w for w in recwarn if issubclass(w.category, RuntimeWarning)] == []

    def test_explore_removes_its_partial_file(self, tmp_path, capsys, recwarn, monkeypatch):
        # trials from 20 on overflow: the first block of 16 is written before
        # the second is refused
        draws = hardyconj.toeplitz._block_draws

        def overflowing(trials, *args):
            modes, zetas, w, coeffs = draws(trials, *args)
            late = np.array([t >= 20 for t in trials])
            coeffs[late, 0], coeffs[late, -1] = 1e308, -1e308
            return modes, zetas, w, coeffs

        monkeypatch.setattr(hardyconj.toeplitz, "_block_draws", overflowing)
        out_path = tmp_path / "records.jsonl"
        code, out, err = run(
            ["explore", "--n", "4096", "--band", "8", "--trials", "40", "--out", str(out_path)],
            capsys,
        )
        assert code == 2
        (line,) = err.splitlines()
        assert line.startswith("error: Out of range float values are not JSON compliant")
        assert out == ""
        assert not out_path.exists()
        assert [w for w in recwarn if issubclass(w.category, RuntimeWarning)] == []

    def test_gen_symbol_overflow(self, tmp_path, capsys, recwarn):
        # the completed c(-1) = c(1) * w_1 overflows to a non-finite entry
        out_path = tmp_path / "sym.json"
        code, out, err = run(
            ["gen-symbol", "--onesided", '[{"n":1,"re":1.7e308,"im":-1.7e308}]',
             "--sequence", '{"constant":{"theta":0.39}}', "--out", str(out_path)],
            capsys,
        )
        assert code == 2
        assert err == "error: symbol coefficients contain non-finite entries\n"
        assert out == ""
        assert not out_path.exists()
        assert [w for w in recwarn if issubclass(w.category, RuntimeWarning)] == []


    @pytest.mark.parametrize("mode", ["mixed", "unitary"])
    def test_explore_usage_error_leaves_an_existing_file(self, mode, tmp_path, capsys):
        out_path = tmp_path / "records.jsonl"
        out_path.write_bytes(b"kept\n")
        argv = ["explore", "--mode", mode, "--seed", "-1", "--n", "8", "--band", "2",
                "--out", str(out_path)]
        assert run(argv, capsys)[0] == 2
        assert out_path.read_bytes() == b"kept\n"

    def test_explore_first_block_error_leaves_an_existing_file(self, tmp_path, capsys,
                                                               monkeypatch):
        def refused(*args):
            raise MemoryError("Unable to allocate")

        monkeypatch.setattr(hardyconj.toeplitz, "_block_draws", refused)
        out_path = tmp_path / "records.jsonl"
        out_path.write_bytes(b"kept\n")
        code, out, err = run(["explore", "--out", str(out_path)], capsys)
        assert (code, out, err) == (2, "", "error: Unable to allocate\n")
        assert out_path.read_bytes() == b"kept\n"

    def test_explore_out_that_cannot_be_opened_is_not_removed(self, tmp_path, capsys,
                                                              monkeypatch):
        def unwritable(path, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setattr(cli, "open", unwritable, raising=False)
        out_path = tmp_path / "records.jsonl"
        out_path.write_bytes(b"kept\n")
        code, _, err = run(["explore", "--trials", "3", "--out", str(out_path)], capsys)
        assert code == 2
        assert err.startswith("error: [Errno 13] Permission denied")
        assert out_path.read_bytes() == b"kept\n"

    def test_check_conjugation_keeps_numpys_warnings(self, capsys, monkeypatch):
        # only commands whose reports carry computed floats ignore them
        verify = cli.verify_conjugation

        def warning(*args, **kwargs):
            np.float64(1e308) * 10
            return verify(*args, **kwargs)

        monkeypatch.setattr(cli, "verify_conjugation", warning)
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert run(["check-conjugation", "--kind", "j", "--n", "4"], capsys)[0] == 0


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
        key, json.dumps(spec(v)), "--out", str(tmp / "out.json"),
    ]


def _symbol(document, conjugation=lambda v: {"kind": "j"}):
    def argv(v, tmp):
        path = tmp / "sym.json"
        path.write_text(json.dumps(document(v)))
        return ["check-symmetry", "--symbol", str(path),
                "--conjugation", json.dumps(conjugation(v)), "--n", "4",
                "--out", str(tmp / "out.json")]
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
    # past the three entries an N = 4 zeta map uses: only the echo holds it
    "sequence extra entry": _conjugation(
        "zeta", "--sequence", lambda v: {"thetas": [0.5, 1.0, 1.5, v]}
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
    "spec extra key": _symbol(
        lambda v: {"schema_version": 1, "band": 0, "coeffs": []},
        conjugation=lambda v: {"kind": "j", "x": v},
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

#: Slots whose every value is an input error.
REFUSED_SLOTS = {"spec extra key"}


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
            # non-finite literals, in an entry past those used and in a constant
            [
                "check-conjugation", "--kind", "alpha", "--n", "1",
                "--sequence", '{"thetas":[0.1,NaN]}', "--out", "out.json",
            ],
            [
                "check-conjugation", "--kind", "alpha", "--n", "1",
                "--sequence", '{"constant":{"re":Infinity}}', "--out", "out.json",
            ],
            ["check-symmetry", "--symbol", "sym.json", "--conjugation", '{"kind":"j","x":1}',
             "--out", "out.json"],
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
            # --n must be a positive integer
            [
                "check-conjugation", "--kind", "zeta",
                "--sequence", '{"thetas":[0.1,0.2,0.3,0.4,0.5,0.6]}', "--n", "-2",
                "--out", "out.json",
            ],
            [
                "check-conjugation", "--kind", "alpha", "--sequence", '{"values":[1,1,1]}',
                "--n", "-1", "--out", "out.json",
            ],
            [
                "check-conjugation", "--kind", "zeta", "--sequence", '{"thetas":[0.1]}',
                "--n", "0", "--out", "out.json",
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
            # numpy's seeding refuses a negative seed, in a diagonal mode and in unitary
            ["explore", "--seed", "-1", "--out", "out.json"],
            [
                "explore", "--mode", "unitary", "--seed", "-1", "--n", "8", "--band", "2",
                "--trials", "2", "--out", "out.json",
            ],
            # both lambda flags: neither is silently dropped
            [
                "check-conjugation", "--kind", "lambda", "--theta", "0.5",
                "--value", '{"re":1,"im":0}', "--out", "out.json",
            ],
            # JSON nested deeper than the decoder recurses: inline, @file, symbol file
            [
                "check-conjugation", "--kind", "zeta", "--sequence", DEEP_JSON, "--n", "4",
                "--out", "out.json",
            ],
            [
                "check-conjugation", "--kind", "zeta", "--sequence", "@deep.json", "--n", "4",
                "--out", "out.json",
            ],
            ["check-symmetry", "--symbol", "deep_sym.json", "--conjugation", '{"kind":"j"}',
             "--out", "out.json"],
            # a parameter flag the kind does not read is refused, not ignored
            [
                "check-conjugation", "--kind", "j", "--sequence", '{"thetas":[1]}',
                "--theta", "3", "--value", '"junk"', "--n", "4", "--out", "out.json",
            ],
            ["check-conjugation", "--kind", "unitary-seed", "--theta", "3", "--n", "4",
             "--out", "out.json"],
            [
                "check-conjugation", "--kind", "alpha", "--value", "1",
                "--sequence", '{"constant":{"theta":0}}', "--n", "4", "--out", "out.json",
            ],
            [
                "check-conjugation", "--kind", "zeta", "--theta", "1",
                "--sequence", '{"constant":{"theta":0}}', "--n", "4", "--out", "out.json",
            ],
        ],
    )
    def test_malformed_input_is_one_line_error(self, argv, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        # a valid symbol file, so a check-symmetry case fails on its own flaw only
        (tmp_path / "sym.json").write_text('{"schema_version":1,"band":0,"coeffs":[]}')
        (tmp_path / "deep.json").write_text(DEEP_JSON)
        (tmp_path / "deep_sym.json").write_text(
            '{"schema_version":1,"band":0,"coeffs":' + DEEP_JSON + "}"
        )
        code, _, err = run(argv, capsys)
        assert_one_line_usage_error(code, err)
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("mode", ["mixed", "unitary"])
    def test_negative_seed_is_numpys_error(self, mode, capsys, tmp_path):
        out = tmp_path / "out.jsonl"
        argv = ["explore", "--mode", mode, "--seed", "-1", "--n", "8", "--band", "2", "--out", str(out)]
        code, _, err = run(argv, capsys)
        assert code == 2
        assert err.splitlines() == ["error: expected non-negative integer"]
        assert not out.exists()

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
            out_written = (Path(tmp) / "out.json").exists()
        assert code in ((2,) if slot in REFUSED_SLOTS else (0, 1, 2)), (argv, code)
        if code == 2:
            assert sum("error:" in line for line in err.getvalue().splitlines()) == 1
            assert not out_written, argv


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


class TestParserReuse:
    """main builds its parser once per process; no call leaves state for the next."""

    @staticmethod
    def explore(out, *extra):
        return ["explore", "--trials", "6", "--n", "12", "--band", "2", "--seed", "11", *extra,
                "--out", str(out)]

    def test_many_calls_build_one_parser(self, tmp_path, capsys, monkeypatch):
        builds = []

        def counting_build():
            builds.append(None)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counting_build)
        cli._parser.cache_clear()
        try:
            for k in range(5):
                run(self.explore(tmp_path / f"{k}.jsonl"), capsys)
                run(["check-conjugation", "--kind", "j", "--n", "4"], capsys)
                run(["explore", "--mode", "bogus"], capsys)
        finally:
            cli._parser.cache_clear()
        assert len(builds) == 1

    def test_an_option_does_not_carry_over(self, tmp_path, capsys):
        run(self.explore(tmp_path / "constant.jsonl", "--mode", "constant"), capsys)
        run(self.explore(tmp_path / "default.jsonl"), capsys)
        *records, last = (tmp_path / "default.jsonl").read_text().splitlines()
        assert json.loads(last)["inputs"]["mode"] == "mixed"
        assert [json.loads(r)["mode"] for r in records[:3]] == ["generic", "symmetrized", "constant"]

    def test_usage_error_leaves_the_parser_as_new(self, tmp_path, capsys):
        code, _, err = run(["explore", "--mode", "bogus", "--out", str(tmp_path / "x")], capsys)
        assert code == 2 and "invalid choice" in err
        code, _, _ = run(self.explore(tmp_path / "after.jsonl"), capsys)
        proc = subprocess.run(
            [sys.executable, "-m", "hardyconj", *self.explore(tmp_path / "fresh.jsonl")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == code, proc.stderr
        assert (tmp_path / "after.jsonl").read_bytes() == (tmp_path / "fresh.jsonl").read_bytes()
