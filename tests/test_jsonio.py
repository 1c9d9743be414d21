"""Unit tests for the JSON interchange layer."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hardyconj.toeplitz
from hardyconj import (
    EXPLORE_MODES,
    ExplorationRecord,
    LaurentSymbol,
    SymmetryReport,
    canonical_conjugation,
    conjugation_from_unitary,
    explore_symmetry,
    fourier_coefficients,
    generate_symmetric_symbol,
    random_symbol,
    random_unitary,
    run_trial,
    sequence_conjugation,
    summarize_exploration,
    symmetry_report,
    verify_conjugation,
)
from hardyconj.jsonio import (
    _record_lines,
    canonical_json,
    cert_to_json,
    conjugation_from_spec,
    json_line,
    load_symbol,
    parse_complex,
    parse_sequence_spec,
    record_to_json,
    report_to_json,
    save_symbol,
    symbol_from_json,
    symbol_to_json,
)


class TestParseComplex:
    def test_re_im_pair(self):
        assert parse_complex({"re": 1.5, "im": -2.0}) == 1.5 - 2.0j

    def test_partial_pair_defaults_to_zero(self):
        assert parse_complex({"re": 3.0}) == 3.0
        assert parse_complex({"im": 1.0}) == 1.0j

    def test_theta_sugar(self):
        assert parse_complex({"theta": np.pi / 2}) == pytest.approx(1j)

    def test_bare_real_number(self):
        assert parse_complex(2.5) == 2.5
        assert parse_complex(3) == 3.0

    def test_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="re/im or theta"):
            parse_complex({"real": 1.0})

    def test_rejects_mixed_theta_and_re(self):
        with pytest.raises(ValueError, match="re/im or theta"):
            parse_complex({"theta": 1.0, "re": 0.0})

    def test_rejects_strings_and_bools(self):
        with pytest.raises(ValueError):
            parse_complex("1+2j")
        with pytest.raises(ValueError):
            parse_complex(True)

    @pytest.mark.parametrize(
        "text", ["NaN", "Infinity", '{"re": -Infinity}', '{"im": NaN}', '{"theta": Infinity}']
    )
    def test_rejects_non_finite_literals(self, text):
        # Python's json reader accepts these literals; JSON does not
        with pytest.raises(ValueError, match="finite"):
            parse_complex(json.loads(text))


class TestParseSequenceSpec:
    def test_constant_generator(self):
        seq = parse_sequence_spec({"constant": {"theta": 0.5}}, 4)
        np.testing.assert_allclose(seq, np.full(4, np.exp(0.5j)))

    def test_thetas_generator(self):
        seq = parse_sequence_spec({"thetas": [0.0, np.pi]}, 2)
        np.testing.assert_allclose(seq, [1.0, -1.0], atol=1e-15, rtol=0)

    def test_explicit_values(self):
        seq = parse_sequence_spec({"values": [{"re": 0.0, "im": 1.0}, {"theta": 0.0}]}, 2)
        np.testing.assert_allclose(seq, [1j, 1.0])

    def test_extra_entries_are_ignored(self):
        seq = parse_sequence_spec({"thetas": [0.1, 0.2, 0.3]}, 2)
        assert seq.size == 2

    @pytest.mark.parametrize(
        "text", ['{"thetas": [0.1, NaN]}', '{"values": [1.0, {"re": Infinity}]}']
    )
    def test_extra_entries_must_still_be_finite(self, text):
        with pytest.raises(ValueError, match="finite"):
            parse_sequence_spec(json.loads(text), 1)

    def test_shortage_names_missing_index(self):
        with pytest.raises(ValueError, match="index 3 missing"):
            parse_sequence_spec({"thetas": [0.1, 0.2]}, 3, start_index=1)

    @pytest.mark.parametrize(
        "spec", [{"thetas": [0.1, 0.2, 0.3]}, {"values": [1.0, 1.0]}, {"constant": 1.0}]
    )
    def test_rejects_negative_count(self, spec):
        # a negative count would otherwise slice entries off the end of the list
        with pytest.raises(ValueError, match="nonnegative"):
            parse_sequence_spec(spec, -2)

    def test_rejects_multiple_forms(self):
        with pytest.raises(ValueError, match="exactly one"):
            parse_sequence_spec({"thetas": [0.1], "values": []}, 1)

    def test_emitted_values_parse_back_exactly(self):
        rng = np.random.default_rng(37)
        seq = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 9))
        spec = {"values": [{"re": z.real, "im": z.imag} for z in seq.tolist()]}
        np.testing.assert_array_equal(parse_sequence_spec(spec, 9), seq)


class TestConjugationFromSpec:
    def test_plain_kind(self):
        op = conjugation_from_spec({"kind": "j"}, 4)
        np.testing.assert_allclose(op.a_matrix, canonical_conjugation(4).a_matrix)
        assert op.dim == 4

    def test_rotation_kind_with_theta(self):
        op = conjugation_from_spec({"kind": "lambda", "value": {"theta": np.pi}}, 3)
        np.testing.assert_allclose(np.diag(op.a_matrix), [1.0, -1.0, 1.0], atol=1e-12, rtol=0)
        assert op.dim == 3

    def test_phase_kind_covers_all_indices(self):
        spec = {"kind": "alpha", "sequence": {"constant": {"theta": 0.3}}}
        op = conjugation_from_spec(spec, 5)
        assert op.dim == 5
        np.testing.assert_allclose(np.diag(op.a_matrix), np.full(5, np.exp(0.3j)))

    def test_sequence_kind_needs_dim_minus_one_entries(self):
        spec = {"kind": "zeta", "sequence": {"thetas": [0.1, 0.2]}}
        op = conjugation_from_spec(spec, 3)
        assert op.dim == 3
        expected = sequence_conjugation(np.exp(1j * np.array([0.1, 0.2])))
        np.testing.assert_allclose(op.a_matrix, expected.a_matrix)
        with pytest.raises(ValueError, match="missing"):
            conjugation_from_spec(spec, 4)

    def test_unitary_seed_kind_is_deterministic(self):
        op1 = conjugation_from_spec({"kind": "unitary-seed", "seed": 7}, 8)
        op2 = conjugation_from_spec({"kind": "unitary-seed", "seed": 7}, 8)
        np.testing.assert_array_equal(op1.a_matrix, op2.a_matrix)
        assert op1.dim == 8

    @pytest.mark.parametrize("seed", [None, 1.5, "3", True, [7]])
    def test_seed_must_be_a_json_integer(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer"):
            conjugation_from_spec({"kind": "unitary-seed", "seed": seed}, 4)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown conjugation kind"):
            conjugation_from_spec({"kind": "mystery"}, 4)

    def test_missing_params_rejected(self):
        with pytest.raises(ValueError, match="value"):
            conjugation_from_spec({"kind": "lambda"}, 4)
        with pytest.raises(ValueError, match="sequence"):
            conjugation_from_spec({"kind": "zeta"}, 4)

    @pytest.mark.parametrize(
        "spec",
        [
            {"kind": "j", "seed": 3},
            {"kind": "lambda", "value": 1.0, "theta": 0.5},
            {"kind": "alpha", "sequence": {"constant": 1.0}, "values": []},
            {"kind": "zeta", "sequence": {"constant": 1.0}, "n": 4},
            {"kind": "unitary-seed", "seed": 3, "sequence": {"constant": 1.0}},
        ],
    )
    def test_a_spec_holds_exactly_its_kinds_keys(self, spec):
        # an extra key would be echoed in a report although nothing reads it
        with pytest.raises(ValueError, match="exactly the keys"):
            conjugation_from_spec(spec, 4)


class TestSymbolFiles:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(31)
        for k in range(10):
            sym = random_symbol(int(rng.integers(0, 6)), rng)
            path = tmp_path / f"sym{k}.json"
            save_symbol(sym, path)
            assert load_symbol(path) == sym

    def test_emitted_object_lists_full_band(self):
        # a numpy integer band is stored, and so emitted, as an int
        for sym in (
            LaurentSymbol.from_pairs({1: 1.0}, band=2),
            LaurentSymbol(np.int64(2), np.ones(5)),
            fourier_coefficients(np.arange(6.0), np.int64(2)),
        ):
            data = symbol_to_json(sym)
            assert data["schema_version"] == 1
            assert [entry["n"] for entry in data["coeffs"]] == [-2, -1, 0, 1, 2]
            assert type(data["band"]) is int and json.loads(json_line(data)) == data

    def test_emitted_bytes_equal_the_per_coefficient_form(self):
        # signed zeros in either part come through the array path unchanged
        signed_zeros = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), 0j]
        rng = np.random.default_rng(37)
        for sym in (
            LaurentSymbol(2, np.array(signed_zeros + [complex(1.5, -0.0)])),
            random_symbol(50, rng),
        ):
            per_coefficient = {
                "schema_version": 1,
                "band": sym.band,
                "coeffs": [
                    {"n": n, "re": sym.coeff(n).real, "im": sym.coeff(n).imag}
                    for n in range(-sym.band, sym.band + 1)
                ],
            }
            assert canonical_json(symbol_to_json(sym)) == canonical_json(per_coefficient)
        zeros = json.loads(canonical_json(symbol_to_json(LaurentSymbol(1, np.array(signed_zeros[:3])))))
        signs = [(bool(np.signbit(e["re"])), bool(np.signbit(e["im"]))) for e in zeros["coeffs"]]
        assert signs == [(True, False), (False, True), (True, True)]

    def test_rejects_wrong_schema_version(self):
        with pytest.raises(ValueError, match="schema_version"):
            symbol_from_json({"schema_version": 2, "band": 0, "coeffs": []})

    def test_rejects_duplicate_indices(self):
        data = {
            "schema_version": 1,
            "band": 1,
            "coeffs": [{"n": 1, "re": 1.0, "im": 0.0}, {"n": 1, "re": 2.0, "im": 0.0}],
        }
        with pytest.raises(ValueError, match="duplicate"):
            symbol_from_json(data)

    def test_rejects_index_beyond_band(self):
        data = {"schema_version": 1, "band": 1, "coeffs": [{"n": 2, "re": 1.0, "im": 0.0}]}
        with pytest.raises(ValueError, match="exceeds band"):
            symbol_from_json(data)

    def test_accepts_theta_entries(self):
        data = {"schema_version": 1, "band": 1, "coeffs": [{"n": 1, "theta": 0.0}]}
        assert symbol_from_json(data).coeff(1) == 1.0


class TestCanonicalJson:
    def test_key_order_is_stable(self):
        a = canonical_json({"b": 1, "a": [2, {"d": 3, "c": 4}]})
        b = canonical_json({"a": [2, {"c": 4, "d": 3}], "b": 1})
        assert a == b

    def test_round_trips_floats_exactly(self):
        value = 0.1 + 0.2
        assert json.loads(canonical_json({"x": value}))["x"] == value

    def test_json_line_is_single_line(self):
        assert json_line({"a": [1, 2]}) == '{"a":[1,2]}\n'

    def test_bytes_equal_json_dumps_with_the_same_options(self):
        # numpy arithmetic makes np.float64 tolerances and np.int64 seeds; the
        # reports made with them hold plain Python values, so they emit the same
        assert self.documents(np.int64(5), np.float64(1e-10)) == self.documents(5, 1e-10)

    @staticmethod
    def documents(seed, tol):
        """Every kind of emitted document, each checked against json.dumps."""
        runs = {mode: explore_symmetry(9, 16, 3, seed=seed, mode=mode, tol=tol)
                for mode in ("mixed", "unitary")}
        records = runs["mixed"]
        symbol = generate_symmetric_symbol({1: 0.5 - 0.25j, 3: 2.0}, 0.1, [1j, -1.0, 0.6 + 0.8j])
        op = sequence_conjugation(np.exp(1j * np.arange(1, 16)))
        dense = conjugation_from_unitary(random_unitary(16, 3))
        documents = [record_to_json(r) for run in runs.values() for r in run] + [
            record_to_json(run_trial(4, 16, 3, seed=seed, tol=tol)),
            report_to_json(records[0].report),
            report_to_json(symmetry_report(op, symbol, 16, tol=tol)),
            report_to_json(symmetry_report(dense, symbol, 16, tol=tol)),
            summarize_exploration(records),
            symbol_to_json(symbol),
            cert_to_json(verify_conjugation(canonical_conjugation(4), trials=5, tol=tol)),
            cert_to_json(verify_conjugation(dense, trials=5, tol=tol)),
        ]
        for doc in documents:
            pretty = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)
            line = json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)
            assert canonical_json(doc) == pretty + "\n"
            assert json_line(doc) == line + "\n"
            assert json.loads(line) == doc
        # explore's record lines, written from block columns without the dicts
        for mode, run in runs.items():
            block = hardyconj.toeplitz._run_block(range(9), 16, 3, seed, mode, tol)
            lines = [
                json.dumps(record_to_json(r), sort_keys=True, separators=(",", ":"), allow_nan=False)
                for r in run
            ]
            assert _record_lines(block) == "".join(line + "\n" for line in lines)
        return documents

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            canonical_json({"x": float("nan")})

    @pytest.mark.parametrize("emit", [canonical_json, json_line])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_both_encoders_reject_non_finite_numbers(self, emit, value):
        with pytest.raises(ValueError):
            emit({"x": [1.0, value]})



FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1e-308, 1.7976931348623157e308]
)
INDICES = st.integers(0, 10**40) | st.sampled_from([2**32, 2**64 + 1, 10**40])
#: one-sided and entrywise values with their verdicts and agree, or None for a dense map
CRITERIA = st.none() | st.tuples(FLOATS, FLOATS, st.booleans(), st.booleans(), st.booleans())
ROW = st.tuples(INDICES, st.sampled_from(EXPLORE_MODES[1:]), FLOATS, st.booleans(), CRITERIA)


def explore_block(seed, tol, rows):
    """An explore block of rows (trial, mode, residual, residual holds, criteria)."""
    trials, modes, residual, holds, criteria = map(list, zip(*rows))
    onesided, entrywise, onesided_holds, entrywise_holds, agree = map(
        list, zip(*(c or (None,) * 5 for c in criteria))
    )
    return hardyconj.toeplitz._Block(
        tol, residual, onesided, entrywise, holds, onesided_holds, entrywise_holds, agree,
        trials=trials, modes=modes, seed=seed,
    )


def reference_lines(block):
    """``json_line(record_to_json(r))`` of the records the block's columns describe."""
    b = block
    rows = zip(b.trials, b.modes, b.residual, b.holds, b.onesided_holds, b.onesided, b.agree,
               b.entrywise_holds, b.entrywise)
    return "".join(
        json_line(record_to_json(ExplorationRecord(t, (b.seed, t), m, SymmetryReport(
            r, h, oh, o, a, b.tol, eh, e
        ))))
        for t, m, r, h, oh, o, a, eh, e in rows
    )


class TestRecordLines:
    """explore's fixed-layout encoder writes exactly the reference's bytes."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(seed=INDICES, tol=FLOATS, rows=st.lists(ROW, min_size=1, max_size=6))
    def test_bytes_equal_the_reference(self, seed, tol, rows):
        block = explore_block(seed, tol, rows)
        assert _record_lines(block) == reference_lines(block)

    def test_template_keys_are_the_reference_keys(self):
        # a field added to or renamed in record_to_json or report_to_json
        # fails here by name, before any byte comparison
        def keys(obj):
            return {k: keys(v) for k, v in obj.items()} if isinstance(obj, dict) else None

        (record,) = explore_symmetry(1, 8, 2, seed=1, mode="generic")
        line = _record_lines(hardyconj.toeplitz._run_block(range(1), 8, 2, 1, "generic", 1e-10))
        pairs = json.loads(line, object_pairs_hook=list)
        assert [k for k, _ in pairs] == sorted(record_to_json(record))
        assert [k for k, _ in dict(pairs)["report"]] == sorted(report_to_json(record.report))
        assert keys(json.loads(line)) == keys(record_to_json(record))

    @pytest.mark.parametrize("mode", EXPLORE_MODES)
    def test_mode_names_are_their_own_json_text(self, mode):
        # the template writes a mode name unescaped between quotes
        assert json.dumps(mode) == f'"{mode}"'

    @pytest.mark.parametrize("column", ["tol", "residual", "onesided", "entrywise"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_numbers_raise_as_in_json_line(self, column, value):
        row = (0, "generic", 0.5, False, (0.25, 0.125, False, False, True))
        block = explore_block(3, 1e-10, [row, row])
        if column == "tol":
            block = block._replace(tol=value)
        else:
            getattr(block, column)[1] = value
        with pytest.raises(ValueError):
            reference_lines(block)
        with pytest.raises(ValueError):
            _record_lines(block)
