"""Unit tests for the JSON interchange layer."""

import json

import numpy as np
import pytest

from hardyconj import (
    LaurentSymbol,
    canonical_conjugation,
    explore_symmetry,
    generate_symmetric_symbol,
    random_symbol,
    sequence_conjugation,
    summarize_exploration,
    verify_conjugation,
)
from hardyconj.jsonio import (
    canonical_json,
    cert_to_json,
    conjugation_from_spec,
    emit_complex,
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

    def test_emit_round_trip(self):
        z = 0.1 - 0.7j
        assert parse_complex(emit_complex(z)) == z

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
        spec = {"values": [emit_complex(z) for z in seq]}
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
        sym = LaurentSymbol.from_pairs({1: 1.0}, band=2)
        data = symbol_to_json(sym)
        assert data["schema_version"] == 1
        assert [entry["n"] for entry in data["coeffs"]] == [-2, -1, 0, 1, 2]

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
                    {"n": n, **emit_complex(sym.coeff(n))} for n in range(-sym.band, sym.band + 1)
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
        records = explore_symmetry(9, 16, 3, seed=5, mode="mixed")
        symbol = generate_symmetric_symbol({1: 0.5 - 0.25j, 3: 2.0}, 0.1, [1j, -1.0, 0.6 + 0.8j])
        documents = [record_to_json(r) for r in records] + [
            report_to_json(records[0].report),
            summarize_exploration(records),
            symbol_to_json(symbol),
            cert_to_json(verify_conjugation(canonical_conjugation(4), trials=5)),
        ]
        for doc in documents:
            pretty = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)
            line = json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)
            assert canonical_json(doc) == pretty + "\n"
            assert json_line(doc) == line + "\n"

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            canonical_json({"x": float("nan")})

    @pytest.mark.parametrize("emit", [canonical_json, json_line])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_both_encoders_reject_non_finite_numbers(self, emit, value):
        with pytest.raises(ValueError):
            emit({"x": [1.0, value]})
