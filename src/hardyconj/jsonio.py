"""Stable JSON interchange for symbols, sequences, conjugations, and reports.

Complex numbers travel as {"re": x, "im": y} pairs of decimal doubles;
wherever a unimodular value is expected, {"theta": t} is accepted as sugar
for exp(i t). All emitters produce canonical output (sorted keys, fixed
layout) so identical inputs yield byte-identical files.
"""

from __future__ import annotations

import json

import numpy as np

from .conjugations import (
    ConjugationCert,
    canonical_conjugation,
    conjugation_from_unitary,
    phase_conjugation,
    random_unitary,
    rotation_conjugation,
    sequence_conjugation,
)
from .core import AntilinearMap
from .toeplitz import ExplorationRecord, LaurentSymbol, SymmetryReport

__all__ = [
    "SCHEMA_VERSION",
    "canonical_json",
    "cert_to_json",
    "conjugation_from_spec",
    "emit_complex",
    "json_line",
    "load_symbol",
    "parse_complex",
    "parse_indexed_coefficients",
    "parse_sequence_spec",
    "record_to_json",
    "report_to_json",
    "save_symbol",
    "symbol_from_json",
    "symbol_to_json",
]

SCHEMA_VERSION = 1

DIAGONAL_KINDS = ("j", "lambda", "alpha", "zeta")
CONJUGATION_KINDS = DIAGONAL_KINDS + ("unitary-seed",)


def _json_number(value, name: str, integer: bool = False):
    """``value`` as a float if it is a JSON number, or as an int if ``integer``.

    With ``integer`` only a JSON integer is accepted (an index, band or
    seed); ``1.5`` is refused rather than truncated. JSON true/false load
    as bool, a subclass of int, and are refused too.
    """
    kinds = int if integer else (int, float)
    if isinstance(value, bool) or not isinstance(value, kinds):
        expected = "an integer" if integer else "a number"
        raise ValueError(f"{name} must be {expected}, got {value!r}")
    if integer:
        return value
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} {value} is too large for a double") from None


def parse_complex(obj) -> complex:
    """Parse {"re": x, "im": y}, {"theta": t} meaning exp(i t), or a real number."""
    if isinstance(obj, dict):
        keys = set(obj)
        if keys == {"theta"}:
            return complex(np.exp(1j * _json_number(obj["theta"], "theta")))
        if keys and keys <= {"re", "im"}:
            return complex(
                _json_number(obj.get("re", 0.0), "re"), _json_number(obj.get("im", 0.0), "im")
            )
        raise ValueError(
            f"complex value must have keys re/im or theta, got {sorted(keys)}"
        )
    return complex(_json_number(obj, "complex value"))


def emit_complex(z) -> dict:
    z = complex(z)
    return {"re": float(z.real), "im": float(z.imag)}


def _json_list(value, key: str) -> list:
    """The value stored under ``key``, which must be a JSON list."""
    if not isinstance(value, list):
        raise ValueError(f'"{key}" must be a JSON list, got {type(value).__name__}')
    return value


def parse_sequence_spec(spec, count: int, start_index: int = 0) -> np.ndarray:
    """Materialize a sequence spec into ``count`` complex entries.

    Forms: {"constant": <complex>} repeats one value; {"thetas": [t, ...]}
    maps angles through exp(i t); {"values": [<complex>, ...]} is explicit.
    List forms must supply at least ``count`` entries; extras are ignored.
    ``start_index`` is the conventional index of the first entry, used in
    error messages.
    """
    if not isinstance(spec, dict):
        raise ValueError(f"sequence spec must be an object, got {type(spec).__name__}")
    keys = set(spec)
    if keys == {"constant"}:
        value = parse_complex(spec["constant"])
        return np.full(count, value, dtype=np.complex128)
    if keys in ({"thetas"}, {"values"}):
        (key,) = keys
        thetas = key == "thetas"
        entries = [
            _json_number(v, "theta") if thetas else parse_complex(v)
            for v in _json_list(spec[key], key)
        ]
        if len(entries) < count:
            raise ValueError(
                f"sequence entry for index {len(entries) + start_index} missing: "
                f"got {len(entries)} entries, need {count}"
            )
        if thetas:
            return np.exp(1j * np.asarray(entries[:count]))
        return np.asarray(entries[:count], dtype=np.complex128)
    raise ValueError(
        f"sequence spec must have exactly one of the keys constant/thetas/values, "
        f"got {sorted(keys)}"
    )


def conjugation_from_spec(spec: dict, dim: int) -> tuple[AntilinearMap, dict]:
    """Build a conjugation from its JSON spec; returns (map, normalized echo).

    Kinds: "j"; "lambda" with "value" (complex or theta object);
    "alpha"/"zeta" with "sequence" (spec as in :func:`parse_sequence_spec`,
    alpha indexed from 0, zeta from 1); "unitary-seed" with "seed".
    """
    if not isinstance(spec, dict):
        raise ValueError(f"conjugation spec must be an object, got {type(spec).__name__}")
    kind = spec.get("kind")
    if kind not in CONJUGATION_KINDS:
        raise ValueError(f"unknown conjugation kind {kind!r}, expected one of {CONJUGATION_KINDS}")
    if kind == "j":
        return canonical_conjugation(dim), {"kind": "j"}
    if kind == "lambda":
        if "value" not in spec:
            raise ValueError('kind "lambda" requires a "value" entry')
        lam = parse_complex(spec["value"])
        return rotation_conjugation(lam, dim), {"kind": "lambda", "value": emit_complex(lam)}
    if kind == "alpha":
        if "sequence" not in spec:
            raise ValueError('kind "alpha" requires a "sequence" entry')
        alpha = parse_sequence_spec(spec["sequence"], dim, start_index=0)
        return phase_conjugation(alpha), {
            "kind": "alpha",
            "values": [emit_complex(v) for v in alpha],
        }
    if kind == "zeta":
        if "sequence" not in spec:
            raise ValueError('kind "zeta" requires a "sequence" entry')
        zeta = parse_sequence_spec(spec["sequence"], dim - 1, start_index=1)
        return sequence_conjugation(zeta), {
            "kind": "zeta",
            "values": [emit_complex(v) for v in zeta],
        }
    # unitary-seed
    if "seed" not in spec:
        raise ValueError('kind "unitary-seed" requires a "seed" entry')
    seed = _json_number(spec["seed"], "seed", integer=True)
    return conjugation_from_unitary(random_unitary(dim, seed)), {
        "kind": "unitary-seed",
        "seed": seed,
    }


def parse_indexed_coefficients(entries, key: str) -> dict[int, complex]:
    """Map n -> value from a JSON list of {"n": index, <complex value>} objects.

    ``key`` names the list in error messages. Indices must be JSON
    integers and distinct; the range of n is the caller's to check.
    """
    pairs = {}
    for entry in _json_list(entries, key):
        if not isinstance(entry, dict) or "n" not in entry:
            raise ValueError(f"{key} entry must be an object with an index n, got {entry!r}")
        n = _json_number(entry["n"], f"{key} index n", integer=True)
        if n in pairs:
            raise ValueError(f"duplicate {key} index {n}")
        pairs[n] = parse_complex({k: v for k, v in entry.items() if k != "n"})
    return pairs


def symbol_to_json(symbol: LaurentSymbol) -> dict:
    """SymbolFile object: every coefficient in the band, listed by n."""
    coeffs = [
        {"n": n, **emit_complex(symbol.coeff(n))}
        for n in range(-symbol.band, symbol.band + 1)
    ]
    return {"schema_version": SCHEMA_VERSION, "band": symbol.band, "coeffs": coeffs}


def symbol_from_json(data, max_band: int | None = None) -> LaurentSymbol:
    """Symbol from a SymbolFile object; a band above ``max_band`` is refused before allocating."""
    if not isinstance(data, dict):
        raise ValueError("symbol file must hold a JSON object")
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {version!r}, expected {SCHEMA_VERSION}")
    band = _json_number(data.get("band"), "band", integer=True)
    if band < 0:
        raise ValueError("band must be nonnegative")
    if max_band is not None and band > max_band:
        raise ValueError(f"band {band} exceeds the largest allowed band {max_band}")
    pairs = parse_indexed_coefficients(data.get("coeffs", []), "coeffs")
    for n in pairs:
        if abs(n) > band:
            raise ValueError(f"coefficient index {n} exceeds band {band}")
    return LaurentSymbol.from_pairs(pairs, band=band)


def save_symbol(symbol: LaurentSymbol, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(symbol_to_json(symbol)))


def load_symbol(path, max_band: int | None = None) -> LaurentSymbol:
    with open(path, "r", encoding="utf-8") as fh:
        return symbol_from_json(json.load(fh), max_band)


def cert_to_json(cert: ConjugationCert) -> dict:
    return {
        "isometry_residual": float(cert.isometry_residual),
        "involution_residual": float(cert.involution_residual),
        "a_unitarity_residual": float(cert.a_unitarity_residual),
        "a_symmetry_residual": float(cert.a_symmetry_residual),
        "tol": float(cert.tol),
        "passed": bool(cert.passed),
    }


def report_to_json(report: SymmetryReport) -> dict:
    return {
        "residual": float(report.residual),
        "coeff_condition_holds": report.coeff_condition_holds,
        "max_coeff_violation": None
        if report.max_coeff_violation is None
        else float(report.max_coeff_violation),
        "agree": report.agree,
        "tol": float(report.tol),
        "entrywise_holds": report.entrywise_holds,
        "entrywise_violation": None
        if report.entrywise_violation is None
        else float(report.entrywise_violation),
    }


def record_to_json(record: ExplorationRecord) -> dict:
    """Trial, seed pair, resolved mode and report; ``run_trial`` regenerates the rest."""
    return {
        "trial": int(record.trial),
        "seed": [int(s) for s in record.seed],
        "mode": record.mode,
        "report": report_to_json(record.report),
    }


def canonical_json(obj) -> str:
    """Deterministic pretty JSON document (sorted keys, trailing newline)."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def json_line(obj) -> str:
    """Deterministic single-line JSON record."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"
