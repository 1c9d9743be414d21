"""Stable JSON interchange for symbols, sequences, conjugations, and reports.

Complex numbers travel as {"re": x, "im": y} pairs of decimal doubles;
wherever a unimodular value is expected, {"theta": t} is accepted as sugar
for exp(i t). NaN and Infinity are refused. Reports echo each spec as
given, so an echo is itself a valid input. All emitters produce canonical
output (sorted keys, fixed layout) so identical inputs yield
byte-identical files.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import stat
from dataclasses import asdict

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

#: The one key a conjugation spec holds besides "kind", by kind; "j" takes none.
_PARAMETER = {"lambda": "value", "alpha": "sequence", "zeta": "sequence", "unitary-seed": "seed"}


def _json_number(value, name: str, integer: bool = False):
    """``value`` as a finite float if it is a JSON number, or as an int if ``integer``.

    With ``integer`` only a JSON integer is accepted (an index, band or
    seed); ``1.5`` is refused rather than truncated. JSON true/false load
    as bool, a subclass of int, and are refused too, as are the NaN and
    Infinity literals that Python's json reader accepts and JSON does not.
    """
    kinds = int if integer else (int, float)
    if isinstance(value, bool) or not isinstance(value, kinds):
        expected = "an integer" if integer else "a number"
        raise ValueError(f"{name} must be {expected}, got {value!r}")
    if integer:
        return value
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"{name} must be a finite double, got {value}")
    return number


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
    if count < 0:
        raise ValueError(f"sequence length must be nonnegative, got {count}")
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


def conjugation_from_spec(spec: dict, dim: int) -> AntilinearMap:
    """Build the conjugation a JSON spec describes at dimension ``dim``.

    A spec holds exactly "kind" and that kind's one parameter: none for "j";
    "value" (complex or theta object) for "lambda"; "sequence" (as in
    :func:`parse_sequence_spec`, alpha indexed from 0, zeta from 1) for
    "alpha"/"zeta"; "seed" for "unitary-seed". Reports echo the spec as
    given, so ``conjugation_from_spec(echo, n)`` rebuilds the map bit for bit.
    """
    kind = _spec_kind(spec)
    if kind not in CONJUGATION_KINDS:
        raise ValueError(f"unknown conjugation kind {kind!r}, expected one of {CONJUGATION_KINDS}")
    keys = {"kind", _PARAMETER[kind]} if kind in _PARAMETER else {"kind"}
    if set(spec) != keys:
        raise ValueError(
            f'conjugation spec of kind "{kind}" must have exactly the keys {sorted(keys)}, '
            f"got {sorted(spec)}"
        )
    if kind == "j":
        return canonical_conjugation(dim)
    if kind == "lambda":
        return rotation_conjugation(parse_complex(spec["value"]), dim)
    if kind == "alpha":
        return phase_conjugation(parse_sequence_spec(spec["sequence"], dim, start_index=0))
    if kind == "zeta":
        return sequence_conjugation(parse_sequence_spec(spec["sequence"], dim - 1, start_index=1))
    seed = _json_number(spec["seed"], "seed", integer=True)
    return conjugation_from_unitary(random_unitary(dim, seed))


def _spec_kind(spec):
    """The "kind" of a conjugation spec, which must be a JSON object; None if absent."""
    if not isinstance(spec, dict):
        raise ValueError(f"conjugation spec must be an object, got {type(spec).__name__}")
    return spec.get("kind")


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
    c = symbol.coeffs
    coeffs = [
        {"n": n, "re": re, "im": im}
        for n, re, im in zip(range(-symbol.band, symbol.band + 1), c.real.tolist(), c.imag.tolist())
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
    return LaurentSymbol.from_pairs(pairs, band=band)


def save_symbol(symbol: LaurentSymbol, path) -> None:
    """Write ``symbol``'s SymbolFile to ``path``; a failed write leaves ``path`` as it was."""
    with _replacing(path) as fh:
        fh.write(canonical_json(symbol_to_json(symbol)))


@contextlib.contextmanager
def _replacing(path):
    """A text handle whose bytes replace the file at ``path`` when the block completes."""
    mode = None
    with contextlib.suppress(FileNotFoundError):
        mode = os.stat(path).st_mode
    if mode is not None and not stat.S_ISREG(mode):  # a FIFO or device is written in place
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
        return
    target = os.path.realpath(path)  # a symlinked path stays a link
    temp = f"{target}.{os.getpid()}.tmp"
    try:
        with open(temp, "w", encoding="utf-8") as fh:
            yield fh
    except BaseException as exc:  # KeyboardInterrupt included: path stays as it was
        with contextlib.suppress(OSError):
            os.remove(temp)
        if isinstance(exc, OSError) and exc.filename == temp:
            exc.filename = os.fspath(path)  # the path as given, not the temp name
        raise
    # remove, then rename (os.replace is slow on ext4): a kill between leaves the bytes at temp
    if mode is not None:
        os.chmod(temp, stat.S_IMODE(mode))
        os.remove(target)
    os.rename(temp, target)


def _decode(text: str):
    """``json.loads(text)``, with nesting too deep for the decoder refused as a ValueError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON is nested too deeply to decode") from None


def load_symbol(path, max_band: int | None = None) -> LaurentSymbol:
    with open(path, "r", encoding="utf-8") as fh:
        return symbol_from_json(_decode(fh.read()), max_band)


def cert_to_json(cert: ConjugationCert) -> dict:
    return asdict(cert)


def report_to_json(report: SymmetryReport) -> dict:
    # _record_lines's template lists SymmetryReport's fields; TestRecordLines enforces it
    return asdict(report)


def record_to_json(record: ExplorationRecord) -> dict:
    """Every field of the record: trial, seed pair (as a list), resolved mode and report.

    ``run_trial`` rebuilds the record from the line and the file's inputs,
    and ``trial_draws`` the sequence turns and symbol it was checked on. The
    ``explore`` command writes its lines from block columns without
    building this dict; ``json_line`` of it is the reference for those bytes.
    """
    return {**asdict(record), "seed": list(record.seed)}


# built once: json.dumps with options constructs a new encoder on every call
_CANONICAL = json.JSONEncoder(sort_keys=True, indent=2, allow_nan=False)
_LINE = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False)


def canonical_json(obj) -> str:
    """Deterministic pretty JSON document (sorted keys, trailing newline)."""
    return _CANONICAL.encode(obj) + "\n"


def json_line(obj) -> str:
    """Deterministic single-line JSON record."""
    return _LINE.encode(obj) + "\n"


_LITERALS = {True: "true", False: "false", None: "null"}


def _floats(values) -> list:
    """``json_line``'s text of each float, null for None; NaN and infinities raise, as there."""
    texts = ["null" if v is None else float.__repr__(v) for v in values]
    if {"nan", "inf", "-inf"}.intersection(texts):
        raise ValueError("Out of range float values are not JSON compliant")
    return texts


def _record_lines(block) -> str:
    """``json_line(record_to_json(r))`` of every record of an explore block, joined.

    One fixed layout, keys in sorted order, is filled from the block's
    columns (``toeplitz._run_block``), so no record or dict is built. A
    mode name is written as it is: every name in ``EXPLORE_MODES`` is its
    own JSON text.
    """
    seed, (tol,) = block.seed, _floats([block.tol])
    columns = zip(
        block.trials,
        block.modes,
        _floats(block.residual),
        _floats(block.onesided),
        _floats(block.entrywise),
        block.holds,
        block.onesided_holds,
        block.entrywise_holds,
        block.agree,
    )
    return "".join([
        f'{{"mode":"{m}","report":{{"agree":{_LITERALS[a]},'
        f'"coeff_condition_holds":{_LITERALS[oh]},"entrywise_holds":{_LITERALS[eh]},'
        f'"entrywise_violation":{e},"holds":{_LITERALS[h]},"max_coeff_violation":{o},'
        f'"residual":{r},"tol":{tol}}},"seed":[{seed},{t}],"trial":{t}}}\n'
        for t, m, r, o, e, h, oh, eh, a in columns
    ])
