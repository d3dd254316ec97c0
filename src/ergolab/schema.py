"""The document format: one declarative table per spec kind and per
experiment's knobs, and one walker that checks a whole document against them.

Kinded specs pick their table by ``"kind"``; system and joining documents keep
their fields under ``"params"``.  ``parse`` checks a whole document before
anything is built, refusing unknown keys, and returns a copy with every
default filled in, which the builders read without checking it again.  Every
error is a ``SpecValidationError`` naming the full path of the bad value, e.g.
``knobs.system.params.group``; a record's scalar fields are checked before its
nested specs.  Rules that programmatic callers also reach (weights summing to
1, points in [0, 1), distinct coordinates, tower sizes) stay with the
constructors that enforce them, or are named by a field's ``check``.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Callable, NamedTuple

from ergolab.core import Cocycle, MeasureHandle, SpecValidationError, System
from ergolab.exact import parse_scalar

#: the default of a key that must be given
REQUIRED = object()

#: largest |power| of an off-diagonal joining; T^power takes power steps per use
MAX_OFF_DIAGONAL_POWER = 4096

#: largest order of a cyclic group or ``cyclic-uniform`` measure; the measure
#: builds one atom per element (about 25 us and 0.6 KB each)
MAX_CYCLIC_ORDER = 2**16

#: largest product-closure ``degree``: (2d+1)^5 - 1 characters per joining;
#: at 100,000 samples degree 4 took 2.6 s and 111 MiB, degree 5 6.7 s, 187 MiB
MAX_CLOSURE_DEGREE = 4

#: largest product-closure samples x ((2 degree + 1)^5 - 1), the character values
#: one joining's sampled test reads: at 5.9e9, degree 4 with 100,000 samples took
#: 1.7 s and 90 MiB, degree 3 with 350,000 samples 3.0 s and 78 MiB; degree 2 at
#: MAX_SAMPLES is 3.1e9 (2.5 s, 130 MiB); degree 4 at MAX_SAMPLES, 5.9e10, would
#: take about 26 s (extrapolated, not run)
MAX_CLOSURE_WORK = 6 * 10**9

#: largest rank1-family ``prefix_length``: the continuity check builds 2^(p+1)
#: towers, about 6x the time per step (0.66 s at p = 10)
MAX_PREFIX_LENGTH = 10

#: largest Wiener length ``N``: at 2^16 an exact probe took 1.4 s and a sampled
#: one, at 4,096 samples, about 18 s (its cost is samples x N)
MAX_N = 2**16

#: largest ``samples`` and ``statistical_samples``: product-closure took 4.1 s
#: and 129 MiB at 10^6 (degree 2); a sampled spectral probe took 21 s at 2^16
#: samples and N = 4,096
MAX_SAMPLES = 10**6
MAX_PROBE_SAMPLES = 2**16

#: largest spectral-probe ``toeplitz_size``: ``eigvalsh`` of a size^2 complex
#: matrix took 2.1 s and 263 MiB at 2,048; cubic time, so about 17 s at 4,096
MAX_TOEPLITZ_SIZE = 2048

#: largest identity-disjoint ``consistency_degree``: (2d+1)^2 - 1 characters per
#: joining; 3.5 s and 74 MiB at 128, 14.6 s and 167 MiB at 256
MAX_CONSISTENCY_DEGREE = 128

#: largest example1 ``invariance_degree``: (2d+1)^4 - 1 characters, each
#: integrated exactly twice; 4.1 s and 96 MiB at 8, 8.4 s and 168 MiB at 10
MAX_INVARIANCE_DEGREE = 8

#: largest ``max_freq``: (2m+1)^2 characters per joining; identity-disjoint took
#: 2.3 s at 64 (2.9 s at N = 2^16) and 9.0 s at 128, example1 1.2 s at 64
MAX_FREQ = 64

#: largest Haar ``arity``: the space holds one coordinate per unit, 8 bytes each,
#: built by ``spec validate`` too (3,000,000 took 23 MiB more); at 2^16 it took
#: 0.4 MiB more, and a spectral probe of a 2^16-coordinate identity with a
#: 2^16-frequency character ran in 0.9 s
MAX_ARITY = 2**16

#: largest ``depth`` of a rank-one system spec.  Tower-level correlations are
#: integers of about depth digits, so a 40-digit decimal eigenvalue query on a
#: level at N = 4,096 took 4.8 s at depth 12, 7.4 s at 100, 10.0 s at 128, 16 s
#: at 200 and 210 s at 1,000; above about 2,250 the exact Wiener total has more
#: digits than Python prints (4,300), and the run fails after its work
MAX_RANK1_DEPTH = 100


def check_closure_budget(knobs: dict, path: str) -> None:
    """Refuse product-closure knobs whose samples x characters exceed MAX_CLOSURE_WORK."""
    characters = (2 * knobs["degree"] + 1) ** 5 - 1
    work = knobs["samples"] * characters
    if work > MAX_CLOSURE_WORK:
        raise SpecValidationError(path, f"samples x characters must be <= {MAX_CLOSURE_WORK}, "
                                        f"got {work} ({path}.samples = {knobs['samples']} x "
                                        f"{characters} characters at {path}.degree = "
                                        f"{knobs['degree']})")


def check_stages_within_depth(knobs: dict, path: str) -> None:
    """Refuse a rank1-family ``wm_stages`` item above ``depth``: a stage-k level
    exists in the depth-d tower only for k <= d.  No power of 3 is taken first."""
    for i, stage in enumerate(knobs["wm_stages"]):
        if stage > knobs["depth"]:
            raise SpecValidationError(f"{path}.wm_stages[{i}]",
                                      f"must be <= {path}.depth = {knobs['depth']}, got {stage}")


def require_wiener_length(N: int, field: str = "N") -> None:
    """Refuse a Wiener average, plain or rotated, over fewer than 16 terms."""
    if N < 16:
        raise SpecValidationError(field, f"Wiener averaging needs N >= 16, got {N}")


def check_nonzero_angle(angle: str, path: str) -> None:
    """Refuse an example1 ``angle`` that is 0 mod 1: the shifted copy is then the
    twist itself, and its eigenvalue 1 is the constants', not an ergodic
    rotation factor."""
    if parse_scalar(angle) % 1 == 0:
        raise SpecValidationError(path, f"must not be 0 mod 1 (the identity rotation "
                                        f"witnesses no rotation factor), got {angle!r}")


def check_factor_lists(factors, field: str = "factors") -> None:
    """Refuse rel-indep factors that are not two lists of int coordinates."""
    if not (isinstance(factors, (list, tuple)) and len(factors) == 2 and all(
            isinstance(f, (list, tuple)) and all(type(c) is int for c in f) for f in factors)):
        raise SpecValidationError(field, "factors must be two lists of int coordinates")


class Field(NamedTuple):
    """One key of a table.  ``type`` is a scalar type of ``TYPES``, the name of
    a spec in ``SPECS``, an inline table, or the Field of an array's items.  A
    ``default`` of None lets the key be left out; ``minimum`` and ``maximum``
    bound a number or an array's length; ``check`` sees the value once parsed,
    a record with its defaults filled in."""

    type: "str | dict | Field"
    default: object = None
    minimum: int | None = None
    maximum: int | None = None
    check: Callable[[object, str], None] | None = None


class Spec(NamedTuple):
    """A table per ``"kind"`` (or one under None), the fields beside ``"kind"``
    and ``"params"`` of enveloped documents, and the classes whose instances
    a program may pass in place of a document."""

    kinds: dict
    envelope: dict | None = None
    built: tuple = ()


def _is_scalar(value) -> bool:
    try:
        parse_scalar(value)
    except ValueError:
        return False
    return True


#: scalar type -> (its name in messages, its test)
TYPES = {
    "int": ("an integer", lambda v: type(v) is int),
    "number": ("a number", lambda v: type(v) in (int, float)),
    "bool": ("a boolean", lambda v: type(v) is bool),
    "scalar": ("an exact rational ('p/q', a decimal string or an integer)", _is_scalar),
    "rational": ("a rational string ('p/q' or a decimal)",
                 lambda v: isinstance(v, str) and _is_scalar(v)),
    "json": ("any JSON value", lambda v: True),
}

HAAR = {"kind": "haar"}
AFFINE = {"kind": "affine"}

SPECS = {
    "system": Spec(envelope={"precision": Field("int", minimum=1)}, built=(System,), kinds={
        "rotation": {"angle": Field("scalar", "0"), "measure": Field("measure", HAAR)},
        "identity": {"measure": Field("measure", HAAR)},
        "twist": {"base_measure": Field("measure", HAAR), "cocycle": Field("cocycle", AFFINE),
                  "shift": Field("scalar")},
        "group-extension": {"base": Field("system", REQUIRED),
                            "cocycle": Field("cocycle", AFFINE),
                            "group": Field("group", {"kind": "circle"})},
        "product": {"factors": Field(Field("system"), REQUIRED)},
        "rank1-family": {"a": Field("scalar", "0"), "digits": Field(Field("int")),
                         "depth": Field("int", 8, maximum=MAX_RANK1_DEPTH)},
    }),
    "measure": Spec(built=(MeasureHandle,), kinds={
        "haar": {"arity": Field("int", 1, minimum=1, maximum=MAX_ARITY)},
        "atoms": {"atoms": Field(Field("atom"), REQUIRED)},
        "cyclic-uniform": {"order": Field("int", REQUIRED, minimum=1, maximum=MAX_CYCLIC_ORDER)},
        "product": {"factors": Field(Field("measure"), REQUIRED)},
        "mixture": {"components": Field(Field("component"), REQUIRED)},
        "power-law-sampled": {"exponent": Field("int", REQUIRED, minimum=1)},
    }),
    "atom": Spec({None: {"point": Field(Field("scalar"), REQUIRED, minimum=1),
                         "weight": Field("scalar", "1")}}),
    "component": Spec({None: {"weight": Field("scalar", "0"),
                              "measure": Field("measure", REQUIRED)}}),
    "cocycle": Spec(built=(Cocycle,), kinds={
        "affine": {"slope": Field("scalar", "1"), "intercept": Field("scalar", "0"),
                   "coord": Field("int", 0)},
        "table": {"entries": Field(Field("entry"), REQUIRED, minimum=1)},
    }),
    "entry": Spec({None: {"point": Field(Field("scalar"), REQUIRED),
                          "value": Field("scalar", "0")}}),
    "group": Spec(kinds={"circle": {}, "cyclic": {
        "order": Field("int", REQUIRED, minimum=1, maximum=MAX_CYCLIC_ORDER)}}),
    "joining": Spec(envelope={}, kinds={
        "product": {"components": Field(Field("system"), REQUIRED, minimum=2)},
        "diagonal": {"component": Field("system", REQUIRED)},
        "graph": {"component": Field("system", REQUIRED), "map": Field("system", REQUIRED)},
        "off-diagonal": {"component": Field("system", REQUIRED),
                         "power": Field("int", 0, minimum=-MAX_OFF_DIAGONAL_POWER,
                                        maximum=MAX_OFF_DIAGONAL_POWER)},
        "rel-indep": {"components": Field(Field("system"), REQUIRED),
                      "factors": Field("json", [[], []], check=check_factor_lists),
                      "base": Field("rel-indep-base", {"kind": "product"})},
        "example1-triple": {"base_measure": Field("measure", HAAR),
                            "cocycle": Field("cocycle", AFFINE), "angle": Field("scalar", "0")},
    }),
    "rel-indep-base": Spec(kinds={"product": {}, "diagonal": {},
                                  "graph": {"map": Field("system", REQUIRED)}}),
    "observable": Spec({None: {"freqs": Field(Field("int"), [1]),
                               "centered": Field("bool", False),
                               "level": Field(Field("int", minimum=0), minimum=2, maximum=2)}}),
    "query": Spec({None: {"angle": Field("scalar", REQUIRED),
                          "expect_witnessed": Field("bool")}}),
}

#: 40-digit decimal truncation of sqrt(2) - 1 (the fractional part of sqrt(2))
SQRT2_ANGLE_40 = "0.4142135623730950488016887242096980785697"

#: each experiment's knobs.  Minimums mark values that would leave a check
#: vacuous or its input empty; Wiener averages need N >= 16 on top.
KNOBS = {
    "identity-disjoint": {
        "rotation_angle": Field("rational", "1/3"),
        "identity_measure": Field("measure", {"kind": "atoms", "atoms": [
            {"point": ["0"], "weight": "1/2"},
            {"point": ["1/2"], "weight": "1/2"},
        ]}),
        "max_freq": Field("int", 8, minimum=1, maximum=MAX_FREQ),
        "N": Field("int", 4096, minimum=1, maximum=MAX_N),
        "samples": Field("int", 4096, minimum=1, maximum=MAX_SAMPLES),
        "consistency_degree": Field("int", 3, minimum=1, maximum=MAX_CONSISTENCY_DEGREE),
    },
    "example1": {
        "angle": Field("rational", "1/5", check=check_nonzero_angle),
        "slope": Field("rational", "1"),
        "N": Field("int", 4096, minimum=1, maximum=MAX_N, check=require_wiener_length),
        "max_freq": Field("int", 8, minimum=1, maximum=MAX_FREQ),
        "invariance_degree": Field("int", 2, minimum=1, maximum=MAX_INVARIANCE_DEGREE),
        "statistical": Field("bool", True),
        "statistical_exponent": Field("int", 2, minimum=1),
        "statistical_samples": Field("int", 20000, minimum=1, maximum=MAX_SAMPLES),
    },
    "product-closure": {
        "rotation_angle": Field("rational", SQRT2_ANGLE_40),
        "precision": Field("int", 40, minimum=1),
        "samples": Field("int", 100000, minimum=1, maximum=MAX_SAMPLES),
        "degree": Field("int", 2, minimum=1, maximum=MAX_CLOSURE_DEGREE),
    },
    "rank1-family": {
        "parameters": Field(Field("scalar"), ["1/4", "3/4", "1/3"], minimum=1),
        "depth": Field("int", 12, minimum=1),
        "word_stage_max": Field("int", 14, minimum=1),
        "prefix_length": Field("int", 6, minimum=1, maximum=MAX_PREFIX_LENGTH),
        "wm_stages": Field(Field("int", minimum=0), [3, 4, 5], minimum=1),
        "N": Field("int", 4096, minimum=1, maximum=MAX_N, check=require_wiener_length),
        "threshold": Field("number", 0.05),
    },
    "spectral-probe": {
        "system": Field("system", {"kind": "rotation", "params": {"angle": "1/3"}}),
        "observable": Field("observable", {"freqs": [1], "centered": False}),
        "N": Field("int", 4096, minimum=1, maximum=MAX_N, check=require_wiener_length),
        "samples": Field("int", 4096, minimum=1, maximum=MAX_PROBE_SAMPLES),
        "candidates": Field(Field("scalar"), []),
        "eigenvalue_queries": Field(Field("query"), []),
        "toeplitz_size": Field("int", 64, minimum=1, maximum=MAX_TOEPLITZ_SIZE),
    },
}


def parse(doc, name: str, path: str = ""):
    """Check ``doc`` against the spec ``name`` and return it with every default
    filled in; a built instance of the spec passes unchanged.  ``path`` is the
    document's own path, the prefix of every error."""
    spec = SPECS[name]
    if isinstance(doc, spec.built):
        return doc
    if not isinstance(doc, dict):
        raise SpecValidationError(path or name, f"a {name} spec must be an object, got {doc!r}")
    if None in spec.kinds:
        return _record(doc, spec.kinds[None], path)
    kind = doc.get("kind")
    if type(kind) is not str or kind not in spec.kinds:
        raise SpecValidationError(_at(path, "kind"), f"unknown {name} kind {kind!r}; "
                                                     f"expected one of {tuple(spec.kinds)}")
    fields = spec.kinds[kind]
    if spec.envelope is not None:
        fields = {**spec.envelope, "params": Field(fields, {})}
    return _record(doc, {"kind": Field("json"), **fields}, path)


#: checks that read several knobs of one experiment at once
KNOB_CHECKS = {"product-closure": check_closure_budget,
               "rank1-family": check_stages_within_depth}


def parse_knobs(experiment: str, overrides: Mapping) -> dict:
    """Check an experiment's knob overrides; returns every knob, defaults filled in."""
    return _value(overrides, Field(KNOBS[experiment], check=KNOB_CHECKS.get(experiment)),
                  "knobs")


def _at(path: str, key) -> str:
    return f"{path}.{key}" if path else str(key)


def _record(doc: dict, fields: dict, path: str) -> dict:
    for key in doc:
        if key not in fields:
            raise SpecValidationError(_at(path, key), f"unknown key; expected one of "
                                                      f"{sorted(fields)}")
    out = {}
    # a stable sort: the scalar fields come first, in table order
    for key, f in sorted(fields.items(), key=lambda item: not isinstance(item[1].type, str)
                         or item[1].type in SPECS):
        if key in doc:
            out[key] = _value(doc[key], f, _at(path, key))
        elif f.default is REQUIRED:
            raise SpecValidationError(_at(path, key), "missing required key")
        elif f.default is not None:
            out[key] = _value(f.default, f, _at(path, key))
    return out


def _value(value, f: Field, path: str):
    kind = f.type
    is_array = isinstance(kind, Field)
    if is_array and not isinstance(value, (list, tuple)):
        raise SpecValidationError(path, f"expected an array, got {value!r}")
    if isinstance(kind, str) and kind in TYPES and not TYPES[kind][1](value):
        raise SpecValidationError(path, f"expected {TYPES[kind][0]}, got {value!r}")
    size, what = (len(value), "length ") if is_array else (value, "")
    if f.minimum is not None and size < f.minimum:
        raise SpecValidationError(path, f"{what}must be >= {f.minimum}, got {size}")
    if f.maximum is not None and size > f.maximum:
        raise SpecValidationError(path, f"{what}must be <= {f.maximum}, got {size}")
    if is_array:
        value = [_value(v, kind, f"{path}[{i}]") for i, v in enumerate(value)]
    elif isinstance(kind, dict):
        if not isinstance(value, Mapping):
            raise SpecValidationError(path, f"expected an object, got {value!r}")
        value = _record(value, kind, path)
    elif kind in SPECS:
        value = parse(value, kind, path)
    if f.check is not None:
        f.check(value, path)
    return value
