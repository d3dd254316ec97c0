"""The document format: the schema's tables, its walker, and the agreement of
``ergolab spec validate`` with ``ergolab run`` on every spec document."""

import contextlib
import copy
import io
import json
import random
import re
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ergolab.cli import _cmd_validate, main
from ergolab.core import (
    ErgolabError,
    IdentitySystem,
    SpecValidationError,
    build_measure,
    build_observable,
    build_system,
)
from ergolab.experiments import DEFAULT_KNOBS, EXPERIMENTS, ExperimentConfig
from ergolab.joinings import build_joining
from ergolab.rank1 import Rank1Spec
from ergolab.schema import (
    KNOBS,
    MAX_CLOSURE_DEGREE,
    MAX_CLOSURE_WORK,
    MAX_CONSISTENCY_DEGREE,
    MAX_CYCLIC_ORDER,
    MAX_FREQ,
    MAX_INVARIANCE_DEGREE,
    MAX_N,
    MAX_PREFIX_LENGTH,
    MAX_PROBE_SAMPLES,
    MAX_SAMPLES,
    MAX_TOEPLITZ_SIZE,
    REQUIRED,
    SPECS,
    Field,
    parse,
)

ROOT = Path(__file__).resolve().parents[1]
ROT = {"kind": "rotation", "params": {"angle": "1/3"}}


def _cli(args) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(args)
    return code, err.getvalue()


# ---------------------------------------------------------------------------
# the documents the project ships
# ---------------------------------------------------------------------------

def _shipped_documents():
    for path in sorted((ROOT / "configs").glob("*.json")):
        doc = json.loads(path.read_text())
        yield path.name, doc["experiment"], doc["knobs"]
    workloads = json.loads((ROOT / "perfbench" / "workloads.json").read_text())
    for name, workload in workloads["workloads"].items():
        for item in workload["items"]:
            yield f"{name}/{item['name']}", item["experiment"], item["knobs"]


@pytest.mark.parametrize("name, experiment, overrides", list(_shipped_documents()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_shipped_documents_resolve_to_the_overrides_over_the_defaults(
        name, experiment, overrides):
    """Canonical bytes hold the knobs: each override replaces its default as
    given, and no default is written into a nested spec."""
    config = ExperimentConfig.resolve(experiment, 2024, overrides)
    assert config.knobs == {**copy.deepcopy(DEFAULT_KNOBS[experiment]), **overrides}


# ---------------------------------------------------------------------------
# README
# ---------------------------------------------------------------------------

README_TABLES = {"SystemSpec": "system", "Measure specs": "measure",
                 "Cocycle specs": "cocycle", "JoiningSpec": "joining"}


def test_readme_tables_list_the_schema_kinds():
    text = (ROOT / "README.md").read_text()
    for heading, spec in README_TABLES.items():
        section = text.split(f"### {heading}\n", 1)[1].split("\n#", 1)[0]
        listed = re.findall(r"^\| `([a-z0-9-]+)` \|", section, flags=re.M)
        assert sorted(listed) == sorted(SPECS[spec].kinds), heading


# ---------------------------------------------------------------------------
# malformed documents: exit 3 and the full path, from validate and from run
# ---------------------------------------------------------------------------

MALFORMED_SYSTEMS = [
    ({"kind": "group-extension", "params": {"base": ROT, "group": 5}}, "params.group"),
    ({"kind": "group-extension", "params": {}}, "params.base"),
    ({"kind": "fibered"}, "kind"),  # the kind was removed, so it is unknown
    ({"kind": "identity", "params": {"measure": {"kind": "atoms", "atoms": [5]}}},
     "params.measure.atoms[0]"),
    ({"kind": "identity", "params": {"measure": {"kind": "mixture", "components": [5]}}},
     "params.measure.components[0]"),
    ({"kind": "twist", "params": {"cocycle": {"kind": "table", "entries": [{"value": "1/2"}]}}},
     "params.cocycle.entries[0].point"),
    ({"kind": "identity", "params": {"measure": {"kind": "cyclic-uniform", "order": "x"}}},
     "params.measure.order"),
    ({"kind": "rotation", "params": {"angel": "1/3"}}, "params.angel"),
    ({"kind": "rotation", "params": {"angle": "1/3"}, "precison": 40}, "precison"),
    ({"kind": "group-extension", "params": {"base": ROT, "group": {"kind": "cyclic", "order": 0}}},
     "params.group.order"),
    ({"kind": "identity", "params": {"measure": {"kind": "cyclic-uniform", "order": 0}}},
     "params.measure.order"),
    ({"kind": "identity", "params": {"measure": {"kind": "power-law-sampled", "exponent": 0}}},
     "params.measure.exponent"),
]


@pytest.mark.parametrize("doc, path", MALFORMED_SYSTEMS)
def test_malformed_system_exits_3_with_its_path_from_validate_and_run(doc, path, tmp_path):
    spec_file, config_file = tmp_path / "spec.json", tmp_path / "cfg.json"
    spec_file.write_text(json.dumps({"system": doc}))
    config_file.write_text(json.dumps({"seed": 1, "knobs": {"system": doc}}))
    code, err = _cli(["spec", "validate", str(spec_file)])
    assert code == 3 and f"invalid: system.{path}: " in err
    code, err = _cli(["run", "spectral-probe", "--config", str(config_file),
                      "--out", str(tmp_path / "out")])
    assert code == 3 and f"config error: knobs.system.{path}: " in err
    assert not (tmp_path / "out").exists()


def test_a_huge_decimal_exponent_is_refused_within_a_second(tmp_path):
    """Parsing "1e-100000000" built 10**100000000, so ``spec validate`` hung."""
    doc = {"kind": "rotation", "params": {"angle": "1e-100000000"}}
    start = time.perf_counter()
    test_malformed_system_exits_3_with_its_path_from_validate_and_run(doc, "params.angle", tmp_path)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("doc, path", [
    ({"kind": "identity", "params": {"measure": {"kind": "cyclic-uniform", "order": 10**8}}},
     "params.measure.order"),
    ({"kind": "group-extension", "params": {"base": ROT,
                                            "group": {"kind": "cyclic", "order": 10**8}}},
     "params.group.order"),
])
def test_a_huge_cyclic_order_is_refused_before_its_atoms_are_built(doc, path, tmp_path):
    """``cyclic_uniform`` builds one atom per element, about 0.6 KB each."""
    tracemalloc.start()
    try:
        test_malformed_system_exits_3_with_its_path_from_validate_and_run(doc, path, tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    code, err = _cli(["spec", "validate", str(tmp_path / "spec.json")])
    assert f"must be <= {MAX_CYCLIC_ORDER}, got {10**8}" in err


@pytest.mark.parametrize("experiment, knobs, path", [
    ("spectral-probe", {"eigenvalue_queries": [5]}, "eigenvalue_queries[0]"),
    ("spectral-probe", {"eigenvalue_queries": [{"angle": "1/3", "expect_witnessed": "no"}]},
     "eigenvalue_queries[0].expect_witnessed"),
    ("spectral-probe", {"eigenvalue_queries": [{"expect_witnessed": True}]},
     "eigenvalue_queries[0].angle"),
    ("spectral-probe", {"observable": {"level": 5}}, "observable.level"),
    ("spectral-probe", {"observable": {"level": [3]}}, "observable.level"),
    ("spectral-probe", {"observable": {"centered": "x"}}, "observable.centered"),
    ("spectral-probe", {"observable": {"freqs": [True]}}, "observable.freqs[0]"),
    ("spectral-probe", {"N": 8}, "N"),
    ("example1", {"N": 15}, "N"),
    ("rank1-family", {"N": 1}, "N"),
    ("rank1-family", {"wm_stages": ["x"]}, "wm_stages[0]"),
    ("identity-disjoint", {"identity_measure": {"kind": "haar", "arity": 0}},
     "identity_measure.arity"),
    # refused at resolve, not when the check runs after the earlier ones
    ("product-closure", {"degree": 0}, "degree"),
    ("identity-disjoint", {"consistency_degree": 0}, "consistency_degree"),
    ("example1", {"invariance_degree": 0}, "invariance_degree"),
    # an empty list ended in a StopIteration traceback or failed when its check ran
    ("rank1-family", {"parameters": []}, "parameters"),
    ("rank1-family", {"wm_stages": []}, "wm_stages"),
])
def test_malformed_knob_exits_3_with_its_path(experiment, knobs, path, tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"seed": 1, "knobs": knobs}))
    code, err = _cli(["run", experiment, "--config", str(config),
                      "--out", str(tmp_path / "out")])
    assert code == 3 and f"config error: knobs.{path}: " in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("experiment, knob, bound, value", [
    ("product-closure", "degree", MAX_CLOSURE_DEGREE, MAX_CLOSURE_DEGREE + 1),
    ("product-closure", "degree", MAX_CLOSURE_DEGREE, 12),  # 25^5 - 1 characters
    ("rank1-family", "prefix_length", MAX_PREFIX_LENGTH, MAX_PREFIX_LENGTH + 1),
    ("rank1-family", "prefix_length", MAX_PREFIX_LENGTH, 30),
    # 10^9 samples asked sample_floats for a 10^9 x 5 float64 array
    ("product-closure", "samples", MAX_SAMPLES, 10**9),
    ("identity-disjoint", "samples", MAX_SAMPLES, MAX_SAMPLES + 1),
    ("example1", "statistical_samples", MAX_SAMPLES, 10**9),
    ("spectral-probe", "samples", MAX_PROBE_SAMPLES, MAX_PROBE_SAMPLES + 1),
    ("identity-disjoint", "N", MAX_N, 10**9),
    ("example1", "N", MAX_N, MAX_N + 1),
    ("rank1-family", "N", MAX_N, 10**9),
    ("spectral-probe", "N", MAX_N, 2**40),
    # eigvalsh of a 65,537^2 complex matrix, about 64 GiB, at N = 65,536
    ("spectral-probe", "toeplitz_size", MAX_TOEPLITZ_SIZE, 65537),
    ("spectral-probe", "toeplitz_size", MAX_TOEPLITZ_SIZE, MAX_TOEPLITZ_SIZE + 1),
    ("identity-disjoint", "consistency_degree", MAX_CONSISTENCY_DEGREE,
     MAX_CONSISTENCY_DEGREE + 1),
    ("example1", "invariance_degree", MAX_INVARIANCE_DEGREE, MAX_INVARIANCE_DEGREE + 1),
    ("identity-disjoint", "max_freq", MAX_FREQ, MAX_FREQ + 1),
    ("example1", "max_freq", MAX_FREQ, 10**6),
])
def test_a_costly_knob_is_refused_before_anything_is_built(experiment, knob, bound, value,
                                                           tmp_path, monkeypatch):
    from ergolab import experiments

    def runner_reached(config):
        raise AssertionError("the experiment started before the knob was refused")

    ExperimentConfig.resolve(experiment, 1, {knob: bound})  # the bound itself is accepted
    monkeypatch.setitem(experiments._RUNNERS, experiment, runner_reached)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"seed": 1, "knobs": {knob: value}}))
    tracemalloc.start()
    try:
        code, err = _cli(["run", experiment, "--config", str(config),
                          "--out", str(tmp_path / "out")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 3
    assert f"config error: knobs.{knob}: must be <= {bound}, got {value}" in err
    assert peak < 2**20
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("knobs", [
    {"degree": 4, "samples": 1000000},  # 59,048 characters: about 26 s
    {"degree": 3, "samples": 400000},
    {"degree": 4, "samples": 101613},  # the first sample count over the bound at degree 4
])
def test_a_costly_product_closure_is_refused_before_anything_is_built(knobs, tmp_path,
                                                                      monkeypatch):
    """Each knob within its own maximum, their product over MAX_CLOSURE_WORK."""
    from ergolab import experiments

    def runner_reached(config):
        raise AssertionError("the experiment started before the knobs were refused")

    monkeypatch.setitem(experiments._RUNNERS, "product-closure", runner_reached)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"seed": 1, "knobs": knobs}))
    tracemalloc.start()
    try:
        code, err = _cli(["run", "product-closure", "--config", str(config),
                          "--out", str(tmp_path / "out")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    work = knobs["samples"] * ((2 * knobs["degree"] + 1) ** 5 - 1)
    assert code == 3
    assert (f"config error: knobs: samples x characters must be <= {MAX_CLOSURE_WORK}, "
            f"got {work} (knobs.samples = {knobs['samples']}") in err
    assert f"at knobs.degree = {knobs['degree']})" in err
    assert peak < 2**20
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("knobs", [
    {"degree": 4, "samples": 101612}, {"degree": 3, "samples": 357015},
    {"degree": 2, "samples": MAX_SAMPLES}, {"degree": 1, "samples": MAX_SAMPLES},
])
def test_product_closure_within_the_budget_resolves(knobs):
    work = knobs["samples"] * ((2 * knobs["degree"] + 1) ** 5 - 1)
    assert work <= MAX_CLOSURE_WORK
    assert ExperimentConfig.resolve("product-closure", 1, knobs).knobs["samples"] == knobs["samples"]


def test_an_affine_cocycle_on_a_missing_base_coordinate_is_refused(tmp_path):
    """The pullback of a twist over one coordinate with ``coord`` 1 ended in an
    IndexError traceback when a graph joining was checked."""
    twist = {"kind": "twist", "params": {"cocycle": {"kind": "affine", "coord": 1}}}
    code, err = _validate(tmp_path, {"joining": {"kind": "diagonal",
                                                 "params": {"component": twist}}})
    assert code == 3 and "invalid: cocycle.coord: " in err


@pytest.mark.parametrize("doc", [{"system": ROT, "joining": {"kind": "bogus"}},
                                 {"system": ROT, "sytem": ROT}])
def test_spec_validate_refuses_a_key_beside_the_spec(doc, tmp_path):
    """The key beside ``system`` was never read, so a bad joining passed."""
    code, err = _validate(tmp_path, doc)
    assert code == 3 and "unknown key beside 'system'" in err


def test_a_string_expectation_is_no_longer_read_as_true():
    """'no' was truthy: the eigenvalue query passed although it expected the
    opposite of what it saw."""
    with pytest.raises(SpecValidationError) as info:
        ExperimentConfig.resolve("spectral-probe", 1, {"eigenvalue_queries": [
            {"angle": "1/3", "expect_witnessed": "no"}]})
    assert info.value.field == "knobs.eigenvalue_queries[0].expect_witnessed"


def test_parse_fills_defaults_without_touching_the_document():
    doc = {"kind": "twist", "params": {"cocycle": {"kind": "affine", "slope": "2"}}}
    before = copy.deepcopy(doc)
    parsed = parse(doc, "system")
    assert doc == before
    assert parsed["params"]["cocycle"] == {"kind": "affine", "slope": "2", "intercept": "0",
                                           "coord": 0}
    assert parsed["params"]["base_measure"] == {"kind": "haar", "arity": 1}
    assert build_observable({"level": [3, 0]}).label() == "level(3,0)"


# ---------------------------------------------------------------------------
# property: documents drawn from the schema, then mutated
# ---------------------------------------------------------------------------

# Hypothesis draws a seed per example, and the example draws its documents
# from the schema's tables with it: one hypothesis draw per table entry cost
# 3.5 ms per document, and hypothesis's own bookkeeping costs about 1 ms per
# example, ten times what checking one document costs.
SCALARS = ["0", "1/3", "1/2", "2/5", "3/4", "1", "0.25", "-1/7"]
JUNK = [None, True, False, -3, 0, 1, 7, 40, 0.5, -1.5, "", "x", "1/3", "sqrt2",
        [], {}, [5], {"kind": "nope"}]


def _scalar(rng: random.Random, f: Field):
    if f.type == "int":
        return rng.randint(-2 if f.minimum is None else max(-2, f.minimum), 40)
    if f.type == "number":
        return rng.random()
    if f.type == "bool":
        return rng.random() < 0.5
    if f.type == "json":  # rel-indep factors
        return [[rng.randint(0, 2) for _ in range(rng.randint(0, 2))] for _ in range(2)]
    return rng.choice(SCALARS)


def _nested(f: Field) -> bool:
    return not isinstance(f.type, str) or f.type in SPECS


def _value(rng: random.Random, f: Field, depth: int):
    """A value for ``f``; ``depth`` bounds how many specs may still nest."""
    kind = f.type
    if isinstance(kind, Field):
        low = f.minimum or 0
        high = f.maximum or (low if _nested(kind) and depth <= 0 else max(low, 2))
        return [_value(rng, kind, depth) for _ in range(rng.randint(low, high))]
    if isinstance(kind, dict):
        return _record(rng, kind, depth)
    if kind in SPECS:
        return _spec(rng, kind, depth)
    return _scalar(rng, f)


def _record(rng: random.Random, fields: dict, depth: int) -> dict:
    out = {}
    for key, f in fields.items():
        required = f.default is REQUIRED
        if required or (rng.random() < 0.5 and (depth > 0 or not _nested(f))):
            out[key] = _value(rng, f, depth)
    return out


def _spec(rng: random.Random, name: str, depth: int) -> dict:
    spec = SPECS[name]
    if None in spec.kinds:
        return _record(rng, spec.kinds[None], depth - 1)
    # at the depth limit, only kinds that need no nested spec
    kind = rng.choice([k for k, fields in spec.kinds.items() if depth > 0 or all(
        not _nested(f) or f.default is not REQUIRED for f in fields.values())])
    fields = spec.kinds[kind]
    if spec.envelope is None:
        return {"kind": kind, **_record(rng, fields, depth - 1)}
    return {"kind": kind, **_record(rng, spec.envelope, depth - 1),
            "params": _record(rng, fields, depth - 1)}


def _slots(doc, out: list) -> list:
    """Every (container, key) of a JSON tree."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) \
        if isinstance(doc, list) else ()
    for key, value in items:
        out.append((doc, key))
        _slots(value, out)
    return out


def _mutate(rng: random.Random, doc):
    """Up to two edits: a value replaced by junk, a key deleted, or an unknown
    key added."""
    for _ in range(rng.randint(0, 2)):
        slots = _slots(doc, [])
        if not slots:
            break
        container, key = rng.choice(slots)
        action = rng.choice(["junk", "delete", "unknown-key"])
        if action == "junk" or not isinstance(container, dict):
            container[key] = copy.deepcopy(rng.choice(JUNK))
        elif action == "delete":
            del container[key]
        else:
            container[f"{key}_x"] = copy.deepcopy(rng.choice(JUNK))
    return doc


def _documents(seed: int, table: Field, depth: int = 2):
    """DOCUMENTS_PER_EXAMPLE documents for ``table``, each drawn and mutated."""
    rng = random.Random(seed)
    return [_mutate(rng, _value(rng, table, depth)) for _ in range(DOCUMENTS_PER_EXAMPLE)]


def _build(config: ExperimentConfig) -> None:
    """What each experiment builds from its knobs before it runs a check."""
    knobs = config.knobs
    if config.experiment == "identity-disjoint":
        IdentitySystem(build_measure(knobs["identity_measure"]))
        build_system({"kind": "rotation", "params": {"angle": knobs["rotation_angle"]}})
    elif config.experiment == "example1":
        build_joining({"kind": "example1-triple", "params": {
            "cocycle": {"kind": "affine", "slope": knobs["slope"]}, "angle": knobs["angle"]}})
    elif config.experiment == "product-closure":
        build_system({"kind": "rotation", "params": {"angle": knobs["rotation_angle"]},
                      "precision": knobs["precision"]})
    elif config.experiment == "rank1-family":
        for a in knobs["parameters"]:
            Rank1Spec.from_rational(a, knobs["depth"])
    else:
        build_system(knobs["system"])
        build_observable(knobs["observable"])


def _resolve_and_build(experiment: str, overrides) -> SpecValidationError | ErgolabError | None:
    """The refusal that ``run`` gives before its first check, if any."""
    try:
        config = ExperimentConfig.resolve(experiment, 1, overrides)
    except SpecValidationError as exc:
        return exc
    try:
        _build(config)
    except ErgolabError as exc:
        return exc
    return None


def _validate(tmp_dir: Path, doc: dict) -> tuple[int, str]:
    """``ergolab spec validate`` on ``doc``, past the parsing of its arguments."""
    path = tmp_dir / "spec.json"
    path.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = _cmd_validate(SimpleNamespace(file=str(path)))
    return code, err.getvalue()


DOCUMENTS_PER_EXAMPLE = 5
#: 1,000 documents per experiment
PROPERTY = settings(max_examples=200, derandomize=True, database=None, deadline=None,
                    suppress_health_check=list(HealthCheck))
SEEDS = st.integers(0, 2**64 - 1)


#: knobs that are spec documents: the knob, the system spec that ``spec
#: validate`` reads it in, and the knob's path inside that spec
SPEC_KNOBS = {
    "spectral-probe": ("system", lambda doc: doc, "system"),
    "identity-disjoint": ("identity_measure",
                          lambda doc: {"kind": "identity", "params": {"measure": doc}},
                          "system.params.measure"),
}


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_drawn_and_mutated_knobs_resolve_or_refuse(experiment, tmp_path_factory):
    """For every document: resolve returns or raises SpecValidationError;
    building what the experiment builds raises nothing but ErgolabError; and
    on a knob that is a spec, ``spec validate`` refuses exactly the documents
    that ``run`` refuses before its first check, naming the same path."""
    tmp_dir = tmp_path_factory.mktemp("specs")
    knob, as_system, path = SPEC_KNOBS.get(experiment, (None, None, None))

    @PROPERTY
    @given(SEEDS)
    def check(seed):
        for overrides in _documents(seed, Field(KNOBS[experiment])):
            _resolve_and_build(experiment, overrides)
            if knob is None or not isinstance(overrides.get(knob), dict):
                continue
            refusal = _resolve_and_build(experiment, {knob: overrides[knob]})
            code, err = _validate(tmp_dir, {"system": as_system(overrides[knob])})
            assert code == (0 if refusal is None else 3), err
            field = refusal.field if isinstance(refusal, SpecValidationError) else ""
            if field.startswith(f"knobs.{knob}"):
                assert f"invalid: {path}{field[len(f'knobs.{knob}'):]}: " in err

    check()


def test_drawn_and_mutated_joinings_validate_exactly_when_they_build(tmp_path_factory):
    """``spec validate`` on a joining refuses exactly what build_joining
    refuses, and building raises nothing but ErgolabError."""
    tmp_dir = tmp_path_factory.mktemp("specs")

    @settings(PROPERTY, max_examples=60)  # graph joinings check a character box
    @given(SEEDS)
    def check(seed):
        for doc in _documents(seed, Field("joining"), depth=1):
            try:
                build_joining(doc)
                refused = False
            except ErgolabError:
                refused = True
            code, err = _validate(tmp_dir, {"joining": doc})
            assert code == (3 if refused else 0), err

    check()
