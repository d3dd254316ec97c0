"""Every public module-level function of ergolab, and every public method,
static method, class method, property and cached property of its public
classes, is reached by a run or by ``spec validate``, or is on an allowlist
that says why it stays; an allowlisted name that a run reaches, or that is
gone, fails the test too.

The five experiments run through ``ergolab.cli.main`` on small knobs, in every
``--format``, and ``spec validate`` reads one document per kind of the
README's spec tables, plus a negative off-diagonal power, all under
``sys.setprofile``; a function or method counts as reached when its code object
(a property's getter, a cached property's function) is entered."""

import functools
import importlib
import inspect
import json
import pkgutil
import sys

import ergolab
from ergolab.cli import main
from ergolab.schema import SPECS

#: the small knobs of test_acceptance.py::test_report_determinism, and
#: product-closure at 5,000 samples
RUNS = [
    ("identity-disjoint", {"max_freq": 4, "N": 512, "samples": 2048}),
    ("example1", {"N": 512, "max_freq": 4, "invariance_degree": 1,
                  "statistical_samples": 2048}),
    ("product-closure", {"samples": 5000}),
    ("rank1-family", {"depth": 6, "word_stage_max": 8, "prefix_length": 4,
                      "wm_stages": [2, 3], "N": 256, "threshold": 0.2}),
    ("spectral-probe", {"N": 256, "toeplitz_size": 16, "eigenvalue_queries": [
        {"angle": "1/3", "expect_witnessed": True}]}),
    ("spectral-probe", {"system": {"kind": "twist", "params": {
        "base_measure": {"kind": "power-law-sampled", "exponent": 2}}},
        "observable": {"freqs": [0, 1], "centered": True}, "N": 256,
        "samples": 1024, "toeplitz_size": 16, "eigenvalue_queries": [{"angle": "0"}]}),
    ("spectral-probe", {"system": {"kind": "identity", "params": {"measure": {
        "kind": "mixture", "components": [
            {"weight": "1/2", "measure": {"kind": "haar"}},
            {"weight": "1/2", "measure": {"kind": "atoms", "atoms": [{"point": ["1/3"]}]}}]}}},
        "N": 64, "toeplitz_size": 8, "eigenvalue_queries": [{"angle": "0"}]}),
]

ROT = {"kind": "rotation", "params": {"angle": "1/3"}}
ROT5 = {"kind": "rotation", "params": {"angle": "1/5"}}
TWIST = {"kind": "twist", "params": {}}
ATOM = {"kind": "atoms", "atoms": [{"point": ["1/3"]}]}

#: one params document per kind of each README table
SYSTEMS = {
    "rotation": {"angle": "1/3"},
    "identity": {},
    "twist": {"shift": "1/7"},
    "group-extension": {"base": ROT5, "group": {"kind": "cyclic", "order": 4}},
    "product": {"factors": [ROT, ROT5]},
    "rank1-family": {"a": "1/3", "depth": 4},
}
MEASURES = {
    "haar": {"kind": "haar", "arity": 1},
    "atoms": ATOM,
    "cyclic-uniform": {"kind": "cyclic-uniform", "order": 3},
    "product": {"kind": "product", "factors": [ATOM]},
    "mixture": {"kind": "mixture", "components": [
        {"weight": "1/2", "measure": {"kind": "haar"}}, {"weight": "1/2", "measure": ATOM}]},
    "power-law-sampled": {"kind": "power-law-sampled", "exponent": 2},
}
COCYCLES = {
    "affine": {"kind": "affine", "slope": "2"},
    "table": {"kind": "table", "entries": [{"point": ["1/3"], "value": "1/2"}]},
}
JOININGS = {
    "product": {"components": [ROT, ROT5]},
    "diagonal": {"component": ROT},
    "graph": {"component": ROT, "map": ROT5},
    "off-diagonal": {"component": ROT, "power": 2},
    "rel-indep": {"components": [TWIST, TWIST], "factors": [[0], [0]]},
    "example1-triple": {"angle": "1/5"},
}
DOCUMENTS = (
    [{"system": {"kind": kind, "params": params}} for kind, params in SYSTEMS.items()]
    + [{"system": {"kind": "identity", "params": {"measure": m}}} for m in MEASURES.values()]
    + [{"system": {"kind": "twist", "params": {"base_measure": ATOM, "cocycle": c}}}
       for c in COCYCLES.values()]
    + [{"joining": {"kind": kind, "params": params}} for kind, params in JOININGS.items()]
    # the swapped graph of T^2; a tower has no pullback, so this enters the default
    + [{"joining": {"kind": "off-diagonal", "params": {
        "component": {"kind": "rank1-family", "params": SYSTEMS["rank1-family"]},
        "power": -2}}}]
)

STUB = "interface stub or default; the subclasses the runs use override it"
DRAWS = ("a measure's rational draws and atoms, which sample_joining(rationals=True), "
         "image measures and atom sums call on any measure; no run asks them of this one")
FLOAT_MAPS = "a float map of sampled points; no run samples a rotation or a table cocycle"
TOWER_MAP = ("the rank-one tower as a pointwise map (build_rank1_system); the runs "
             "correlate towers by tower-level counting and never build the map")
CONDITIONAL = ("rel-indep fibers that depend on the base point (README JoiningSpec); "
               "validation builds them, never integrates or samples")

#: functions and methods that stay although no run or validation reaches them, and why
ALLOWLIST = {
    "ergolab.core.integrate_character":
        "README library tour: the exact or seeded Monte Carlo integral of one character",
    "ergolab.core.character_at":
        "rel-indep integrals over atomic conditional fibers; validation builds, never integrates",
    "ergolab.rank1.agreement_stage":
        "the digit-stream side of the rank-one dichotomy (ROADMAP O17)",
    "ergolab.experiments.ExperimentReport.failing_check_ids":
        "the CLI's exit-2 message; the default runs all pass",
    "ergolab.rank1.AgreementReport.agrees_through":
        "the stages a digit-spec dichotomy refusal reports; the runs give rationals",
    "ergolab.experiments.ExperimentReport.canonical_bytes":
        "the regression oracle that perfbench/child.py hashes; the CLI writes formatted reports",
    "ergolab.exact.PhaseSum.unit": "an exact constructor; character_at calls it",
    "ergolab.exact.PhaseSum.from_rational":
        "an exact constructor; arithmetic with an int or Fraction operand calls it",
    "ergolab.core.RotationSystem.apply":
        "the exact map of a rotation (orbit); the runs pull rotations back instead",
    **dict.fromkeys([
        "ergolab.core.MeasureHandle.integrate_character",
        "ergolab.core.MeasureHandle.sample_rationals",
        "ergolab.core.MeasureHandle.sample_floats",
        "ergolab.core.Cocycle.evaluate_array",
        "ergolab.core.Cocycle.frequency_shift",
        "ergolab.core.System.apply",
        "ergolab.core.System.apply_array",
    ], STUB),
    **dict.fromkeys([
        "ergolab.core.PointMeasure.sample_rationals",
        "ergolab.core.PointMeasure.enumerate_atoms",
        "ergolab.core.DiracMixture.sample_rationals",
        "ergolab.core.DiracMixture.enumerate_atoms",
        "ergolab.core.MixtureMeasure.sample_rationals",
        "ergolab.core.MixtureMeasure.sample_floats",
        "ergolab.core.MixtureMeasure.enumerate_atoms",
        "ergolab.core.SampledPowerMeasure.sample_rationals",
    ], DRAWS),
    **dict.fromkeys([
        "ergolab.core.RotationSystem.apply_array",
        "ergolab.core.TableCocycle.evaluate_array",
    ], FLOAT_MAPS),
    **dict.fromkeys([
        "ergolab.rank1.Rank1System.map",
        "ergolab.rank1.Rank1System.apply",
        "ergolab.rank1.Rank1System.apply_array",
        "ergolab.rank1.Rank1Map.apply_array",
    ], TOWER_MAP),
    **dict.fromkeys([
        "ergolab.core.IndependentFiber.at",
        "ergolab.core.ConditionalAtomsFiber.at",
        "ergolab.joinings.JoiningMeasure.integrate_character",
        "ergolab.joinings.JoiningMeasure.sample_rationals",
        "ergolab.joinings.JoiningMeasure.sample_floats",
    ], CONDITIONAL),
}


def _code(member):
    """The code object a call of a class member enters, or None for data."""
    if isinstance(member, (staticmethod, classmethod)):
        member = member.__func__
    elif isinstance(member, property):
        member = member.fget
    elif isinstance(member, functools.cached_property):
        member = member.func
    return member.__code__ if inspect.isfunction(member) else None


def _public_functions():
    """Public functions defined in each module, and the public methods, static
    and class methods, properties and cached properties that its public classes
    define, by dotted name."""
    for info in pkgutil.iter_modules(ergolab.__path__):
        module = importlib.import_module(f"ergolab.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj.__code__
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    code = None if attr.startswith("_") else _code(member)
                    if code is not None:
                        yield f"{module.__name__}.{name}.{attr}", code


def test_every_public_function_is_reached_or_allowlisted(tmp_path, capsys):
    configs = []
    for i, (experiment, knobs) in enumerate(RUNS):
        config = tmp_path / f"config-{i}.json"
        config.write_text(json.dumps({"knobs": knobs}))
        configs.append((experiment, str(config)))
    specs = []
    for i, doc in enumerate(DOCUMENTS):
        spec = tmp_path / f"spec-{i}.json"
        spec.write_text(json.dumps(doc))
        specs.append(str(spec))

    entered = set()

    def record(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    codes = []
    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        for experiment, config in configs:
            for fmt in ("json", "csv", "markdown"):
                codes.append(main(["run", experiment, "--config", config, "--seed", "99",
                                   "--format", fmt, "--out", str(tmp_path / "out")]))
        codes += [main(["spec", "validate", spec]) for spec in specs]
    finally:
        sys.setprofile(previous)
    capsys.readouterr()

    assert codes == [0] * (3 * len(RUNS) + len(DOCUMENTS))
    for table, spec in ((SYSTEMS, "system"), (MEASURES, "measure"), (COCYCLES, "cocycle"),
                        (JOININGS, "joining")):
        assert set(table) == set(SPECS[spec].kinds), spec

    functions = dict(_public_functions())
    unreached = sorted(name for name, code in functions.items()
                       if code not in entered and name not in ALLOWLIST)
    assert not unreached, f"reached by no run and not allowlisted: {unreached}"
    stale = sorted(name for name in ALLOWLIST
                   if name not in functions or functions[name] in entered)
    assert not stale, f"allowlisted but missing or reached: {stale}"
