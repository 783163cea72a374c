"""Each input rule is checked by the type that owns it, in the library itself,
and a refused argument raises ``InputError``."""

import ast
from pathlib import Path

import numpy as np
import pytest

import randinf
from randinf import (
    CRD,
    ONE_SIDED,
    RBD,
    CombinedPValueFunction,
    ExactMode,
    InputError,
    MCMode,
    ObservedData,
    PValueKind,
    PValueStepFunction,
    ScenarioConfig,
    assignment_probability,
    assignment_probability_exact,
    balanced_design,
    build_step_function,
    build_step_functions,
    combined_interval,
    confidence_interval,
    dominance_profile,
    ei_probe,
    exact_validity_audit,
    fisher,
    generate_population,
    get_statistic,
    invert_lower,
    invert_upper,
    p_value,
    p_values,
    randomization_distribution,
    required_k,
    sample_assignments,
    traditional_interval,
)
from randinf import inversion as inversion_mod
from randinf import randomization as randomization_mod
from randinf import simulate as simulate_mod

# designs the toy data's assignment (5 of 10 treated, no blocks) is not one of
FOREIGN_DESIGNS = [CRD(10, 4), RBD(((5, 3), (5, 2))), CRD(12, 6)]

ENTRY_POINTS = {
    "randomization_distribution": lambda data, design, stat: randomization_distribution(data, design, stat, 0.0),
    "p_values": lambda data, design, stat: p_values(data, design, stat, 0.0),
    "p_value": lambda data, design, stat: p_value(data, design, stat, 0.0, PValueKind.LPLUS),
    "dominance_profile": lambda data, design, stat: dominance_profile(data, design, stat, 0.0),
    "build_step_functions": lambda data, design, stat: build_step_functions(data, design, stat),
    "build_step_function": lambda data, design, stat: build_step_function(data, design, stat, PValueKind.LPLUS),
    "confidence_interval": lambda data, design, stat: confidence_interval(data, design, stat, 0.025, 0.025),
    "traditional_interval": lambda data, design, stat: traditional_interval(data, design, stat, 0.05),
    "combined_interval": lambda data, design, stat: combined_interval([(data, design)], stat, fisher(), 0.05),
    "ei_probe": lambda data, design, stat: ei_probe(stat, data, design, 10, 0),
}


@pytest.mark.parametrize("design", FOREIGN_DESIGNS, ids=str)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_inference_refuses_an_assignment_the_design_cannot_draw(toy, diff_means, entry, design):
    data, _ = toy
    with pytest.raises(InputError, match="treated units in block|design has 12 units"):
        ENTRY_POINTS[entry](data, design, diff_means)


def test_blocked_miscount_names_the_block(diff_means):
    data = ObservedData(w_obs=np.array([1, 1, 0, 0, 1, 1, 1, 0]), y_obs=np.arange(8.0))
    with pytest.raises(InputError, match="3 treated units in block 1, design declares 2"):
        build_step_functions(data, RBD(((4, 2), (4, 2))), diff_means)


@pytest.mark.parametrize("w", [[2, 1, 1, 1, 0, 0, 0, 0, 0, 0], [0.5] * 10, [1, 0, 1]])
def test_assignment_probability_refuses_non_assignments(w):
    for probability in (assignment_probability, assignment_probability_exact):
        with pytest.raises(InputError):
            probability(CRD(10, 5), w)


@pytest.mark.parametrize("make", [
    lambda: CRD(10.5, 5),
    lambda: CRD(10, 5.0),
    lambda: CRD(10, True),
    lambda: CRD("10", 5),
    lambda: RBD(((6.7, 3.2),)),
    lambda: RBD(((6, 3), (4, 2.0))),
    lambda: balanced_design(1.5, 8),
    lambda: balanced_design(2, 8.0),
], ids=["crd_float_units", "crd_float_treated", "crd_bool", "crd_string", "rbd_floats",
        "rbd_one_float", "balanced_float_blocks", "balanced_float_size"])
def test_design_sizes_must_be_integers(make):
    with pytest.raises(InputError, match="integer"):
        make()


def test_numpy_integer_sizes_are_accepted():
    assert CRD(np.int64(10), np.int32(5)) == CRD(10, 5)
    assert RBD(((np.int64(6), np.int64(3)),)).blocks == ((6, 3),)
    assert type(RBD(((np.int64(6), np.int64(3)),)).blocks[0][0]) is int
    assert balanced_design(np.int64(2), np.int64(8)) == RBD(((8, 4), (8, 4)))


@pytest.mark.parametrize("k, seed", [(2.5, 0), (0, 0), (True, 0), (10, None), (10, 1.5), (10, "1"),
                                     (10, (1, 2.5)), (10, [1, 2]), (10, -1), (10, np.int64(-1)),
                                     (10, (1, -2, 3))])
def test_draws_refuse_non_integer_counts_and_seeds(k, seed):
    # a negative seed would fold as two's complement: -1 onto 2**64 - 1
    for draws in (lambda: MCMode(k=k, seed=seed), lambda: sample_assignments(CRD(10, 5), k, seed)):
        with pytest.raises(InputError, match="k must be an integer|seed must be a non-negative integer"):
            draws()


def test_draws_refuse_a_count_numpy_cannot_size():
    # k 8-byte indices past numpy's largest array size: refused by the rule's
    # owner, naming k, before any array is asked for
    for draws in (lambda k: MCMode(k=k, seed=0), lambda k: sample_assignments(CRD(10, 5), k, 0)):
        with pytest.raises(InputError, match="sample size k must be at most 1152921504606846975"):
            draws(np.iinfo(np.intp).max // 8 + 1)
    assert MCMode(k=np.iinfo(np.intp).max // 8, seed=0).k == 1152921504606846975


def test_mc_mode_accepts_integer_and_tuple_seeds():
    assert MCMode(k=np.int64(10), seed=np.uint64(3)).k == 10
    assert MCMode(k=10, seed=(1, 0, np.int64(3), 2**70)).seed == (1, 0, 3, 2**70)
    assert MCMode(k=10, seed=2**200).seed == 2**200


@pytest.mark.parametrize("seed", ["abc", 1.5, -1, (1, -2), [1, 2], None, True])
def test_population_refuses_the_seeds_draws_refuse(seed):
    with pytest.raises(InputError, match="population seed must be a non-negative integer"):
        generate_population(10, 1.0, seed)


@pytest.mark.parametrize("seed", [-1, 2.5, True, None, (1, -2)])
def test_ei_probe_refuses_the_seeds_draws_refuse(toy, diff_means, seed):
    data, design = toy
    with pytest.raises(InputError, match="seed must be a non-negative integer"):
        ei_probe(diff_means, data, design, 10, seed)


def test_a_negative_cli_seed_exits_2(capsys):
    from randinf.cli import main

    toy = Path(randinf.__file__).parent / "data" / "toy_experiment.csv"
    assert main(["invert", str(toy), "--design", "crd:10,5", "--mode", "mc", "--k", "50", "--seed", "-1"]) == 2
    assert "seed must be a non-negative integer or a tuple of them, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("reps", True), ("reps", 2.5), ("reps", "2"), ("k_cap", 2.5), ("k_cap", np.float64(100)),
    ("master_seed", 1.5), ("master_seed", -1), ("master_seed", False),
    ("alpha", "0.05"), ("alpha", None), ("alpha", True),
    ("true_theta", 10 ** 400), ("true_theta", float("inf")), ("true_theta", "0"),
    ("combiners", "fisher"), ("combiners", ["fisherz"]), ("combiners", [1]), ("combiners", 3),
    ("statistic", "median"), ("statistic", ["diff_means"]),
    ("design1", "a"), ("design2", None), ("design1", (8, 4)),
])
def test_scenario_config_checks_its_own_field_types(field, value):
    design = CRD(8, 4)
    with pytest.raises(InputError, match=field if field != "combiners" else "combiner"):
        ScenarioConfig(**{"design1": design, "design2": design, field: value})


@pytest.mark.parametrize("n, true_theta", [(10, float("inf")), (10, float("nan")), (2.5, 0), (10, "1")],
                         ids=["inf_theta", "nan_theta", "float_n", "string_theta"])
def test_generate_population_refuses_what_scenario_config_refuses(n, true_theta):
    with pytest.raises(InputError, match="integer number of units|true_theta must be a finite number"):
        generate_population(n, true_theta, 1)


def test_scenario_config_accepts_numpy_numbers():
    design = CRD(8, 4)
    cfg = ScenarioConfig(design, design, reps=np.int64(3), k_cap=np.int32(100), master_seed=np.uint8(1),
                         alpha=np.float64(0.1), true_theta=np.int64(2), combiners=["stouffer"])
    assert cfg.combiners == ("stouffer",)
    # a float32 effect is read as a double, without numpy's overflow warning
    assert ScenarioConfig(design, design, true_theta=np.float32(0.5)).true_theta == 0.5
    assert np.array_equal(generate_population(np.int64(4), np.float32(0.5), 1).y1, generate_population(4, 0.5, 1).y1)


@pytest.mark.parametrize("cap", [True, 2.5, np.float64(10), "10", 0, -1])
def test_exact_mode_refuses_a_cap_that_is_no_integer_count(cap):
    with pytest.raises(InputError, match="enumeration cap must be >= 1 and an integer"):
        ExactMode(cap=cap)


def test_exact_mode_accepts_numpy_integer_caps():
    assert ExactMode(cap=np.int64(252)).cap == 252


@pytest.mark.parametrize("name", ["median", ["diff_means"], None])
def test_get_statistic_refuses_unknown_names_with_input_error(name):
    with pytest.raises(InputError, match="unknown statistic"):
        get_statistic(name)


@pytest.mark.parametrize("mode", [ExactMode(cap=10), MCMode(k=10 ** 18, seed=1)], ids=["exact_cap", "mc_huge_k"])
def test_theta_is_refused_before_any_row_is_built(toy, diff_means, mode):
    # the cap would refuse 252 rows, and 10**18 draws do not fit in memory
    data, design = toy
    with pytest.raises(InputError, match="theta must be finite"):
        p_values(data, design, diff_means, float("nan"), mode)


def _step(side):
    """A one-breakpoint step function of ``side`` over two assignments, built without rows."""
    return PValueStepFunction(side=side, breakpoints=np.array([0.0]), counts=np.array([1]), base_count=1,
                              never_count=0, denom=2, statistic="diff_means", mode=ExactMode())


def _refused_levels():
    """Every entry that takes a level, called with ``level`` in one place."""
    design = CRD(8, 4)
    return {
        "invert_lower": lambda data, level: invert_lower(_step(PValueKind.LPLUS), level),
        "invert_upper": lambda data, level: invert_upper(_step(PValueKind.LMINUS), level),
        "confidence_interval_alpha1": lambda data, level: confidence_interval(*data, level, 0.025),
        "confidence_interval_alpha2": lambda data, level: confidence_interval(*data, 0.025, level),
        "traditional_interval": lambda data, level: traditional_interval(*data, level),
        "combined_interval": lambda data, level: combined_interval([data[:2]], data[2], fisher(), level),
        "exact_validity_audit": lambda data, level: exact_validity_audit(
            generate_population(8, 1.0, seed=2), design, alphas=(level,)),
        "required_k_delta": lambda data, level: required_k(0.05, level),
        "ScenarioConfig": lambda data, level: ScenarioConfig(design, design, alpha=level),
    }


def _dominance():
    """A dominance profile over two atoms, built without rows."""
    return randomization_mod._profile(np.array([1, 1]))


def _refused_kinds():
    """Every entry that takes a side or kind, called with ``kind``."""
    return {
        "DominanceProfile.max_shortfall": lambda data, kind: _dominance().max_shortfall(kind),
        "DominanceProfile.max_excess": lambda data, kind: _dominance().max_excess(kind),
        "DominanceProfile.dominated_by_uniform": lambda data, kind: _dominance().dominated_by_uniform(kind),
        "DominanceProfile.dominates_uniform": lambda data, kind: _dominance().dominates_uniform(kind),
        "p_value": lambda data, kind: p_value(*data, 0.0, kind),
        "build_step_function": lambda data, kind: build_step_function(*data, kind),
        "PValueStepFunction": lambda data, kind: _step(kind),
        "CombinedPValueFunction": lambda data, kind: CombinedPValueFunction(
            (_step(PValueKind.LPLUS),), fisher(), kind, np.array([0.0]), "diff_means", ExactMode()),
    }


REFUSALS = [
    *((f"{entry}-{label}", call, level) for entry, call in _refused_levels().items()
      for label, level in (("string", "0.05"), ("none", None), ("bool", True),
                           ("array", np.array([0.01, 0.02])))),
    ("exact_validity_audit-bare_float",
     lambda data, level: exact_validity_audit(generate_population(8, 1.0, seed=2), CRD(8, 4), alphas=level), 0.05),
    *((f"{entry}-string_kind", call, "Lplus") for entry, call in _refused_kinds().items()),
    *((f"{entry}-two_sided", call, PValueKind.TWO_SIDED_L) for entry, call in _refused_kinds().items()
      if entry != "p_value"),
]


@pytest.fixture
def no_rows(monkeypatch):
    """Make building any assignment row fail the test."""
    def refuse(*args, **kwargs):
        raise AssertionError("rows were built before the argument was refused")

    for mod in (randomization_mod, inversion_mod, simulate_mod):
        monkeypatch.setattr(mod, "_replicate_source", refuse)
    monkeypatch.setattr(simulate_mod, "assignment_matrix", refuse)


@pytest.mark.parametrize("call, value", [case[1:] for case in REFUSALS], ids=[case[0] for case in REFUSALS])
def test_levels_and_sides_outside_their_rules_are_refused_before_any_row(toy, diff_means, no_rows, call, value):
    with pytest.raises(InputError, match="must lie in|must be one of|sequence of levels"):
        call((*toy, diff_means), value)


def test_each_one_sided_kind_owns_what_it_counts():
    # ``strict``: the gt crossings, not ge; ``rising``: the count itself, not one minus it
    assert ONE_SIDED == tuple(kind for kind in PValueKind if kind is not PValueKind.TWO_SIDED_L)
    assert [(kind.strict, kind.rising) for kind in ONE_SIDED] == [
        (False, True), (True, True), (True, False), (False, False)]
    assert [kind.tail(7, 5, 10) for kind in ONE_SIDED] == [7, 5, 5, 3]
    assert [kind.value for kind in PValueKind] == ["Lplus", "Uplus", "Lminus", "Uminus", "TwoSidedL"]
    assert PValueKind("Lminus") is PValueKind.LMINUS


def test_input_error_is_the_cli_one_and_a_value_error():
    from randinf import cli

    assert cli.InputError is randinf.InputError
    assert issubclass(InputError, ValueError)


def test_the_library_raises_no_bare_value_or_key_error():
    # a refusal raised as a plain ValueError or KeyError would reach the CLI
    # as a computation error; each must be an InputError or a named subclass
    offenders = []
    for path in sorted(Path(randinf.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id in ("ValueError", "KeyError"):
                    offenders.append(f"{path.name}:{node.lineno}: raise {exc.id}")
    assert offenders == []


def _object_dtype(node):
    """``node`` is the name ``object`` or the dtype string ``"object"`` or ``"O"``."""
    return (isinstance(node, ast.Name) and node.id == "object") or (
        isinstance(node, ast.Constant) and node.value in ("object", "O"))


def test_the_sampler_holds_no_object_array():
    # every index and rank of design.py is int64, and a block past 2**62
    # draws packed key rows; an object dtype handed to any call (dtype=object,
    # .astype(object), np.empty(k, object)) would bring back Python-int
    # arithmetic
    path = Path(randinf.__file__).parent / "design.py"
    offenders = [f"design.py:{node.lineno}" for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Call)
                 and any(map(_object_dtype, [*node.args, *(kw.value for kw in node.keywords)]))]
    assert offenders == []


def test_the_library_calls_no_plain_np_unique():
    # np.unique with none of return_index, return_inverse or return_counts
    # imports numpy.ma on its first call (16 ms in a fresh process); sorted
    # distinct values come from _util.sorted_distinct instead
    options = {"return_index", "return_inverse", "return_counts"}
    offenders = []
    for path in sorted(Path(randinf.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "unique" and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "np"
                    and not options & {keyword.arg for keyword in node.keywords}):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def _name_and_string(a, b):
    """``a`` is a ``.name`` attribute and ``b`` a string literal."""
    return (isinstance(a, ast.Attribute) and a.attr == "name"
            and isinstance(b, ast.Constant) and isinstance(b.value, str))


def test_the_library_compares_no_name_with_a_string():
    # what a statistic or combiner supports is a capability it carries; a
    # check on its name would admit a renamed copy of something else
    offenders = []
    for path in sorted(Path(randinf.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                for op, left, right in zip(node.ops, operands, operands[1:]):
                    if isinstance(op, (ast.Eq, ast.NotEq)) and (
                        _name_and_string(left, right) or _name_and_string(right, left)
                    ):
                        offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def _kind_member(node):
    """``node`` is an attribute ``PValueKind.X``."""
    return isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "PValueKind"


def test_only_randomization_spells_out_the_sides():
    # what each one-sided kind counts and which way it moves is PValueKind's
    # own; a tuple, list, set or dict of two or more kinds elsewhere is a copy
    offenders = []
    for path in sorted(Path(randinf.__file__).parent.glob("*.py")):
        if path.name == "randomization.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
                members = node.elts
            elif isinstance(node, ast.Dict):
                members = [*node.keys, *node.values]
            else:
                continue
            if sum(map(_kind_member, members)) >= 2:
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def _is_constant(node, value):
    return isinstance(node, ast.Constant) and type(node.value) is int and node.value == value


def test_one_rule_checks_every_level():
    # a chained 0 < x < 1 outside _util.require_level is a copy of the level rule
    found = []
    for path in sorted(Path(randinf.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {line for fn in ast.walk(tree)
                 if isinstance(fn, ast.FunctionDef) and fn.name == "require_level" and path.name == "_util.py"
                 for line in range(fn.lineno, fn.end_lineno + 1)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Compare) and len(node.ops) == 2
                    and all(isinstance(op, ast.Lt) for op in node.ops)
                    and _is_constant(node.left, 0) and _is_constant(node.comparators[1], 1)):
                found.append((path.name, node.lineno in owner))
    assert found == [("_util.py", True)]


def _by_function(tree, match):
    """Each node of ``tree`` that ``match`` accepts, with its innermost function's name (None outside one)."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if match(node):
            found.append((function, node))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def _scale_rule_calls(tree):
    """Each ``np.ptp(...)`` and each ``max(...)`` with a float literal, with its innermost function."""
    return [(function, ast.unparse(node)) for function, node in _by_function(tree, lambda node: (
        isinstance(node, ast.Call) and (
            (isinstance(node.func, ast.Attribute) and node.func.attr == "ptp")
            or (isinstance(node.func, ast.Name) and node.func.id == "max"
                and any(isinstance(a, ast.Constant) and type(a.value) is float for a in node.args)))))]


def test_one_rule_sets_the_outcome_scale_and_the_tie_tolerance():
    # an outcome range or a floor of 1.0 outside _util.outcome_scale and
    # _util.tie_tolerance is a copy of one of those rules; the audit's effect
    # spread and required_k's ceiling guard are other rules
    found = sorted((path.name, *call) for path in Path(randinf.__file__).parent.glob("*.py")
                   for call in _scale_rule_calls(ast.parse(path.read_text())))
    assert found == [
        ("_util.py", "outcome_scale", "np.ptp(y)"),
        ("_util.py", "tie_tolerance", "max(1.0, abs(float(t)))"),
        ("mcplan.py", "required_k", "max(1.0, abs(exact))"),
        ("simulate.py", "exact_validity_audit", "np.ptp(effects)"),
    ]


def test_p_values_evaluate_rows_in_one_classifier():
    # every p-value counts its rows through randomization._tail_counts, and
    # the distribution evaluates its own rows; another use of evaluate_many in
    # randomization.py would be a second route to a p-value
    path = Path(randinf.__file__).parent / "randomization.py"
    found = _by_function(ast.parse(path.read_text()), lambda node: (
        (isinstance(node, ast.Name) and node.id == "evaluate_many")
        or (isinstance(node, ast.Attribute) and node.attr == "evaluate_many")))
    assert sorted(function for function, _ in found) == ["_tail_counts", "randomization_distribution"]
