"""The value classes are hand-written __slots__ classes (sftops.slotted).

Each must behave as the dataclass it replaces: the same fields in the
same order, the same repr, field-wise ==, the same hash values (so set
and dict order cannot move), immutability where the dataclass was frozen,
a pickle round trip, and the dataclass's constructor contract.  The dataclass that each is checked against is
built here, from its field names.
"""

import dataclasses
import inspect
import pickle

import numpy as np
import pytest

from sftops import aufmetric as auf
from sftops import fredholm as fd
from sftops import functions as fn
from sftops import groupoid as gd
from sftops import scenarios as sn
from sftops import schatten as sc
from sftops import sft
from sftops.slotted import Slotted

ZERO = sft.periodic_point((0,))
STEP = sft.build_point((0,), (), (1,), 0)
BUMP = sft.build_point((0,), (1,), (0,), 3)
ELEMENT = gd.GroupoidElement(BUMP, ZERO)
BASE_SET = gd.BaseSet(ELEMENT, 8, 5)
SPEC = sc.SingularSpectrum(np.array([2.0, 1.0]), np.array([1, 3]), source="s")


def _certificate():
    cert = sc.BoundCertificate(1.5, 2.0, 3.0, 2.5, 0)
    cert.schedule.append((2, 0.5))
    return cert


def _registry():
    return fn.BasisRegistry.seeded([ZERO, STEP, BUMP], cap=5)


FROZEN = {
    "TransitionMatrix": lambda: sft.TransitionMatrix(((1, 1), (1, 0))),
    "EventuallyPeriodicPoint": lambda: BUMP,
    "PeriodicOrbit": lambda: sft.PeriodicOrbit(b"\x00\x01"),
    "GroupoidElement": lambda: gd.GroupoidElement(STEP, ZERO, gd.UNSTABLE),
    "BaseSet": lambda: BASE_SET,
    "LocallyConstantFunction": lambda: fn.profile(BASE_SET, 3, "seed"),
    "CoverIndexParams": lambda: auf.CoverIndexParams(1.5),
}

MUTABLE = {
    "BasisRegistry": _registry,
    "SparseOperator": lambda: fn.SparseOperator({(0, 1): 1 + 2j}),
    "BlockOperator": lambda: fn.BlockOperator({0: fn.SparseOperator()}, {1: "why"}, _registry()),
    "Scenario": lambda: sn.REFERENCE_SCENARIOS["golden-mean"](),
    "KpwCommutator": lambda: fd.KpwCommutator(fn.SparseOperator(), (0, 1), SPEC, 0.0, [2]),
    "FredholmModule": lambda: fd.FredholmModule(np.eye(2), np.diag([1.0, -1.0])),
    "QuasimetricTable": lambda: auf.QuasimetricTable(["a", "b"], np.array([[-1, 3], [3, -1]])),
    "SandwichReport": lambda: auf.SandwichReport(3),
    "StarReport": lambda: auf.StarReport(4, 2),
    "DiameterFit": lambda: auf.DiameterFit([0, 1], [-1.0, -2.0], -1.0, -0.5, 1.25),
    "SingularSpectrum": lambda: SPEC,
    "QuasiNormReport": lambda: sc.QuasiNormReport(0.5, 0.25, 1),
    "BoundCertificate": _certificate,
    "DecayFit": lambda: sc.DecayFit(-1.5, 0.9),
    "SummabilityVerdict": lambda: sc.SummabilityVerdict(1.0, sc.CONVERGENT, [8], [1.5], 0.0),
}

# the dataclasses' fields, in order
FIELDS = {
    "TransitionMatrix": ("entries",),
    "EventuallyPeriodicPoint": ("left_cycle", "core", "right_cycle", "core_start"),
    "PeriodicOrbit": ("cycle",),
    "GroupoidElement": ("first", "second", "side"),
    "BaseSet": ("anchor", "radius_exp", "time"),
    "LocallyConstantFunction": ("side", "terms"),
    "CoverIndexParams": ("lambda_x",),
    "BasisRegistry": ("cap", "points", "index", "truncation_events"),
    "SparseOperator": ("entries",),
    "BlockOperator": ("blocks", "untrusted", "basis"),
    "Scenario": (
        "name", "matrix", "kappa", "orbit_p", "orbit_q", "core_bound", "window", "basis_cap", "functions", "p_grid", "seed",
    ),
    "KpwCommutator": ("matrix", "interior_window", "spectrum", "factorization_residual", "excluded_blocks"),
    "FredholmModule": ("f_op", "grading"),
    "QuasimetricTable": ("point_ids", "exponents"),
    "SandwichReport": ("checked", "upper_violations", "lower_violations"),
    "StarReport": ("triples_checked", "witnesses", "violations"),
    "DiameterFit": ("ks", "log2_diameters", "slope", "predicted_slope", "gamma_prime"),
    "SingularSpectrum": ("values", "counts", "source"),
    "QuasiNormReport": ("max_power_ratio", "max_constant_ratio", "power_subadditivity_failures"),
    "BoundCertificate": ("c1", "alpha", "c2", "beta", "n0", "schedule"),
    "DecayFit": ("slope", "r_squared"),
    "SummabilityVerdict": ("p", "verdict", "checkpoints", "partial_sums", "final_relative_increment"),
}

# the hash of the two classes that keep their own, computed at construction
OWN_HASH = {
    "EventuallyPeriodicPoint": lambda x: hash((x.left_cycle, x.core, x.right_cycle, 2 * x.core_start + 1)),
    "GroupoidElement": lambda a: hash((a.first, a.second, a.side)),
}

ALL = {**FROZEN, **MUTABLE}


def test_every_value_class_is_covered():
    assert len(ALL) == len(FIELDS) == 22
    assert set(ALL) == set(FIELDS)


def _values(x) -> tuple:
    return tuple(getattr(x, name) for name in FIELDS[type(x).__name__])


def _dataclass_twin(x, frozen):
    """The dataclass of x's fields, as x's class was declared, holding x's values."""
    name = type(x).__name__
    twin = dataclasses.make_dataclass(name, FIELDS[name], frozen=frozen)
    return twin(*_values(x))


def _same(u, v) -> bool:
    """Field values equal, numpy arrays entry by entry."""
    if isinstance(u, np.ndarray) or isinstance(v, np.ndarray):
        return isinstance(u, np.ndarray) and isinstance(v, np.ndarray) and np.array_equal(u, v)
    if type(u).__name__ in FIELDS:
        return type(u) is type(v) and all(map(_same, _values(u), _values(v)))
    return u == v


@pytest.mark.parametrize("name", sorted(ALL))
def test_fields_in_order_on_slots(name):
    x = ALL[name]()
    assert type(x)._fields == FIELDS[name]
    assert type(x).__slots__[: len(FIELDS[name])] == FIELDS[name]
    assert not hasattr(x, "__dict__")


@pytest.mark.parametrize("name", sorted(ALL))
def test_repr_is_the_dataclass_repr(name):
    x = ALL[name]()
    if name == "EventuallyPeriodicPoint":
        assert repr(x) == "Point('0*|1@3|0*')"
    else:
        assert repr(x) == repr(_dataclass_twin(x, frozen=name in FROZEN))


def test_reprs_pinned():
    assert repr(FROZEN["TransitionMatrix"]()) == "TransitionMatrix(entries=((1, 1), (1, 0)))"
    assert repr(FROZEN["PeriodicOrbit"]()) == "PeriodicOrbit(cycle=b'\\x00\\x01')"
    assert repr(MUTABLE["DecayFit"]()) == "DecayFit(slope=-1.5, r_squared=0.9)"
    assert repr(ELEMENT) == f"GroupoidElement(first={BUMP!r}, second={ZERO!r}, side='stable')"


@pytest.mark.parametrize("name", sorted(ALL))
def test_equality_is_field_equality(name):
    x, y = ALL[name](), ALL[name]()
    if name not in ("FredholmModule", "QuasimetricTable", "SingularSpectrum", "KpwCommutator"):
        # fields holding numpy arrays compare as the dataclass's tuples did:
        # ambiguously, unless identical
        assert x == y and not x != y
    assert x == x
    assert x != _values(x)
    assert (x == object()) is False


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_frozen_hash_values(name):
    x = FROZEN[name]()
    own = OWN_HASH.get(name)
    assert hash(x) == (own(x) if own else hash(_values(x)))
    if own is None:
        assert hash(x) == hash(_dataclass_twin(x, frozen=True))
    assert hash(type(x)(*_values(x))) == hash(x)


@pytest.mark.parametrize("name", sorted(MUTABLE))
def test_mutable_classes_are_unhashable(name):
    x = MUTABLE[name]()
    with pytest.raises(TypeError):
        hash(x)


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_frozen_fields_cannot_change(name):
    x = FROZEN[name]()
    before = _values(x)
    for field in FIELDS[name] + ("other",):
        with pytest.raises(AttributeError):
            setattr(x, field, None)
        with pytest.raises(AttributeError):
            delattr(x, field)
    assert _values(x) == before


@pytest.mark.parametrize("name", sorted(ALL))
def test_pickle_round_trip(name):
    x = ALL[name]()
    y = pickle.loads(pickle.dumps(x, pickle.HIGHEST_PROTOCOL))
    assert type(y) is type(x)
    assert all(map(_same, _values(y), _values(x)))
    if name in FROZEN:
        assert y == x and hash(y) == hash(x)


def test_frozen_validation_kept():
    with pytest.raises(ValueError):
        auf.CoverIndexParams(0.5)
    with pytest.raises(ValueError):
        gd.GroupoidElement(ZERO, ZERO, "sideways")
    with pytest.raises(ValueError):
        gd.BaseSet(ELEMENT, 6, 7)  # radius exponent below the time
    assert sft.PeriodicOrbit([0, 1]).cycle == b"\x00\x01"
    f = fn.LocallyConstantFunction(gd.STABLE, [(BASE_SET, 1j)])
    assert f.terms == (fn.Term(BASE_SET, 1j, 0, ""),)


def test_scenario_replace_shares_the_other_fields():
    s = sn.REFERENCE_SCENARIOS["full-2-shift"]()
    t = s.replace(name="other", kappa=3.0)
    assert (t.name, t.kappa, s.name, s.kappa) == ("other", 3.0, "full-2-shift", 2.0)
    assert all(getattr(t, f) is getattr(s, f) for f in FIELDS["Scenario"] if f not in ("name", "kappa"))
    with pytest.raises(TypeError):
        s.replace(no_such_field=1)


# the classes with their own __init__: four check or normalise their
# arguments and end in Slotted's; the points and elements set a cached hash;
# the rest have defaults or normalise what they store
OWN_INIT = {
    "BaseSet", "CoverIndexParams", "LocallyConstantFunction", "PeriodicOrbit",
    "EventuallyPeriodicPoint", "GroupoidElement",
    "SparseOperator", "FredholmModule", "SandwichReport", "StarReport", "BoundCertificate", "QuasimetricTable",
    "SingularSpectrum",
}


def test_storing_classes_use_the_shared_constructor():
    for name, build in ALL.items():
        assert (type(build()).__init__ is Slotted.__init__) == (name not in OWN_INIT), name


def _parameters(cls) -> dict:
    """The constructor's parameters, each mapped to whether a call must set
    it: the fields, all required, for Slotted's own constructor."""
    if cls.__init__ is Slotted.__init__:
        return dict.fromkeys(cls._fields, True)
    return {p.name: p.default is p.empty for p in inspect.signature(cls).parameters.values()}


@pytest.mark.parametrize("name", sorted(ALL))
def test_constructor_contract(name):
    # as a dataclass's: by position or by name, TypeError on an extra
    # positional argument, a missing field, an unknown or repeated keyword
    x = ALL[name]()
    cls = type(x)
    params = _parameters(cls)
    assert tuple(params) == FIELDS[name][: len(params)]
    args = _values(x)[: len(params)]
    by_name = dict(zip(params, args))
    assert all(map(_same, _values(cls(**by_name)), _values(cls(*args))))
    with pytest.raises(TypeError):
        cls(*args, None)
    for field in [p for p, required in params.items() if required]:
        with pytest.raises(TypeError):
            cls(**{k: v for k, v in by_name.items() if k != field})
    with pytest.raises(TypeError):
        cls(*args, no_such_field=None)
    with pytest.raises(TypeError):
        cls(*args, **{FIELDS[name][0]: args[0]})
