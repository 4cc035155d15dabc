"""The result-record contract (ahweyl.record): construction, equality, hash,
immutability and repr, on the records the package defines; and
PropertyResult, the one mutable result."""

import marshal

import pytest

from ahweyl.context import NormalizerResult, NotCentralizing
from ahweyl.derivations import NotExtendable, NotInner
from ahweyl.fields import QQ, FieldSpec
from ahweyl.hochschild import BBf, BBx, NormalizerQuotientLevel
from ahweyl.poly import Poly
from ahweyl.verify import PropertyResult

GF5 = FieldSpec(5)


def level(y_degree=2, dim=1, generators=()):
    return NormalizerQuotientLevel(y_degree, dim, generators)


def test_positional_and_keyword_construction_agree():
    gens = (Poly(GF5, [1, 2]),)
    by_keyword = NormalizerQuotientLevel(generators=gens, y_degree=3, dim=1)
    mixed = NormalizerQuotientLevel(3, generators=gens, dim=1)
    assert NormalizerQuotientLevel(3, 1, gens) == by_keyword == mixed
    assert (by_keyword.y_degree, by_keyword.dim, by_keyword.generators) == (3, 1, gens)


def test_defaults_fill_trailing_fields():
    assert NormalizerResult(True) == NormalizerResult(True, None, None)
    failed = NormalizerResult(False, reason="r")
    assert (failed.ok, failed.failing_y_degree, failed.reason) == (False, None, "r")
    assert NotInner("r", None).residue is None
    assert NotInner("r", None, residue=1).residue == 1


@pytest.mark.parametrize(
    "args,kwargs",
    [
        ((2, 1), {}),  # a field missing
        ((), {"y_degree": 2, "dim": 1}),
        ((2, 1, (), 4), {}),  # one value too many
        ((2, 1, ()), {"degree": 2}),  # unknown
        ((2, 1), {"y_degree": 2, "generators": ()}),  # repeated
    ],
)
def test_a_missing_unknown_or_repeated_field_is_a_type_error(args, kwargs):
    with pytest.raises(TypeError):
        NormalizerQuotientLevel(*args, **kwargs)


def test_a_default_is_not_given_to_a_field_without_one():
    with pytest.raises(TypeError):
        NotInner("r")


def test_equal_only_to_the_same_type_with_equal_fields():
    assert level() == level() and not level() != level()
    assert level() != level(dim=2)
    assert level() != (2, 1, ())  # never a tuple
    # one field of the same name and value, but another record type
    assert NotCentralizing("r") != NotExtendable("r")
    assert NotCentralizing("r") == NotCentralizing("r")
    assert BBx() == BBx() and BBx() != BBf()
    assert FieldSpec(5) == GF5 and FieldSpec(5) != FieldSpec(7)
    assert GF5 != (5,) and GF5 != level()


@pytest.mark.parametrize(
    "record,values",
    [
        (level(), (2, 1, ())),
        (NormalizerResult(False, 3), (False, 3, None)),
        (NotCentralizing("r"), ("r",)),
        (BBx(), ()),
        (GF5, (5,)),
        (QQ, (0,)),
    ],
    ids=["level", "normalizer-result", "not-centralizing", "no-fields", "gf5", "qq"],
)
def test_hash_is_the_hash_of_the_field_tuple(record, values):
    # the value a frozen dataclass gives, so sets and dicts keep their order
    assert hash(record) == hash(values)


@pytest.mark.parametrize("record", [level(), NormalizerResult(True), BBx(), GF5])
def test_fields_cannot_be_assigned_or_deleted(record):
    name = type(record).__slots__[0] if type(record).__slots__ else "anything"
    with pytest.raises(AttributeError):
        setattr(record, name, 1)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.not_a_field = 1


def test_repr_names_the_type_and_every_field():
    assert repr(GF5) == "FieldSpec(characteristic=5)"
    assert repr(NormalizerResult(False, 2, "r")) == (
        "NormalizerResult(ok=False, failing_y_degree=2, reason='r')"
    )
    assert repr(BBx()) == "BBx()"


def test_field_spec_checks_its_characteristic():
    with pytest.raises(ValueError, match="0 or prime"):
        FieldSpec(4)


def test_property_result_is_mutable_and_round_trips_through_a_marshal_row():
    res = PropertyResult("a property")
    assert (res.name, res.count, res.passed, res.counterexamples) == ("a property", 0, True, [])
    res.check(True, lambda: "never described")
    res.check(False, lambda: "x^2")
    res.count += 1
    assert (res.count, res.passed, res.counterexamples) == (3, False, ["x^2"])
    # the row a forked worker sends back (verify._child) and its reading
    # (verify._share)
    row = marshal.loads(marshal.dumps([(7, res.name, res.count, res.passed, res.counterexamples)]))
    index, *fields = row[0]
    back = PropertyResult(*fields)
    assert index == 7
    assert [getattr(back, n) for n in PropertyResult.__slots__] == [
        getattr(res, n) for n in PropertyResult.__slots__
    ]
    # each result has its own list of counterexamples
    assert PropertyResult("b").counterexamples is not PropertyResult("c").counterexamples
