"""Value semantics of the library's fifteen record types.

Each case pins the repr text, equality, hashing, immutability, keyword and
default construction, pickling and copying, and class patterns, so a change
to how the records are implemented cannot change how they behave.
"""

import copy
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import seifert
from seifert import (
    AlternateFibering,
    CanonicalForm,
    ComponentCatalog,
    CongruenceClash,
    Covering,
    DegreeProgression,
    EmptyDegrees,
    EulerMismatch,
    HvfDecision,
    LensClassification,
    MarkedLens,
    Orbifold,
    SeifertInvariant,
    SingleDegree,
    SurfaceSection,
    Theorem1Case,
    decide_hvf,
    normalize,
)
from seifert._record import Record, integral
from seifert.errors import NotCoprime


class Pair(Record):
    """A test record whose constructor Record writes, with one default."""

    __slots__ = ("left", "right")
    _defaults = {"right": 0}


class Unit(Record):
    """A test record with no fields."""

    __slots__ = ()


class Checked(Record):
    """A test record that writes its own constructor."""

    __slots__ = ("n",)

    def __init__(self, n):
        object.__setattr__(self, "n", int(n))


class Stored(Record):
    """A test record whose constructor converts, then stores through ``_store``."""

    __slots__ = ("n",)

    def __init__(self, n):
        self._store(int(n))


# (record, literal repr, field names, a record of the same type that differs)
CASES = [
    (
        SeifertInvariant(0, ((2, 1), (3, -1))),
        "SeifertInvariant(genus_code=0, pairs=((2, 1), (3, -1)), boundary_count=0)",
        ("genus_code", "pairs", "boundary_count"),
        SeifertInvariant(0, ((2, 1), (3, -1)), 1),
    ),
    (
        normalize(SeifertInvariant(0, ((2, 1), (3, -1)))),
        "CanonicalForm(genus_code=0, boundary_count=0, pairs=((2, 1), (3, 2)), b=-1)",
        ("genus_code", "boundary_count", "pairs", "b"),
        CanonicalForm(0, 1, ((2, 1), (3, 2)), None),
    ),
    (
        AlternateFibering("klein_ut", SeifertInvariant(-2), "note"),
        "AlternateFibering(kind='klein_ut', invariant=SeifertInvariant(genus_code=-2, "
        "pairs=(), boundary_count=0), note='note')",
        ("kind", "invariant", "note"),
        AlternateFibering("lens_family", None, "note"),
    ),
    (
        Orbifold(0, (7, 1, 3, 2)),
        "Orbifold(genus_code=0, cone_orders=(2, 3, 7), boundary_count=0)",
        ("genus_code", "cone_orders", "boundary_count"),
        Orbifold(-1, (2, 3, 7)),
    ),
    (
        EmptyDegrees(),
        "EmptyDegrees(include_zero=False)",
        ("include_zero",),
        EmptyDegrees(True),
    ),
    (
        SingleDegree(2),
        "SingleDegree(d=2)",
        ("d",),
        SingleDegree(-2),
    ),
    (
        DegreeProgression(1, 4),
        "DegreeProgression(residue=1, modulus=4, include_zero=False)",
        ("residue", "modulus", "include_zero"),
        DegreeProgression(1, 4, True),
    ),
    (
        SurfaceSection(),
        "SurfaceSection()",
        (),
        None,
    ),
    (
        Covering(SingleDegree(2), SeifertInvariant(0, ((1, -2),))),
        "Covering(degrees=SingleDegree(d=2), target=SeifertInvariant(genus_code=0, "
        "pairs=((1, -2),), boundary_count=0))",
        ("degrees", "target"),
        Covering(DegreeProgression(2, 3), SeifertInvariant(0, ((1, -2),))),
    ),
    (
        CongruenceClash(0, 1),
        "CongruenceClash(i=0, j=1)",
        ("i", "j"),
        CongruenceClash(1, 0),
    ),
    (
        EulerMismatch(Fraction(-1, 5), Fraction(-2, 5), None),
        "EulerMismatch(euler=Fraction(-1, 5), chi=Fraction(-2, 5), pin=None)",
        ("euler", "chi", "pin"),
        EulerMismatch(Fraction(-1, 5), Fraction(-2, 5), 2),
    ),
    (
        decide_hvf(SeifertInvariant(1)),
        "HvfDecision(exists=True, mechanisms=(SurfaceSection(), Covering(degrees="
        "DegreeProgression(residue=0, modulus=1, include_zero=False), target="
        "SeifertInvariant(genus_code=1, pairs=(), boundary_count=0))), obstruction=None)",
        ("exists", "mechanisms", "obstruction"),
        HvfDecision(False, (), CongruenceClash(0, 1)),
    ),
    (
        MarkedLens(5, 7),
        "MarkedLens(p=5, q=2)",
        ("p", "q"),
        MarkedLens(-5, 2),
    ),
    (
        LensClassification(Theorem1Case.EXACTLY_ONE, SeifertInvariant(-1, ((2, -1),))),
        "LensClassification(case=<Theorem1Case.EXACTLY_ONE: 'exactly_one'>, "
        "witness=SeifertInvariant(genus_code=-1, pairs=((2, -1),), boundary_count=0))",
        ("case", "witness"),
        LensClassification(Theorem1Case.EXACTLY_ONE),
    ),
    (
        ComponentCatalog(SingleDegree(1), 0, True),
        "ComponentCatalog(degrees=SingleDegree(d=1), cohomology_rank=0, "
        "unique_up_to_homotopy=True)",
        ("degrees", "cohomology_rank", "unique_up_to_homotopy"),
        ComponentCatalog(SingleDegree(1), 2, False),
    ),
]

IDS = [type(case[0]).__name__ for case in CASES]


def values(record, names):
    return tuple(getattr(record, name) for name in names)


def test_every_record_type_is_covered():
    assert len({type(case[0]) for case in CASES}) == 15


@pytest.mark.parametrize("record, text, names, other", CASES, ids=IDS)
class TestValueSemantics:
    def test_repr(self, record, text, names, other):
        assert repr(record) == text

    def test_equality_within_type(self, record, text, names, other):
        twin = type(record)(*values(record, names))
        assert twin is not record
        assert record == twin and not record != twin
        if other is not None:
            assert record != other and not record == other

    def test_never_equal_to_tuple_of_fields(self, record, text, names, other):
        assert record != values(record, names)
        assert record.__eq__(values(record, names)) is NotImplemented

    def test_hash_is_hash_of_fields(self, record, text, names, other):
        assert hash(record) == hash(values(record, names))
        assert hash(record) == hash(type(record)(*values(record, names)))

    def test_fields_are_read_only(self, record, text, names, other):
        for name in names:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        with pytest.raises(AttributeError):
            record.not_a_field = 1

    def test_keyword_construction(self, record, text, names, other):
        kwargs = {name: getattr(record, name) for name in names}
        assert type(record)(**kwargs) == record

    def test_match_args(self, record, text, names, other):
        assert type(record).__match_args__ == names

    def test_pickle_round_trip(self, record, text, names, other):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(record, protocol))
            assert type(back) is type(record)
            assert back == record
            assert repr(back) == text

    def test_copy_and_deepcopy(self, record, text, names, other):
        for clone in (copy.copy(record), copy.deepcopy(record)):
            assert type(clone) is type(record)
            assert clone == record
            assert hash(clone) == hash(record)


class TestAcrossTypes:
    def test_field_less_records_are_not_equal_across_types(self):
        assert EmptyDegrees() != SurfaceSection()
        assert SurfaceSection() != EmptyDegrees()
        assert SurfaceSection() == SurfaceSection()
        assert EmptyDegrees().__eq__(SurfaceSection()) is NotImplemented

    def test_equal_fields_are_not_equal_across_types(self):
        assert SingleDegree(0) != EmptyDegrees(0)
        assert CongruenceClash(1, 0) != MarkedLens(1, 0)
        assert MarkedLens(1, 0) != CongruenceClash(1, 0)

    def test_distinct_types_in_one_set(self):
        records = {SingleDegree(0), EmptyDegrees(0), SurfaceSection(), SurfaceSection()}
        assert len(records) == 3


class TestDefaults:
    def test_defaults(self):
        assert SeifertInvariant(0) == SeifertInvariant(0, (), 0)
        assert SeifertInvariant(genus_code=2).pairs == ()
        assert SeifertInvariant(genus_code=2).boundary_count == 0
        assert Orbifold(genus_code=1) == Orbifold(1, (), 0)
        assert EmptyDegrees().include_zero is False
        assert DegreeProgression(residue=1, modulus=2).include_zero is False
        assert LensClassification(case=Theorem1Case.ALL_HAVE).witness is None

    def test_missing_required_field(self):
        with pytest.raises(TypeError):
            SingleDegree()
        with pytest.raises(TypeError):
            CanonicalForm(0, 0, ())


class TestConstructionChecks:
    def test_alpha_must_be_positive(self):
        with pytest.raises(ValueError, match="pair 1: alpha must be a positive integer") as err:
            SeifertInvariant(0, ((2, 1), (0, 1)))
        assert type(err.value) is ValueError

    def test_not_coprime_pair(self):
        with pytest.raises(NotCoprime) as err:
            SeifertInvariant(0, ((2, 1), (4, 2)))
        assert err.value.index == 1

    def test_negative_boundary_count(self):
        with pytest.raises(ValueError, match="boundary count"):
            SeifertInvariant(0, (), -1)

    def test_pairs_become_int_tuples(self):
        inv = SeifertInvariant(0, [[Fraction(2), Fraction(-1)], (True, 0)])
        assert inv.pairs == ((2, -1), (1, 0))
        assert all(type(x) is int for pair in inv.pairs for x in pair)
        assert type(inv.pairs) is tuple and all(type(p) is tuple for p in inv.pairs)

    def test_non_integral_values_rejected(self):
        # int() would truncate these; the constructors refuse them instead
        for pairs in (((2.5, 1),), ((Fraction(7, 2), 1),), ((3, 1), (5, 0.5))):
            with pytest.raises(ValueError, match="alpha and beta must be integers"):
                SeifertInvariant(0, pairs)
        with pytest.raises(ValueError, match="genus code must be an integer"):
            SeifertInvariant(0.5)
        with pytest.raises(ValueError, match="boundary count must be an integer"):
            SeifertInvariant(0, (), 1.5)
        with pytest.raises(ValueError, match="cone orders must be integers"):
            Orbifold(0, (2.9, 3))
        with pytest.raises(ValueError, match="genus code must be an integer"):
            Orbifold(Fraction(1, 2))
        with pytest.raises(ValueError, match="boundary count must be an integer"):
            Orbifold(0, (), 0.5)
        # integral values of other types become ints
        inv = SeifertInvariant(Fraction(1), (), True)
        assert (inv.genus_code, inv.boundary_count) == (1, 1)
        assert type(inv.genus_code) is int and type(inv.boundary_count) is int
        assert Orbifold(2.0) == Orbifold(2)

    def test_orbifold_checks(self):
        with pytest.raises(ValueError, match="boundary count"):
            Orbifold(0, (), -1)
        with pytest.raises(ValueError, match="cone orders must be positive"):
            Orbifold(0, (2, 0))

    def test_cone_orders_sorted_without_ones(self):
        orb = Orbifold(0, [7, 1, Fraction(3), 2, 1])
        assert orb.cone_orders == (2, 3, 7)
        assert all(type(a) is int for a in orb.cone_orders)
        assert Orbifold(0, (1, 1)) == Orbifold(0)

    def test_marked_lens_q_reduced(self):
        assert MarkedLens(5, 7).q == 2
        assert MarkedLens(5, -1).q == 4
        assert MarkedLens(-5, 3).q == 3
        assert MarkedLens(0, -1).q == 1
        assert MarkedLens(5, 7) == MarkedLens(5, 2)
        assert hash(MarkedLens(5, 7)) == hash((5, 2))

    def test_marked_lens_not_coprime(self):
        with pytest.raises(NotCoprime, match="p = 4 and q = 2 are not coprime"):
            MarkedLens(4, 2)
        with pytest.raises(NotCoprime):
            MarkedLens(0, 2)


def converted_fields(genus_code, pairs=(), boundary_count=0):
    """The oracle: the fields ``SeifertInvariant`` stored before it took plain
    int input as given, by its converting loop alone, or the error raised."""
    genus_code = integral(genus_code, "genus code")
    boundary_count = integral(boundary_count, "boundary count")
    checked = []
    for i, (a, b) in enumerate(pairs):
        ia, ib = int(a), int(b)
        if ia != a or ib != b:
            raise ValueError(f"pair {i}: alpha and beta must be integers, not {(a, b)!r}")
        if ia < 1:
            raise ValueError(f"pair {i}: alpha must be a positive integer")
        if math.gcd(ia, ib) != 1:
            raise NotCoprime(i)
        checked.append((ia, ib))
    if boundary_count < 0:
        raise ValueError("boundary count must be non-negative")
    return genus_code, tuple(checked), boundary_count


class Count(int):
    """An int subclass, which the constructor converts like any other type."""


def outcome(build, genus_code, pairs, boundary_count, container):
    """What ``build`` gives for these fields, the pairs passed in the named
    container, built afresh so that a generator is unspent: its fields, or
    the type, message and NotCoprime index of its error."""
    if container == "tuple":
        pairs = tuple(pairs)
    elif container == "generator":
        pairs = (pair for pair in pairs)
    try:
        fields = build(genus_code, pairs, boundary_count)
    except Exception as err:
        return type(err), str(err), getattr(err, "index", None)
    if isinstance(fields, SeifertInvariant):
        fields = (fields.genus_code, fields.pairs, fields.boundary_count)
    return fields


small = st.integers(-3, 12)
numbers = st.one_of(
    small,
    st.booleans(),
    small.map(Fraction),
    st.fractions(min_value=-4, max_value=12, max_denominator=4),
    st.floats(-4, 12).map(round).map(float),
    st.floats(allow_nan=True, allow_infinity=True),
    small.map(Count),
)


def pair_of(values):
    return st.one_of(
        st.tuples(values, values),
        st.tuples(values, values).map(list),
        st.lists(values, max_size=3).map(tuple),  # often the wrong length
        values,  # not a pair at all
    )


valid_pairs = st.tuples(st.integers(1, 12), st.integers(-12, 12)).filter(
    lambda pair: math.gcd(*pair) == 1
)
plain_fields = st.tuples(
    small,
    st.lists(st.one_of(valid_pairs, st.tuples(small, small)), max_size=5),
    st.integers(-1, 3),
    st.just("tuple"),
)


@st.composite
def nearly_plain_fields(draw):
    """Fields that pass every check, with one value recast as an equal value
    of another type and perhaps one pair as a list: only the test for plain
    ints tells them from plain fields."""
    pairs = draw(st.lists(valid_pairs, max_size=4))
    values = [draw(small), *(x for pair in pairs for x in pair), draw(st.integers(0, 3))]
    k = draw(st.integers(0, len(values) - 1))
    recast = draw(st.sampled_from([Count, Fraction, float, bool]))
    if recast is not bool or values[k] in (0, 1):
        values[k] = recast(values[k])
    pairs = [tuple(values[i : i + 2]) for i in range(1, len(values) - 1, 2)]
    if pairs and draw(st.booleans()):
        j = draw(st.integers(0, len(pairs) - 1))
        pairs[j] = list(pairs[j])
    return values[0], pairs, values[-1], "tuple"


mixed_fields = st.tuples(
    numbers,
    st.lists(pair_of(numbers), max_size=5),
    numbers,
    st.sampled_from(["tuple", "list", "generator"]),
)


class TestConstructorParity:
    """Plain ints are stored as given and anything else is converted: both
    give the fields and the errors the converting loop alone gives."""

    @settings(max_examples=400)
    @given(st.one_of(plain_fields, nearly_plain_fields(), mixed_fields))
    def test_matches_the_converting_loop(self, fields):
        got = outcome(SeifertInvariant, *fields)
        assert got == outcome(converted_fields, *fields)
        if not isinstance(got[0], type):
            genus_code, pairs, boundary_count = got
            assert type(genus_code) is int and type(boundary_count) is int
            assert type(pairs) is tuple
            assert all(type(p) is tuple and len(p) == 2 for p in pairs)
            assert all(type(x) is int for p in pairs for x in p)

    def test_plain_pairs_are_stored_as_given(self):
        pairs = ((1, -1), (5, 2), (5, 2))
        assert SeifertInvariant(0, pairs).pairs is pairs


class TestPatterns:
    def test_single_degree_class_pattern(self):
        match SingleDegree(3):
            case SingleDegree(d):
                found = d
            case _:
                found = None
        assert found == 3

    def test_class_patterns_select_the_type(self):
        def kind(degrees):
            match degrees:
                case EmptyDegrees(include_zero):
                    return ("empty", include_zero)
                case SingleDegree(d):
                    return ("single", d)
                case DegreeProgression(residue, modulus, include_zero):
                    return ("progression", residue, modulus, include_zero)

        assert kind(EmptyDegrees(True)) == ("empty", True)
        assert kind(SingleDegree(-4)) == ("single", -4)
        assert kind(DegreeProgression(2, 5)) == ("progression", 2, 5, False)


class TestGeneratedConstructor:
    def test_positional_keyword_and_default(self):
        record = Pair(1, 2)
        assert (record.left, record.right) == (1, 2)
        assert Pair(left=1, right=2) == record == Pair(1, right=2)
        assert Pair(1) == Pair(1, 0) == Pair(left=1)
        assert repr(Pair(1)) == "Pair(left=1, right=0)"
        assert Unit() == Unit() and repr(Unit()) == "Unit()"

    @pytest.mark.parametrize(
        "make",
        [
            lambda: Pair(),
            lambda: Pair(right=2),
            lambda: Pair(1, 2, 3),
            lambda: Pair(1, left=1),
            lambda: Pair(1, up=2),
            lambda: Unit(1),
            lambda: Unit(left=1),
        ],
        ids=["missing", "missing-keyword", "extra", "twice", "unknown", "unit-extra", "unit-unknown"],
    )
    def test_bad_arguments(self, make):
        with pytest.raises(TypeError):
            make()

    def test_pickle(self):
        for record in (Pair(1, 2), Pair(3), Unit()):
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                back = pickle.loads(pickle.dumps(record, protocol))
                assert type(back) is type(record) and back == record

    def test_match_args(self):
        assert Pair.__match_args__ == ("left", "right")
        assert Unit.__match_args__ == ()
        match Pair(1, 2):
            case Pair(left, right):
                found = (left, right)
        assert found == (1, 2)

    def test_written_constructor_is_kept(self):
        # a generated constructor would store the Fraction unconverted
        record = Checked(Fraction(6, 2))
        assert record.n == 3 and type(record.n) is int

    def test_defaults_only_on_the_last_fields(self):
        with pytest.raises(TypeError, match="only the last fields may have defaults"):

            class Bad(Record):
                __slots__ = ("left", "right")
                _defaults = {"left": 0}


EXPORTED_RECORDS = [
    value for value in vars(seifert).values() if isinstance(value, type) and issubclass(value, Record)
]
CONVERTING = [
    SeifertInvariant(0, ((2, 1), (3, -1)), 1),
    MarkedLens(5, 7),
    Orbifold(0, (7, 1, 3)),
]


class TestStore:
    """Every record writes its fields through its own ``_store``: the
    constructor itself, or the last call of a constructor that converts."""

    def test_every_exported_record_has_a_store(self):
        assert len(EXPORTED_RECORDS) == 15
        for cls in EXPORTED_RECORDS:
            assert "_store" in cls.__dict__, cls
            if cls in (SeifertInvariant, MarkedLens, Orbifold):
                assert cls.__init__ is not cls._store
            else:
                assert cls.__init__ is cls._store, cls

    @pytest.mark.parametrize("record", CONVERTING, ids=lambda record: type(record).__name__)
    def test_converting_records_stay_read_only(self, record):
        for name in type(record).__slots__:
            with pytest.raises(AttributeError, match="cannot assign"):
                setattr(record, name, None)
            with pytest.raises(AttributeError, match="cannot delete"):
                delattr(record, name)

    @pytest.mark.parametrize(
        "make, error",
        [
            (lambda: SeifertInvariant(0, ((4, 2),)), NotCoprime),
            (lambda: SeifertInvariant(0, ((0, 1),)), ValueError),
            (lambda: SeifertInvariant(0, (), -1), ValueError),
            (lambda: SeifertInvariant(0.5), ValueError),
            (lambda: MarkedLens(4, 2), NotCoprime),
            (lambda: Orbifold(0, (2, 0)), ValueError),
            (lambda: Orbifold(0, (2.5,)), ValueError),
        ],
    )
    def test_bad_input_is_refused(self, make, error):
        with pytest.raises(error):
            make()

    def test_plain_pairs_are_stored_as_given(self):
        pairs = ((1, -1), (2, 1), (3, 1))
        assert SeifertInvariant(-1, pairs, 2).pairs is pairs

    def test_written_constructor_stores_the_converted_value(self):
        record = Stored(Fraction(6, 2))
        assert record.n == 3 and type(record.n) is int
        assert record == Stored(3) and repr(record) == "Stored(n=3)"

    @pytest.mark.parametrize("cls", [Pair, Unit, Stored, SeifertInvariant, MarkedLens])
    def test_store_with_the_wrong_number_of_fields(self, cls):
        record = object.__new__(cls)
        too_many = (0,) * (len(cls.__slots__) + 1)
        with pytest.raises(TypeError):
            record._store(*too_many)
        if cls.__slots__:
            with pytest.raises(TypeError):
                record._store()
