"""The record classes against dataclass twins of their former definitions.

The package imports no ``dataclasses`` (it costs about 13 ms of start-up), so
its records are plain classes or ``namedtuple`` subclasses. Each twin below
is the dataclass the class used to be, under the same name; for sample
instances the two must agree on ==, !=, repr, keyword construction and
defaults, and on hash where the twin is hashable; where a field is a list or a
dict, both refuse to hash. Every record refuses assignment and deletion.
"""
import itertools
from dataclasses import field, fields, make_dataclass
from fractions import Fraction

import pytest

from posetturan.constructions import n_free_construction, p5_construction
from posetturan.embedding import EmbeddingWitness, find_embedding
from posetturan.lattice import SetFamily, level_family
from posetturan.posets import Poset, chain, named_poset
from posetturan.proofcheck import (
    Coloring,
    ComponentClass,
    ComponentReport,
    LemmaReport,
    ZigzagWitness,
    classify_nfree_components,
    color_family,
    p5_component_report,
    zigzag_find_WM,
)
from posetturan.search import SearchReport, WitnessCheck, la_exact, verify_witness


def twin(name, spec):
    """A frozen dataclass named ``name``; ``spec`` is field names, or (name, default) pairs."""
    return make_dataclass(
        name,
        [(f, object) if isinstance(f, str) else (f[0], object, f[1]) for f in spec],
        frozen=True,
    )


POSET = twin("Poset", ["size", ("relations", field(default_factory=frozenset))])
SET_FAMILY = twin("SetFamily", ["n", "members"])
SEARCH_REPORT = twin(
    "SearchReport",
    ["optimum", "witnesses", "nodes_explored", "complete", ("params", field(default_factory=dict))],
)
LEMMA_REPORT = twin(
    "LemmaReport",
    ["lemma", "instances_checked", "failures", ("seed", None), ("first_failure", None)],
)
EMBEDDING_WITNESS = twin("EmbeddingWitness", ["poset", "family", "assignment"])
WITNESS_CHECK = twin("WitnessCheck", ["free", "copies"])
COLORING = twin("Coloring", ["n", "family", "threshold", "blue", "critical_pairs"])
COMPONENT_CLASS = twin("ComponentClass", ["kind", "members", ("center", None)])
ZIGZAG = twin("ZigzagWitness", ["which", "indices"])
COMPONENT_REPORT = twin("ComponentReport", [
    "members", "containments", "hull_size", "max_antichain", "chains_meeting_hull",
    "threshold", "ratio", "type_one", "type_two", "below_threshold",
])

FAM = SetFamily(3, [1, 3, 7])
BFLY = named_poset("butterfly")


def _kwargs(obj, ref_cls):
    return {f.name: getattr(obj, f.name) for f in fields(ref_cls)}


def _samples():
    """(class, twin, sample instances); some samples come from the package's own functions."""
    report = la_exact(3, [BFLY], chain(2))
    nfree = n_free_construction(4)
    return [
        (Poset, POSET, [
            Poset(2), Poset(2, frozenset({(0, 1)})), Poset(2, frozenset({(1, 0)})),
            chain(3), BFLY, named_poset("N"),
            Poset(2, frozenset({(0, 1)})),
        ]),
        (SetFamily, SET_FAMILY, [
            FAM, SetFamily(3, [7, 3, 1]), SetFamily(3, []), SetFamily(4, [1, 3, 7]), level_family(4, [2]),
        ]),
        (SearchReport, SEARCH_REPORT, [
            report, la_exact(3, [BFLY], chain(2)), la_exact(3, [chain(2)], chain(1)),
            SearchReport(1, [(1,)], 2, False), SearchReport(1, [(1,)], 2, False, {"n": 1}),
        ]),
        (LemmaReport, LEMMA_REPORT, [
            LemmaReport("zigzag", 3, 0), LemmaReport("zigzag", 3, 0, seed=7),
            LemmaReport("zigzag", 3, 1, 7, "first"), LemmaReport("zigzag", 3, 0),
        ]),
        (EmbeddingWitness, EMBEDDING_WITNESS, [
            find_embedding(FAM, chain(2)), find_embedding(FAM, chain(3)),
            EmbeddingWitness(chain(2), FAM, (3, 7)),
        ]),
        (WitnessCheck, WITNESS_CHECK, [
            verify_witness(SetFamily(3, report.witnesses[0]), [BFLY], chain(2)),
            WitnessCheck(True, 0), WitnessCheck(False, 0), WitnessCheck(1, 0),
        ]),
        (Coloring, COLORING, [
            color_family(level_family(4, [2]), 1), color_family(level_family(4, [2]), 2),
            color_family(level_family(4, [1, 2]), 1),
        ]),
        (ComponentClass, COMPONENT_CLASS, [
            *classify_nfree_components(nfree), *classify_nfree_components(FAM),
            ComponentClass("triangle", (1, 3, 7)), ComponentClass("star", (1, 3), 1),
            ComponentClass("triangle", (1, 3, 7), None),
        ]),
        (ZigzagWitness, ZIGZAG, [
            zigzag_find_WM(4, [1, 3, 2, 6, 4, 12]), ZigzagWitness("W", (0, 1, 2, 3, 4)),
            ZigzagWitness("M", (0, 1, 2, 3, 4)),
        ]),
        (ComponentReport, COMPONENT_REPORT, [
            *p5_component_report(p5_construction(5)),
            ComponentReport((1,), 0, 1, 1, 24, Fraction(0), None, True, False, False),
        ]),
    ]


SAMPLES = _samples()
IDS = [cls.__name__ for cls, *_ in SAMPLES]


def _hash(obj):
    """hash(obj), or TypeError when a field is unhashable."""
    try:
        return hash(obj)
    except TypeError:
        return TypeError


@pytest.mark.parametrize("cls, ref_cls, objs", SAMPLES, ids=IDS)
def test_matches_the_dataclass_twin(cls, ref_cls, objs):
    refs = [ref_cls(**_kwargs(obj, ref_cls)) for obj in objs]
    for obj, ref in zip(objs, refs):
        assert type(obj) is cls
        assert repr(obj) == repr(ref)
        # keyword and positional construction give an equal record
        kwargs = _kwargs(obj, ref_cls)
        assert cls(**kwargs) == obj
        assert cls(*kwargs.values()) == obj
        assert _hash(obj) == _hash(ref)
    for (a, ra), (b, rb) in itertools.product(zip(objs, refs), repeat=2):
        assert (a == b) == (ra == rb)
        assert (a != b) == (ra != rb)


@pytest.mark.parametrize("cls, ref_cls, objs", SAMPLES, ids=IDS)
def test_frozen_records_refuse_assignment(cls, ref_cls, objs):
    obj = objs[0]
    name = fields(ref_cls)[0].name
    before = getattr(obj, name)
    with pytest.raises(AttributeError):
        setattr(obj, name, 0)
    with pytest.raises(AttributeError):
        delattr(obj, name)
    assert getattr(obj, name) is before


def test_defaults():
    for obj, ref in [
        (Poset(3), POSET(3)),
        (ComponentClass("triangle", (1, 3, 7)), COMPONENT_CLASS("triangle", (1, 3, 7))),
        (SearchReport(1, [], 0, True), SEARCH_REPORT(1, [], 0, True)),
        (LemmaReport("x", 0, 0), LEMMA_REPORT("x", 0, 0)),
    ]:
        assert repr(obj) == repr(ref)
    # a default params dict is a new one per report, as default_factory made it
    a, b = SearchReport(1, [], 0, True), SearchReport(1, [], 0, True)
    assert a.params == {} and a.params is not b.params


def test_other_classes_compare_unequal():
    p, fam = Poset(1), SetFamily(1, [0])
    assert fam.__eq__((1, (0,))) is NotImplemented
    assert fam != (1, (0,)) and p != fam
    assert p != POSET(1)
    rep = SearchReport(1, [], 0, True)
    assert rep != SEARCH_REPORT(1, [], 0, True)
    assert LemmaReport("x", 0, 0) != LEMMA_REPORT("x", 0, 0)
    # the namedtuple records equal the plain tuple of their fields
    assert p == (1, frozenset())
    assert rep == (1, [], 0, True, {}) and LemmaReport("x", 0, 0) == ("x", 0, 0, None, None)


def test_set_family_keeps_its_cached_bitsets():
    fam = SetFamily(3, [1, 3, 7])
    assert fam.above == (0b110, 0b100, 0)
    assert fam.__dict__["above"] == fam.above
    with pytest.raises(AttributeError):
        fam.above = ()
