"""Tests for data objects and the region algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory import (
    DataObject,
    PartialOverlapError,
    Region,
    check_supported_overlap,
    relation,
)


def make_obj(n=1000, dtype=np.float32, name="a"):
    return DataObject(name=name, num_elements=n, dtype=dtype)


def test_object_nbytes():
    obj = make_obj(100, np.float32)
    assert obj.whole.nbytes == 400
    obj64 = make_obj(100, np.float64)
    assert obj64.whole.nbytes == 800


def test_object_ids_are_unique():
    a, b = make_obj(), make_obj()
    assert a.oid != b.oid


def test_object_rejects_nonpositive_size():
    with pytest.raises(ValueError):
        DataObject(name="bad", num_elements=0)


def test_whole_region_covers_object():
    obj = make_obj(50)
    assert obj.whole.start == 0
    assert obj.whole.length == 50


def test_region_bounds_checked():
    obj = make_obj(10)
    with pytest.raises(ValueError):
        Region(obj, 5, 6)  # runs past the end
    with pytest.raises(ValueError):
        Region(obj, -1, 5)
    with pytest.raises(ValueError):
        Region(obj, 0, 0)


def test_region_key_identity():
    obj = make_obj(100)
    assert Region(obj, 0, 10).key == Region(obj, 0, 10).key
    assert Region(obj, 0, 10).key != Region(obj, 10, 10).key


def test_region_nbytes():
    obj = make_obj(100, np.float32)
    assert Region(obj, 0, 10).nbytes == 40


def test_relation_equal():
    obj = make_obj(100)
    assert relation(Region(obj, 10, 20), Region(obj, 10, 20)) == "equal"


def test_relation_disjoint_same_object():
    obj = make_obj(100)
    assert relation(Region(obj, 0, 10), Region(obj, 10, 10)) == "disjoint"
    assert relation(Region(obj, 50, 10), Region(obj, 0, 10)) == "disjoint"


def test_relation_different_objects_always_disjoint():
    a, b = make_obj(name="a"), make_obj(name="b")
    assert relation(Region(a, 0, 100), Region(b, 0, 100)) == "disjoint"


def test_relation_partial():
    obj = make_obj(100)
    assert relation(Region(obj, 0, 10), Region(obj, 5, 10)) == "partial"
    assert relation(Region(obj, 0, 20), Region(obj, 5, 5)) == "partial"  # containment


def test_check_supported_overlap_raises_on_partial():
    obj = make_obj(100)
    with pytest.raises(PartialOverlapError, match="partially overlap"):
        check_supported_overlap(Region(obj, 0, 10), Region(obj, 5, 10))


def test_check_supported_overlap_passes_equal_and_disjoint():
    obj = make_obj(100)
    assert check_supported_overlap(Region(obj, 0, 10), Region(obj, 0, 10)) == "equal"
    assert check_supported_overlap(Region(obj, 0, 10), Region(obj, 20, 10)) == "disjoint"


# ------------------------------------------------------------- property tests

region_params = st.tuples(
    st.integers(min_value=0, max_value=99),
    st.integers(min_value=1, max_value=100),
).filter(lambda p: p[0] + p[1] <= 100)


@settings(max_examples=200, deadline=None)
@given(a=region_params, b=region_params)
def test_relation_is_symmetric(a, b):
    obj = DataObject(name="p", num_elements=100)
    ra, rb = Region(obj, *a), Region(obj, *b)
    assert relation(ra, rb) == relation(rb, ra)


@settings(max_examples=200, deadline=None)
@given(a=region_params, b=region_params)
def test_relation_matches_interval_arithmetic(a, b):
    obj = DataObject(name="p", num_elements=100)
    ra, rb = Region(obj, *a), Region(obj, *b)
    sa = set(range(ra.start, ra.end))
    sb = set(range(rb.start, rb.end))
    rel = relation(ra, rb)
    if rel == "equal":
        assert sa == sb
    elif rel == "disjoint":
        assert not (sa & sb)
    else:
        assert (sa & sb) and sa != sb


@settings(max_examples=100, deadline=None)
@given(a=region_params)
def test_relation_reflexive_equal(a):
    obj = DataObject(name="p", num_elements=100)
    ra = Region(obj, *a)
    assert relation(ra, ra) == "equal"
