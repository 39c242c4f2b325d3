"""Tests for the location/version directory."""

import pytest

from repro.memory import (
    DataObject,
    Directory,
    DeviceSpace,
    HostSpace,
    PartialOverlapError,
    Region,
)


def make_world():
    host = HostSpace("master.host", 0, functional=False, canonical=True)
    gpu0 = DeviceSpace("gpu0", 0, 0, functional=False)
    gpu1 = DeviceSpace("gpu1", 0, 1, functional=False)
    remote = HostSpace("node1.host", 1, functional=False)
    return host, gpu0, gpu1, remote, Directory(home=host)


def region():
    return DataObject(name="x", num_elements=100).whole


def test_fresh_region_lives_at_home():
    host, *_rest, d = make_world()
    r = region()
    assert d.holders(r) == {host}
    assert d.version(r) == 0


def test_record_copy_adds_holder():
    host, gpu0, _g1, _rem, d = make_world()
    r = region()
    d.record_copy(r, gpu0)
    assert d.holders(r) == {host, gpu0}
    assert d.is_current(r, gpu0)
    assert d.version(r) == 0


def test_record_write_invalidates_other_holders():
    host, gpu0, gpu1, _rem, d = make_world()
    r = region()
    d.record_copy(r, gpu0)
    d.record_copy(r, gpu1)
    d.record_write(r, gpu0)
    assert d.holders(r) == {gpu0}
    assert d.version(r) == 1
    assert not d.is_current(r, host)


def test_record_drop_removes_holder():
    host, gpu0, _g1, _rem, d = make_world()
    r = region()
    d.record_copy(r, gpu0)
    d.record_drop(r, gpu0)
    assert d.holders(r) == {host}


def test_dropping_last_copy_is_fatal():
    _h, gpu0, _g1, _rem, d = make_world()
    r = region()
    d.record_write(r, gpu0)
    with pytest.raises(RuntimeError, match="lose data"):
        d.record_drop(r, gpu0)


def test_drop_of_non_holder_is_noop():
    host, gpu0, _g1, _rem, d = make_world()
    r = region()
    d.record_drop(r, gpu0)
    assert d.holders(r) == {host}


def test_nodes_with_gives_hierarchical_view():
    host, gpu0, _g1, remote, d = make_world()
    r = region()
    d.record_copy(r, remote)
    assert d.nodes_with(r) == {0, 1}
    d.record_write(r, remote)
    assert d.nodes_with(r) == {1}


def test_partial_overlap_detected_across_uses():
    _h, _g0, _g1, _rem, d = make_world()
    obj = DataObject(name="x", num_elements=100)
    d.entry(Region(obj, 0, 10))
    d.entry(Region(obj, 20, 10))  # disjoint: fine
    d.entry(Region(obj, 0, 10))   # equal: fine
    with pytest.raises(PartialOverlapError):
        d.entry(Region(obj, 5, 10))


def test_len_counts_entries():
    *_spaces, d = make_world()
    obj = DataObject(name="x", num_elements=100)
    d.entry(Region(obj, 0, 10))
    d.entry(Region(obj, 10, 10))
    assert len(d) == 2


def test_versions_are_monotonic():
    _h, gpu0, gpu1, _rem, d = make_world()
    r = region()
    versions = [d.version(r)]
    for space in (gpu0, gpu1, gpu0):
        d.record_write(r, space)
        versions.append(d.version(r))
    assert versions == sorted(versions)
    assert len(set(versions)) == len(versions)
