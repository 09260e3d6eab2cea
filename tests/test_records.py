"""Domain annotations: named tuples, immutable and equal and hashed by their
fields.  The corpus kinds' layout is pinned on the columns, in test_corpus."""

import pytest

from domcred.annotate import DomainAnnotation

from helpers import annotation

FIELDS = ("label", "score", "confident")


# a record, a field to change and a new value
RECORDS = [(annotation("Sports", 0.5, True), "score", 0.25)]


@pytest.mark.parametrize("record, name, value", RECORDS, ids=[DomainAnnotation.__name__])
class TestNamedTupleRecords:
    def test_fields_and_no_instance_dict(self, record, name, value):
        assert type(record)._fields == FIELDS
        assert tuple(record) == tuple(getattr(record, f) for f in record._fields)
        assert type(record).__slots__ == ()
        assert not hasattr(record, "__dict__")

    def test_assignment_raises(self, record, name, value):
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            record.not_a_field = 1

    def test_equality_and_hash_follow_the_fields(self, record, name, value):
        twin = type(record)._make(tuple(record))
        assert twin == record and twin is not record
        assert hash(twin) == hash(record)
        assert len({record, twin}) == 1
        changed = record._replace(**{name: value})
        assert changed != record
        assert getattr(changed, name) == value
        assert getattr(record, name) != value

    def test_asdict_holds_every_field(self, record, name, value):
        payload = record._asdict()
        assert list(payload) == list(FIELDS)
        assert payload[name] == getattr(record, name)
