"""Name validation and wildcard translation tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import InvalidNameError
from repro.core.naming import (
    MAX_NAME_LENGTH,
    has_wildcard,
    validate_name,
    wildcard_to_like,
)
from repro.db.sql.executor import like_to_regex


def query_regex(pattern):
    """The regex a wildcard query runs: its LIKE pattern, compiled."""
    return like_to_regex(wildcard_to_like(pattern))


class TestValidateName:
    def test_valid_names_pass_through(self):
        for name in ("lfn1", "a", "gsiftp://host/path/file.dat", "x" * 250):
            assert validate_name(name) == name

    def test_empty_rejected(self):
        with pytest.raises(InvalidNameError):
            validate_name("")

    def test_overlong_rejected(self):
        with pytest.raises(InvalidNameError):
            validate_name("x" * (MAX_NAME_LENGTH + 1))

    def test_nul_rejected(self):
        with pytest.raises(InvalidNameError):
            validate_name("a\x00b")

    def test_non_string_rejected(self):
        with pytest.raises(InvalidNameError):
            validate_name(123)

    def test_kind_in_message(self):
        with pytest.raises(InvalidNameError, match="logical name"):
            validate_name("", kind="logical name")


class TestWildcards:
    def test_has_wildcard(self):
        assert has_wildcard("lfn*")
        assert has_wildcard("lfn?")
        assert not has_wildcard("lfn1")

    def test_to_like(self):
        assert wildcard_to_like("lfn*") == "lfn%"
        assert wildcard_to_like("f?le*") == "f_le%"
        assert wildcard_to_like("plain") == "plain"

    def test_regex_star(self):
        rx = query_regex("lfn*")
        assert rx.fullmatch("lfn123")
        assert rx.fullmatch("lfn")
        assert not rx.fullmatch("xlfn")

    def test_regex_question(self):
        rx = query_regex("f?le")
        assert rx.fullmatch("file") and rx.fullmatch("fXle")
        assert not rx.fullmatch("fle")

    def test_regex_escapes_specials(self):
        rx = query_regex("a.b+c")
        assert rx.fullmatch("a.b+c")
        assert not rx.fullmatch("aXb+c")


@settings(max_examples=100)
@given(st.text(st.characters(codec="utf-8", exclude_characters="*?%_\x00"), max_size=20))
def test_property_plain_name_matches_itself(name):
    """Property: a wildcard-free pattern matches exactly itself."""
    assert query_regex(name).fullmatch(name)


@settings(max_examples=100)
@given(
    st.text("abc", max_size=8),
    st.text("abc", max_size=8),
)
def test_property_star_pattern_matches_any_expansion(prefix, filler):
    assert query_regex(prefix + "*").fullmatch(prefix + filler)
