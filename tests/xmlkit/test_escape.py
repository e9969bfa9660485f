"""``escape``/``quoteattr`` give the bytes ``xml.sax.saxutils`` gives."""

from xml.sax import saxutils

from hypothesis import given
from hypothesis import strategies as st

from repro.xmlkit.serialize import escape, quoteattr

# the characters either function treats specially, and some it does not
_text = st.text(alphabet="&<>\"'\n\r\t a;#é☃\x00")


@given(_text)
def test_escape_matches_saxutils(data):
    assert escape(data) == saxutils.escape(data)


@given(_text)
def test_quoteattr_matches_saxutils(data):
    assert quoteattr(data) == saxutils.quoteattr(data)


def test_each_quoting_case():
    for data in ("plain", 'say "hi"', "it's", "it's \"both\"", "a\nb\rc\td", "&<>"):
        assert quoteattr(data) == saxutils.quoteattr(data)
