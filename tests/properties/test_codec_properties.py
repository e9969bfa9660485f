"""Property-based tests: codecs must be lossless inverses on their domains."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays, array_shapes

from repro.encoding.base64codec import (
    decode_array_base64,
    decode_array_base64_pure,
    encode_array_base64,
    encode_array_base64_pure,
)
from repro.encoding.xdr import pack_value, unpack_value
from repro.soap.values import element_to_value, value_to_element
from repro.xmlkit import parse, to_string

# -- value strategies ---------------------------------------------------------

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=50),
    st.binary(max_size=50),
)

values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(max_size=10), children, max_size=5),
    ),
    max_leaves=10,
)

float_arrays = arrays(
    dtype=np.float64,
    shape=array_shapes(max_dims=3, max_side=8),
    elements=st.floats(allow_nan=False, allow_infinity=False, width=64),
)

int_arrays = arrays(
    dtype=np.int64,
    shape=array_shapes(max_dims=2, max_side=10),
    elements=st.integers(min_value=-(2**62), max_value=2**62),
)

# XML 1.0 cannot carry control characters or surrogates, and parsers
# normalise \r — so the SOAP domain is restricted to clean text.
xml_text = st.text(
    alphabet=st.characters(min_codepoint=0x20, max_codepoint=0xD7FF),
    max_size=50,
)

xml_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.floats(allow_nan=False, allow_infinity=False),
    xml_text,
    st.binary(max_size=50),
)

xml_values = st.recursive(
    xml_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(xml_text, children, max_size=5),
    ),
    max_leaves=10,
)


def assert_equivalent(a, b):
    """Deep equality treating numeric ndarrays and uniform lists alike."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        assert np.array_equal(np.asarray(a), np.asarray(b))
    elif isinstance(a, dict):
        assert isinstance(b, dict) and a.keys() == b.keys()
        for key in a:
            assert_equivalent(a[key], b[key])
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_equivalent(x, y)
    else:
        assert a == b


# -- XDR ------------------------------------------------------------------------


class TestXdrProperties:
    @given(values)
    @settings(max_examples=200)
    def test_tagged_value_round_trip(self, value):
        assert_equivalent(unpack_value(pack_value(value)), _canonical(value))

    @given(float_arrays)
    def test_float_array_round_trip(self, array):
        out = unpack_value(pack_value(array))
        assert out.dtype == array.dtype
        assert out.shape == array.shape
        assert np.array_equal(out, array)

    @given(int_arrays)
    def test_int_array_round_trip(self, array):
        out = unpack_value(pack_value(array))
        assert np.array_equal(out, array)

    @given(values)
    def test_encoding_is_deterministic(self, value):
        assert pack_value(value) == pack_value(value)

    @given(st.binary(max_size=200))
    @example(b"\0\0\0\4\0\0\0\1\xff\0\0\0")  # a string that is not UTF-8
    @example(b"\0\0\0\7\0\0\0\1\0\0\0\1\xff\0\0\0\0\0\0\0")  # a dict key that is not
    def test_decoder_never_crashes_ungracefully(self, garbage):
        """Arbitrary bytes either decode or raise EncodingError — nothing else."""
        from repro.util.errors import EncodingError

        try:
            unpack_value(garbage)
        except EncodingError:
            pass


def _canonical(value):
    """What the XDR tagged layer is allowed to normalise: uniform numeric
    lists become ndarrays; tuples become lists."""
    if isinstance(value, tuple):
        value = list(value)
    if isinstance(value, list):
        if value and all(isinstance(v, float) for v in value):
            return np.asarray(value, dtype=np.float64)
        if value and all(isinstance(v, int) and not isinstance(v, bool) for v in value):
            if all(-(2**63) <= v < 2**63 for v in value):
                return np.asarray(value, dtype=np.int64)
        return [_canonical(v) for v in value]
    if isinstance(value, dict):
        return {k: _canonical(v) for k, v in value.items()}
    if isinstance(value, bytearray):
        return bytes(value)
    return value


# -- base64 -----------------------------------------------------------------------


class TestBase64Properties:
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=100))
    def test_round_trip(self, values):
        out = decode_array_base64(encode_array_base64(values))
        assert np.array_equal(out, np.asarray(values, dtype=np.float64))

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=50))
    def test_fast_path_equals_reference(self, values):
        fast = encode_array_base64(values)
        pure = encode_array_base64_pure(values)
        assert fast == pure
        assert list(decode_array_base64(fast)) == decode_array_base64_pure(pure)

    @given(st.lists(st.integers(min_value=0, max_value=2**32 - 1), max_size=60))
    def test_uint32_domain(self, values):
        out = decode_array_base64(encode_array_base64(values, "uint32"), "uint32")
        assert list(out) == values


# -- SOAP value encoding ---------------------------------------------------------------


class TestSoapValueProperties:
    @given(xml_values)
    @settings(max_examples=100)
    def test_round_trip_through_real_xml(self, value):
        element = value_to_element("v", value)
        reparsed = parse(to_string(element))
        assert_equivalent(element_to_value(reparsed), _canonical_soap(value))

    @given(float_arrays)
    @settings(max_examples=50)
    def test_ndarray_base64_mode(self, array):
        element = value_to_element("v", array, "base64")
        out = element_to_value(parse(to_string(element)))
        assert np.array_equal(out, array)

    @given(
        arrays(
            dtype=np.float64,
            shape=st.integers(min_value=0, max_value=30),
            elements=st.floats(allow_nan=False, allow_infinity=False, width=64),
        )
    )
    @settings(max_examples=50)
    def test_ndarray_items_mode_exact(self, array):
        element = value_to_element("v", array, "items")
        out = element_to_value(parse(to_string(element)))
        assert np.array_equal(np.asarray(out, dtype=np.float64).ravel(), array)


def _canonical_soap(value):
    """SOAP layer normalisations are the same as XDR's."""
    return _canonical(value)


class TestSoapRejectsXmlInvalidText:
    @given(st.text(alphabet="\x00\x01\x08\x0b\x1f", min_size=1, max_size=5))
    def test_control_characters_rejected_at_encode_time(self, bad):
        from repro.util.errors import EncodingError
        import pytest

        with pytest.raises(EncodingError, match="XML 1.0"):
            value_to_element("v", bad)
