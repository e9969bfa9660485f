"""The offset-walking tagged-XDR kernel, held to the walk it replaced.

``_reference_walk`` is the per-primitive walk that used to live in
``repro.encoding.xdr``.  The differential tests require the kernel to emit
the same bytes, decode to equal values of equal types, and, on every
truncation and on byte mutations of every position of a packed message, to
either return what the reference returns or raise the same
:class:`EncodingError` with the same text.  A change to the wire format
cannot pass here as a speed-up.
"""

import enum
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.encoding import xdr
from repro.encoding.xdr import (
    XdrDecoder,
    make_call_prefix,
    pack_call,
    pack_call_from_prefix,
    pack_reply,
    pack_value,
    unpack_call,
    unpack_reply,
    unpack_value,
)
from repro.util.errors import EncodingError
from tests.encoding import _reference_walk as ref
from tests.properties.test_codec_properties import scalars

# -- strategies -----------------------------------------------------------------


class _Flag(int):
    """An ``int`` subclass: must take the int branch, not fall through."""


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2**40


class _Name(str):
    pass


class _Record(dict):
    pass


@st.composite
def _ndarrays(draw):
    dtype = np.dtype(draw(st.sampled_from(sorted(xdr._DTYPE_CODES))))
    shape = draw(
        st.sampled_from([(), (0,), (1,), (5,), (2, 3), (0, 3), (2, 0, 2), (2, 3, 2), (1, 1, 1)])
    )
    count = int(np.prod(shape, dtype=np.int64))
    raw = draw(st.binary(min_size=count * dtype.itemsize, max_size=count * dtype.itemsize))
    array = np.frombuffer(raw, dtype=dtype).reshape(shape)
    if draw(st.booleans()) and array.ndim:
        array = array[::-1]  # not C-contiguous: the encoder must still copy it out right
    return array


_numpy_scalars = st.one_of(
    st.integers(-(2**31), 2**31 - 1).map(np.int32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(0, 255).map(np.uint8),
    st.floats(width=32).map(np.float32),
    st.floats().map(np.float64),  # a float subclass: the double branch
    st.complex_numbers(allow_nan=False).map(np.complex128),
)

_subclassed = st.one_of(
    st.integers(-(2**63), 2**63 - 1).map(_Flag),
    st.sampled_from(list(_Level)),
    st.text(max_size=8).map(_Name),
)

_buffers = st.builds(
    lambda wrap, raw: wrap(raw),
    st.sampled_from([bytearray, memoryview, lambda raw: memoryview(bytearray(raw))]),
    st.binary(max_size=20),
)

# keys whose UTF-8 length covers 0-3 mod 4, ASCII and not
_keys = st.text(alphabet="aé☃\U0001f600k_", max_size=6)

_leaves = st.one_of(
    scalars,
    st.floats(),  # NaN and the infinities too
    _ndarrays(),
    _numpy_scalars,
    _subclassed,
    _buffers,
    st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=5),  # -> int64 array
    st.lists(st.floats(), min_size=1, max_size=5),  # -> float64 array
)

kernel_values = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_keys, children, max_size=4),
        st.dictionaries(_keys, children, max_size=3).map(_Record),
    ),
    max_leaves=8,
)


def _same(a, b) -> bool:
    """Equal values of equal types, arrays by dtype, shape and bytes, NaN == NaN."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, dict):
        return list(a) == list(b) and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, float):
        return struct.pack(">d", a) == struct.pack(">d", b)
    return a == b


def _outcome(decode, data):
    try:
        return decode(data)
    except EncodingError as exc:  # anything else escapes and fails the test
        return exc


def _agree(kernel_decode, reference_decode, data) -> None:
    got, want = _outcome(kernel_decode, data), _outcome(reference_decode, data)
    if isinstance(want, EncodingError):
        assert isinstance(got, EncodingError), (data, got, want)
        assert str(got) == str(want), data
    else:
        assert _same(got, want), (data, got, want)


_MASKS = (0x01, 0x04, 0x80, 0xFF)


def _damaged(packed: bytes):
    """Every truncation of *packed*, then each byte flipped four ways."""
    for cut in range(len(packed)):
        yield packed[:cut]
    for index in range(len(packed)):
        for mask in _MASKS:
            bad = bytearray(packed)
            bad[index] ^= mask
            yield bytes(bad)


# -- differential: values ---------------------------------------------------------


class TestKernelAgainstReference:
    @given(kernel_values)
    @settings(deadline=None)
    def test_same_bytes_and_same_decode(self, value):
        packed = pack_value(value)
        assert packed == ref.pack_value(value)
        assert _same(unpack_value(packed), ref.unpack_value(packed))

    @given(kernel_values)
    @settings(deadline=None)
    def test_damaged_messages_agree(self, value):
        for data in _damaged(pack_value(value)):
            _agree(unpack_value, ref.unpack_value, data)

    @given(st.binary(max_size=120))
    @example(b"\0\0\0\4\0\0\0\1\xff\0\0\0")  # a string that is not UTF-8
    @example(b"\0\0\0\7\0\0\0\1\0\0\0\1\xff\0\0\0\0\0\0\0")  # a dict key that is not
    @example(struct.pack(">iIIII", 8, 4, 0, 3, 0) + b"abc\0")  # 3 bytes of float64
    @example(struct.pack(">iII", 8, 4, 3) + struct.pack(">4I", 0, 2**32 - 1, 2**32 - 1, 0))
    def test_arbitrary_bytes_agree(self, garbage):
        _agree(unpack_value, ref.unpack_value, garbage)

    @pytest.mark.parametrize("value", [2**63, -(2**63) - 1, _Flag(2**70)])
    def test_out_of_range_int_is_the_same_fault(self, value):
        with pytest.raises(EncodingError) as ours:
            pack_value({"n": value})
        with pytest.raises(EncodingError) as theirs:
            ref.pack_value({"n": value})
        assert str(ours.value) == str(theirs.value)

    @pytest.mark.parametrize(
        "value",
        [object(), {1: "x"}, {"s": {1, 2}}, np.array(["a"]), np.bool_(True), [1, 2**64], 1j],
    )
    def test_unencodable_values_are_the_same_fault(self, value):
        try:
            want = ref.pack_value(value)
        except EncodingError as exc:
            with pytest.raises(EncodingError) as ours:
                pack_value(value)
            assert str(ours.value) == str(exc)
        else:
            assert pack_value(value) == want

    def test_float32_tag_decodes(self):
        # no encoder emits tag 9; the decoder has always taken it
        data = struct.pack(">if", 9, 1.5)
        assert unpack_value(data) == ref.unpack_value(data) == 1.5


# -- differential: RPC messages -----------------------------------------------------

_names = st.text(alphabet="abé☃/._-", max_size=9)
_args = st.lists(kernel_values, max_size=3)


class TestRpcMessagesAgainstReference:
    @given(_names, _names, _args)
    @settings(deadline=None)
    def test_call(self, target, operation, args):
        packed = pack_call(target, operation, args)
        assert packed == ref.pack_call(target, operation, args)
        assert packed == bytes(pack_call_from_prefix(make_call_prefix(target, operation), args))
        assert packed == pack_call(target, operation, tuple(args))
        assert _same(list(unpack_call(packed)), list(ref.unpack_call(packed)))

    # the head is what is new here: arguments take the walk damaged above
    @given(_names, _names, st.lists(scalars, max_size=2))
    @settings(deadline=None)
    def test_damaged_call(self, target, operation, args):
        for data in _damaged(pack_call(target, operation, args)):
            _agree(
                lambda d: list(unpack_call(d)), lambda d: list(ref.unpack_call(d)), data
            )

    @given(kernel_values)
    @settings(deadline=None)
    def test_reply(self, result):
        packed = pack_reply(result)
        assert packed == ref.pack_reply(result)
        assert _same(unpack_reply(packed), ref.unpack_reply(packed))

    @given(scalars)
    @settings(deadline=None)
    def test_damaged_reply(self, result):
        for data in _damaged(pack_reply(result)):
            _agree(unpack_reply, ref.unpack_reply, data)

    @given(st.text(max_size=30))
    def test_fault_reply(self, fault):
        packed = pack_reply(fault=fault)
        assert packed == ref.pack_reply(fault=fault)
        with pytest.raises(EncodingError, match="remote fault: "):
            unpack_reply(packed)
        for data in _damaged(packed):
            _agree(unpack_reply, ref.unpack_reply, data)


# -- the depth cap --------------------------------------------------------------------

CAP = xdr._MAX_DEPTH


def _nested_frame(depth: int) -> bytes:
    """*depth* one-element lists inside one another around a void."""
    return struct.pack(">iI", 6, 1) * depth + struct.pack(">i", 0)


def _nested_value(depth: int, leaf=None):
    for _ in range(depth):
        leaf = [leaf]
    return leaf


class TestDepthCap:
    def test_frame_at_the_cap_decodes(self):
        assert unpack_value(_nested_frame(CAP)) == _nested_value(CAP)

    def test_frame_past_the_cap_is_a_typed_fault(self):
        with pytest.raises(EncodingError, match="nests more than"):
            unpack_value(_nested_frame(CAP + 1))

    def test_five_thousand_deep_frame_is_a_typed_fault(self):
        with pytest.raises(EncodingError, match="nests more than"):
            unpack_value(_nested_frame(5000))

    def test_dicts_count_toward_the_cap(self):
        frame = struct.pack(">iII", 7, 1, 1) + b"k\0\0\0"
        assert unpack_value(frame * CAP + struct.pack(">i", 0)) is not None
        with pytest.raises(EncodingError, match="nests more than"):
            unpack_value(frame * (CAP + 1) + struct.pack(">i", 0))

    def test_call_args_at_and_past_the_cap(self):
        head = make_call_prefix("t", "op") + struct.pack(">I", 1)
        assert unpack_call(head + _nested_frame(CAP))[2] == [_nested_value(CAP)]
        with pytest.raises(EncodingError, match="nests more than"):
            unpack_call(head + _nested_frame(CAP + 1))

    def test_reply_at_and_past_the_cap(self):
        head = struct.pack(">i", 1)
        assert unpack_reply(head + _nested_frame(CAP)) == _nested_value(CAP)
        with pytest.raises(EncodingError, match="nests more than"):
            unpack_reply(head + _nested_frame(CAP + 1))

    def test_encoder_at_and_past_the_cap(self):
        assert pack_value(_nested_value(CAP)) == _nested_frame(CAP)
        assert pack_reply(_nested_value(CAP)) == struct.pack(">i", 1) + _nested_frame(CAP)
        for pack in (pack_value, pack_reply, lambda v: pack_call("t", "op", [v])):
            with pytest.raises(EncodingError, match="nests more than"):
                pack(_nested_value(CAP + 1))

    def test_numeric_lists_are_arrays_not_containers(self):
        # the innermost [1, 2] is one ndarray value, so CAP lists around it fit
        leaf = unpack_value(pack_value(_nested_value(CAP, leaf=[1, 2])))
        for _ in range(CAP):
            (leaf,) = leaf
        assert _same(leaf, np.array([1, 2], dtype=np.int64))

    def test_cyclic_values_are_a_typed_fault(self):
        loop: list = []
        loop.append(loop)
        knot: dict = {}
        knot["self"] = knot
        for value in (loop, knot):
            with pytest.raises(EncodingError, match="nests more than"):
                pack_value(value)


# -- invalid UTF-8 ----------------------------------------------------------------------


class TestInvalidUtf8:
    BAD_STRING = b"\0\0\0\4\0\0\0\1\xff\0\0\0"
    BAD_KEY = b"\0\0\0\7\0\0\0\1\0\0\0\1\xff\0\0\0\0\0\0\0"

    @pytest.mark.parametrize("frame", [BAD_STRING, BAD_KEY])
    def test_value_is_a_typed_fault_chained_from_the_codec_error(self, frame):
        with pytest.raises(EncodingError, match="invalid UTF-8") as caught:
            unpack_value(frame)
        assert isinstance(caught.value.__cause__, UnicodeDecodeError)

    def test_primitive_decoder_is_a_typed_fault(self):
        with pytest.raises(EncodingError, match="invalid UTF-8") as caught:
            XdrDecoder(self.BAD_STRING[4:]).unpack_string()
        assert isinstance(caught.value.__cause__, UnicodeDecodeError)

    def test_call_names_and_fault_text(self):
        bad = self.BAD_STRING[4:]
        with pytest.raises(EncodingError, match="invalid UTF-8"):
            unpack_call(struct.pack(">i", 0) + bad + bad + struct.pack(">I", 0))
        with pytest.raises(EncodingError, match="invalid UTF-8"):
            unpack_reply(struct.pack(">i", 2) + bad)


# -- nothing decoded aliases the input -------------------------------------------------------


class TestNoAliasing:
    def test_overwriting_the_buffer_changes_no_decoded_value(self):
        value = {
            "text": "héllo ☃" * 10,
            "raw": bytes(range(64)),
            "grid": np.arange(24, dtype=np.float64).reshape(2, 3, 4),
            "bytes8": np.arange(7, dtype=np.uint8),
            "scalar": np.float32(2.5),
            "items": ["a", b"b", [1.5, 2.5], {"inner": "x" * 33}],
        }
        buffer = bytearray(pack_value(value))
        decoded = unpack_value(buffer)
        call = bytearray(pack_call("target", "operation", [value]))
        target, operation, args = unpack_call(memoryview(call))
        reply = bytearray(pack_reply(value))
        result = unpack_reply(reply)
        for scratch in (buffer, call, reply):
            scratch[:] = b"\xff" * len(scratch)
        want = ref.unpack_value(pack_value(value))
        assert _same(decoded, want)
        assert (target, operation) == ("target", "operation") and _same(args, [want])
        assert _same(result, want)
        assert decoded["grid"].flags.owndata or decoded["grid"].base is not None
        assert decoded["grid"].flags.writeable

    def test_any_buffer_type_decodes(self):
        packed = pack_value({"k": [1, "two", 3.0]})
        for data in (packed, bytearray(packed), memoryview(packed), memoryview(bytearray(packed))):
            assert unpack_value(data) == {"k": [1, "two", 3.0]}
