"""Byte edits for the reader contract tests.

Each input reader, fed a valid input with a few bytes changed, cut or
inserted, must return a value or raise an ``RdgaugeError`` subclass,
never another exception. ``edits`` draws the edits and ``mutate``
applies them.
"""

from hypothesis import strategies as st

# Bytes that change a line's structure or its decoding.
_TOKENS = (b"\n", b"\r", b"\r\n", b'"', b",", b":", b"{", b"}", b"[", b"]",
           b"\\", b"-", b"e999", b"NaN", b"Infinity", b"null", b"true",
           b"\x00", b"\xe9", b"\xc3", b"\xff\xfe")

edits = st.lists(st.one_of(
    st.tuples(st.just("set"), st.integers(0, 10 ** 6), st.integers(0, 255)),
    st.tuples(st.just("cut"), st.integers(0, 10 ** 6), st.integers(1, 16)),
    st.tuples(st.just("insert"), st.integers(0, 10 ** 6),
              st.one_of(st.sampled_from(_TOKENS),
                        st.binary(min_size=1, max_size=8)))),
    min_size=1, max_size=3)


def mutate(data: bytes, changes) -> bytes:
    """``data`` with each of ``changes`` (drawn from ``edits``) applied,
    its position taken modulo the length."""
    out = bytearray(data)
    for kind, at, arg in changes:
        at %= len(out) + 1
        if kind == "set":
            out[at:at + 1] = bytes([arg])
        elif kind == "cut":
            del out[at:at + arg]
        else:
            out[at:at] = arg
    return bytes(out)
