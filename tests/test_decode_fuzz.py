"""Fuzz the decode boundaries: any bytes give a valid object or a DataError
subclass, never another exception.

Every test is derandomized, so tier-1 runs the same examples each time.
"""

import struct
import zlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from divrec.audio_io import read_wav
from divrec.errors import DataError
from divrec.features import CACHE_MAGIC, FEATURE_DIM, read_feature_cache
from divrec.manifest import MANIFEST_FIELDS, read_manifest
from divrec.network import MODEL_MAGIC, load_model

from testlib import chunk_bytes, riff_bytes

FUZZ = settings(max_examples=150, deadline=None, derandomize=True)

u8 = st.integers(0, 2**8 - 1)
u16 = st.integers(0, 2**16 - 1)
u32 = st.integers(0, 2**32 - 1)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


def _decode_or_reject(decode, path, data: bytes) -> None:
    path.write_bytes(data)
    try:
        decode(path)
    except DataError:
        pass


def _with_magic(magic: bytes):
    return st.binary(max_size=300).map(lambda body: magic + body)


# --- WAV ---

@st.composite
def wav_files(draw):
    fmt = struct.pack(
        "<HHIIHH",
        draw(st.sampled_from([1, 3])),  # PCM, float
        draw(st.integers(0, 3)),  # channels
        draw(st.sampled_from([0, 8000, 16000, 44100])),
        draw(u32),  # byte rate, ignored on read
        draw(u16),  # block align, ignored on read
        draw(st.sampled_from([8, 16])),
    )
    body = draw(st.binary(max_size=200))
    declared = draw(st.one_of(st.just(len(body)), u32))
    fmt_chunk = chunk_bytes(b"fmt ", fmt)
    data_chunk = chunk_bytes(b"data", body, declared)
    # an optional chunk of any id and declared size between fmt and data
    extra = draw(st.one_of(st.just(b""), st.builds(
        chunk_bytes, st.binary(min_size=4, max_size=4), st.binary(max_size=20), u32)))
    if draw(st.booleans()):
        return riff_bytes(fmt_chunk, extra, data_chunk)
    return riff_bytes(data_chunk, extra, fmt_chunk)


@FUZZ
@given(st.one_of(st.binary(max_size=300), _with_magic(b"RIFF\0\0\0\0WAVE"), wav_files()))
def test_read_wav_decodes_or_rejects(scratch, data):
    _decode_or_reject(read_wav, scratch, data)


# --- feature cache ---

@st.composite
def feature_caches(draw):
    records = draw(st.lists(st.tuples(u8, st.binary(max_size=8),
                                      st.binary(min_size=8 * FEATURE_DIM,
                                                max_size=8 * FEATURE_DIM)), max_size=3))
    count = draw(st.one_of(st.just(len(records)), st.integers(0, 2**64 - 1)))
    parts = [CACHE_MAGIC, struct.pack("<Q", count)]
    for label, sid, values in records:
        parts += [struct.pack("<BH", label, len(sid)), sid, values]
    return b"".join(parts)


@FUZZ
@given(st.one_of(st.binary(max_size=300), _with_magic(CACHE_MAGIC), feature_caches()))
def test_read_feature_cache_decodes_or_rejects(scratch, data):
    _decode_or_reject(read_feature_cache, scratch, data)


# --- model file ---

@st.composite
def model_payloads(draw):
    """A model payload of a few layers with any header fields."""
    layers = draw(st.lists(st.tuples(u32, u32, u8, st.floats()), max_size=3))
    parts = [struct.pack("<BB", draw(st.sampled_from([1, 2])), len(layers))]
    parts += [struct.pack("<IIBd", *layer) for layer in layers]
    parts.append(draw(st.binary(max_size=200)))
    return b"".join(parts)


def _with_crc(payload: bytes) -> bytes:
    return MODEL_MAGIC + payload + struct.pack("<I", zlib.crc32(payload))


@FUZZ
@given(st.one_of(
    st.binary(max_size=300),
    _with_magic(MODEL_MAGIC),
    st.one_of(st.binary(max_size=300), model_payloads()).map(_with_crc),
))
# a weight count (2**32 - 1)**2 beyond what numpy can index
@example(_with_crc(struct.pack("<BBIIBd", 1, 1, 2**32 - 1, 2**32 - 1, 1, float("nan"))))
def test_load_model_decodes_or_rejects(scratch, data):
    _decode_or_reject(load_model, scratch, data)


# --- text inputs ---

@FUZZ
@given(st.one_of(
    st.binary(max_size=300),
    st.binary(max_size=300).map(lambda body: ",".join(MANIFEST_FIELDS).encode() + b"\n" + body),
))
# a field longer than the csv module's limit of 131,072 characters
@example(",".join(MANIFEST_FIELDS).encode() + b"\n" + b"a" * 131_073 + b",Dhaka,spk1,\n")
def test_read_manifest_decodes_or_rejects(scratch, data):
    _decode_or_reject(read_manifest, scratch, data)
