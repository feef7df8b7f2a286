"""Corruption fuzzing: every malformed ``.rrec`` input is a typed error.

The reader's contract is absolute -- truncation, bit flips anywhere (magic,
versions, field table, rows, string table, CRC), foreign files, zero-length
files and trailing garbage all raise
:class:`~repro.records.format.RecordFormatError` during construction, and
the result cache maps that to a clean miss.  No code path ever yields a
garbage record.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import ResultCache
from repro.records import RecordFile, RecordFormatError, read_records, write_records
from repro.records.format import HEADER_STRUCT, MAGIC
from tests.records.test_format import _record

FP = "ab" + "0" * 62


@pytest.fixture()
def sample(tmp_path):
    """A small valid file plus its bytes."""
    path = write_records(
        tmp_path / "sample.rrec",
        [_record(), _record(fidelity=0.75, scenario="other")],
        tag=FP,
    )
    return path, path.read_bytes()


def _expect_reject(tmp_path, blob: bytes):
    path = tmp_path / "mutant.rrec"
    path.write_bytes(blob)
    with pytest.raises(RecordFormatError):
        RecordFile(path)


class TestCorruptionMatrix:
    def test_zero_length_file(self, tmp_path):
        _expect_reject(tmp_path, b"")

    def test_foreign_file(self, tmp_path):
        _expect_reject(tmp_path, b'{"records": []}\n' * 8)

    def test_bad_magic(self, tmp_path, sample):
        _, blob = sample
        _expect_reject(tmp_path, b"XREC" + blob[4:])

    def test_unknown_format_version(self, tmp_path, sample):
        _, blob = sample
        mutated = blob[:4] + struct.pack("<H", 999) + blob[6:]
        _expect_reject(tmp_path, mutated)

    def test_unknown_schema_version(self, tmp_path, sample):
        _, blob = sample
        mutated = blob[:6] + struct.pack("<H", 999) + blob[8:]
        _expect_reject(tmp_path, mutated)

    def test_bit_flipped_field_table(self, tmp_path, sample):
        _, blob = sample
        offset = HEADER_STRUCT.size + 2 + len(FP) + 1  # first field name byte
        mutated = bytearray(blob)
        mutated[offset] ^= 0x01
        _expect_reject(tmp_path, bytes(mutated))

    def test_bit_flipped_crc_footer(self, tmp_path, sample):
        _, blob = sample
        mutated = bytearray(blob)
        mutated[-1] ^= 0xFF
        _expect_reject(tmp_path, bytes(mutated))

    def test_truncated_tail(self, tmp_path, sample):
        _, blob = sample
        _expect_reject(tmp_path, blob[:-5])

    def test_trailing_garbage(self, tmp_path, sample):
        _, blob = sample
        _expect_reject(tmp_path, blob + b"\x00")

    def test_inflated_row_count(self, tmp_path, sample):
        _, blob = sample
        mutated = blob[:12] + struct.pack("<Q", 10**6) + blob[20:]
        _expect_reject(tmp_path, mutated)

    def test_every_single_byte_flip_is_rejected(self, tmp_path, sample):
        """Exhaustive: CRC-32 catches any single-byte error by design."""
        _, blob = sample
        for index in range(len(blob)):
            mutated = bytearray(blob)
            mutated[index] ^= 0xFF
            # A fresh path per flip: rewriting one file in place forces a
            # filesystem flush per iteration and dominates the test's time.
            path = tmp_path / f"flip{index}.rrec"
            path.write_bytes(bytes(mutated))
            with pytest.raises(RecordFormatError):
                RecordFile(path)


class TestCorruptionProperties:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_mutation_never_yields_garbage(self, tmp_path_factory, data):
        """Any random in-place mutation either still decodes to the original
        records (impossible here -- CRC -- but the property allows it) or
        raises the typed error.  It never returns different records."""
        tmp_path = tmp_path_factory.mktemp("mutate")
        records = [_record(), _record(m=3)]
        path = write_records(tmp_path / "p.rrec", records)
        blob = bytearray(path.read_bytes())
        index = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
        flip = data.draw(st.integers(min_value=1, max_value=255))
        blob[index] ^= flip
        path.write_bytes(bytes(blob))
        try:
            decoded = read_records(path)
        except RecordFormatError:
            return
        assert decoded == records  # pragma: no cover - CRC makes this unreachable

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_any_truncation_is_rejected(self, tmp_path_factory, data):
        tmp_path = tmp_path_factory.mktemp("truncate")
        path = write_records(tmp_path / "p.rrec", [_record()])
        blob = path.read_bytes()
        keep = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
        path.write_bytes(blob[:keep])
        with pytest.raises(RecordFormatError):
            RecordFile(path)


class TestCacheIntegration:
    def test_corrupt_binary_is_a_clean_miss(self, tmp_path):
        """Every corruption class surfaces as a miss once JSON is gone too."""
        cache = ResultCache(tmp_path)
        cache.put(FP, [_record()])
        cache.path_for(FP).unlink()
        path = cache.binary_path_for(FP)
        blob = path.read_bytes()
        for mutant in (b"", blob[: len(blob) // 2], b"XREC" + blob[4:], blob + b"!"):
            path.write_bytes(mutant)
            assert cache.get(FP) is None
            assert cache.get_binary(FP) is None
            assert FP not in cache
