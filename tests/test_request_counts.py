"""Store round trips per query on a zero-latency RemoteStore.

On object storage a query's latency follows its request count, so these
pin the read protocol: a box open is two requests (head, then the Bloom
and metadata sections together), the Capsules one search term's checks
locate are fetched in one coalesced pass, and the per-query ledger still
reconciles with the store's ranged-read counter byte for byte.
"""

import pytest

from repro.blockstore.blobsource import StoreBlobSource, coalesce_extents
from repro.blockstore.remote import RemoteStore
from repro.blockstore.store import ArchiveStore, MemoryStore
from repro.capsule.box import PREFETCH_GAP, BoxTOC, CapsuleBox, _capsules_of
from repro.common.errors import FormatError
from repro.core.config import LogGrepConfig
from repro.core.loggrep import LogGrep
from repro.obs import get_registry
from repro.query.engine import BlockEngine
from repro.query.language import parse_query
from repro.workloads import spec_by_name
from tests.conftest import make_mixed_lines

_RANGE_READS = get_registry().counter("loggrep_store_range_reads_total")
_RANGE_READ_BYTES = get_registry().counter("loggrep_store_range_read_bytes_total")


def _box_blob(version: int) -> bytes:
    lg = LogGrep(config=LogGrepConfig())
    lg.compress(make_mixed_lines(200, seed=5))
    (name,) = lg.store.names()
    return CapsuleBox.deserialize(lg.store.get(name)).serialize(version=version)


def _remote_with(blob: bytes) -> RemoteStore:
    store = RemoteStore()
    store.put("box", blob)
    return store


class TestGetHead:
    def test_base_store_returns_head_and_size(self, tmp_path):
        store = ArchiveStore(str(tmp_path))
        store.put("b", bytes(range(100)))
        reads = _RANGE_READS.value()
        assert store.get_head("b", 32) == (bytes(range(32)), 100)
        assert _RANGE_READS.value() == reads + 1

    def test_short_blob_returns_whole_blob(self):
        store = MemoryStore()
        store.put("b", b"abc")
        assert store.get_head("b", 32) == (b"abc", 3)

    def test_remote_bills_one_request(self):
        store = _remote_with(b"x" * 50)
        before = store.requests
        assert store.get_head("box", 32) == (b"x" * 32, 50)
        assert store.requests == before + 1

    def test_source_learns_size_from_head(self):
        store = _remote_with(b"0123456789")
        source = StoreBlobSource(store, "box")
        before = store.requests
        assert source.head(4) == b"0123"
        assert source.size() == 10
        assert source.bytes_read == 4
        assert store.requests == before + 1


class TestTwoRequestOpen:
    @pytest.mark.parametrize("version", [1, 2])
    def test_open_costs_two_requests(self, version):
        blob = _box_blob(version)
        store = _remote_with(blob)
        before = store.requests
        box = CapsuleBox.open(StoreBlobSource(store, "box"))
        assert store.requests - before == 2
        assert box == CapsuleBox.deserialize(blob)

    @pytest.mark.parametrize("version", [1, 2])
    def test_open_bloom_costs_two_requests(self, version):
        store = _remote_with(_box_blob(version))
        before = store.requests
        CapsuleBox.open_bloom(StoreBlobSource(store, "box"))
        assert store.requests - before == 2

    @pytest.mark.parametrize("version", [1, 2])
    def test_open_reads_head_and_sections_only(self, version):
        blob = _box_blob(version)
        source = StoreBlobSource(_remote_with(blob), "box")
        CapsuleBox.open(source)
        toc = BoxTOC.read(StoreBlobSource(_remote_with(blob), "box"))
        assert source.bytes_read == 32 + toc.bloom_len + toc.meta_len


class TestHeadPathValidation:
    def _open(self, blob: bytes) -> None:
        CapsuleBox.open(StoreBlobSource(_remote_with(blob), "box"))

    def test_blob_shorter_than_header(self):
        blob = _box_blob(2)
        for cut in (0, 4, 13, 20, 31):
            with pytest.raises(FormatError):
                self._open(blob[:cut])

    def test_bad_magic(self):
        with pytest.raises(FormatError, match="magic"):
            self._open(b"XXXX" + _box_blob(2)[4:])

    def test_toc_size_mismatch(self):
        blob = _box_blob(2)
        with pytest.raises(FormatError, match="blob size"):
            self._open(blob + b"\0")
        with pytest.raises(FormatError, match="blob size"):
            self._open(blob[:-1])

    def test_truncated_metadata(self):
        blob = _box_blob(1)
        toc = BoxTOC.read(StoreBlobSource(_remote_with(blob), "box"))
        with pytest.raises(FormatError, match="metadata"):
            self._open(blob[: toc.meta_off + toc.meta_len // 2])


class TestOneFetchPerSearchTerm:
    @pytest.mark.parametrize(
        "term", ["ERROR", "SUC#1634", "bk.3", "file: /root/usr", "state: ERR#16*", "T10"]
    )
    def test_term_reads_are_one_coalesced_pass(self, term):
        store = RemoteStore()
        LogGrep(store=store, config=LogGrepConfig()).compress(
            make_mixed_lines(800, seed=9)
        )
        (name,) = store.names()
        source = StoreBlobSource(store, name)
        box = CapsuleBox.open(source)
        capsules = [
            capsule
            for group in box.groups
            for vector in group.vectors
            for capsule in _capsules_of(vector)
        ]
        reads = []
        read = source.read

        def recording_read(off, length):
            reads.append((off, length))
            return read(off, length)

        source.read = recording_read
        BlockEngine(box).search_string_rows(
            parse_query(term).disjuncts[0][0].search
        )
        fetched = [c.payload_extent for c in capsules if c.is_fetched]
        # Every read is one run of a single coalescing pass over exactly
        # the Capsules the term touched: no Capsule was fetched alone.
        assert reads == coalesce_extents(fetched, gap=PREFETCH_GAP)


#: Requests of the Table-1 query over a fresh handle, 3000 lines in
#: 64 KiB blocks, lazy I/O pinned (the protocol under test).  A box open used to cost five requests (size, two TOC
#: reads, Bloom, metadata) and every surviving Capsule one more: 74 /
#: 232 / 53 requests.  Two-request opens and one coalesced fetch per
#: search term give 37 / 158 / 32; the bounds leave a little headroom.
TABLE1_REQUEST_BOUNDS = {"Log A": 45, "Log T": 185, "Hdfs": 40}


class TestTable1RoundTrips:
    @pytest.mark.parametrize("dataset", sorted(TABLE1_REQUEST_BOUNDS))
    def test_requests_below_bound(self, dataset):
        spec = spec_by_name(dataset)
        lines = spec.generate(3000)
        config = LogGrepConfig(block_bytes=64 * 1024, lazy_io=True)
        store = RemoteStore()
        LogGrep(store=store, config=config).compress(lines)
        fresh = LogGrep(store=store, config=config)
        before = store.requests
        result = fresh.grep(spec.query)
        assert store.requests - before <= TABLE1_REQUEST_BOUNDS[dataset]
        eager = LogGrep(
            store=store, config=LogGrepConfig(block_bytes=64 * 1024, lazy_io=False)
        )
        assert result.lines == eager.grep(spec.query).lines

    def test_ledger_reconciles_with_range_reads(self):
        spec = spec_by_name("Log A")
        store = RemoteStore()
        config = LogGrepConfig(block_bytes=64 * 1024, lazy_io=True)
        LogGrep(store=store, config=config).compress(spec.generate(3000))
        fresh = LogGrep(store=store, config=config)
        before = _RANGE_READ_BYTES.value()
        result = fresh.explain_analyze(spec.query)
        delta = _RANGE_READ_BYTES.value() - before
        assert delta > 0
        assert result.ledger.totals().read_bytes == delta
