"""The trace store: generated paper streams kept under ``<cache>/traces``.

A stream served from the store must equal a freshly generated one field
for field; a damaged entry must read as a miss and be regenerated, never
served; the key must move with everything that determines the stream.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.engine import ExecutionConfig, ResultCache
from repro.experiments import table2
from repro.obs import metrics as obs_metrics
from repro.tracegen import (
    BENCHMARKS,
    TraceCorpus,
    all_traces,
    data_trace,
    get_profile,
    instruction_trace,
    multiplexed_trace,
    trace_digest,
    trace_key,
)
from repro.tracegen import profiles as profiles_module

KINDS = ("instruction", "data", "multiplexed")
MAKERS = {
    "instruction": instruction_trace,
    "data": data_trace,
    "multiplexed": multiplexed_trace,
}
FIELDS = ("name", "kind", "width", "stride", "addresses", "sels")


def generated():
    """Addresses generated so far, over every benchmark and kind."""
    return sum(
        item["value"] for item in obs_metrics.snapshot("tracegen.addresses")["counters"]
    )


def hits():
    return sum(
        item["value"] for item in obs_metrics.snapshot("tracegen.cache_hits")["counters"]
    )


def assert_same(served, fresh):
    for field in FIELDS:
        assert getattr(served, field) == getattr(fresh, field), field


@pytest.mark.parametrize("length", [0, 300], ids=["default-length", "short"])
@pytest.mark.parametrize("kind", KINDS)
def test_served_trace_equals_fresh_one(kind, length, tmp_path):
    fresh = all_traces(kind, length)
    filled = all_traces(kind, length, store=TraceCorpus(tmp_path))
    before_generated, before_hits = generated(), hits()
    served = all_traces(kind, length, store=TraceCorpus(tmp_path))  # fresh handle
    assert generated() == before_generated  # nothing replayed
    assert hits() == before_hits + len(BENCHMARKS)
    for one_served, one_filled, one_fresh in zip(served, filled, fresh):
        assert_same(one_filled, one_fresh)
        assert_same(one_served, one_fresh)


def test_multiplexed_reuses_stored_instruction_stream(tmp_path):
    store = TraceCorpus(tmp_path)
    profile = get_profile("gzip")
    instruction_trace(profile, 400, store=store)
    before = obs_metrics.snapshot("tracegen.")
    multiplexed = multiplexed_trace(profile, 400, store=store)
    after = obs_metrics.snapshot("tracegen.")
    deltas = {
        (item["name"], item["labels"]["kind"]): item["value"]
        for item in obs_metrics.counter_deltas(before, after)
    }
    assert deltas == {
        ("tracegen.cache_hits", "instruction"): 1,
        ("tracegen.addresses", "multiplexed"): len(multiplexed),
    }
    assert_same(multiplexed, multiplexed_trace(profile, 400))


def _entry_path(store, trace):
    digest = trace_digest(trace.addresses, trace.sels)
    return store.root / digest[:2] / f"{digest}.trace"


def _flip_address_byte(path):
    raw = bytearray(path.read_bytes())
    body = raw.index(b"\n") + 1
    raw[body + 3] ^= 0x01
    path.write_bytes(bytes(raw))


def _truncate_body(path):
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 5])


def _forge_header(path):
    raw = path.read_bytes()
    line, _, body = raw.partition(b"\n")
    header = json.loads(line)
    header["n"] -= 1  # claims a shorter stream over the same bytes
    path.write_bytes(json.dumps(header).encode() + b"\n" + body)


def _forge_huge_count(path):
    """A header claiming far more cycles than the file (or memory) holds."""
    raw = path.read_bytes()
    line, _, body = raw.partition(b"\n")
    header = json.loads(line)
    header["n"] = 10**15
    path.write_bytes(json.dumps(header).encode() + b"\n" + body)


def _swap_body(path):
    """A well-formed header over another stream's body."""
    raw = path.read_bytes()
    line, _, body = raw.partition(b"\n")
    body = body[8:] + body[:8]  # rotate one address
    path.write_bytes(line + b"\n" + body)


@pytest.mark.parametrize(
    "tamper",
    [_flip_address_byte, _truncate_body, _forge_header, _forge_huge_count, _swap_body],
)
@pytest.mark.parametrize("kind", ["instruction", "multiplexed"])
def test_tampered_entry_is_a_miss_and_regenerated(kind, tamper, tmp_path):
    store = TraceCorpus(tmp_path)
    profile = get_profile("nova")
    maker = MAKERS[kind]
    fresh = maker(profile, 500)
    maker(profile, 500, store=store)
    tamper(_entry_path(store, fresh))
    key = trace_key(kind, profile, 500)
    assert store.load(key) is None
    before = generated()
    again = maker(profile, 500, store=store)
    assert generated() > before  # regenerated, not served
    assert_same(again, fresh)
    assert_same(store.load(key), fresh)  # and the entry is whole again


def test_damaged_name_entry_is_a_miss(tmp_path):
    store = TraceCorpus(tmp_path)
    profile = get_profile("latex")
    fresh = data_trace(profile, 300, store=store)
    key = trace_key("data", profile, 300)
    name_path = tmp_path / key[:2] / f"{key}.name"
    entry = json.loads(name_path.read_text())
    name_path.write_text(json.dumps({**entry, "digest": "0" * 64}))
    assert store.load(key) is None
    name_path.write_text("{ truncated")
    assert store.load(key) is None
    assert_same(data_trace(profile, 300, store=store), fresh)


class TestTraceKey:
    def test_key_moves_with_every_input(self):
        profile = get_profile("gzip")
        key = trace_key("instruction", profile, 500)
        assert trace_key("instruction", profile, 500) == key
        assert trace_key("data", profile, 500) != key
        assert trace_key("instruction", profile, 501) != key
        assert trace_key("instruction", replace(profile, seed=1), 500) != key
        assert trace_key("instruction", replace(profile, local_span=8192), 500) != key

    @pytest.mark.parametrize(
        "module",
        ["random", "repro.tracegen.layout", "repro.tracegen.profiles", "repro.tracegen.synthetic"],
    )
    def test_source_digest_is_an_input(self, module, monkeypatch):
        profile = get_profile("gzip")
        key = trace_key("multiplexed", profile, 0)
        real = profiles_module.source_digest

        def edited(name):
            return "edited" if name == module else real(name)

        monkeypatch.setattr(profiles_module, "source_digest", edited)
        assert trace_key("multiplexed", profile, 0) != key

    def test_default_length_keys_the_effective_length(self, tmp_path):
        store = TraceCorpus(tmp_path)
        profile = replace(get_profile("gzip"), instruction_length=700)
        instruction_trace(profile, 0, store=store)
        before = hits()
        instruction_trace(profile, 700, store=store)  # the same stream
        assert hits() == before + 1


def test_refresh_rewrites_the_entry(tmp_path):
    store = TraceCorpus(tmp_path)
    profile = get_profile("jedi")
    first = instruction_trace(profile, 300, store=store)
    key = trace_key("instruction", profile, 300)
    name_path = tmp_path / key[:2] / f"{key}.name"
    inode = name_path.stat().st_ino
    before = generated()
    again = instruction_trace(profile, 300, store=store, refresh=True)
    assert generated() == before + 300
    assert name_path.stat().st_ino != inode  # replaced, not left in place
    assert_same(again, first)


class TestExecutionConfig:
    def test_traces_live_under_the_cache_dir(self, tmp_path):
        config = ExecutionConfig(cache_dir=tmp_path)
        store = config.traces()
        assert store is config.traces()  # memoized
        assert store.root == tmp_path / "traces"

    def test_no_cache_dir_means_no_store(self):
        assert ExecutionConfig().traces() is None

    def test_warm_table_replays_no_stream(self, tmp_path):
        text = table2(length=400).render()
        table2(length=400, config=ExecutionConfig(cache_dir=tmp_path))
        before = generated()
        warm = table2(length=400, config=ExecutionConfig(cache_dir=tmp_path))
        assert generated() == before
        assert warm.render() == text

    def test_refresh_regenerates_stored_streams(self, tmp_path):
        table2(length=300, config=ExecutionConfig(cache_dir=tmp_path))
        before = generated()
        table2(length=300, config=ExecutionConfig(cache_dir=tmp_path, refresh=True))
        assert generated() == before + 300 * len(BENCHMARKS)


def test_result_cache_neither_counts_nor_evicts_traces(tmp_path):
    cache = ResultCache(tmp_path, max_bytes=1)
    store = TraceCorpus(tmp_path / "traces")
    trace = instruction_trace(get_profile("gzip"), 300, store=store)
    stored = sorted(path.name for path in (tmp_path / "traces").rglob("*.*"))
    cache.put("a" * 64, {"x": 1})
    cache.put("b" * 64, {"x": 2})
    assert len(cache) == 2
    assert cache.sweep() == 2  # over budget: every result entry goes
    assert len(cache) == 0
    assert sorted(path.name for path in (tmp_path / "traces").rglob("*.*")) == stored
    key = trace_key("instruction", get_profile("gzip"), 300)
    assert_same(store.load(key), trace)


class TestCorpusFormat:
    def test_entry_is_header_then_binary_arrays(self, tmp_path):
        store = TraceCorpus(tmp_path)
        digest = store.add([1, 2, 3], [0, 1, 1])
        raw = (tmp_path / digest[:2] / f"{digest}.trace").read_bytes()
        line, _, body = raw.partition(b"\n")
        assert json.loads(line) == {"digest": digest, "n": 3, "sels": True}
        assert len(body) == 3 * 8 + 3
        assert body[:8] == (1).to_bytes(8, "little")
        assert body[-3:] == bytes([0, 1, 1])

    def test_digest_bytes_unchanged(self):
        # sha256 over "addresses\0" + <u8 bytes + "\0sels\0" + <u8 sel bytes.
        import hashlib

        expected = hashlib.sha256(
            b"addresses\0"
            + b"".join(a.to_bytes(8, "little") for a in (5, 6))
            + b"\0sels\0"
            + b"".join(s.to_bytes(8, "little") for s in (1, 0))
        ).hexdigest()
        assert trace_digest([5, 6], [1, 0]) == expected
        assert TraceCorpus().add([5, 6], [1, 0]) == expected

    @pytest.mark.parametrize("sels", [[0, 2], [0, -1], [0, 256]])
    def test_add_rejects_sels_wider_than_one_bit(self, sels, tmp_path):
        with pytest.raises(ValueError, match="0 or 1"):
            TraceCorpus(tmp_path).add([1, 2], sels)

    def test_old_json_entry_reads_as_a_miss(self, tmp_path):
        digest = trace_digest([1, 2], None)
        old = tmp_path / digest[:2] / f"{digest}.json"
        old.parent.mkdir()
        old.write_text(json.dumps({"digest": digest, "addresses": [1, 2], "sels": None}))
        store = TraceCorpus(tmp_path)
        assert store.get(digest) is None
        assert len(store) == 0

    def test_empty_stream_round_trips(self, tmp_path):
        digest = TraceCorpus(tmp_path).add([], None)
        assert TraceCorpus(tmp_path).get(digest) == ((), None)
