/**
 * @file
 * Locks the UATRACE3 serialization layer and the persistent trace
 * store (trace/trace_io.hh, trace/trace_store.hh):
 *  - record -> file -> replay round trips are bit-identical to the
 *    in-memory stream, for synthetic and real kernel traces;
 *  - the store hits/misses correctly, self-heals corrupt entries,
 *    keeps an entry it merely cannot open (out of descriptors), and
 *    never publishes an uncommitted recording;
 *  - every corruption mode in the table (truncation, bad magic, bad
 *    version, wrong checksum, lying header counts, invalid class
 *    bytes) is rejected with a clear error instead of being read as
 *    data;
 *  - TraceStore::Recorder, the streaming writer, round-trips worst-
 *    case records across its buffer flushes with a streamed checksum
 *    equal to the one-shot hash, and surfaces write failures (mid-
 *    stream or at commit) by throwing from commit() and leaving no
 *    entry or temporary file, instead of publishing a truncated
 *    trace with a valid-looking header;
 *  - the block decoder (RecordDecoder::decodeBlock, TraceCursor::
 *    nextBlock) is byte-for-byte equivalent to record-
 *    by-record decode() on seeded random and adversarial streams for
 *    every block size, including final partial blocks, truncation at
 *    every byte offset of a record, max-length and over-long varints
 *    and invalid tag bytes (same error message as decode()), and
 *    independent cursors over one reader;
 *  - an EncodedTrace published as a store entry is a committed
 *    Recorder's entry for the same records, byte for byte; a cursor
 *    over it yields TraceReader's records and, over every cut of the
 *    bytes, TraceReader's errors.
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <random>
#include <source_location>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "file_size_limit.hh"
#include "trace/emitter.hh"
#include "trace/sink.hh"
#include "trace/trace_buffer.hh"
#include "trace/trace_io.hh"
#include "trace/trace_store.hh"

namespace fs = std::filesystem;
namespace ut = uasim::trace;
using uasim::core::KernelBench;
using uasim::core::KernelSpec;
using uasim::h264::KernelId;
using uasim::h264::Variant;

namespace {

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "/uasim_" + name;
}

/// A varied record stream: every class, unaligned/decreasing
/// addresses, taken and untaken branches, near and far deps.
std::vector<ut::InstrRecord>
syntheticRecords()
{
    ut::TraceBuffer buf;
    ut::Emitter em(buf);
    auto loc = std::source_location::current();
    ut::Dep d0 = em.emit(ut::InstrClass::IntAlu, loc);
    ut::Dep d1 = em.emit(ut::InstrClass::IntMul, loc, d0);
    em.emit(ut::InstrClass::FpAlu, loc, d0, d1);
    ut::Dep ld = em.emitMem(ut::InstrClass::Load, 0x1000, 8, loc, d1);
    em.emitMem(ut::InstrClass::Store, 0x0fff, 4, loc, ld);  // addr down
    em.emitMem(ut::InstrClass::VecLoad, 0xdeadbef0, 16, loc);
    em.emitMem(ut::InstrClass::VecLoadU, 0xdeadbeef, 16, loc);
    em.emitMem(ut::InstrClass::VecStore, 0x10, 16, loc, d0);
    em.emitMem(ut::InstrClass::VecStoreU, 0xffffffffffff0ull, 16, loc);
    em.emit(ut::InstrClass::VecSimple, loc, ld);
    em.emit(ut::InstrClass::VecComplex, loc);
    em.emit(ut::InstrClass::VecPerm, loc);
    em.emitBranch(true, loc, d0);
    em.emitBranch(false, loc);
    em.emit(ut::InstrClass::IntAlu, loc, d0);  // far dep
    return buf.records();
}

void
expectRecordEqual(const ut::InstrRecord &want,
                  const ut::InstrRecord &got)
{
    EXPECT_EQ(want.id, got.id);
    EXPECT_EQ(want.pc, got.pc);
    EXPECT_EQ(want.addr, got.addr);
    EXPECT_EQ(want.deps, got.deps);
    EXPECT_EQ(want.cls, got.cls);
    EXPECT_EQ(want.size, got.size);
    EXPECT_EQ(want.taken, got.taken);
}

/// Append @p enc's encoding of @p rec to @p out.
void
encodeTo(ut::wire::RecordEncoder &enc, const ut::InstrRecord &rec,
         std::string &out)
{
    std::uint8_t buf[ut::wire::RecordEncoder::maxRecordBytes];
    const std::uint8_t *end = enc.encode(rec, buf);
    out.append(reinterpret_cast<const char *>(buf),
               std::size_t(end - buf));
}

std::string
readAll(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

void
writeAll(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), std::streamsize(bytes.size()));
}

std::string
payloadOf(const ut::EncodedTrace &encoded)
{
    return {reinterpret_cast<const char *>(encoded.payload()),
            std::size_t(encoded.payloadBytes())};
}

/// Write @p records as a trace file for @p key: an EncodedTrace's
/// payload behind its wire::frontMatter.
void
writeTrace(const std::string &path, const std::string &key,
           const std::vector<ut::InstrRecord> &records)
{
    ut::EncodedTrace encoded;
    encoded.appendBlock(records.data(), records.size());
    const std::string payload = payloadOf(encoded);
    writeAll(path, ut::wire::frontMatter(
                       key, encoded.mix(), payload.size(),
                       ut::wire::payloadHash(payload.data(),
                                             payload.size())) +
                       payload);
}

/// Stream @p records through @p store's Recorder for @p key and commit
/// the entry. @return its path.
std::string
recordEntry(const ut::TraceStore &store, const std::string &key,
            const std::vector<ut::InstrRecord> &records)
{
    auto recorder = store.startRecord(key);
    if (!recorder)
        throw std::runtime_error("startRecord failed for " + key);
    for (const auto &rec : records)
        recorder->append(rec);
    recorder->commit();
    return store.entryPath(key);
}

/// Assemble raw file bytes with self-consistent hashes; corruption
/// tests then tamper with individual sections.
std::string
buildRaw(const std::string &key, std::uint64_t count,
         const ut::InstrMix &mix, const std::string &payload)
{
    ut::wire::Header h;
    h.keyBytes = std::uint32_t(key.size());
    h.recordCount = count;
    h.payloadBytes = payload.size();
    h.payloadHash = ut::wire::payloadHash(payload.data(), payload.size());
    h.keyHash = ut::wire::fnv1a(key.data(), key.size());
    std::string mix_section = ut::wire::serializeMix(mix);
    h.mixHash =
        ut::wire::fnv1a(mix_section.data(), mix_section.size());
    return h.serialize() + key + mix_section + payload;
}

/// Encode @p records and build a fully consistent raw file, with the
/// header record count overridable to simulate a lying writer.
std::string
buildRawFromRecords(const std::string &key,
                    const std::vector<ut::InstrRecord> &records,
                    std::uint64_t claimCount)
{
    std::string payload;
    ut::InstrMix mix;
    ut::wire::RecordEncoder enc;
    for (const auto &rec : records) {
        encodeTo(enc, rec, payload);
        mix.add(rec);
    }
    // Keep mix.total() == claimCount so the count-vs-mix check does
    // not fire before the condition under test.
    ut::InstrMix claim_mix;
    claim_mix.add(ut::InstrClass::IntAlu, claimCount);
    return buildRaw(key, claimCount, claim_mix, payload);
}

} // namespace

// ---- round trips ----

TEST(TraceIoV2, SyntheticRoundTripBitIdentity)
{
    const std::string path = tempPath("rt_synth.uatrace");
    const auto want = syntheticRecords();
    writeTrace(path, "synth/key", want);

    ut::TraceReader reader(path, "synth/key");
    ut::TraceCursor cur = reader.cursor();
    EXPECT_EQ(reader.count(), want.size());
    EXPECT_EQ(reader.key(), "synth/key");
    ut::InstrRecord rec;
    for (const auto &w : want) {
        ASSERT_TRUE(cur.next(rec));
        expectRecordEqual(w, rec);
    }
    EXPECT_FALSE(cur.next(rec));
    std::remove(path.c_str());
}

TEST(TraceIoV2, KernelTraceRoundTripBitIdentity)
{
    const std::string dir = tempPath("rt_kernel");
    fs::remove_all(dir);
    ut::TraceStore store(dir);
    const std::string path = store.entryPath("sad16");
    const KernelSpec spec{KernelId::Sad, 16, false};

    ut::TraceBuffer want;
    KernelBench direct(spec);
    direct.recordTrace(Variant::Unaligned, 3, want);

    {
        auto recorder = store.startRecord("sad16");
        ASSERT_NE(recorder, nullptr);
        KernelBench bench(spec);
        bench.recordTrace(Variant::Unaligned, 3, *recorder);
        recorder->commit();
        EXPECT_EQ(recorder->mix().total(), want.records().size());
    }

    ut::TraceReader reader(path);
    ut::TraceCursor cur = reader.cursor();
    ASSERT_EQ(reader.count(), want.records().size());
    ut::InstrRecord rec;
    for (const auto &w : want.records()) {
        ASSERT_TRUE(cur.next(rec));
        expectRecordEqual(w, rec);
    }
    EXPECT_FALSE(cur.next(rec));

    // The stored mix section matches the stream.
    ut::CountingSink counted;
    for (const auto &w : want.records())
        counted.append(w);
    ut::TraceReader reader2(path);
    for (int c = 0; c < ut::numInstrClasses; ++c) {
        auto cls = static_cast<ut::InstrClass>(c);
        EXPECT_EQ(reader2.mix().count(cls), counted.mix().count(cls));
    }
    fs::remove_all(dir);
}

TEST(TraceIoV2, EmptyTraceRoundTrips)
{
    const std::string path = tempPath("rt_empty.uatrace");
    writeTrace(path, "empty", {});
    ut::TraceReader reader(path, "empty");
    ut::TraceCursor cur = reader.cursor();
    EXPECT_EQ(reader.count(), 0u);
    ut::InstrRecord rec;
    EXPECT_FALSE(cur.next(rec));
    std::remove(path.c_str());
}

TEST(TraceIoV2, SummaryReadsCountAndMixWithoutPayloadDecode)
{
    const std::string path = tempPath("summary.uatrace");
    const auto want = syntheticRecords();
    writeTrace(path, "summary/key", want);

    auto sum = ut::readTraceSummary(path, "summary/key");
    EXPECT_EQ(sum.key, "summary/key");
    EXPECT_EQ(sum.count, want.size());
    EXPECT_EQ(sum.mix.total(), want.size());
    EXPECT_EQ(sum.mix.count(ut::InstrClass::Branch), 2u);

    // The summary path deliberately skips the payload checksum (the
    // mix has its own hash); the full reader still rejects the file.
    std::string bytes = readAll(path);
    bytes.back() = char(bytes.back() ^ 0x5a);
    writeAll(path, bytes);
    EXPECT_NO_THROW(ut::readTraceSummary(path));
    EXPECT_THROW(ut::TraceReader reader(path), std::runtime_error);
    std::remove(path.c_str());
}

// ---- corruption table ----

class TraceIoCorruption : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path_ = tempPath("corrupt.uatrace");
        writeTrace(path_, "corrupt/key", syntheticRecords());
        bytes_ = readAll(path_);
        ASSERT_GT(bytes_.size(), ut::wire::headerBytes);
    }

    void TearDown() override { std::remove(path_.c_str()); }

    /// Rewrite the file with @p bytes and expect open to fail with
    /// @p needle somewhere in the error text.
    void
    expectRejected(const std::string &bytes, const std::string &needle)
    {
        writeAll(path_, bytes);
        try {
            ut::TraceReader reader(path_);
            FAIL() << "expected open to reject (" << needle << ")";
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find(needle),
                      std::string::npos)
                << "actual error: " << e.what();
        }
    }

    std::string path_;
    std::string bytes_;
};

TEST_F(TraceIoCorruption, TruncatedPayloadRejected)
{
    expectRejected(bytes_.substr(0, bytes_.size() - 1),
                   "header claims");
}

TEST_F(TraceIoCorruption, TruncatedHeaderRejected)
{
    expectRejected(bytes_.substr(0, 20), "truncated header");
}

TEST_F(TraceIoCorruption, TrailingGarbageRejected)
{
    expectRejected(bytes_ + "junk", "header claims");
}

TEST_F(TraceIoCorruption, BadMagicRejected)
{
    std::string b = bytes_;
    b[0] = 'X';
    expectRejected(b, "bad magic");
}

TEST_F(TraceIoCorruption, OldFormatRevisionRejected)
{
    // UATRACE1 and UATRACE2 (FNV-1a payload checksum) files left in a
    // store are rejected by name, never checked against format 3.
    for (char revision : {'1', '2'}) {
        std::string b = bytes_;
        b[7] = revision;
        expectRejected(b, "unsupported trace format revision '" +
                              std::string(1, revision) + "'");
    }
}

TEST_F(TraceIoCorruption, BadVersionFieldRejected)
{
    std::string b = bytes_;
    b[8] = 99;
    expectRejected(b, "unsupported format version");
}

TEST_F(TraceIoCorruption, PayloadChecksumMismatchRejected)
{
    // The checksum covers the whole read-in payload buffer and runs
    // before any record is served: a flip in its last byte or in its
    // middle fails the open.
    const std::size_t payloadAt = ut::wire::headerBytes +
                                  std::string("corrupt/key").size() +
                                  ut::wire::mixBytes;
    ASSERT_GT(bytes_.size(), payloadAt + 10);
    for (std::size_t at : {bytes_.size() - 1,
                           payloadAt + (bytes_.size() - payloadAt) / 2}) {
        std::string b = bytes_;
        b[at] = char(b[at] ^ 0x40);
        expectRejected(b, "payload checksum mismatch");
    }
}

TEST_F(TraceIoCorruption, EveryPayloadBitFlipRejected)
{
    // Each word step of the payload hash is a bijection of the hash
    // state, so no single flipped bit can go unnoticed. Five records
    // give a payload of whole words plus a byte-wise tail.
    auto recs = syntheticRecords();
    recs.resize(5);
    writeTrace(path_, "k", recs);
    const std::string small = readAll(path_);
    const std::size_t payloadAt =
        ut::wire::headerBytes + 1 + ut::wire::mixBytes;
    ASSERT_GT(small.size(), payloadAt + 8);
    ASSERT_NE((small.size() - payloadAt) % 8, 0u);
    for (std::size_t at = payloadAt; at < small.size(); ++at) {
        for (int bit = 0; bit < 8; ++bit) {
            std::string b = small;
            b[at] = char(b[at] ^ (1 << bit));
            expectRejected(b, "payload checksum mismatch");
        }
    }
}

TEST_F(TraceIoCorruption, MixSectionTamperRejected)
{
    // First mix byte lives right after the header and the key.
    std::string b = bytes_;
    std::size_t at =
        ut::wire::headerBytes + std::string("corrupt/key").size();
    b[at] = char(b[at] ^ 0x01);
    expectRejected(b, "mix-section hash mismatch");
}

TEST_F(TraceIoCorruption, LyingRecordCountRejected)
{
    // Bump the count field only: the mix total no longer agrees.
    std::string b = bytes_;
    b[16] = char(b[16] + 1);
    expectRejected(b, "disagrees with record count");
}

TEST_F(TraceIoCorruption, KeyHashMismatchRejected)
{
    std::string b = bytes_;
    b[40] = char(b[40] ^ 0x01);
    expectRejected(b, "key hash mismatch");
}

TEST_F(TraceIoCorruption, WrongKeyRejected)
{
    writeAll(path_, bytes_);
    EXPECT_THROW(ut::TraceReader reader(path_, "some/other/key"),
                 std::runtime_error);
}

TEST_F(TraceIoCorruption, ImplausibleCountVsPayloadRejected)
{
    // A consistent-looking header whose count cannot fit in the
    // payload (each record needs >= minRecordBytes).
    ut::InstrMix mix;
    mix.add(ut::InstrClass::IntAlu, 100);
    expectRejected(buildRaw("k", 100, mix, "short"), "inconsistent");
}

TEST_F(TraceIoCorruption, InvalidClassByteRejected)
{
    // Valid checksums over a payload whose tag byte is out of range:
    // caught by next(), not the checksum.
    std::string payload;
    payload += char(0x3f);  // cls 63
    payload.append(5, '\0');  // five zero varints
    ut::InstrMix mix;
    mix.add(ut::InstrClass::IntAlu, 1);
    writeAll(path_, buildRaw("k", 1, mix, payload));
    ut::TraceReader reader(path_);
    ut::TraceCursor cur = reader.cursor();
    ut::InstrRecord rec;
    EXPECT_THROW(cur.next(rec), std::runtime_error);
}

TEST_F(TraceIoCorruption, TakenFlagOnNonBranchRejected)
{
    std::string payload;
    payload += char(std::uint8_t(ut::InstrClass::IntAlu) | 0x80);
    payload.append(5, '\0');  // five zero varints
    ut::InstrMix mix;
    mix.add(ut::InstrClass::IntAlu, 1);
    writeAll(path_, buildRaw("k", 1, mix, payload));
    ut::TraceReader reader(path_);
    ut::TraceCursor cur = reader.cursor();
    ut::InstrRecord rec;
    EXPECT_THROW(cur.next(rec), std::runtime_error);
}

TEST_F(TraceIoCorruption, PayloadShorterThanCountRejectedAtNext)
{
    // Header promises 4 records, payload encodes 2 (hashes all
    // valid): the reader must throw at the missing third record, not
    // return a silent end-of-trace. Wide address/pc deltas make the
    // two records exceed 4 * minRecordBytes, so the open-time length
    // heuristic cannot catch this case - only the decoder can.
    ut::TraceBuffer fat;
    ut::Emitter em(fat);
    auto loc = std::source_location::current();
    em.emitMem(ut::InstrClass::VecLoadU, 0x123456789abcdefull, 16,
               loc);
    em.emitMem(ut::InstrClass::VecStoreU, 0xfedcba987654321ull, 16,
               loc);
    writeAll(path_, buildRawFromRecords("k", fat.records(), 4));
    ut::TraceReader reader(path_);
    ut::TraceCursor cur = reader.cursor();
    ut::InstrRecord rec;
    EXPECT_TRUE(cur.next(rec));
    EXPECT_TRUE(cur.next(rec));
    EXPECT_THROW(cur.next(rec), std::runtime_error);
}

TEST_F(TraceIoCorruption, PayloadLongerThanCountRejectedAtEnd)
{
    // Header promises 2 records, payload encodes 4: the tail must be
    // flagged instead of silently dropped.
    auto recs = syntheticRecords();
    recs.resize(4);
    writeAll(path_, buildRawFromRecords("k", recs, 2));
    ut::TraceReader reader(path_);
    ut::TraceCursor cur = reader.cursor();
    ut::InstrRecord rec;
    EXPECT_TRUE(cur.next(rec));
    EXPECT_TRUE(cur.next(rec));
    EXPECT_THROW(cur.next(rec), std::runtime_error);
}

TEST(TraceIoV2, MissingFileThrows)
{
    EXPECT_THROW(ut::TraceReader reader("/nonexistent/trace.bin"),
                 std::runtime_error);
}

// ---- write path: raw-buffer encoder and streamed payload hash ----

namespace {

/// Records whose every varint takes 10 bytes (maxRecordBytes each):
/// id, pc and addr alternate between 2^63 and 0, and each dep sits
/// 2^62 below its record's id.
std::vector<ut::InstrRecord>
worstCaseRecords(std::size_t n)
{
    std::vector<ut::InstrRecord> recs(n);
    for (std::size_t i = 0; i < n; ++i) {
        ut::InstrRecord &rec = recs[i];
        const std::uint64_t v = i % 2 == 0 ? std::uint64_t{1} << 63 : 0;
        rec.id = rec.pc = rec.addr = v;
        rec.cls = ut::InstrClass::VecLoadU;
        rec.size = 16;
        rec.deps.fill(v - (std::uint64_t{1} << 62));
    }
    return recs;
}

/// The payload hash spelled out from its definition: little-endian
/// words composed byte by byte, then byte-wise FNV-1a on the tail.
std::uint64_t
referencePayloadHash(const std::string &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    std::size_t i = 0;
    for (; i + 8 <= bytes.size(); i += 8) {
        std::uint64_t w = 0;
        for (int b = 0; b < 8; ++b)
            w |= std::uint64_t(std::uint8_t(bytes[i + b])) << (8 * b);
        h = (h ^ w) * 0x100000001b3ull;
        h ^= h >> 29;
    }
    for (; i < bytes.size(); ++i)
        h = (h ^ std::uint8_t(bytes[i])) * 0x100000001b3ull;
    return h;
}

constexpr std::size_t writeBufferBytes =
    ut::TraceStore::Recorder::writeBufferBytes;

/// Records a Recorder buffers before its first flush, at the worst case.
constexpr std::size_t recordsPerFlush =
    writeBufferBytes / ut::wire::RecordEncoder::maxRecordBytes + 1;

} // namespace

TEST(TraceIoWrite, PayloadHashMatchesItsDefinition)
{
    std::mt19937_64 rng(0x5eed);
    std::string bytes;
    for (std::size_t n = 0; n <= 40; ++n) {
        EXPECT_EQ(ut::wire::payloadHash(bytes.data(), bytes.size()),
                  referencePayloadHash(bytes))
            << n << " bytes";
        bytes += char(rng());
    }
    // Under 8 bytes there is no word: the hash is plain FNV-1a.
    EXPECT_EQ(ut::wire::payloadHash("abcdefg", 7),
              ut::wire::fnv1a("abcdefg", 7));
}

TEST(TraceIoWrite, WorstCaseRecordsRoundTripAcrossFlushes)
{
    // maxRecordBytes is a tight bound, and records of exactly that
    // size streamed through a Recorder across three flushes land in
    // its fixed write buffer without overrunning it (ASan guards the
    // bound). Small leading records put the first flush at the worst
    // phase: a maximal record encoded with the buffer one byte short
    // of writeBufferBytes.
    constexpr std::size_t maxBytes = ut::wire::RecordEncoder::maxRecordBytes;
    const std::size_t phase = (writeBufferBytes - 1) % maxBytes;
    const std::size_t worst = 3 * recordsPerFlush + 101;
    std::vector<ut::InstrRecord> want;
    std::size_t lead = 0;
    ut::wire::RecordEncoder enc;
    std::uint8_t buf[maxBytes];
    for (ut::InstrRecord rec{}; lead < phase;) {
        ++rec.id;
        // 7 bytes (a two-byte pc delta) until 6-byte records fit.
        rec.pc += (phase - lead) % 6 ? 64 : 4;
        want.push_back(rec);
        lead += std::size_t(enc.encode(rec, buf) - buf);
    }
    ASSERT_EQ(lead, phase);
    for (const auto &rec : worstCaseRecords(worst)) {
        want.push_back(rec);
        ASSERT_EQ(std::size_t(enc.encode(rec, buf) - buf), maxBytes);
    }
    const std::string dir = tempPath("worst_case");
    fs::remove_all(dir);
    ut::TraceReader reader(recordEntry(ut::TraceStore(dir), "worst", want),
                           "worst");
    ut::TraceCursor cur = reader.cursor();
    EXPECT_EQ(reader.payloadBytes(), phase + worst * maxBytes);
    EXPECT_GT(reader.payloadBytes(), 3 * writeBufferBytes);
    ut::InstrRecord rec;
    for (const auto &w : want) {
        ASSERT_TRUE(cur.next(rec));
        expectRecordEqual(w, rec);
    }
    EXPECT_FALSE(cur.next(rec));
    fs::remove_all(dir);
}

TEST(TraceIoWrite, StreamedChecksumEqualsOneShotForEveryTailLength)
{
    // A Recorder's flush writes whole words and carries up to 7 bytes
    // over; the header's checksum must still be one payloadHash() over
    // the payload, whatever the payload length mod 8, with or without
    // an intermediate flush.
    const std::string dir = tempPath("tail_lengths");
    fs::remove_all(dir);
    const ut::TraceStore store(dir);
    for (std::size_t prefix : {std::size_t(0), recordsPerFlush}) {
        for (std::size_t residue = 0; residue < 8; ++residue) {
            auto recs = worstCaseRecords(prefix);
            std::string want;
            ut::wire::RecordEncoder shadow;
            for (const auto &rec : recs)
                encodeTo(shadow, rec, want);
            // 7-byte records step the length through every residue.
            ut::InstrRecord filler{};
            filler.id = recs.empty() ? 0 : recs.back().id;
            filler.pc = recs.empty() ? 0 : recs.back().pc;
            while (want.size() < 16 || want.size() % 8 != residue) {
                ++filler.id;
                filler.pc += 64;  // a two-byte pc delta
                recs.push_back(filler);
                encodeTo(shadow, filler, want);
            }
            const std::string path = recordEntry(store, "tail", recs);

            const std::string file = readAll(path);
            const std::size_t payloadAt =
                ut::wire::headerBytes + 4 + ut::wire::mixBytes;
            ASSERT_EQ(file.substr(payloadAt), want)
                << "prefix " << prefix << ", residue " << residue;
            std::uint64_t stored = 0;
            for (int b = 0; b < 8; ++b)
                stored |= std::uint64_t(std::uint8_t(file[32 + b]))
                          << (8 * b);
            EXPECT_EQ(stored, ut::wire::payloadHash(want.data(), want.size()))
                << "prefix " << prefix << ", residue " << residue;
            EXPECT_NO_THROW(ut::TraceReader reader(path, "tail"));
        }
    }
    fs::remove_all(dir);
}

// ---- Recorder error paths ----

TEST(RecorderErrors, CommitThrowsOnFullDiskAndLeavesNothing)
{
    // Records that fit the write buffer reach the disk only in
    // commit(), which throws instead of publishing, and keeps
    // throwing; an abandoned recorder with pending records destroys
    // quietly. Neither leaves an entry or a temporary file.
    const std::string dir = tempPath("full_disk");
    fs::remove_all(dir);
    ut::TraceStore store(dir);
    {
        FileSizeLimit full;
        ASSERT_TRUE(full.active());
        auto recorder = store.startRecord("k");
        ASSERT_NE(recorder, nullptr);
        for (const auto &rec : syntheticRecords())
            recorder->append(rec);
        EXPECT_THROW(recorder->commit(), std::runtime_error);
        EXPECT_THROW(recorder->commit(), std::runtime_error);
        auto abandoned = store.startRecord("a");
        ASSERT_NE(abandoned, nullptr);
        for (const auto &rec : syntheticRecords())
            abandoned->append(rec);
        EXPECT_NO_THROW(abandoned.reset());
    }
    EXPECT_FALSE(fs::exists(store.entryPath("k")));
    EXPECT_TRUE(fs::is_empty(dir)) << "a temporary file was left behind";
    fs::remove_all(dir);
}

TEST(RecorderErrors, UncreatableTemporaryStartsNothing)
{
    // With its directory gone the store cannot create a temporary:
    // startRecord() reports and returns null, and the caller records
    // uncached.
    const std::string dir = tempPath("vanished_store");
    fs::remove_all(dir);
    ut::TraceStore store(dir);
    fs::remove_all(dir);
    EXPECT_EQ(store.startRecord("k"), nullptr);
    EXPECT_FALSE(fs::exists(dir));
}

TEST(RecorderErrors, MidStreamWriteFailureLatchesUntilCommit)
{
    // A recording pass must complete even when the write-through
    // target fills up: the failed flush drops the temporary at once,
    // append() keeps counting the mix, commit() throws instead of
    // publishing - and a publish() that fails leaves nothing either.
    const std::string dir = tempPath("never_published");
    fs::remove_all(dir);
    ut::TraceStore store(dir);
    {
        FileSizeLimit full;
        ASSERT_TRUE(full.active());
        auto recorder = store.startRecord("k");
        ASSERT_NE(recorder, nullptr);
        EXPECT_FALSE(fs::is_empty(dir)) << "no temporary file";
        const auto recs = syntheticRecords();
        // Enough records to overflow the 1 MiB write buffer and force
        // a flush (and its EFBIG) mid-recording.
        EXPECT_NO_THROW({
            for (int i = 0; i < 40000; ++i) {
                for (const auto &rec : recs)
                    recorder->append(rec);
            }
        });
        EXPECT_TRUE(fs::is_empty(dir)) << "the failed temporary was kept";
        // The mix still counts every record, before and after the
        // failure.
        EXPECT_EQ(recorder->mix().total(), 40000 * recs.size());
        EXPECT_THROW(recorder->commit(), std::runtime_error);
        // A published EncodedTrace fails the same way.
        ut::EncodedTrace encoded;
        for (int i = 0; i < 40000; ++i)
            encoded.appendBlock(recs.data(), recs.size());
        EXPECT_THROW(store.publish("k", encoded), std::runtime_error);
    }
    EXPECT_FALSE(fs::exists(store.entryPath("k")));
    EXPECT_TRUE(fs::is_empty(dir)) << "a temporary file was left behind";
    fs::remove_all(dir);
}

// ---- TraceStore ----

class TraceStoreTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = tempPath("store_") +
               ::testing::UnitTest::GetInstance()
                   ->current_test_info()
                   ->name();
        fs::remove_all(dir_);
    }

    void TearDown() override { fs::remove_all(dir_); }

    std::string dir_;
};

TEST_F(TraceStoreTest, MissThenRecordThenHitRoundTrip)
{
    ut::TraceStore store(dir_);
    const std::string key = "job/key/1";
    EXPECT_EQ(store.openReader(key), nullptr);
    EXPECT_FALSE(store.loadSummary(key).has_value());

    const auto want = syntheticRecords();
    auto recorder = store.startRecord(key);
    ASSERT_NE(recorder, nullptr);
    for (const auto &rec : want)
        recorder->append(rec);
    recorder->commit();
    EXPECT_TRUE(fs::exists(store.entryPath(key)));

    auto reader = store.openReader(key);
    ASSERT_NE(reader, nullptr);
    EXPECT_EQ(reader->key(), key);
    ASSERT_EQ(reader->count(), want.size());
    ut::TraceCursor cur = reader->cursor();
    ut::InstrRecord rec;
    for (const auto &w : want) {
        ASSERT_TRUE(cur.next(rec));
        expectRecordEqual(w, rec);
    }
    EXPECT_FALSE(cur.next(rec));

    auto sum = store.loadSummary(key);
    ASSERT_TRUE(sum.has_value());
    EXPECT_EQ(sum->count, want.size());
    EXPECT_EQ(sum->key, key);
}

TEST_F(TraceStoreTest, EntryPathEncodesFormatVersion)
{
    ut::TraceStore store(dir_);
    auto path = store.entryPath("k");
    EXPECT_NE(path.find("-v" +
                        std::to_string(ut::wire::formatVersion) +
                        ".uatrace"),
              std::string::npos);
    // Distinct keys address distinct entries.
    EXPECT_NE(store.entryPath("a"), store.entryPath("b"));
}

TEST_F(TraceStoreTest, CorruptEntryIsReportedRemovedAndMissed)
{
    ut::TraceStore store(dir_);
    const std::string key = "job/key/corrupt";
    auto recorder = store.startRecord(key);
    ASSERT_NE(recorder, nullptr);
    for (const auto &rec : syntheticRecords())
        recorder->append(rec);
    recorder->commit();

    // Truncate the published entry.
    const auto path = store.entryPath(key);
    fs::resize_file(path, fs::file_size(path) - 3);

    EXPECT_EQ(store.openReader(key), nullptr);
    EXPECT_FALSE(fs::exists(path)) << "corrupt entry must be removed";
    EXPECT_FALSE(store.loadSummary(key).has_value());
}

TEST_F(TraceStoreTest, KeyCollisionIsAMissAndNeverEvictsTheVictim)
{
    // Simulate a 64-bit content-address collision by planting a
    // valid entry for one key at another key's path: the load must
    // miss (the stored key is verified byte-for-byte) but the
    // victim's valid file must survive.
    ut::TraceStore store(dir_);
    auto recorder = store.startRecord("victim/key");
    ASSERT_NE(recorder, nullptr);
    for (const auto &rec : syntheticRecords())
        recorder->append(rec);
    recorder->commit();
    fs::copy_file(store.entryPath("victim/key"),
                  store.entryPath("other/key"));

    EXPECT_EQ(store.openReader("other/key"), nullptr);
    EXPECT_FALSE(store.loadSummary("other/key").has_value());
    EXPECT_TRUE(fs::exists(store.entryPath("other/key")))
        << "a colliding load must not delete the victim's entry";
}

TEST_F(TraceStoreTest, DiscardEntryRemovesOnlyThatEntry)
{
    // The mid-decode heal path: a reader opened fine, its stream later
    // failed to decode, and the caller discards the entry to re-record.
    ut::TraceStore store(dir_);
    for (const char *key : {"job/key/bad", "job/key/good"}) {
        auto recorder = store.startRecord(key);
        ASSERT_NE(recorder, nullptr);
        for (const auto &rec : syntheticRecords())
            recorder->append(rec);
        recorder->commit();
    }
    ASSERT_NE(store.openReader("job/key/bad"), nullptr);

    store.discardEntry("job/key/bad", "decode failed");
    EXPECT_FALSE(fs::exists(store.entryPath("job/key/bad")));
    EXPECT_EQ(store.openReader("job/key/bad"), nullptr);
    EXPECT_NE(store.openReader("job/key/good"), nullptr)
        << "discarding one entry must leave the others alone";

    // Discarding a missing entry is a quiet no-op.
    EXPECT_NO_THROW(store.discardEntry("job/key/bad", "again"));
}

TEST_F(TraceStoreTest, AbandonedRecorderPublishesNothing)
{
    ut::TraceStore store(dir_);
    const std::string key = "job/key/abandoned";
    {
        auto recorder = store.startRecord(key);
        ASSERT_NE(recorder, nullptr);
        for (const auto &rec : syntheticRecords())
            recorder->append(rec);
        // No commit(): destructor must clean up the temp file.
    }
    EXPECT_FALSE(fs::exists(store.entryPath(key)));
    EXPECT_TRUE(fs::is_empty(dir_));
}

TEST_F(TraceStoreTest, StaleTempFilesAreSweptFreshOnesSurvive)
{
    fs::create_directories(dir_);
    const auto stale = fs::path(dir_) / "tr-0.uatrace.tmp-dead-0";
    const auto fresh = fs::path(dir_) / "tr-1.uatrace.tmp-live-0";
    const auto entry = fs::path(dir_) / "tr-2-v2.uatrace";
    writeAll(stale.string(), "x");
    writeAll(fresh.string(), "x");
    writeAll(entry.string(), "x");
    // Age the stale temp past the GC cutoff; the fresh one keeps its
    // current mtime (a live writer in another process).
    fs::last_write_time(stale, fs::file_time_type::clock::now() -
                                   std::chrono::hours(2));

    ut::TraceStore store(dir_);
    EXPECT_FALSE(fs::exists(stale)) << "orphaned temp must be swept";
    EXPECT_TRUE(fs::exists(fresh)) << "recent temp must survive";
    EXPECT_TRUE(fs::exists(entry)) << "entries must never be swept";
}

TEST_F(TraceStoreTest, UncreatableDirectoryThrows)
{
    EXPECT_THROW(ut::TraceStore store("/proc/uasim-no-such-store"),
                 std::runtime_error);
    EXPECT_THROW(ut::TraceStore store(""), std::runtime_error);
}

namespace {

/// Fills this process's descriptor table under a soft RLIMIT_NOFILE
/// of at most 64, so every open() fails with EMFILE; the destructor
/// closes the descriptors and restores the limit.
class ExhaustedDescriptors
{
  public:
    ExhaustedDescriptors()
    {
        if (::getrlimit(RLIMIT_NOFILE, &saved_) != 0)
            return;
        rlimit low = saved_;
        low.rlim_cur = std::min<rlim_t>(saved_.rlim_cur, 64);
        if (::setrlimit(RLIMIT_NOFILE, &low) != 0)
            return;
        lowered_ = true;
        // Bounded by the lowered limit; the cap is a safety net.
        while (fds_.size() < 1024) {
            const int fd = ::open("/dev/null", O_RDONLY);
            if (fd < 0) {
                exhausted_ = errno == EMFILE;
                break;
            }
            fds_.push_back(fd);
        }
    }

    ~ExhaustedDescriptors()
    {
        for (int fd : fds_)
            ::close(fd);
        if (lowered_)
            ::setrlimit(RLIMIT_NOFILE, &saved_);
    }

    ExhaustedDescriptors(const ExhaustedDescriptors &) = delete;
    ExhaustedDescriptors &operator=(const ExhaustedDescriptors &) = delete;

    /// True when the next open() fails with EMFILE.
    bool exhausted() const { return exhausted_; }

  private:
    rlimit saved_{};
    bool lowered_ = false;
    bool exhausted_ = false;
    std::vector<int> fds_;
};

} // namespace

TEST_F(TraceStoreTest, EntryThatCannotBeOpenedIsAMissAndKept)
{
    // Running out of file descriptors says nothing about an entry's
    // content: both probes miss, and the valid entry survives to be
    // read once descriptors are free again.
    ut::TraceStore store(dir_);
    const std::string key = "job/key/emfile";
    auto recorder = store.startRecord(key);
    ASSERT_NE(recorder, nullptr);
    for (const auto &rec : syntheticRecords())
        recorder->append(rec);
    recorder->commit();
    recorder.reset();
    const auto path = store.entryPath(key);

    std::unique_ptr<ut::TraceReader> reader;
    std::optional<ut::TraceSummary> summary;
    bool exhausted = false;
    {
        ExhaustedDescriptors full;
        exhausted = full.exhausted();
        if (exhausted) {
            reader = store.openReader(key);
            summary = store.loadSummary(key);
        }
    }
    ASSERT_TRUE(exhausted) << "could not fill the descriptor table";
    EXPECT_EQ(reader, nullptr);
    EXPECT_FALSE(summary.has_value());
    EXPECT_TRUE(fs::exists(path))
        << "an entry that merely cannot be opened must be kept";
    reader = store.openReader(key);
    ASSERT_NE(reader, nullptr);
    EXPECT_EQ(reader->count(), syntheticRecords().size());
}

// ---- block decoder (RecordDecoder::decodeBlock / nextBlock) ----

namespace {

/// Canonical random record stream: every class, deps always < id (or
/// absent), meaningless fields zeroed exactly as the Emitter would,
/// ids/pcs/addrs with occasional huge jumps so varints of every width
/// (1..10 bytes) appear in the payload.
std::vector<ut::InstrRecord>
randomRecords(std::uint64_t seed, std::size_t n)
{
    std::mt19937_64 rng(seed);
    std::vector<ut::InstrRecord> recs;
    recs.reserve(n);
    std::uint64_t id = 0, pc = 0x10000;
    for (std::size_t i = 0; i < n; ++i) {
        ut::InstrRecord rec{};
        id += (rng() % 16 == 0) ? (rng() >> 16) + 1 : 1 + rng() % 3;
        rec.id = id;
        pc += (rng() % 8 == 0) ? std::uint64_t(rng()) : 4;
        rec.pc = pc;
        rec.cls = static_cast<ut::InstrClass>(
            rng() % std::uint64_t(ut::numInstrClasses));
        if (rec.cls == ut::InstrClass::Branch)
            rec.taken = (rng() & 1) != 0;
        if (rec.isMem()) {
            // Mask to varying widths so addr deltas span the whole
            // varint range, including sign flips (zigzag exercise).
            rec.addr = rng() & ((std::uint64_t(1) << (1 + rng() % 63)) - 1);
            rec.size = std::uint8_t(1 + rng() % 255);
        }
        for (auto &dep : rec.deps)
            if (rec.id > 1 && rng() % 3 == 0)
                dep = rec.id - 1 - rng() % std::min<std::uint64_t>(
                                             rec.id - 1, 4096);
        recs.push_back(rec);
    }
    return recs;
}

/**
 * Adversarial record stream: id/pc/addr deltas of uniformly random bit
 * width in both directions (varints of every length, sign flips on
 * every lane), and absent, near, future and arbitrary deps. Fields are
 * canonicalized the way the encoder would (no addr/size off the memory
 * classes, no taken off branches), so decode round-trips exactly.
 */
std::vector<ut::InstrRecord>
adversarialRecords(std::uint64_t seed, std::size_t n)
{
    std::mt19937_64 rng(seed);
    std::vector<ut::InstrRecord> recs;
    recs.reserve(n);
    auto delta = [&rng]() -> std::int64_t {
        const int bits = int(rng() % 63) + 1;
        auto mag = std::int64_t(rng() & ((std::uint64_t{1} << bits) - 1));
        return (rng() & 1) ? mag : -mag;
    };
    std::uint64_t id = rng() >> 32;
    std::uint64_t pc = rng();
    std::uint64_t addr = rng();
    for (std::size_t i = 0; i < n; ++i) {
        ut::InstrRecord rec{};
        id += std::uint64_t(delta());
        pc += std::uint64_t(delta());
        rec.id = id;
        rec.pc = pc;
        rec.cls = static_cast<ut::InstrClass>(
            rng() % std::uint64_t(ut::numInstrClasses));
        if (rec.isMem()) {
            addr += std::uint64_t(delta());
            rec.addr = addr;
            rec.size = std::uint8_t(rng());
        }
        if (rec.cls == ut::InstrClass::Branch)
            rec.taken = (rng() & 1) != 0;
        for (auto &dep : rec.deps) {
            switch (rng() % 4) {
            case 0: break;                                    // absent
            case 1: dep = rec.id - rng() % 64; break;         // near
            case 2: dep = rec.id + std::uint64_t(delta()); break;
            default: dep = rng() | 1; break;                  // anywhere
            }
        }
        recs.push_back(rec);
    }
    return recs;
}

/// Encode @p recs into one contiguous payload.
std::string
encodeAll(const std::vector<ut::InstrRecord> &recs)
{
    std::string payload;
    ut::wire::RecordEncoder enc;
    for (const auto &rec : recs)
        encodeTo(enc, rec, payload);
    return payload;
}

const std::uint8_t *
bytesOf(const std::string &payload)
{
    return reinterpret_cast<const std::uint8_t *>(payload.data());
}

/// Decode all of @p payload through decodeBlock in @p chunk sized
/// blocks and return the records; throws where the decoder throws.
std::vector<ut::InstrRecord>
decodeBlocks(const std::string &payload, std::size_t chunk)
{
    ut::wire::RecordDecoder dec;
    std::vector<ut::InstrRecord> out, block(chunk);
    const std::uint8_t *p = bytesOf(payload);
    const std::uint8_t *end = p + payload.size();
    while (p != end) {
        const std::size_t got =
            dec.decodeBlock(p, end, block.data(), chunk);
        EXPECT_GT(got, 0u) << "silent end of stream before the payload end";
        if (got == 0)
            break;
        out.insert(out.end(), block.begin(),
                   block.begin() + std::ptrdiff_t(got));
    }
    return out;
}

/// The message thrown when @p payload is decoded by @p decode (empty
/// when it decodes cleanly).
template <typename Decode>
std::string
errorOf(Decode decode)
{
    try {
        decode();
    } catch (const std::runtime_error &e) {
        return e.what();
    }
    return {};
}

/// decode() called record by record over all of @p payload.
std::string
scalarError(const std::string &payload)
{
    return errorOf([&payload] {
        ut::wire::RecordDecoder dec;
        const std::uint8_t *p = bytesOf(payload);
        const std::uint8_t *end = p + payload.size();
        ut::InstrRecord rec;
        while (p != end)
            dec.decode(p, end, rec);
    });
}

std::string
blockError(const std::string &payload, std::size_t chunk)
{
    return errorOf([&] { decodeBlocks(payload, chunk); });
}

} // namespace

TEST(TraceBlockDecode, MatchesScalarForEveryBlockSize)
{
    // Two seeded corpora: a canonical Emitter-shaped stream and an
    // adversarial one with varints of every width in every lane.
    const std::vector<std::vector<ut::InstrRecord>> corpora = {
        randomRecords(0xb10cdec0de, 3000), adversarialRecords(7, 3000),
        adversarialRecords(0xabcdef, 1500)};
    for (const auto &want : corpora) {
        const std::string payload = encodeAll(want);
        const auto *base = bytesOf(payload);
        const auto *end = base + payload.size();

        // Scalar reference decode.
        {
            ut::wire::RecordDecoder dec;
            const std::uint8_t *p = base;
            for (const auto &w : want) {
                ut::InstrRecord got;
                dec.decode(p, end, got);
                expectRecordEqual(w, got);
            }
            ASSERT_EQ(p, end);
        }

        // Block decode at sizes below, straddling, and above the
        // payload, verifying the stream position after every call
        // (block and record decode must consume exactly the same
        // bytes).
        for (std::size_t blockSize :
             {std::size_t(1), std::size_t(2), std::size_t(3),
              std::size_t(5), std::size_t(7), std::size_t(13),
              std::size_t(64), std::size_t(256), std::size_t(999),
              want.size(), want.size() + 17}) {
            ut::wire::RecordDecoder scalar;
            ut::wire::RecordDecoder block;
            const std::uint8_t *ps = base;
            const std::uint8_t *pb = base;
            std::vector<ut::InstrRecord> out(blockSize);
            std::size_t total = 0;
            while (pb != end) {
                std::size_t got =
                    block.decodeBlock(pb, end, out.data(), blockSize);
                ASSERT_GT(got, 0u);
                for (std::size_t i = 0; i < got; ++i) {
                    ut::InstrRecord ref;
                    scalar.decode(ps, end, ref);
                    expectRecordEqual(ref, out[i]);
                }
                ASSERT_EQ(pb, ps) << "block size " << blockSize
                                  << " diverged after " << total;
                total += got;
            }
            EXPECT_EQ(total, want.size()) << "block size " << blockSize;
            EXPECT_EQ(block.decodeBlock(pb, end, out.data(), blockSize),
                      0u);
        }
    }
}

TEST(TraceBlockDecode, CleanPrefixReturnsShortMidRecordCutThrows)
{
    const auto want = randomRecords(77, 400);
    const std::string payload = encodeAll(want);
    const auto *base = bytesOf(payload);

    // Record boundaries, from a scalar decode of the full payload.
    std::vector<std::size_t> bounds;  // offset after record i
    {
        ut::wire::RecordDecoder dec;
        const std::uint8_t *p = base;
        const std::uint8_t *end = base + payload.size();
        ut::InstrRecord rec;
        for (std::size_t i = 0; i < want.size(); ++i) {
            dec.decode(p, end, rec);
            bounds.push_back(std::size_t(p - base));
        }
    }

    // A buffer ending exactly on a record boundary decodes clean and
    // returns short; the same buffer one byte shorter throws exactly
    // the scalar decoder's truncation error. Probe boundaries at the
    // start, middle and end of the stream.
    for (std::size_t cut : {std::size_t(0), std::size_t(1),
                            std::size_t(5), bounds.size() / 2,
                            bounds.size() - 2}) {
        const std::size_t k = cut + 1;  // records before the cut
        const std::uint8_t *end = base + bounds[cut];
        {
            ut::wire::RecordDecoder dec;
            const std::uint8_t *p = base;
            std::vector<ut::InstrRecord> out(want.size());
            std::size_t got =
                dec.decodeBlock(p, end, out.data(), out.size());
            EXPECT_EQ(got, k);
            EXPECT_EQ(p, end);
        }
        {
            ut::wire::RecordDecoder dec;
            const std::uint8_t *p = base;
            std::vector<ut::InstrRecord> out(want.size());
            EXPECT_THROW(
                dec.decodeBlock(p, end - 1, out.data(), out.size()),
                std::runtime_error);
        }
    }
}

TEST(TraceBlockDecode, TruncationAtEveryOffsetThrowsScalarMessage)
{
    const auto recs = adversarialRecords(99, 64);
    std::string payload;
    std::vector<std::size_t> starts;  // starts[i]: offset of record i
    {
        ut::wire::RecordEncoder enc;
        for (const auto &rec : recs) {
            starts.push_back(payload.size());
            encodeTo(enc, rec, payload);
        }
        starts.push_back(payload.size());
    }

    // Cut inside the first, a middle, and the last record, at every
    // byte offset within each: the block decoder must throw the
    // record decoder's exact message, never report a clean end.
    for (std::size_t v : {std::size_t(0), recs.size() / 2,
                          recs.size() - 1}) {
        for (std::size_t cut = starts[v] + 1; cut < starts[v + 1];
             ++cut) {
            const std::string truncated = payload.substr(0, cut);
            const std::string want = scalarError(truncated);
            ASSERT_NE(want.find("truncated"), std::string::npos)
                << "cut " << cut << " in record " << v << ": " << want;
            for (std::size_t chunk : {std::size_t(1), std::size_t(256)})
                EXPECT_EQ(want, blockError(truncated, chunk))
                    << "cut " << cut << " in record " << v;
        }
    }
}

TEST(TraceBlockDecode, MaxLengthAndOverLongVarints)
{
    // 10-byte varints (deltas ~2^63, with sign flips) in the id, pc,
    // addr and dep lanes round-trip through every block size.
    std::vector<ut::InstrRecord> recs;
    ut::InstrRecord rec{};
    rec.id = 0x8000000000000000ull;
    rec.pc = 0xffffffffffffffffull;
    rec.cls = ut::InstrClass::IntAlu;
    rec.deps = {1, rec.id - 1, 0};
    recs.push_back(rec);

    rec = {};
    rec.id = 1;
    rec.pc = 2;
    rec.cls = ut::InstrClass::VecLoadU;
    rec.addr = 0x8000000000000001ull;
    rec.size = 255;
    rec.deps = {0, 0, 0x7fffffffffffffffull};
    recs.push_back(rec);

    rec = {};
    rec.id = 2;
    rec.pc = 6;
    rec.cls = ut::InstrClass::Branch;
    rec.taken = true;
    recs.push_back(rec);

    for (int i = 0; i < 32; ++i) {
        rec = {};
        rec.id = std::uint64_t(3 + i);
        rec.pc = std::uint64_t(10 + 4 * i);
        rec.cls = ut::InstrClass::IntAlu;
        recs.push_back(rec);
    }
    const std::string payload = encodeAll(recs);
    for (std::size_t chunk : {std::size_t(1), std::size_t(3),
                              std::size_t(256)}) {
        const auto got = decodeBlocks(payload, chunk);
        ASSERT_EQ(got.size(), recs.size()) << "chunk " << chunk;
        for (std::size_t i = 0; i < recs.size(); ++i)
            expectRecordEqual(recs[i], got[i]);
    }

    // An 11-byte varint is over-long in any lane. Take a one-byte-per-
    // field VecLoadU record (tag, id, pc, addr, size, three deps) and
    // stretch each varint lane in turn: scalar and block decode throw
    // the same message, alone and after a run of valid records.
    const std::string valid = encodeAll(randomRecords(5, 40));
    const std::string base = {char(ut::InstrClass::VecLoadU), 2, 4, 0,
                              16, 0, 0, 0};
    for (std::size_t lane : {1, 2, 3, 5, 6, 7}) {
        std::string bad = base;
        bad.replace(lane, 1, std::string(11, char(0x80)) + '\x01');
        for (const std::string &stream : {bad, valid + bad}) {
            const std::string want = scalarError(stream);
            EXPECT_NE(want.find("truncated"), std::string::npos)
                << "lane " << lane << ": " << want;
            EXPECT_EQ(want, blockError(stream, 256)) << "lane " << lane;
        }
    }
}

TEST(TraceBlockDecode, AdversarialTagBytesMatchScalarErrors)
{
    // Invalid class bytes and a taken flag on each non-branch class,
    // each alone, followed by padding, and after a run of valid
    // records: the block decoder throws decode()'s exact message.
    std::vector<std::string> tags;
    for (int cls : {int(ut::numInstrClasses), 0x3f, 0x7f, 0xff})
        tags.emplace_back(1, char(cls));
    for (int c = 0; c < ut::numInstrClasses; ++c) {
        if (static_cast<ut::InstrClass>(c) != ut::InstrClass::Branch)
            tags.emplace_back(1, char(c | 0x80));
    }
    const std::string pad(256, '\0');
    const std::string valid = encodeAll(randomRecords(11, 40));
    for (const std::string &tag : tags) {
        for (const std::string &payload :
             {tag, tag + pad, valid + tag + pad}) {
            const std::string want = scalarError(payload);
            EXPECT_FALSE(want.empty()) << "tag " << int(std::uint8_t(tag[0]));
            EXPECT_EQ(want, blockError(payload, 256))
                << "tag " << int(std::uint8_t(tag[0]));
        }
    }
}

TEST(TraceBlockDecode, NextBlockMatchesNextAndInterleaves)
{
    const std::string path = tempPath("block_reader.uatrace");
    const auto want = randomRecords(0xfeed, 2500);
    writeTrace(path, "block-key", want);

    ut::TraceReader reader(path, "block-key");
    ut::TraceCursor scalar = reader.cursor();
    ut::TraceCursor blocked = reader.cursor();
    std::vector<ut::InstrRecord> got;
    ut::InstrRecord buf[97];
    // Interleave nextBlock with scalar next() on one cursor: they
    // share a decode stream.
    int turn = 0;
    while (true) {
        if (++turn % 3 == 0) {
            ut::InstrRecord rec;
            if (!blocked.next(rec))
                break;
            got.push_back(rec);
        } else {
            std::size_t n = blocked.nextBlock(buf, 97);
            if (n == 0)
                break;
            got.insert(got.end(), buf, buf + n);
        }
    }
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        ut::InstrRecord ref;
        ASSERT_TRUE(scalar.next(ref));
        expectRecordEqual(ref, got[i]);
    }
    EXPECT_EQ(blocked.nextBlock(buf, 97), 0u);
    std::remove(path.c_str());
}

TEST(TraceBlockDecode, NextBlockRejectsPayloadShorterThanCount)
{
    // Mirror of PayloadShorterThanCountRejectedAtNext for the block
    // path: the header claims more records than the payload encodes,
    // so the final (partial) block must throw, never report a clean
    // end-of-trace.
    const std::string path = tempPath("block_short.uatrace");
    const auto recs = syntheticRecords();
    writeAll(path,
             buildRawFromRecords("", recs, recs.size() + 3));
    ut::TraceReader reader(path);
    ut::TraceCursor cur = reader.cursor();
    ut::InstrRecord buf[64];
    std::size_t drained = 0;
    EXPECT_THROW(
        {
            while (std::size_t n = cur.nextBlock(buf, 64))
                drained += n;
        },
        std::runtime_error);
    EXPECT_LE(drained, recs.size());
    std::remove(path.c_str());
}

TEST(TraceBlockDecode, CursorsAreIndependent)
{
    const std::string path = tempPath("cursors.uatrace");
    const auto want = adversarialRecords(123, 2500);
    writeTrace(path, "cursor-test", want);
    ut::TraceReader reader(path, "cursor-test");
    ASSERT_EQ(reader.count(), want.size());

    // Three cursors, two with different block sizes and one record
    // by record, interleaved: independent passes over one payload.
    ut::TraceCursor a = reader.cursor();
    ut::TraceCursor b = reader.cursor();
    ut::TraceCursor c = reader.cursor();
    std::vector<ut::InstrRecord> ra, rb, rc;
    ut::InstrRecord one;
    ut::InstrRecord block[97];
    for (bool more = true; more;) {
        more = false;
        if (std::size_t got = a.nextBlock(block, 97)) {
            ra.insert(ra.end(), block, block + got);
            more = true;
        }
        if (std::size_t got = b.nextBlock(block, 13)) {
            rb.insert(rb.end(), block, block + got);
            more = true;
        }
        if (c.next(one)) {
            rc.push_back(one);
            more = true;
        }
    }
    for (const auto *got : {&ra, &rb, &rc}) {
        ASSERT_EQ(got->size(), want.size());
        for (std::size_t i = 0; i < want.size(); ++i)
            expectRecordEqual(want[i], (*got)[i]);
    }
    EXPECT_EQ(a.read(), want.size());
    EXPECT_EQ(b.read(), want.size());

    // A default-constructed cursor is a clean end of trace.
    ut::TraceCursor empty;
    EXPECT_FALSE(empty.next(one));
    EXPECT_EQ(empty.nextBlock(block, 97), 0u);
    std::remove(path.c_str());
}

// ---- EncodedTrace: the in-memory payload every replay pass decodes ----

namespace {

/// The payload section of the trace file at @p path, stored under
/// @p key.
std::string
filePayload(const std::string &path, const std::string &key)
{
    return readAll(path).substr(ut::wire::headerBytes + key.size() +
                                ut::wire::mixBytes);
}

/// Drain @p cur in 7-record blocks, then through next(); @return the
/// error thrown, or empty when it ends cleanly.
std::string
drainError(ut::TraceCursor cur)
{
    return errorOf([&cur] {
        ut::InstrRecord block[7];
        while (cur.nextBlock(block, 7) == 7) {
        }
        ut::InstrRecord rec;
        while (cur.next(rec)) {
        }
    });
}

} // namespace

TEST(EncodedTrace, PublishedEntryIsRecorderEntryByteForByte)
{
    // A synthetic stream, a real kernel trace, worst-case records
    // spanning several Recorder flushes and a worst-case stream whose
    // payload passes 8 MiB (a dozen capacity doublings from 4 KiB),
    // appended one by one and as blocks. The in-memory payload is the
    // committed Recorder entry's payload, published it is that whole
    // entry, and a cursor decodes every record.
    constexpr std::size_t bigPayload = std::size_t{8} << 20;
    ut::TraceBuffer kernel;
    KernelBench({KernelId::Sad, 16, false}).recordTrace(Variant::Unaligned,
                                                        3, kernel);
    const std::vector<std::vector<ut::InstrRecord>> streams = {
        syntheticRecords(), kernel.records(),
        worstCaseRecords(recordsPerFlush + 17),
        worstCaseRecords(bigPayload / ut::wire::RecordEncoder::maxRecordBytes +
                         1001),
        {}};
    const std::string dir = tempPath("encoded_store");
    fs::remove_all(dir);
    ut::TraceStore store(dir);
    std::size_t largest = 0;
    for (const auto &recs : streams) {
        SCOPED_TRACE(std::to_string(recs.size()) + " records");
        const std::string file = readAll(recordEntry(store, "k", recs));
        const std::string want = filePayload(store.entryPath("k"), "k");
        largest = std::max(largest, want.size());
        ut::EncodedTrace one, block;
        ut::InstrMix mix;
        for (const auto &rec : recs) {
            one.append(rec);
            mix.add(rec);
        }
        block.appendBlock(recs.data(), recs.size());
        for (const ut::EncodedTrace *e : {&one, &block}) {
            EXPECT_EQ(e->count(), recs.size());
            EXPECT_EQ(ut::wire::serializeMix(e->mix()),
                      ut::wire::serializeMix(mix));
            EXPECT_TRUE(payloadOf(*e) == want);
            store.publish("k", *e);
            EXPECT_TRUE(readAll(store.entryPath("k")) == file);
            ut::TraceCursor cur = e->cursor();
            ut::InstrRecord rec;
            std::size_t i = 0;
            while (cur.next(rec) && i < recs.size() && !HasFailure())
                expectRecordEqual(recs[i++], rec);
            EXPECT_EQ(i, recs.size());
            EXPECT_EQ(cur.read(), recs.size());
        }
    }
    EXPECT_GT(largest, bigPayload);
    fs::remove_all(dir);
}

TEST(EncodedTrace, CursorMatchesTraceReader)
{
    const auto want = syntheticRecords();
    ut::EncodedTrace encoded;
    encoded.appendBlock(want.data(), want.size());
    const std::string path = tempPath("encoded_cursor.uatrace");
    writeTrace(path, "", want);
    ut::TraceReader reader(path);

    // Same records, block by block, from two forks of one cursor.
    const ut::TraceCursor start = encoded.cursor();
    EXPECT_EQ(start.count(), reader.count());
    EXPECT_EQ(start.payloadBytes(), reader.payloadBytes());
    for (ut::TraceCursor cur : {start, start}) {
        ut::TraceCursor ref = reader.cursor();
        ut::InstrRecord got[5], exp[5];
        for (;;) {
            const std::size_t n = cur.nextBlock(got, 5);
            ASSERT_EQ(n, ref.nextBlock(exp, 5));
            if (n == 0)
                break;
            for (std::size_t i = 0; i < n; ++i)
                expectRecordEqual(exp[i], got[i]);
        }
        EXPECT_EQ(cur.read(), want.size());
    }

    // Same errors over every cut of the payload and a record count
    // below, at and above the truth: a view over the cut bytes, named
    // after the file, against a reader of a file holding them. Cases
    // the reader rejects at open never reach a cursor.
    const std::string payload = payloadOf(encoded);
    int compared = 0, failing = 0;
    for (std::size_t cut = 0; cut <= payload.size(); ++cut) {
        const std::string bytes = payload.substr(0, cut);
        for (std::uint64_t count : {want.size() - 1, want.size(),
                                    want.size() + 1}) {
            ut::InstrMix claim;
            claim.add(ut::InstrClass::IntAlu, count);
            writeAll(path, buildRaw("", count, claim, bytes));
            std::unique_ptr<ut::TraceReader> fileReader;
            try {
                fileReader = std::make_unique<ut::TraceReader>(path);
            } catch (const std::runtime_error &) {
                continue;
            }
            const std::string fromFile = drainError(fileReader->cursor());
            EXPECT_EQ(drainError(ut::TraceCursor(bytesOf(bytes),
                                                 bytes.size(), count, path)),
                      fromFile)
                << "cut " << cut << " count " << count;
            ++compared;
            failing += !fromFile.empty();
        }
    }
    EXPECT_GT(compared, failing);
    EXPECT_GT(failing, 0);
    std::remove(path.c_str());
}
