#include "trace/trace_io.hh"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <stdexcept>

#include "trace/file_io.hh"

namespace uasim::trace {

namespace wire {

namespace {

void
putLe32(std::string &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out += static_cast<char>((v >> (8 * i)) & 0xff);
}

void
putLe64(std::string &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out += static_cast<char>((v >> (8 * i)) & 0xff);
}

std::uint32_t
getLe32(const std::uint8_t *p)
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= std::uint32_t{p[i]} << (8 * i);
    return v;
}

std::uint64_t
getLe64(const std::uint8_t *p)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= std::uint64_t{p[i]} << (8 * i);
    return v;
}

constexpr std::uint64_t fnvPrime = 0x100000001b3ull;

} // namespace

std::uint64_t
fnv1a(const void *data, std::size_t n, std::uint64_t state)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        state ^= p[i];
        state *= fnvPrime;
    }
    return state;
}

std::uint64_t
payloadHash(const void *data, std::size_t n, std::uint64_t state)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    const std::uint8_t *words_end = p + (n & ~std::size_t{7});
    for (; p != words_end; p += 8) {
        // One load per word: GCC does not fold getLe64's byte loop.
        std::uint64_t w;
        std::memcpy(&w, p, sizeof(w));
        if constexpr (std::endian::native == std::endian::big)
            w = __builtin_bswap64(w);
        state = (state ^ w) * fnvPrime;
        state ^= state >> 29;
    }
    return fnv1a(p, n & 7, state);
}

bool
getVarint(const std::uint8_t *&p, const std::uint8_t *end,
          std::uint64_t &v)
{
    v = 0;
    for (int shift = 0; shift < 70; shift += 7) {
        if (p == end)
            return false;
        std::uint8_t byte = *p++;
        v |= std::uint64_t(byte & 0x7f) << shift;
        if (!(byte & 0x80))
            return true;
    }
    return false;  // over-long encoding
}

std::string
Header::serialize() const
{
    std::string out;
    out.reserve(headerBytes);
    out.append(magic, sizeof(magic));
    putLe32(out, version);
    putLe32(out, keyBytes);
    putLe64(out, recordCount);
    putLe64(out, payloadBytes);
    putLe64(out, payloadHash);
    putLe64(out, keyHash);
    putLe64(out, mixHash);
    return out;
}

std::string
serializeMix(const InstrMix &mix)
{
    std::string out;
    out.reserve(mixBytes);
    for (int c = 0; c < numInstrClasses; ++c)
        putLe64(out, mix.count(static_cast<InstrClass>(c)));
    return out;
}

std::string
frontMatter(const std::string &key, const InstrMix &mix,
            std::uint64_t payloadBytes, std::uint64_t payloadHash)
{
    if (key.size() > maxKeyBytes)
        throw std::runtime_error("trace key too long");
    const std::string mixSection = serializeMix(mix);
    Header hdr;
    hdr.keyBytes = std::uint32_t(key.size());
    hdr.recordCount = mix.total();
    hdr.payloadBytes = payloadBytes;
    hdr.payloadHash = payloadHash;
    hdr.keyHash = fnv1a(key.data(), key.size());
    hdr.mixHash = fnv1a(mixSection.data(), mixSection.size());
    return hdr.serialize() + key + mixSection;
}

void
RecordDecoder::decode(const std::uint8_t *&p, const std::uint8_t *end,
                      InstrRecord &rec)
{
    auto truncated = [] {
        throw std::runtime_error(
            "trace payload truncated mid-record");
    };
    if (p == end)
        truncated();
    const std::uint8_t tag = *p++;
    const std::uint8_t cls = tag & 0x7f;
    if (cls >= static_cast<std::uint8_t>(InstrClass::NumClasses))
        throw std::runtime_error(
            "invalid instruction class byte " + std::to_string(cls) +
            " in trace payload");
    rec.cls = static_cast<InstrClass>(cls);
    if ((tag & 0x80) && rec.cls != InstrClass::Branch)
        throw std::runtime_error(
            "taken flag set on non-branch record in trace payload");
    rec.taken = (tag & 0x80) != 0;

    std::uint64_t v;
    if (!getVarint(p, end, v))
        truncated();
    rec.id = prevId_ + std::uint64_t(unzigzag(v));
    prevId_ = rec.id;
    if (!getVarint(p, end, v))
        truncated();
    rec.pc = prevPc_ + std::uint64_t(unzigzag(v));
    prevPc_ = rec.pc;
    if (isMemClass(rec.cls)) {
        if (!getVarint(p, end, v))
            truncated();
        rec.addr = prevAddr_ + std::uint64_t(unzigzag(v));
        prevAddr_ = rec.addr;
        if (p == end)
            truncated();
        rec.size = *p++;
    } else {
        rec.addr = 0;
        rec.size = 0;
    }
    for (auto &dep : rec.deps) {
        if (!getVarint(p, end, v))
            truncated();
        dep = v ? rec.id - std::uint64_t(unzigzag(v - 1)) : 0;
    }
}

std::size_t
RecordDecoder::decodeBlock(const std::uint8_t *&p,
                           const std::uint8_t *end, InstrRecord *out,
                           std::size_t maxRecords)
{
    std::size_t n = 0;
    while (n < maxRecords && p != end) {
        decode(p, end, out[n]);
        ++n;
    }
    return n;
}

} // namespace wire

namespace {

/// Validated front matter of a trace file.
struct FrontMatter {
    std::string key;
    InstrMix mix;
    std::uint64_t count = 0;
    std::uint64_t payloadBytes = 0;
    std::uint64_t payloadHash = 0;
};

[[noreturn]] void
badTrace(const std::string &path, const std::string &what)
{
    throw std::runtime_error("TraceReader: " + what + " in " + path);
}

/**
 * Read and validate everything in @p file up to (but excluding) the
 * payload bytes: magic, version, key hash and match, mix-section
 * hash, count-vs-mix and count-vs-payload-length consistency, and
 * the total file size against the header. Leaves @p file positioned
 * at the payload.
 */
FrontMatter
readFrontMatter(File &file, const std::string &expectKey)
{
    const std::string &path = file.path();
    auto bad = [&path](const std::string &what) {
        badTrace(path, what);
    };

    FrontMatter fm;
    // A short read is a file shorter than it claims; a failed one
    // throws IoError.
    auto readAll = [&](void *out, std::size_t n, const char *what) {
        if (file.read(out, n) != n)
            bad(what);
    };

    std::uint8_t head[wire::headerBytes];
    readAll(head, sizeof(head), "truncated header");
    if (std::memcmp(head, wire::magic, sizeof(wire::magic)) != 0) {
        if (std::memcmp(head, wire::magic, sizeof(wire::magic) - 1) ==
            0) {
            bad("unsupported trace format revision '" +
                std::string(1, char(head[7])) + "'");
        }
        bad("bad magic");
    }
    const std::uint32_t version = wire::getLe32(head + 8);
    if (version != wire::formatVersion)
        bad("unsupported format version " + std::to_string(version));
    const std::uint32_t key_bytes = wire::getLe32(head + 12);
    if (key_bytes > wire::maxKeyBytes)
        bad("implausible key length " + std::to_string(key_bytes));
    fm.count = wire::getLe64(head + 16);
    fm.payloadBytes = wire::getLe64(head + 24);
    fm.payloadHash = wire::getLe64(head + 32);
    const std::uint64_t key_hash = wire::getLe64(head + 40);
    const std::uint64_t mix_hash = wire::getLe64(head + 48);

    fm.key.resize(key_bytes);
    readAll(fm.key.data(), key_bytes, "truncated key");
    if (wire::fnv1a(fm.key.data(), fm.key.size()) != key_hash)
        bad("key hash mismatch");
    if (!expectKey.empty() && fm.key != expectKey) {
        throw TraceKeyMismatch(
            "TraceReader: trace key mismatch (stored \"" + fm.key +
            "\", expected \"" + expectKey + "\") in " + path);
    }

    std::uint8_t mix_raw[wire::mixBytes];
    readAll(mix_raw, sizeof(mix_raw), "truncated mix section");
    if (wire::fnv1a(mix_raw, sizeof(mix_raw)) != mix_hash)
        bad("mix-section hash mismatch");
    for (int c = 0; c < numInstrClasses; ++c) {
        fm.mix.add(static_cast<InstrClass>(c),
                   wire::getLe64(mix_raw + 8 * c));
    }
    if (fm.mix.total() != fm.count) {
        bad("mix total " + std::to_string(fm.mix.total()) +
            " disagrees with record count " + std::to_string(fm.count));
    }

    // A record needs at least minRecordBytes, so a count the payload
    // cannot possibly hold is rejected before any decoding.
    if (fm.count > fm.payloadBytes / wire::minRecordBytes) {
        bad("record count " + std::to_string(fm.count) +
            " inconsistent with payload length " +
            std::to_string(fm.payloadBytes));
    }

    // Validate the physical size against the header without touching
    // the payload bytes, then reposition at the payload.
    const std::uint64_t payload_at = file.tell();
    file.seek(0, SEEK_END);
    const std::uint64_t actual = file.tell() - payload_at;
    if (actual != fm.payloadBytes) {
        bad("payload is " + std::to_string(actual) +
            " bytes but the header claims " +
            std::to_string(fm.payloadBytes));
    }
    file.seek(std::int64_t(payload_at));
    return fm;
}

} // namespace

TraceReader::TraceReader(const std::string &path,
                         const std::string &expectKey)
    : path_(path)
{
    File file(path, File::Mode::Read);
    FrontMatter fm = readFrontMatter(file, expectKey);
    key_ = std::move(fm.key);
    mix_ = fm.mix;
    count_ = fm.count;
    payloadBytes_ = std::size_t(fm.payloadBytes);
    payload_ = std::make_unique_for_overwrite<std::uint8_t[]>(payloadBytes_);
    if (file.read(payload_.get(), payloadBytes_) != payloadBytes_)
        badTrace(path, "payload read failed");
    if (wire::payloadHash(payload_.get(), payloadBytes_) != fm.payloadHash)
        badTrace(path, "payload checksum mismatch");
}

TraceSummary
readTraceSummary(const std::string &path, const std::string &expectKey)
{
    File file(path, File::Mode::Read);
    FrontMatter fm = readFrontMatter(file, expectKey);
    TraceSummary s;
    s.key = std::move(fm.key);
    s.count = fm.count;
    s.mix = fm.mix;
    return s;
}

TraceCursor::TraceCursor(const std::uint8_t *payload, std::size_t bytes,
                         std::uint64_t count, std::string_view source)
    : begin_(payload), pos_(payload), end_(payload + bytes), count_(count),
      source_(source)
{
}

bool
TraceCursor::atEnd() const
{
    if (read_ < count_)
        return false;
    if (pos_ != end_)
        throw std::runtime_error(
            "TraceReader: payload continues past the " +
            std::to_string(count_) +
            " records promised by the "
            "header in " + std::string(source_));
    return true;
}

bool
TraceCursor::next(InstrRecord &rec)
{
    if (atEnd())
        return false;
    decoder_.decode(pos_, end_, rec);
    ++read_;
    return true;
}

std::size_t
TraceCursor::nextBlock(InstrRecord *out, std::size_t maxRecords)
{
    if (atEnd())
        return 0;
    const std::size_t want =
        std::size_t(std::min<std::uint64_t>(count_ - read_, maxRecords));
    const std::size_t got = decoder_.decodeBlock(pos_, end_, out, want);
    read_ += got;
    if (got < want) {
        // The payload ended on a record boundary before the promised
        // count - the same truncation next() would hit one record
        // later.
        throw std::runtime_error(
            "trace payload truncated mid-record");
    }
    return got;
}

void
EncodedTrace::Free::operator()(std::uint8_t *p) const
{
    std::free(p);
}

void
EncodedTrace::grow()
{
    const std::size_t want = std::max(2 * capacity_, std::size_t{4096});
    void *p = std::realloc(bytes_.get(), want);
    if (!p)
        throw std::bad_alloc();
    (void)bytes_.release();  // realloc already moved or freed it
    bytes_.reset(static_cast<std::uint8_t *>(p));
    capacity_ = want;
}

} // namespace uasim::trace
