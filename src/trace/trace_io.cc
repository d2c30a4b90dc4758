#include "trace/trace_io.hh"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstring>
#include <iterator>
#include <memory>
#include <stdexcept>

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

/// Write @p v at @p out as a LEB128 varint (at most 10 bytes).
inline std::uint8_t *
putVarint(std::uint8_t *out, std::uint64_t v)
{
    while (v >= 0x80) {
        *out++ = static_cast<std::uint8_t>(v | 0x80);
        v >>= 7;
    }
    *out++ = static_cast<std::uint8_t>(v);
    return out;
}

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

std::uint8_t *
RecordEncoder::encode(const InstrRecord &rec, std::uint8_t *out)
{
    const bool taken = rec.cls == InstrClass::Branch && rec.taken;
    *out++ = static_cast<std::uint8_t>(
        static_cast<std::uint8_t>(rec.cls) | (taken ? 0x80 : 0));
    out = putVarint(out, zigzag(std::int64_t(rec.id - prevId_)));
    prevId_ = rec.id;
    out = putVarint(out, zigzag(std::int64_t(rec.pc - prevPc_)));
    prevPc_ = rec.pc;
    if (rec.isMem()) {
        out = putVarint(out, zigzag(std::int64_t(rec.addr - prevAddr_)));
        prevAddr_ = rec.addr;
        *out++ = rec.size;
    }
    for (auto dep : rec.deps) {
        // 0 = no dependence; otherwise bias the producer delta by one
        // so it cannot collide with the no-dependence encoding.
        out = putVarint(out, dep ? zigzag(std::int64_t(rec.id - dep)) + 1
                                 : 0);
    }
    return out;
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

std::string
errnoText()
{
    return std::strerror(errno);
}

} // namespace

FileSink::FileSink(const std::string &path, std::string key)
    : path_(path), key_(std::move(key)),
      buffer_(std::make_unique_for_overwrite<std::uint8_t[]>(
          writeBufferBytes + wire::RecordEncoder::maxRecordBytes))
{
    if (key_.size() > wire::maxKeyBytes)
        throw std::runtime_error("FileSink: key too long for " + path);
    file_ = std::fopen(path.c_str(), "wb");
    if (!file_)
        throw std::runtime_error("FileSink: cannot open " + path +
                                 ": " + errnoText());
    // Header + mix placeholders (patched by close()) and the key; a
    // reader of an unfinalized file sees payloadBytes 0 != actual
    // size and rejects it.
    wire::Header hdr;
    hdr.keyBytes = std::uint32_t(key_.size());
    hdr.keyHash = wire::fnv1a(key_.data(), key_.size());
    std::string head =
        hdr.serialize() + key_ + std::string(wire::mixBytes, '\0');
    if (std::fwrite(head.data(), 1, head.size(), file_) != head.size())
        fail("header write failed");
}

FileSink::~FileSink()
{
    if (!file_)
        return;
    try {
        close();
    } catch (const std::exception &e) {
        // Destructors must not throw; surface the failure instead of
        // silently leaving a corrupt trace behind.
        std::fprintf(stderr, "FileSink: %s\n", e.what());
    }
}

void
FileSink::fail(const std::string &what)
{
    failed_ = true;
    if (file_) {
        // Already failing; a close error cannot add information.
        (void)std::fclose(file_);
        file_ = nullptr;
    }
    throw std::runtime_error("FileSink: " + what + " for " + path_);
}

void
FileSink::append(const InstrRecord &rec)
{
    if (!file_) {
        throw std::runtime_error(
            "FileSink: append on a closed or failed sink for " +
            path_);
    }
    fill_ = std::size_t(encoder_.encode(rec, buffer_.get() + fill_) -
                        buffer_.get());
    mix_.add(rec);
    ++written_;
    if (fill_ >= writeBufferBytes)
        flushBuffer(false);
}

void
FileSink::flushBuffer(bool last)
{
    // Before the last flush only whole words are hashed and written
    // (the tail moves to the front of the buffer), so the streamed
    // checksum equals one payloadHash() over the whole payload.
    const std::size_t n = last ? fill_ : fill_ & ~std::size_t{7};
    if (n == 0)
        return;
    payloadHash_ = wire::payloadHash(buffer_.get(), n, payloadHash_);
    if (std::fwrite(buffer_.get(), 1, n, file_) != n)
        fail("payload write failed: " + errnoText());
    payloadBytes_ += n;
    fill_ -= n;
    std::memmove(buffer_.get(), buffer_.get() + n, fill_);
}

void
FileSink::close()
{
    if (!file_)
        return;
    flushBuffer(true);
    // Flush data before patching the header so a failure cannot leave
    // a valid-looking header over a truncated payload.
    if (std::fflush(file_) != 0)
        fail("payload flush failed: " + errnoText());
    const std::string mix_section = wire::serializeMix(mix_);
    wire::Header hdr;
    hdr.keyBytes = std::uint32_t(key_.size());
    hdr.recordCount = written_;
    hdr.payloadBytes = payloadBytes_;
    hdr.payloadHash = payloadHash_;
    hdr.keyHash = wire::fnv1a(key_.data(), key_.size());
    hdr.mixHash = wire::fnv1a(mix_section.data(), mix_section.size());
    // Header, key and mix section are contiguous from offset 0, so
    // one seek patches them all.
    std::string head = hdr.serialize() + key_ + mix_section;
    if (std::fseek(file_, 0, SEEK_SET) != 0)
        fail("header seek failed: " + errnoText());
    if (std::fwrite(head.data(), 1, head.size(), file_) != head.size())
        fail("header patch failed: " + errnoText());
    if (std::fflush(file_) != 0)
        fail("header flush failed: " + errnoText());
    std::FILE *f = file_;
    file_ = nullptr;
    if (std::fclose(f) != 0) {
        failed_ = true;
        throw std::runtime_error("FileSink: close failed for " + path_ +
                                 ": " + errnoText());
    }
}

namespace {

using FileHandle = std::unique_ptr<std::FILE, int (*)(std::FILE *)>;

/// Validated front matter of a trace file, positioned at the payload.
struct OpenedTrace {
    FileHandle file{nullptr, &std::fclose};
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

/// Throw for an I/O failure of @p what on @p path: the file could not
/// be reached, which says nothing about its content.
[[noreturn]] void
ioFail(const std::string &path, const std::string &what)
{
    throw TraceIoError("TraceReader: " + what + " in " + path);
}

/// Throw for a short read of @p what from @p file: an I/O failure when
/// the stream reports an error, else a file shorter than it claims.
[[noreturn]] void
shortRead(std::FILE *file, const std::string &path, const std::string &what)
{
    if (std::ferror(file))
        ioFail(path, what + ": " + errnoText());
    badTrace(path, what);
}

/**
 * Open @p path and validate everything up to (but excluding) the
 * payload bytes: magic, version, key hash and match, mix-section
 * hash, count-vs-mix and count-vs-payload-length consistency, and
 * the total file size against the header.
 */
OpenedTrace
openTrace(const std::string &path, const std::string &expectKey)
{
    auto bad = [&path](const std::string &what) {
        badTrace(path, what);
    };

    OpenedTrace ot;
    ot.file = FileHandle(std::fopen(path.c_str(), "rb"), &std::fclose);
    if (!ot.file)
        throw TraceIoError("TraceReader: cannot open " + path + ": " +
                           errnoText());
    auto readFailed = [&](const std::string &what) {
        shortRead(ot.file.get(), path, what);
    };

    std::uint8_t head[wire::headerBytes];
    if (std::fread(head, 1, sizeof(head), ot.file.get()) !=
        sizeof(head))
        readFailed("truncated header");
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
    ot.count = wire::getLe64(head + 16);
    ot.payloadBytes = wire::getLe64(head + 24);
    ot.payloadHash = wire::getLe64(head + 32);
    const std::uint64_t key_hash = wire::getLe64(head + 40);
    const std::uint64_t mix_hash = wire::getLe64(head + 48);

    ot.key.resize(key_bytes);
    if (key_bytes && std::fread(ot.key.data(), 1, key_bytes,
                                ot.file.get()) != key_bytes)
        readFailed("truncated key");
    if (wire::fnv1a(ot.key.data(), ot.key.size()) != key_hash)
        bad("key hash mismatch");
    if (!expectKey.empty() && ot.key != expectKey) {
        throw TraceKeyMismatch(
            "TraceReader: trace key mismatch (stored \"" + ot.key +
            "\", expected \"" + expectKey + "\") in " + path);
    }

    std::uint8_t mix_raw[wire::mixBytes];
    if (std::fread(mix_raw, 1, sizeof(mix_raw), ot.file.get()) !=
        sizeof(mix_raw))
        readFailed("truncated mix section");
    if (wire::fnv1a(mix_raw, sizeof(mix_raw)) != mix_hash)
        bad("mix-section hash mismatch");
    for (int c = 0; c < numInstrClasses; ++c) {
        ot.mix.add(static_cast<InstrClass>(c),
                   wire::getLe64(mix_raw + 8 * c));
    }
    if (ot.mix.total() != ot.count) {
        bad("mix total " + std::to_string(ot.mix.total()) +
            " disagrees with record count " + std::to_string(ot.count));
    }

    // A record needs at least minRecordBytes, so a count the payload
    // cannot possibly hold is rejected before any decoding.
    if (ot.count > ot.payloadBytes / wire::minRecordBytes) {
        bad("record count " + std::to_string(ot.count) +
            " inconsistent with payload length " +
            std::to_string(ot.payloadBytes));
    }

    // Validate the physical size against the header without touching
    // the payload bytes, then reposition at the payload.
    const long payload_at = std::ftell(ot.file.get());
    if (payload_at < 0 ||
        std::fseek(ot.file.get(), 0, SEEK_END) != 0) {
        ioFail(path, "size check seek failed: " + errnoText());
    }
    const long end_at = std::ftell(ot.file.get());
    if (end_at < 0)
        ioFail(path, "size check tell failed: " + errnoText());
    const std::uint64_t actual =
        std::uint64_t(end_at) - std::uint64_t(payload_at);
    if (actual != ot.payloadBytes) {
        bad("payload is " + std::to_string(actual) +
            " bytes but the header claims " +
            std::to_string(ot.payloadBytes));
    }
    if (std::fseek(ot.file.get(), payload_at, SEEK_SET) != 0)
        ioFail(path, "payload seek failed: " + errnoText());
    return ot;
}

} // namespace

TraceReader::TraceReader(const std::string &path,
                         const std::string &expectKey)
    : path_(path)
{
    OpenedTrace ot = openTrace(path, expectKey);
    key_ = std::move(ot.key);
    mix_ = ot.mix;
    count_ = ot.count;
    payload_.resize(ot.payloadBytes);
    if (ot.payloadBytes &&
        std::fread(payload_.data(), 1, payload_.size(), ot.file.get()) !=
            payload_.size()) {
        shortRead(ot.file.get(), path, "payload read failed");
    }
    if (wire::payloadHash(payload_.data(), payload_.size()) !=
        ot.payloadHash)
        badTrace(path, "payload checksum mismatch");
    cur_ = cursor();
}

TraceSummary
readTraceSummary(const std::string &path, const std::string &expectKey)
{
    OpenedTrace ot = openTrace(path, expectKey);
    TraceSummary s;
    s.key = std::move(ot.key);
    s.count = ot.count;
    s.mix = ot.mix;
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
EncodedTrace::append(const InstrRecord &rec)
{
    appendBlock(&rec, 1);
}

void
EncodedTrace::appendBlock(const InstrRecord *recs, std::size_t n)
{
    constexpr std::size_t maxBytes = wire::RecordEncoder::maxRecordBytes;
    for (std::size_t i = 0; i < n; ++i) {
        if (bytes_.size() - fill_ < maxBytes)
            bytes_.resize(std::max(2 * bytes_.size(), std::size_t{4096}));
        fill_ = std::size_t(encoder_.encode(recs[i], bytes_.data() + fill_) -
                            bytes_.data());
        mix_.add(recs[i]);
    }
    count_ += n;
}

} // namespace uasim::trace
