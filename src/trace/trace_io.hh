/**
 * @file
 * Binary trace serialization: the UATRACE3 on-disk format.
 *
 * Layout:
 *
 *   header (56 bytes, little-endian):
 *     [ 0..7 ]  magic "UATRACE3"
 *     [ 8..11]  u32 format version (wire::formatVersion)
 *     [12..15]  u32 key length in bytes
 *     [16..23]  u64 record count          (patched on close)
 *     [24..31]  u64 payload length        (patched on close)
 *     [32..39]  u64 payload hash, wire::payloadHash (patched on close)
 *     [40..47]  u64 key FNV-1a hash
 *     [48..55]  u64 mix-section FNV-1a hash (patched on close)
 *   key bytes (the trace job's cache key, for exact-match validation)
 *   mix section: per-class record counts, numInstrClasses x u64
 *     (patched on close; lets mix-only consumers skip the payload)
 *   payload   (delta/varint-compacted record stream)
 *
 * Each record is encoded as: a tag byte (instruction class, plus the
 * branch-taken flag in bit 7), a zigzag-varint id delta, a zigzag-
 * varint pc delta, then - for memory classes only - a zigzag-varint
 * address delta and a raw size byte, then three dep fields encoded
 * relative to the record's own id. Fields that are meaningless for a
 * class (addr/size on non-memory records, taken on non-branches) are
 * canonicalized to zero, which every consumer (the timing backends,
 * InstrMix) already treats as "absent".
 *
 * The payload is the bulk of every file, so its checksum works a
 * 64-bit word at a time (wire::payloadHash) rather than FNV-1a's one
 * multiply per byte. Format 3 differs from format 2 only in that
 * checksum.
 *
 * This header holds the format and its readers. The files themselves
 * are written by the trace store (trace/trace_store.hh), in one of two
 * ways: TraceStore::publish() writes an EncodedTrace's in-memory
 * payload behind its front matter, and TraceStore::Recorder streams
 * records to disk through a fixed buffer. Both go through the checked
 * file module (trace/file_io.hh) and throw on any failed write.
 * TraceReader validates magic, version, file size against the header,
 * the payload checksum, and per-record class/flag sanity, so a
 * truncated or corrupted file is rejected instead of silently read as
 * data. A file TraceReader cannot open or read at all throws that
 * module's IoError instead, so a caller can tell "unreachable" from
 * "invalid".
 */

#ifndef UASIM_TRACE_TRACE_IO_HH
#define UASIM_TRACE_TRACE_IO_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>

#include "trace/instr.hh"
#include "trace/mix.hh"
#include "trace/sink.hh"

namespace uasim::trace {

/**
 * Wire-format primitives, public so tests can craft valid and
 * deliberately corrupt trace files byte by byte.
 */
namespace wire {

/// Current on-disk format version; bumping it invalidates every
/// stored trace (the TraceStore embeds it in entry file names).
constexpr std::uint32_t formatVersion = 3;

/// File magic; the trailing character tracks the major format.
constexpr char magic[8] = {'U', 'A', 'T', 'R', 'A', 'C', 'E', '3'};

/// Serialized header size in bytes.
constexpr std::size_t headerBytes = 56;

/// Serialized mix-section size in bytes (one u64 per class).
constexpr std::size_t mixBytes = std::size_t(numInstrClasses) * 8;

/// Smallest possible encoded record (tag + 5 single-byte varints).
constexpr std::size_t minRecordBytes = 6;

/// Upper bound on a plausible key length (headers claiming more are
/// rejected as corrupt before any allocation).
constexpr std::uint32_t maxKeyBytes = 4096;

/// 64-bit FNV-1a offset basis: the initial hash state.
constexpr std::uint64_t fnvBasis = 0xcbf29ce484222325ull;

/// 64-bit FNV-1a over @p n bytes, continuing from @p state.
std::uint64_t fnv1a(const void *data, std::size_t n,
                    std::uint64_t state = fnvBasis);

/**
 * The payload checksum: each little-endian 64-bit word w of the first
 * n & ~7 bytes steps h = (h ^ w) * FNV prime, h ^= h >> 29; the last
 * n & 7 bytes take byte-wise FNV-1a steps. Every step is a bijection
 * of h, so a change confined to one word (or one tail byte) always
 * changes the result.
 *
 * Continuing from @p state equals hashing the concatenation when every
 * earlier piece was a multiple of 8 bytes long, which is how
 * TraceStore::Recorder streams it.
 */
std::uint64_t payloadHash(const void *data, std::size_t n,
                          std::uint64_t state = fnvBasis);

/**
 * Decode one varint from [@p p, @p end), advancing @p p.
 * @return false on truncated or over-long (> 10 byte) encodings.
 */
bool getVarint(const std::uint8_t *&p, const std::uint8_t *end,
               std::uint64_t &v);

/// Zigzag-map a signed delta into an unsigned varint payload.
constexpr std::uint64_t
zigzag(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

/// Inverse of zigzag().
constexpr std::int64_t
unzigzag(std::uint64_t v)
{
    return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

/// Write @p v at @p out as a LEB128 varint (at most 10 bytes).
/// @return one past the last byte written.
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

/// Parsed/serializable UATRACE3 header.
struct Header {
    std::uint32_t version = formatVersion;
    std::uint32_t keyBytes = 0;
    std::uint64_t recordCount = 0;
    std::uint64_t payloadBytes = 0;
    std::uint64_t payloadHash = 0;
    std::uint64_t keyHash = 0;
    std::uint64_t mixHash = 0;

    /// Serialize to the fixed little-endian layout.
    std::string serialize() const;
};

/// Serialize an InstrMix to the fixed little-endian mix section.
std::string serializeMix(const InstrMix &mix);

/**
 * The front matter of a finished trace file - header, key and mix
 * section - for a payload of @p payloadBytes bytes that holds
 * mix.total() records and whose payloadHash() is @p payloadHash.
 * TraceStore::Recorder and TraceStore::publish() both write it.
 * @throws std::runtime_error if @p key is longer than maxKeyBytes.
 */
std::string frontMatter(const std::string &key, const InstrMix &mix,
                        std::uint64_t payloadBytes,
                        std::uint64_t payloadHash);

/**
 * Stateful delta encoder for the record stream. Encoder and decoder
 * must see the same record sequence from the start of the payload.
 */
class RecordEncoder
{
  public:
    /// Largest encoding of one record: the tag byte, six varints of
    /// at most 10 bytes (id, pc, addr, three deps) and the size byte.
    static constexpr std::size_t maxRecordBytes = 62;

    /**
     * Write the encoding of @p rec at @p out, which must have room for
     * maxRecordBytes. @return one past the last byte written.
     */
    std::uint8_t *
    encode(const InstrRecord &rec, std::uint8_t *out)
    {
        const bool taken = rec.cls == InstrClass::Branch && rec.taken;
        *out++ = static_cast<std::uint8_t>(
            static_cast<std::uint8_t>(rec.cls) | (taken ? 0x80 : 0));
        out = putVarint(out, zigzag(std::int64_t(rec.id - prevId_)));
        prevId_ = rec.id;
        out = putVarint(out, zigzag(std::int64_t(rec.pc - prevPc_)));
        prevPc_ = rec.pc;
        if (rec.isMem()) {
            out = putVarint(out,
                            zigzag(std::int64_t(rec.addr - prevAddr_)));
            prevAddr_ = rec.addr;
            *out++ = rec.size;
        }
        for (auto dep : rec.deps) {
            // 0 = no dependence; otherwise bias the producer delta by
            // one so it cannot collide with the no-dependence encoding.
            out = putVarint(
                out, dep ? zigzag(std::int64_t(rec.id - dep)) + 1 : 0);
        }
        return out;
    }

  private:
    std::uint64_t prevId_ = 0;
    std::uint64_t prevPc_ = 0;
    std::uint64_t prevAddr_ = 0;
};

/// Stateful decoder matching RecordEncoder.
class RecordDecoder
{
  public:
    /**
     * Decode one record from [@p p, @p end), advancing @p p.
     * @throws std::runtime_error on truncated bytes, an out-of-range
     * instruction class, or a taken flag on a non-branch.
     */
    void decode(const std::uint8_t *&p, const std::uint8_t *end,
                InstrRecord &rec);

    /**
     * Decode up to @p maxRecords records from [@p p, @p end) into
     * @p out, advancing @p p: a plain loop over decode(), so every
     * record is bounds- and sanity-checked and the result and errors
     * are those of @p maxRecords decode() calls.
     *
     * @return the number of records decoded; less than @p maxRecords
     * only when the buffer ended cleanly on a record boundary.
     * @throws std::runtime_error exactly where decode() would.
     */
    std::size_t decodeBlock(const std::uint8_t *&p,
                            const std::uint8_t *end, InstrRecord *out,
                            std::size_t maxRecords);

  private:
    // Running previous value of each delta-encoded lane.
    std::uint64_t prevId_ = 0;
    std::uint64_t prevPc_ = 0;
    std::uint64_t prevAddr_ = 0;
};

} // namespace wire

/**
 * Thrown when a trace file is valid but stores a different key than
 * the caller expected (a content-address hash collision). Kept
 * distinct from plain corruption so the TraceStore can treat it as a
 * miss without deleting the other job's valid entry.
 */
struct TraceKeyMismatch : std::runtime_error {
    using std::runtime_error::runtime_error;
};

/**
 * One independent decode pass over an encoded record payload: a view
 * of the payload bytes, the record count they must hold, and a source
 * name for error text.
 *
 * A cursor owns its own decoder state and position, so any number of
 * cursors (e.g. one per replay pass) can walk the same payload, even
 * concurrently, without copying it, and copying a cursor forks an
 * independent pass from its position. Decoding is read-only on the
 * shared bytes; the only mutable state is inside the cursor itself.
 * The bytes (a TraceReader's or an EncodedTrace's) must outlive every
 * cursor over them and stay unmodified while it is in use.
 */
class TraceCursor
{
  public:
    /// An empty cursor; next()/nextBlock() report end of trace.
    TraceCursor() = default;

    /**
     * A pass over the @p bytes encoded bytes at @p payload, which
     * must hold exactly @p count records (from the start of a
     * RecordEncoder stream). @p source names the payload in error
     * text and must outlive the cursor.
     */
    TraceCursor(const std::uint8_t *payload, std::size_t bytes,
                std::uint64_t count, std::string_view source);

    /**
     * Read the next record. @return false at end of trace.
     * @throws std::runtime_error if the payload is malformed or does
     * not contain exactly count() records.
     */
    bool next(InstrRecord &rec);

    /**
     * Read up to @p maxRecords records into @p out via the block
     * decoder. @return the number read; 0 only at end of trace.
     * Interleaves freely with next() (one decode stream) and applies
     * the same malformed-payload and record-count checks.
     */
    std::size_t nextBlock(InstrRecord *out, std::size_t maxRecords);

    /// Records decoded by this cursor so far.
    std::uint64_t read() const { return read_; }

    /// Records the payload holds.
    std::uint64_t count() const { return count_; }

    /// Length of the whole payload in bytes.
    std::uint64_t payloadBytes() const { return std::uint64_t(end_ - begin_); }

  private:
    /// Whether all count() records were read; throws if payload
    /// bytes remain past them.
    bool atEnd() const;

    const std::uint8_t *begin_ = nullptr;
    const std::uint8_t *pos_ = nullptr;
    const std::uint8_t *end_ = nullptr;
    std::uint64_t count_ = 0;
    std::string_view source_;
    wire::RecordDecoder decoder_;
    std::uint64_t read_ = 0;
};

/**
 * Sink that encodes records into a growing in-memory UATRACE3
 * payload: the bytes a file holds after its front matter, about
 * 7 bytes per record instead of an InstrRecord's 56. The sweep engine
 * records a timing group into one, publishes it as the group's store
 * entry on a miss (TraceStore::publish) and replays every pass
 * through a cursor(), exactly as it replays a TraceReader from the
 * store.
 *
 * The payload lives in one malloc'd block whose capacity doubles
 * through std::realloc: no byte past the encoded ones is ever
 * written, and a block the allocator has mmap'd grows by remapping
 * rather than copying, so resident memory follows payloadBytes().
 */
class EncodedTrace : public TraceSink
{
  public:
    EncodedTrace() = default;
    EncodedTrace(const EncodedTrace &) = delete;
    EncodedTrace &operator=(const EncodedTrace &) = delete;

    void
    append(const InstrRecord &rec) override
    {
        if (capacity_ - fill_ < wire::RecordEncoder::maxRecordBytes)
            grow();
        std::uint8_t *base = bytes_.get();
        fill_ = std::size_t(encoder_.encode(rec, base + fill_) - base);
        mix_.add(rec);
        ++count_;
    }

    void
    appendBlock(const InstrRecord *recs, std::size_t n) override
    {
        for (std::size_t i = 0; i < n; ++i)
            EncodedTrace::append(recs[i]);
    }

    /// Records appended so far.
    std::uint64_t count() const { return count_; }

    /// Instruction mix of the appended stream.
    const InstrMix &mix() const { return mix_; }

    /// Encoded payload length in bytes.
    std::uint64_t payloadBytes() const { return fill_; }

    /// The encoded payload, payloadBytes() long (null while empty).
    const std::uint8_t *payload() const { return bytes_.get(); }

    /**
     * A fresh decode pass positioned at the first record. The cursor
     * is invalidated by a later append(): take cursors once the
     * recording is complete.
     */
    TraceCursor
    cursor() const
    {
        return TraceCursor(bytes_.get(), fill_, count_, "encoded trace");
    }

  private:
    struct Free {
        void operator()(std::uint8_t *p) const;
    };

    /// Double the capacity (at least 4 KiB) with std::realloc.
    /// @throws std::bad_alloc when the allocator refuses.
    void grow();

    std::unique_ptr<std::uint8_t, Free> bytes_;  //!< capacity_ bytes
    std::size_t capacity_ = 0;
    std::size_t fill_ = 0;  //!< bytes of bytes_ in use
    wire::RecordEncoder encoder_;
    InstrMix mix_;
    std::uint64_t count_ = 0;
};

/**
 * Reader for UATRACE3 files, as the trace store writes them.
 *
 * Construction validates the front matter, reads the whole payload
 * into one buffer with a single checked read, and verifies the payload
 * checksum over that buffer before any record is served. Records are
 * decoded through cursor(), which hands out independent decode passes
 * over the validated bytes; a cursor throws on any malformed record,
 * so a short payload can never be mistaken for end-of-trace.
 */
class TraceReader
{
  public:
    /**
     * @param path trace file to open.
     * @param expectKey when non-empty, the stored key must match it
     * exactly (the TraceStore's hash-collision guard).
     * @throws std::runtime_error on a missing file, bad magic,
     * unsupported version, size/header mismatch, checksum mismatch,
     * or key mismatch; an IoError (trace/file_io.hh) when the file
     * cannot be opened or read (a missing file included), so a caller
     * can tell an unreachable file from an invalid one.
     */
    explicit TraceReader(const std::string &path,
                         const std::string &expectKey = {});

    TraceReader(const TraceReader &) = delete;
    TraceReader &operator=(const TraceReader &) = delete;

    /// Total records in the file.
    std::uint64_t count() const { return count_; }

    /// The trace-job key stored in the file.
    const std::string &key() const { return key_; }

    /// The instruction mix stored in the file's mix section
    /// (hash-validated; equals the mix of the decoded stream).
    const InstrMix &mix() const { return mix_; }

    /// Payload length in bytes (the compressed record stream).
    std::uint64_t payloadBytes() const { return payloadBytes_; }

    /**
     * A fresh, independent decode pass positioned at the first
     * record. Cursors share the reader's validated payload bytes and
     * nothing else, so passes may run on different threads
     * concurrently.
     */
    TraceCursor cursor() const
    {
        return TraceCursor(payload_.get(), payloadBytes_, count_, path_);
    }

  private:
    std::string path_;
    std::string key_;
    InstrMix mix_;
    /// Checksum-verified payload, payloadBytes_ long; read straight
    /// from the file into uninitialized storage.
    std::unique_ptr<std::uint8_t[]> payload_;
    std::size_t payloadBytes_ = 0;
    std::uint64_t count_ = 0;
};

/**
 * Cheap summary view of a trace file: header, key and mix section,
 * all hash-validated, without reading (or checksumming) the payload -
 * the file size is still verified against the header, so truncation
 * is caught. Mix-only consumers (Table III style cells) use this to
 * warm-start without decoding a single record.
 */
struct TraceSummary {
    std::string key;
    std::uint64_t count = 0;
    InstrMix mix;
};

/// Read and validate a TraceSummary. @throws like TraceReader.
TraceSummary readTraceSummary(const std::string &path,
                              const std::string &expectKey = {});

} // namespace uasim::trace

#endif // UASIM_TRACE_TRACE_IO_HH
