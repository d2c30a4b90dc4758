/**
 * @file
 * Binary trace serialization: the UATRACE2 on-disk format.
 *
 * Layout:
 *
 *   header (56 bytes, little-endian):
 *     [ 0..7 ]  magic "UATRACE2"
 *     [ 8..11]  u32 format version (wire::formatVersion)
 *     [12..15]  u32 key length in bytes
 *     [16..23]  u64 record count          (patched on close)
 *     [24..31]  u64 payload length        (patched on close)
 *     [32..39]  u64 payload FNV-1a hash   (patched on close)
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
 * Every error path is checked: FileSink::close() throws on any failed
 * write/flush/seek/close (the destructor reports to stderr instead),
 * and TraceReader validates magic, version, file size against the
 * header, the payload checksum, and per-record class/flag sanity, so a
 * truncated or corrupted file is rejected instead of silently read as
 * data.
 */

#ifndef UASIM_TRACE_TRACE_IO_HH
#define UASIM_TRACE_TRACE_IO_HH

#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

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
constexpr std::uint32_t formatVersion = 2;

/// File magic; the trailing character tracks the major format.
constexpr char magic[8] = {'U', 'A', 'T', 'R', 'A', 'C', 'E', '2'};

/// Serialized header size in bytes.
constexpr std::size_t headerBytes = 56;

/// Serialized mix-section size in bytes (one u64 per class).
constexpr std::size_t mixBytes = std::size_t(numInstrClasses) * 8;

/// Smallest possible encoded record (tag + 5 single-byte varints).
constexpr std::size_t minRecordBytes = 6;

/// Largest possible encoded record: tag byte + 10-byte id and pc
/// varints + 10-byte addr varint + size byte + three 10-byte dep
/// varints. The block decoder's unchecked fast path relies on this
/// bound: with maxRecordBytes readable it can skip every per-field
/// end-of-buffer check.
constexpr std::size_t maxRecordBytes = 62;

/// Upper bound on a plausible key length (headers claiming more are
/// rejected as corrupt before any allocation).
constexpr std::uint32_t maxKeyBytes = 4096;

/// 64-bit FNV-1a over @p n bytes, continuing from @p state.
std::uint64_t fnv1a(const void *data, std::size_t n,
                    std::uint64_t state = 0xcbf29ce484222325ull);

/// Append @p v to @p out as a LEB128 varint (at most 10 bytes).
void putVarint(std::string &out, std::uint64_t v);

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

/// Parsed/serializable UATRACE2 header.
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
 * Stateful delta encoder for the record stream. Encoder and decoder
 * must see the same record sequence from the start of the payload.
 */
class RecordEncoder
{
  public:
    /// Append the encoding of @p rec to @p out.
    void encode(const InstrRecord &rec, std::string &out);

  private:
    std::uint64_t prevId_ = 0;
    std::uint64_t prevPc_ = 0;
    std::uint64_t prevAddr_ = 0;
};

/**
 * Cross-record delta state of the decoder: the running previous value
 * of each delta-encoded lane. Split out of RecordDecoder so the
 * runtime-dispatched block decoders (trace/simd_decode.hh) can thread
 * the exact same state through their fast paths.
 */
struct DecodeState {
    std::uint64_t prevId = 0;
    std::uint64_t prevPc = 0;
    std::uint64_t prevAddr = 0;
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
     * @p out, advancing @p p. Records are decoded on an unchecked
     * fast path while at least maxRecordBytes remain (no per-field
     * bounds checks; the path is SIMD-accelerated when the host
     * supports it, see trace/simd_decode.hh), falling back to the
     * checked scalar path near the end of the buffer, so the result
     * is byte-for-byte identical to @p maxRecords decode() calls -
     * including every error case (trace_io_test and simd_decode_test
     * lock the equivalence property across every dispatch tier).
     *
     * @return the number of records decoded; less than @p maxRecords
     * only when the buffer ended cleanly on a record boundary.
     * @throws std::runtime_error exactly where decode() would.
     */
    std::size_t decodeBlock(const std::uint8_t *&p,
                            const std::uint8_t *end, InstrRecord *out,
                            std::size_t maxRecords);

  private:
    DecodeState st_;
};

} // namespace wire

/**
 * Sink that writes records to a UATRACE2 trace file.
 *
 * The file is finalized (count/length/checksum patched) by close(),
 * which throws on any I/O failure - a full disk can no longer yield a
 * truncated trace with a valid-looking header. The destructor closes
 * as a fallback but reports failures to stderr instead of throwing.
 */
class FileSink : public TraceSink
{
  public:
    /**
     * @param path destination file; truncated if it exists.
     * @param key trace-job identity stored in the file (may be empty).
     * @throws std::runtime_error if the file cannot be created.
     */
    explicit FileSink(const std::string &path, std::string key = {});
    ~FileSink() override;

    FileSink(const FileSink &) = delete;
    FileSink &operator=(const FileSink &) = delete;

    void append(const InstrRecord &rec) override;

    /**
     * Flush buffered records and patch the header. Idempotent.
     * @throws std::runtime_error on any write/flush/seek/close
     * failure (the file is closed and left invalid on disk).
     */
    void close();

    std::uint64_t written() const { return written_; }

    /// False once any I/O on the file has failed.
    bool ok() const { return !failed_; }

  private:
    void flushBuffer();
    void fail(const std::string &what);

    std::FILE *file_ = nullptr;
    std::string path_;
    std::string key_;
    std::string buffer_;
    wire::RecordEncoder encoder_;
    InstrMix mix_;
    std::uint64_t written_ = 0;
    std::uint64_t payloadBytes_ = 0;
    std::uint64_t payloadHash_ = 0xcbf29ce484222325ull;  //!< FNV basis
    bool failed_ = false;
};

/**
 * Thrown when a trace file is valid but stores a different key than
 * the caller expected (a content-address hash collision). Kept
 * distinct from plain corruption so the TraceStore can treat it as a
 * miss without deleting the other job's valid entry.
 */
struct TraceKeyMismatch : std::runtime_error {
    using std::runtime_error::runtime_error;
};

class TraceReader;

/**
 * One independent decode pass over a TraceReader's validated payload.
 *
 * A cursor owns its own decoder state and position, so any number of
 * cursors (e.g. one per replay shard) can walk the same reader - and
 * the same mmap'd bytes - concurrently without re-opening or copying
 * the file. Decoding is read-only on the shared payload; the only
 * mutable state is inside the cursor itself. The reader must outlive
 * every cursor obtained from it.
 */
class TraceCursor
{
  public:
    /// An empty cursor; next()/nextBlock() report end of trace.
    TraceCursor() = default;

    /**
     * Read the next record. @return false at end of trace.
     * @throws std::runtime_error if the payload is malformed or does
     * not contain exactly the record count promised by the header.
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

  private:
    friend class TraceReader;
    explicit TraceCursor(const TraceReader *reader);

    const TraceReader *reader_ = nullptr;
    const std::uint8_t *pos_ = nullptr;
    wire::RecordDecoder decoder_;
    std::uint64_t read_ = 0;
};

/**
 * Reader for UATRACE2 files produced by FileSink.
 *
 * The payload is checksum-verified at construction and then served
 * zero-copy: on POSIX hosts the file is mmap'd (with
 * madvise(MADV_SEQUENTIAL) as a streaming hint) and decoding walks
 * the mapping directly; when mmap is unavailable - or disabled via
 * the UASIM_NO_MMAP environment variable - the payload is read into a
 * heap buffer instead, with identical behaviour (mapped() tells which
 * path was taken). Header, key and mix reads never touch the payload
 * mapping. next() decodes incrementally and throws on any malformed
 * record, so a short read can never be mistaken for end-of-trace;
 * cursor() hands out additional independent decode passes over the
 * same validated bytes.
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
     * or key mismatch.
     */
    explicit TraceReader(const std::string &path,
                         const std::string &expectKey = {});
    ~TraceReader();

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
    std::uint64_t payloadBytes() const { return payloadSize_; }

    /// True when the payload is served zero-copy from an mmap'd view
    /// of the file; false on the buffered fallback path.
    bool mapped() const { return mapBase_ != nullptr; }

    /**
     * A fresh, independent decode pass positioned at the first
     * record. Cursors share the reader's validated payload bytes and
     * nothing else, so passes may run on different threads
     * concurrently (and concurrently with the reader's own
     * next()/nextBlock() stream).
     */
    TraceCursor cursor() const { return TraceCursor(this); }

    /**
     * Read the next record. @return false at end of trace.
     * @throws std::runtime_error if the payload is malformed or does
     * not contain exactly count() records.
     */
    bool next(InstrRecord &rec) { return cur_.next(rec); }

    /**
     * Read up to @p maxRecords records into @p out via the block
     * decoder. @return the number read; 0 only at end of trace.
     * Interleaves freely with next() (one decode stream) and applies
     * the same malformed-payload and record-count checks.
     */
    std::size_t
    nextBlock(InstrRecord *out, std::size_t maxRecords)
    {
        return cur_.nextBlock(out, maxRecords);
    }

    /// Stream the remaining records into a sink in block-decoded
    /// batches (TraceSink::appendBlock). @return records read.
    std::uint64_t drainTo(TraceSink &sink);

  private:
    friend class TraceCursor;

    std::string path_;
    std::string key_;
    InstrMix mix_;
    std::vector<std::uint8_t> payload_;  //!< buffered fallback storage
    void *mapBase_ = nullptr;            //!< whole-file mapping base
    std::size_t mapLen_ = 0;
    const std::uint8_t *data_ = nullptr; //!< payload start (either path)
    std::uint64_t payloadSize_ = 0;
    std::uint64_t count_ = 0;
    TraceCursor cur_;  //!< backs the reader's own next()/nextBlock()
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
