/**
 * @file
 * Persistent, content-addressed store of recorded kernel traces.
 *
 * The store maps a TraceJob key (core/sweep.hh) to a UATRACE3 file
 * under a cache directory, so sweep grids can warm-start across
 * processes: a job whose trace is already on disk replays it instead
 * of re-emulating the kernel. Entries are addressed by
 *
 *     tr-<fnv1a64(key) in hex>-v<formatVersion>.uatrace
 *
 * which makes the invalidation rule purely mechanical: a new key is a
 * new entry, and bumping wire::formatVersion orphans every old file
 * (they are never matched, only ignored). Each file also stores the
 * full key string, verified on load, so a 64-bit hash collision reads
 * as a miss rather than as the wrong trace.
 *
 * Robustness policy: the store must never corrupt a sweep. Writes go
 * to a temporary file that is atomically renamed into place on
 * commit (trace/file_io.hh's AtomicPublish), concurrent writers of
 * the same key both produce identical bytes and the later rename
 * wins, and a corrupt or truncated entry
 * is reported, deleted, and treated as a miss (the job simply records
 * again). An entry the process cannot open or read at all (out of
 * file descriptors, an I/O error) is a miss that keeps the file: only
 * a failed content check (magic, version, size, key, mix or payload
 * hash) discards. The probes and startRecord() degrade gracefully
 * because a broken cache must not fail the run; construction, a
 * Recorder's commit() and publish() throw, and their callers carry
 * on uncached.
 */

#ifndef UASIM_TRACE_TRACE_STORE_HH
#define UASIM_TRACE_TRACE_STORE_HH

#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <optional>
#include <string>

#include "trace/sink.hh"
#include "trace/trace_io.hh"

namespace uasim::trace {

class AtomicPublish;
class File;

class TraceStore
{
  public:
    /**
     * Open (creating if needed) the cache directory.
     * @throws std::runtime_error if the directory cannot be created
     * or is not writable.
     */
    explicit TraceStore(std::string dir);

    const std::string &dir() const { return dir_; }

    /// Entry file path for @p key (exists or not).
    std::string entryPath(const std::string &key) const;

    /**
     * Probe for the header-only summary (count + hash-validated mix)
     * of a stored trace without reading the payload - the mix-only
     * warm-start path. Corruption policy as openReader().
     */
    std::optional<TraceSummary> loadSummary(const std::string &key) const;

    /**
     * Probe the store and open the entry for direct decoding: the
     * caller drains the reader - or any number of TraceCursor passes
     * over it - itself. Nothing is decoded eagerly, so a hit costs one
     * payload read plus checksum pass.
     *
     * @return nullptr on a miss. A corrupt entry is reported to
     * stderr, deleted, and returned as a miss; a key collision or an
     * entry that cannot be opened or read is a miss that leaves the
     * file in place. The reader's
     * payload decodes lazily, so a corrupt record stream with a valid
     * checksum surfaces later as a decode throw - see discardEntry()
     * for healing that case.
     */
    std::unique_ptr<TraceReader> openReader(const std::string &key) const;

    /**
     * Report and delete the entry for @p key (mid-decode corruption
     * healing: callers that hit a decode error on an openReader()
     * stream discard the entry and re-record, matching openReader()'s
     * corrupt-entry policy). Best-effort; never throws.
     */
    void discardEntry(const std::string &key,
                      const std::string &why) const;

    /**
     * The streaming UATRACE3 writer: records appended to it are
     * encoded into one fixed buffer of writeBufferBytes plus
     * maxRecordBytes, and each full buffer is hashed and written to a
     * temporary file that commit() patches and atomically renames to
     * the entry path. Memory stays at the buffer however long the
     * trace is. Destroying an uncommitted recorder removes the
     * temporary file.
     *
     * append() never throws into the record stream: a failed write
     * (e.g. a full disk) drops the temporary file and latches the
     * error, later appends only count the mix, and commit() rethrows
     * the error instead of publishing - the caller's recording pass
     * completes uncached rather than aborting mid-trace.
     */
    class Recorder : public TraceSink
    {
      public:
        /// Record the entry for @p key at @p entryPath.
        /// @throws std::runtime_error if the key is too long or the
        /// temporary file cannot be created (an IoError).
        Recorder(std::string entryPath, const std::string &key);
        ~Recorder() override;

        void
        append(const InstrRecord &rec) override
        {
            mix_.add(rec);
            if (!file_)
                return;  // failed or committed: only count
            std::uint8_t *base = buffer_.get();
            fill_ = std::size_t(encoder_.encode(rec, base + fill_) - base);
            if (fill_ >= writeBufferBytes)
                flush(false);
        }

        /**
         * Write the buffered records, patch the front matter and
         * publish the file under the entry path. Idempotent.
         * @throws std::runtime_error on any I/O failure, including a
         * latched append() failure; no entry or temporary is left.
         */
        void commit();

        /// Instruction mix of every record appended.
        const InstrMix &mix() const { return mix_; }

        /// Buffered payload bytes that trigger a write.
        static constexpr std::size_t writeBufferBytes = std::size_t{1} << 20;

      private:
        /// Hash and write the buffer; before the @p last write only
        /// its whole 8-byte words, so the streamed checksum equals one
        /// wire::payloadHash() over the payload. A failure drops the
        /// file and latches the error.
        void flush(bool last);

        /// Close and remove the temporary and latch the current
        /// exception for commit().
        void drop();

        std::string key_;
        // Declared before file_, so the file closes before its
        // temporary is removed.
        std::unique_ptr<AtomicPublish> publish_;
        /// Open until commit() or the first failed write; null after.
        std::unique_ptr<File> file_;
        std::exception_ptr error_;
        std::unique_ptr<std::uint8_t[]> buffer_;
        std::size_t fill_ = 0;  //!< bytes of buffer_ in use
        wire::RecordEncoder encoder_;
        InstrMix mix_;
        std::uint64_t payloadBytes_ = 0;
        std::uint64_t payloadHash_ = wire::fnvBasis;
    };

    /**
     * Start recording an entry for @p key.
     * @return nullptr (with a stderr report) if the temporary file
     * cannot be created - the caller just records uncached.
     */
    std::unique_ptr<Recorder> startRecord(const std::string &key) const;

    /**
     * Publish @p trace, recorded for @p key, as the key's entry: the
     * bytes a Recorder fed the same records commits, written under a
     * temporary name and renamed into place.
     * @throws std::runtime_error on any failure, leaving no entry and
     * no temporary behind.
     */
    void publish(const std::string &key, const EncodedTrace &trace) const;

  private:
    std::string dir_;
};

} // namespace uasim::trace

#endif // UASIM_TRACE_TRACE_STORE_HH
