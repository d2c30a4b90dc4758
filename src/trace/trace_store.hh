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

#include <cstdint>
#include <exception>
#include <memory>
#include <optional>
#include <string>

#include "trace/sink.hh"
#include "trace/trace_io.hh"

namespace uasim::trace {

class AtomicPublish;

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
     * Write-through sink for one entry: records appended to it are
     * serialized to a temporary file that commit() atomically renames
     * to the entry path. Destroying an uncommitted recorder - or one
     * whose commit() failed - removes the temporary file.
     *
     * append() never throws into the record stream: a write failure
     * (e.g. a full disk) latches the recorder as failed, later
     * appends become no-ops, and commit() reports the original error
     * instead of publishing - the caller's recording pass completes
     * uncached rather than aborting mid-trace.
     */
    class Recorder : public TraceSink
    {
      public:
        /// Record the entry for @p key at @p entryPath.
        /// @throws std::runtime_error if the temporary file cannot be
        /// created.
        Recorder(std::string entryPath, const std::string &key);
        ~Recorder() override;

        void
        append(const InstrRecord &rec) override
        {
            if (!appendError_.empty()) {
                // Already failed: keep the record stream flowing and
                // its mix whole. The record whose write failed is in
                // sink_'s mix.
                failedMix_.add(rec);
                return;
            }
            try {
                sink_.append(rec);
            } catch (const std::exception &e) {
                // Do not throw into the caller's recording pass - the
                // sweep must finish uncached, not abort. commit()
                // surfaces this.
                appendError_ = e.what();
            }
        }

        /**
         * Finalize the file and publish it under the entry path.
         * @throws std::runtime_error on any I/O failure, including a
         * latched append() failure.
         */
        void commit();

        std::uint64_t written() const { return sink_.written(); }

        /// Instruction mix of every record appended, including those
        /// appended after a write failure.
        InstrMix mix() const;

      private:
        // Declared before sink_, so the file closes before its
        // temporary is removed.
        std::unique_ptr<AtomicPublish> publish_;
        FileSink sink_;
        std::string appendError_;
        InstrMix failedMix_;  //!< records appended after the failure
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
