#include "timing/batched_pipeline.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <string>

namespace uasim::timing {

using trace::InstrClass;
using trace::InstrRecord;

BatchedPipelineSim::Cell::Cell(const CoreConfig &config)
    // Same rule as both oracles: reject a bad config before sizing
    // anything from it (the predictor table, the rings, the SSIT).
    : cfg((config.validate(), config)), mem(config.mem),
      bpred(unsigned(config.bpredLog2Entries)),
      ooo(config.model == "ooo"),
      outOfOrder(ooo || config.outOfOrder),
      issueWidth(ooo && config.issueWidth > 0 ? config.issueWidth
                                              : config.fetchWidth)
{
    res.core = cfg.name;
    storeQ.reserve(cfg.storeQ);
    mshr.reserve(cfg.missMax);
    // Dispatch caps the unissued slots at issueQ + branchQ.
    waiting.reserve(std::size_t(std::max(1, cfg.issueQ)) +
                    std::size_t(std::max(1, cfg.branchQ)));
    woken.reserve(waiting.capacity());
    const auto inflight = std::size_t(std::max(1, cfg.inflight));
    readyRing.resize(
        std::bit_ceil(std::max(minRingSize, 2 * inflight)));
    ringMask = readyRing.size() - 1;
    ringWatch.resize(readyRing.size());
    // Live slots span pending-overflow + fetch buffer + ROB.
    const auto ibuffer = std::size_t(std::max(1, cfg.ibuffer));
    slots.resize(std::bit_ceil(ibuffer + inflight + 2));
    slotMask = slots.size() - 1;
    pendingCap = std::size_t(2 * cfg.ibuffer);
    if (ooo)
        ssit.assign(std::size_t(1) << cfg.storeSetLog2, 0);
}

BatchedPipelineSim::BatchedPipelineSim(const std::vector<CoreConfig> &cfgs)
{
    cells_.reserve(cfgs.size());
    std::size_t maxSpan = 1;
    for (const auto &cfg : cfgs) {
        cells_.emplace_back(cfg);
        // pending (cap 2*ibuffer, +1 transient) + fetch buffer + ROB.
        const auto span = 3 * std::size_t(std::max(1, cfg.ibuffer)) +
            std::size_t(std::max(1, cfg.inflight)) + 2;
        maxSpan = std::max(maxSpan, span);
    }
    // A whole appendBlock chunk is staged before the laggiest cell
    // advances, so the window needs chunk headroom past every span.
    window_.resize(std::bit_ceil(maxSpan + chunkRecords + 8));
    winMask_ = window_.size() - 1;
}

int
BatchedPipelineSim::Cell::renameLimit(RegFile rf) const
{
    // 32 architected registers are always allocated; the rest rename.
    switch (rf) {
      case RegFile::GPR: return std::max(1, cfg.gprPhys - 32);
      case RegFile::FPR: return std::max(1, cfg.fprPhys - 32);
      case RegFile::VPR: return std::max(1, cfg.vprPhys - 32);
      default: return 1 << 30;
    }
}

int *
BatchedPipelineSim::Cell::renameCounter(RegFile rf)
{
    switch (rf) {
      case RegFile::GPR: return &gprInflight;
      case RegFile::FPR: return &fprInflight;
      case RegFile::VPR: return &vprInflight;
      default: return nullptr;
    }
}

int
BatchedPipelineSim::Cell::classLatency(InstrClass cls) const
{
    switch (cls) {
      case InstrClass::IntAlu:     return cfg.lat.intAlu;
      case InstrClass::IntMul:     return cfg.lat.intMul;
      case InstrClass::FpAlu:      return cfg.lat.fpAlu;
      case InstrClass::Branch:     return cfg.lat.branchResolve;
      case InstrClass::VecSimple:  return cfg.lat.vecSimple;
      case InstrClass::VecComplex: return cfg.lat.vecComplex;
      case InstrClass::VecPerm:    return cfg.lat.vecPerm;
      default:                     return 1;
    }
}

void
BatchedPipelineSim::Cell::trainStoreSet(std::uint64_t loadPc,
                                        std::uint64_t storePc)
{
    std::uint32_t set = ssit[ssitIndex(storePc)];
    if (!set) {
        const auto sets = std::uint32_t(ssit.size());
        nextSet = nextSet + 1 < sets ? nextSet + 1 : 1;
        set = nextSet;
        ssit[ssitIndex(storePc)] = set;
    }
    ssit[ssitIndex(loadPc)] = set;
}

void
BatchedPipelineSim::advanceCell(Cell &cell, std::uint64_t fedEnd)
{
    // Same backpressure rule as PipelineSim::feed(), one record at a
    // time: stage, then pump cycles while pending exceeds the cap.
    while (cell.fed < fedEnd) {
        ++cell.fed;
        while (cell.fed - cell.fetchPos > cell.pendingCap)
            cycleCell(cell);
    }
}

void
BatchedPipelineSim::append(const InstrRecord &rec)
{
    appendBlock(&rec, 1);
}

void
BatchedPipelineSim::appendBlock(const InstrRecord *recs, std::size_t n)
{
    assert(!finalized_);
    while (n > 0) {
        const std::size_t chunk = std::min(n, chunkRecords);
        const std::uint64_t chunkStart = feedSeq_;
        for (std::size_t i = 0; i < chunk; ++i) {
            // The input contract the timing depends on: a record that
            // waits on itself or on a younger record never issues, and
            // the backpressure loop would spin forever.
            const InstrRecord &rec = recs[i];
            const char *bad = nullptr;
            if (feedSeq_ && rec.id <= winRec(feedSeq_ - 1).id)
                bad = "its id does not exceed the previous record's";
            for (auto d : rec.deps) {
                if (d != 0 && d >= rec.id)
                    bad = "it depends on an id not older than its own";
            }
            if (bad) {
                feedSeq_ = chunkStart;
                throw std::invalid_argument(
                    "BatchedPipelineSim: record " + std::to_string(rec.id) +
                    " rejected: " + bad);
            }
            window_[feedSeq_++ & winMask_] = rec;
        }
        // Cell-major: each cell consumes the whole staged chunk while
        // its machine state is cache-hot.
        for (auto &cell : cells_)
            advanceCell(cell, feedSeq_);
        recs += chunk;
        n -= chunk;
    }
}

std::vector<SimResult>
BatchedPipelineSim::finalizeAll()
{
    std::vector<SimResult> out;
    out.reserve(cells_.size());
    if (!finalized_) {
        for (auto &cell : cells_) {
            assert(cell.fed == feedSeq_);
            // Guard against pathological deadlock, as both oracles'
            // finalize() do.
            std::uint64_t limit = cell.now + 1000000 +
                1000 * (cell.fed - cell.retirePos);
            while (cell.retirePos < cell.fed) {
                cycleCell(cell);
                if (cell.now > limit)
                    break;  // report what we have rather than hang
            }
            cell.res.cycles = cell.now;
            // The clock moves only by cycleCell's step or idleJump.
            cell.work.executedCycles =
                cell.now - cell.work.idleJumpedCycles;
            const auto &l1d = cell.mem.l1d().stats();
            cell.res.l1dAccesses = l1d.accesses;
            cell.res.l1dMisses = l1d.misses;
            cell.res.l2Misses = cell.mem.l2().stats().misses;
            cell.res.l1iMisses = cell.mem.l1i().stats().misses;
        }
        finalized_ = true;
    }
    for (const auto &cell : cells_)
        out.push_back(cell.res);
    return out;
}

SimResult
BatchedPipelineSim::finalize()
{
    if (cells_.size() != 1)
        throw std::logic_error(
            "BatchedPipelineSim::finalize: " +
            std::to_string(cells_.size()) +
            " cells, not 1 (use finalizeAll)");
    return finalizeAll().front();
}

void
BatchedPipelineSim::cycleCell(Cell &cell)
{
    ++cell.now;
    for (int u = 0; u < numUnits; ++u)
        cell.unitTokens[u] = 0;
    cell.unitTokens[int(Unit::FX)] = cell.cfg.units.fx;
    cell.unitTokens[int(Unit::FP)] = cell.cfg.units.fp;
    cell.unitTokens[int(Unit::LS)] = cell.cfg.units.ls;
    cell.unitTokens[int(Unit::BR)] = cell.cfg.units.br;
    cell.unitTokens[int(Unit::VI)] = cell.cfg.units.vi;
    cell.unitTokens[int(Unit::VPERM)] = cell.cfg.units.vperm;
    cell.unitTokens[int(Unit::VCMPLX)] = cell.cfg.units.vcmplx;
    cell.readPorts = cell.cfg.dReadPorts;
    cell.writePorts = cell.cfg.dWritePorts;
    cell.issueTokens = cell.issueWidth;

    // Release completed misses.
    if (!cell.mshr.empty()) {
        std::erase_if(cell.mshr, [&cell](std::uint64_t c) {
            return c <= cell.now;
        });
    }

    const std::uint64_t preRetire = cell.retirePos;
    const std::uint64_t preDispatch = cell.dispatchPos;
    const std::uint64_t preFetch = cell.fetchPos;
    const std::uint64_t preStall = cell.fetchStallUntil;

    retireStage(cell);
    issueStage(cell);
    dispatchStage(cell);
    if (!cell.woken.empty())
        mergeWoken(cell, 0, 0);
    cell.admitNow = false;
    fetchStage(cell);

    // issueTokens only decrements on a successful issue, so a full
    // budget after all four stages means nothing issued this cycle.
    if (preRetire == cell.retirePos && preDispatch == cell.dispatchPos &&
        preFetch == cell.fetchPos && preStall == cell.fetchStallUntil &&
        cell.issueTokens == cell.issueWidth) {
        ++cell.work.idleCycles;
        idleJump(cell);
    }
}

void
BatchedPipelineSim::idleJump(Cell &cell)
{
    // The cycle that just ran was provably idle: no stage moved a
    // cursor, nothing issued, and the fetch stall horizon did not
    // move. So until the next event no load issues (the SSIT holds),
    // no store dispatches or drains, and the caches and MSHR file
    // hold: a retry slot's checks keep failing the same way. The
    // earliest cycle at which anything can change is the minimum of:
    //
    //  - the ROB head's completion cycle (an un-issued head is
    //    covered by its waiting-list wake bound instead);
    //  - the head store's forward-ready cycle (realignment pipe);
    //  - the earliest MSHR release (frees miss capacity for both the
    //    issue and the store-drain path);
    //  - the fetch stall horizon (icache fill / mispredict redirect);
    //  - every exact wake bound on the waiting list (sound lower
    //    bounds on the next possible issue). Entries beyond an
    //    in-order cell's lookahead cannot issue before the list front
    //    moves, and a wake == notReady entry, like every Parked slot,
    //    waits on an unissued producer, which can issue no earlier
    //    than the events bounding it - all of them among these;
    //  - retryWake: the fwdReady at which the blocker of a retrying
    //    "ooo" load turns into its forwarder.
    //
    // Jumping now to just before that minimum is unobservable except
    // for fetchStallCycles, which the oracle increments once per
    // halted cycle - replicated arithmetically below.
    std::uint64_t t = notReady;
    if (cell.retirePos < cell.dispatchPos) {
        const Slot &head = cell.slots[cell.retirePos & cell.slotMask];
        if (head.state == State::Issued) {
            if (head.readyCycle > cell.now) {
                t = head.readyCycle;
            } else if (!cell.storeQ.empty() &&
                       cell.storeQ.front().fwdReady > cell.now &&
                       cell.storeQ.front().id == winRec(cell.retirePos).id) {
                t = cell.storeQ.front().fwdReady;
            }
        }
    }
    t = std::min(t, cell.retryWake);
    for (auto c : cell.mshr)
        t = std::min(t, c);  // post-erase entries are all > now
    if (cell.fetchStallUntil > cell.now)
        t = std::min(t, cell.fetchStallUntil);
    std::size_t scanned = cell.waiting.size();
    if (!cell.outOfOrder)
        scanned = std::min(scanned, std::size_t(cell.cfg.inorderLookahead));
    for (std::size_t i = 0; i < scanned; ++i) {
        const std::uint64_t wake =
            cell.slots[cell.waiting[i] & cell.slotMask].wake;
        if (wake == 0 || wake >= retry)
            continue;
        if (wake <= cell.now)
            return;  // stale bound; take the next cycle normally
        t = std::min(t, wake);
    }
    if (t == notReady || t <= cell.now + 1)
        return;

    const std::uint64_t delta = t - cell.now - 1;
    cell.work.idleJumpedCycles += delta;
    if (cell.haltBranchId)
        cell.res.fetchStallCycles += delta;
    else if (cell.fetchStallUntil > cell.now + 1)
        cell.res.fetchStallCycles += std::min(
            delta, cell.fetchStallUntil - (cell.now + 1));
    cell.now = t - 1;
}

void
BatchedPipelineSim::retireStage(Cell &cell)
{
    int retired = 0;
    while (cell.retirePos < cell.dispatchPos &&
           retired < cell.cfg.retireWidth) {
        Slot &head = cell.slots[cell.retirePos & cell.slotMask];
        const InstrRecord &rec = winRec(cell.retirePos);
        if (head.state != State::Issued || head.readyCycle > cell.now)
            break;

        if (rec.isStore()) {
            // Drain the store: needs a write port and, on a miss, an
            // MSHR. The store buffer hides the fill latency.
            if (cell.writePorts <= 0)
                break;
            // Find the SQ entry (always the oldest).
            assert(!cell.storeQ.empty() &&
                   cell.storeQ.front().id == rec.id);
            if (cell.storeQ.front().fwdReady > cell.now)
                break;  // store pipeline (realignment) still busy
            bool would_miss =
                !cell.mem.l1d().probe(cell.mem.l1d().lineAddr(rec.addr));
            if (would_miss &&
                cell.mshr.size() >=
                    static_cast<std::size_t>(cell.cfg.missMax)) {
                break;
            }
            auto acc = cell.mem.dataAccess(rec.addr, rec.size, true,
                                           cell.now);
            if (acc.l1Miss)
                cell.mshr.push_back(cell.now + acc.extraLatency);
            if (acc.crossedLine) {
                ++cell.res.lineCrossings;
                if (!cell.cfg.mem.parallelBanks && cell.writePorts >= 2)
                    --cell.writePorts;
            }
            --cell.writePorts;
            cell.storeQ.erase(cell.storeQ.begin());
        }

        if (auto *ctr = cell.renameCounter(destRegFile(rec.cls)))
            --*ctr;
        ++cell.res.instrs;
        ++cell.retirePos;
        ++retired;
    }
}

bool
BatchedPipelineSim::tryIssue(Cell &cell, std::uint64_t seq)
{
    Slot &slot = cell.slots[seq & cell.slotMask];
    const InstrRecord &rec = winRec(seq);
    ++cell.work.issueAttempts;
    // Producer check first (the oracle checks unit tokens first, but
    // every failure path up to the issue commit is side-effect-free,
    // so the order is unobservable): a producer-blocked slot yields an
    // exact wake bound, a token-blocked one does not. It runs only on
    // an unknown bound (wake == 0): any other wake reaching here
    // (retry, or a cycle <= now) met every producer already, and a met
    // bound stays met - ready cycles never move later, except when an
    // issuing id takes its entry back, and that drops every bound.
    if (!slot.wake) {
        ++cell.work.producerChecks;
        const std::uint64_t depWake = cell.watchProducers(rec, seq);
        if (depWake > cell.now) {
            slot.wake = depWake;
            ++cell.work.producerWaits;
            return false;
        }
    }
    // Every later failure is idle-stable (see idleJump) unless it names
    // the exact cycle its verdict changes.
    slot.wake = retry;
    int unit = int(unitFor(rec.cls));
    if (cell.unitTokens[unit] <= 0) {
        ++cell.work.tokenWaits;
        return false;
    }

    if (rec.isLoad()) {
        if (cell.readPorts <= 0) {
            ++cell.work.portWaits;
            return false;
        }
        // Store-to-load aliasing against older, undrained stores.
        const StoreEntry *blocker = nullptr;
        const StoreEntry *forwarder = nullptr;
        for (const auto &se : cell.storeQ) {
            if (se.id >= rec.id)
                break;
            std::uint64_t s_end = se.addr + se.size;
            std::uint64_t l_end = rec.addr + rec.size;
            bool overlap = se.addr < l_end && rec.addr < s_end;
            if (!overlap)
                continue;
            bool contains = se.addr <= rec.addr && l_end <= s_end;
            if (contains && se.issued && se.fwdReady <= cell.now) {
                forwarder = &se;     // youngest containing store wins
                blocker = nullptr;
            } else {
                blocker = &se;
                forwarder = nullptr;
            }
        }
        // The verdict is decided by the last overlapping older store,
        // and drains (front-first) never remove it before the load
        // issues. An issued blocker that contains the load becomes
        // its forwarder exactly at fwdReady (> now, or it would be
        // one already).
        const bool forwardsLater = blocker && blocker->issued &&
            blocker->addr <= rec.addr &&
            rec.addr + rec.size <= blocker->addr + blocker->size;
        if (blocker)
            ++cell.work.blockedLoads;
        if (blocker && cell.ooo) {
            // Store-set prediction instead of the unconditional wait
            // below: a trained load (the undrained aliasing store's
            // pc maps to the load's own set) waits for the drain; an
            // untrained load speculates past the store and pays the
            // replay penalty further down, once the access is known
            // to go ahead this cycle. The SSIT can change whenever
            // another load issues, so every failure retries; the
            // forwarder turn is the one time bound.
            if (forwardsLater)
                cell.retryWake = std::min(cell.retryWake, blocker->fwdReady);
            const std::uint32_t lset = cell.ssit[cell.ssitIndex(rec.pc)];
            if (lset && cell.ssit[cell.ssitIndex(blocker->pc)] == lset) {
                ++cell.work.storeWaits;
                return false;
            }
        } else if (blocker) {
            // An unissued blocker flips at its own issue (a setReady on
            // its id, so the watch fires - as long as the blocker still
            // owns its ring entry, which only an aliasing id can take).
            // A partial overlap persists until the store drains at
            // retire: a retry.
            if (!blocker->issued) {
                if (cell.readyCycleOf(blocker->id) == notReady) {
                    cell.watchDep(blocker->id, seq);
                    slot.wake = notReady;
                }
            } else if (forwardsLater) {
                slot.wake = blocker->fwdReady;
            }
            ++cell.work.storeWaits;
            return false;
        }

        bool runtime_unaligned = (rec.addr & 15) != 0 &&
            trace::isUnalignedVecMem(rec.cls);
        int extra = 0;
        if (forwarder) {
            ++cell.res.storeForwards;
        } else {
            auto &l1d = cell.mem.l1d();
            // Mirrors PipelineSim via the shared
            // CoreConfig::crossingLoadNeedsSecondPort() rule, run
            // before the cache access so a port-starved retry cannot
            // touch cache state.
            bool crosses =
                l1d.lineAddr(rec.addr) !=
                l1d.lineAddr(rec.addr + rec.size - 1);
            if (crosses && cell.cfg.crossingLoadNeedsSecondPort() &&
                cell.readPorts < 2) {
                ++cell.work.portWaits;
                return false;
            }
            bool would_miss =
                !l1d.probe(l1d.lineAddr(rec.addr)) ||
                (crosses &&
                 !l1d.probe(l1d.lineAddr(rec.addr + rec.size - 1)));
            if (would_miss &&
                cell.mshr.size() >=
                    static_cast<std::size_t>(cell.cfg.missMax)) {
                ++cell.work.mshrWaits;
                return false;
            }
            auto acc = cell.mem.dataAccess(rec.addr, rec.size, false,
                                           cell.now);
            extra = acc.extraLatency;
            if (acc.crossedLine) {
                ++cell.res.lineCrossings;
                if (cell.cfg.crossingLoadNeedsSecondPort())
                    --cell.readPorts;
            }
            if (acc.l1Miss)
                cell.mshr.push_back(cell.now + cell.cfg.lat.load + extra);
            if (blocker) {
                // Ordering violation taken ("ooo" only): train the
                // pair into one store set and charge the replay cost.
                cell.trainStoreSet(rec.pc, blocker->pc);
                extra += cell.cfg.memReplayPenalty;
            }
        }
        if (runtime_unaligned) {
            ++cell.res.unalignedVecOps;
            extra += cell.cfg.lat.unalignedLoadExtra;
        }
        --cell.readPorts;
        slot.readyCycle = cell.now + cell.cfg.lat.load + extra;
    } else if (rec.isStore()) {
        // Address generation / data hand-off to the store queue.
        bool runtime_unaligned = (rec.addr & 15) != 0 &&
            trace::isUnalignedVecMem(rec.cls);
        int extra = 0;
        if (runtime_unaligned) {
            ++cell.res.unalignedVecOps;
            extra = cell.cfg.lat.unalignedStoreExtra;
        }
        slot.readyCycle = cell.now + 1;
        for (auto &se : cell.storeQ) {
            if (se.id == rec.id) {
                se.issued = true;
                se.fwdReady = cell.now + 1 + extra;
                break;
            }
        }
    } else if (rec.cls == InstrClass::Branch) {
        std::uint64_t resolve = cell.now + cell.cfg.lat.branchResolve;
        slot.readyCycle = resolve;
        ++cell.res.branches;
        if (slot.mispredict) {
            ++cell.res.mispredicts;
            cell.fetchStallUntil = std::max(
                cell.fetchStallUntil,
                resolve + cell.cfg.lat.mispredictPenalty);
            if (cell.haltBranchId == rec.id)
                cell.haltBranchId = 0;
        }
    } else {
        slot.readyCycle = cell.now + cell.classLatency(rec.cls);
    }

    --cell.unitTokens[unit];
    --cell.issueTokens;
    slot.state = State::Issued;
    setReady(cell, rec.id, slot.readyCycle);
    if (rec.cls == InstrClass::Branch)
        --cell.waitingBranch;
    else
        --cell.waitingNonBranch;
    return true;
}

void
BatchedPipelineSim::wakeWatchers(Cell &cell, std::size_t idx, bool dropAll)
{
    const RingWatch fired = cell.ringWatch[idx];
    cell.ringWatch[idx] = {};
    if (fired.overflow || dropAll) {
        dropWakes(cell);
        return;
    }
    for (std::uint8_t k = 0; k < fired.n; ++k)
        rewake(cell, fired.seq[k]);
}

void
BatchedPipelineSim::rewake(Cell &cell, std::uint64_t seq)
{
    // A watcher that issued or retired since registering: its slot may
    // already hold a younger record.
    if (seq < cell.retirePos || seq >= cell.dispatchPos)
        return;
    Slot &slot = cell.slots[seq & cell.slotMask];
    if (slot.state == State::Issued)
        return;
    const std::uint64_t bound = cell.watchProducers(winRec(seq), seq);
    slot.wake = bound > cell.now ? bound : 0;
    if (!slot.wake)
        cell.admitNow = true;
    if (slot.state == State::Parked && bound != notReady) {
        slot.state = State::Waiting;
        cell.woken.push_back(seq);
    }
}

void
BatchedPipelineSim::dropWakes(Cell &cell)
{
    // Drop every bound of the cell (a zero wake only forces a re-run of
    // the real checks, never a wrong skip) and bring every parked slot
    // back to the waiting list.
    ++cell.work.watcherFlushes;
    cell.admitNow = true;
    for (std::uint64_t seq = cell.retirePos; seq < cell.dispatchPos; ++seq) {
        Slot &slot = cell.slots[seq & cell.slotMask];
        if (slot.state == State::Issued)
            continue;
        slot.wake = 0;
        if (slot.state == State::Parked) {
            slot.state = State::Waiting;
            cell.woken.push_back(seq);
        }
    }
}

void
BatchedPipelineSim::issueStage(Cell &cell)
{
    // Scan only the Waiting slots (in ROB order): tryIssue is
    // side-effect-free for slots it is never called on, so skipping
    // Issued slots - and Parked ones, which would fail on a producer -
    // reproduces PipelineSim's full-ROB walk exactly; for an "ooo"
    // cell the list is OoOPipelineSim's issue queue. A slot found
    // waiting on an unissued producer parks.
    auto &waiting = cell.waiting;
    const std::uint64_t attempts = cell.work.issueAttempts;
    cell.retryWake = notReady;
    std::uint64_t visits = 0;
    std::size_t keep = 0;
    std::size_t i = 0;
    if (cell.outOfOrder) {
        // waiting[0, keep) stays listed, [i, size) is still to visit.
        while (i < waiting.size() && cell.issueTokens > 0) {
            const std::uint64_t seq = waiting[i++];
            Slot &slot = cell.slots[seq & cell.slotMask];
            ++visits;
            if ((slot.wake <= cell.now || slot.wake == retry) &&
                tryIssue(cell, seq)) {
                if (cell.admitNow)
                    i = admitWoken(cell, seq, keep, i);
                continue;
            }
            if (slot.wake == notReady)
                slot.state = State::Parked;
            else
                waiting[keep++] = seq;
        }
    } else {
        // Near-program-order issue with a bounded static-scheduling
        // window (see CoreConfig::inorderLookahead); the lookahead
        // counts Waiting slots examined, as PipelineSim's walk does -
        // a wake-skipped slot was still examined by the oracle's walk,
        // so it consumes lookahead all the same.
        const std::size_t n = waiting.size();
        int seen = 0;
        for (; i < n; ++i) {
            if (cell.issueTokens <= 0)
                break;
            const std::uint64_t seq = waiting[i];
            const std::uint64_t wake =
                cell.slots[seq & cell.slotMask].wake;
            if ((wake > cell.now && wake != retry) ||
                !tryIssue(cell, seq))
                waiting[keep++] = seq;
            if (++seen >= cell.cfg.inorderLookahead) {
                ++i;
                break;
            }
        }
        visits = i;
    }
    // Each visit either skipped on its wake bound or called tryIssue.
    cell.work.wakeSkips += visits - (cell.work.issueAttempts - attempts);
    if (keep != i) {
        waiting.erase(waiting.begin() + std::ptrdiff_t(keep),
                      waiting.begin() + std::ptrdiff_t(i));
    }
}

std::size_t
BatchedPipelineSim::admitWoken(Cell &cell, std::uint64_t issuer,
                               std::size_t keep, std::size_t next)
{
    // A slot that @p issuer's setReady made issuable at once - behind a
    // 0-cycle producer, or a consumer of an id whose ring entry the
    // issuer took back - is one the oracle's walk reaches later this
    // cycle, if it is younger. Close the scan's gap waiting[keep, next)
    // and merge those slots into the part still to visit; the rest of
    // woken waits for the merge after dispatch.
    cell.admitNow = false;
    auto &woken = cell.woken;
    const auto admit = std::partition(
        woken.begin(), woken.end(), [&cell, issuer](std::uint64_t s) {
            return s < issuer || cell.slots[s & cell.slotMask].wake != 0;
        });
    if (admit == woken.end())
        return next;
    cell.waiting.erase(cell.waiting.begin() + std::ptrdiff_t(keep),
                       cell.waiting.begin() + std::ptrdiff_t(next));
    mergeWoken(cell, keep, std::size_t(admit - woken.begin()));
    return keep;
}

void
BatchedPipelineSim::mergeWoken(Cell &cell, std::size_t at, std::size_t from)
{
    // Sorted insertion into waiting[at, end) (all of it younger than
    // waiting[0, at)); every unissued slot fits the capacity reserved
    // at construction.
    auto &waiting = cell.waiting;
    for (std::size_t j = from; j < cell.woken.size(); ++j) {
        const std::uint64_t seq = cell.woken[j];
        waiting.insert(std::upper_bound(waiting.begin() + std::ptrdiff_t(at),
                                        waiting.end(), seq),
                       seq);
    }
    cell.woken.resize(from);
}

void
BatchedPipelineSim::dispatchStage(Cell &cell)
{
    int dispatched = 0;
    while (cell.dispatchPos < cell.fetchPos &&
           dispatched < cell.cfg.fetchWidth) {
        const InstrRecord &rec = winRec(cell.dispatchPos);
        if (cell.dispatchPos - cell.retirePos >=
            static_cast<std::uint64_t>(cell.cfg.inflight)) {
            break;
        }
        bool is_branch = rec.cls == InstrClass::Branch;
        if (is_branch && cell.waitingBranch >= cell.cfg.branchQ)
            break;
        if (!is_branch && cell.waitingNonBranch >= cell.cfg.issueQ)
            break;
        RegFile rf = destRegFile(rec.cls);
        int *ctr = cell.renameCounter(rf);
        if (ctr && *ctr >= cell.renameLimit(rf))
            break;
        if (rec.isStore()) {
            if (cell.storeQ.size() >=
                static_cast<std::size_t>(cell.cfg.storeQ)) {
                break;
            }
            StoreEntry se;
            se.id = rec.id;
            se.pc = rec.pc;
            se.addr = rec.addr;
            se.size = rec.size;
            cell.storeQ.push_back(se);
        }
        if (ctr)
            ++*ctr;
        if (is_branch)
            ++cell.waitingBranch;
        else
            ++cell.waitingNonBranch;
        setReady(cell, rec.id, notReady);
        // The first attempt's producer check, run here: the bound is
        // exact from dispatch on (setReady keeps it so), and one
        // already met (<= now, and now >= 1) skips tryIssue's check.
        Slot &slot = cell.slots[cell.dispatchPos & cell.slotMask];
        const std::uint64_t bound =
            cell.watchProducers(rec, cell.dispatchPos);
        slot.wake = std::max(bound, std::uint64_t{1});
        if (cell.outOfOrder && bound == notReady)
            slot.state = State::Parked;
        else
            cell.waiting.push_back(cell.dispatchPos);
        ++cell.dispatchPos;
        ++dispatched;
    }
}

void
BatchedPipelineSim::fetchStage(Cell &cell)
{
    if (cell.now < cell.fetchStallUntil || cell.haltBranchId) {
        ++cell.res.fetchStallCycles;
        return;
    }
    int fetched = 0;
    while (cell.fetchPos < cell.fed && fetched < cell.cfg.fetchWidth &&
           cell.fetchPos - cell.dispatchPos <
               static_cast<std::uint64_t>(cell.cfg.ibuffer)) {
        const InstrRecord &rec = winRec(cell.fetchPos);

        // Instruction-cache access per new line.
        std::uint64_t line = cell.mem.l1i().lineAddr(rec.pc);
        if (line != cell.lastFetchLine) {
            auto acc = cell.mem.fetchAccess(rec.pc, cell.now);
            cell.lastFetchLine = line;
            if (acc.extraLatency > 0) {
                cell.fetchStallUntil = cell.now + acc.extraLatency;
                return;
            }
        }

        Slot &slot = cell.slots[cell.fetchPos & cell.slotMask];
        slot.state = State::Waiting;
        slot.readyCycle = 0;
        slot.wake = 0;
        slot.mispredict = false;

        if (rec.cls == InstrClass::Branch) {
            slot.mispredict = cell.bpred.predict(rec.pc) != rec.taken;
            cell.bpred.update(rec.pc, rec.taken);
            if (slot.mispredict) {
                cell.haltBranchId = rec.id;
                ++cell.fetchPos;
                return;  // fetch halts behind the mispredict
            }
        }
        ++cell.fetchPos;
        ++fetched;
    }
}

} // namespace uasim::timing
