#include "oracles/pipeline.hh"

#include <algorithm>
#include <bit>
#include <cassert>

namespace uasim::timing {

using trace::InstrClass;
using trace::InstrRecord;

PipelineSim::PipelineSim(const CoreConfig &cfg)
    // Validate before any member sizes anything from the config (the
    // predictor table, the rings): a bad config must throw, not OOM.
    : cfg_((cfg.validate(), cfg)), mem_(cfg.mem),
      bpred_(unsigned(cfg.bpredLog2Entries))
{
    res_.core = cfg_.name;
    storeQ_.reserve(cfg_.storeQ);
    mshr_.reserve(cfg_.missMax);
    // 2x the in-flight window (see minRingSize) rounded up to a
    // power of two, so any legal CoreConfig scaling is safe.
    const auto inflight =
        std::size_t(std::max(1, cfg_.inflight));
    readyRing_.resize(
        std::bit_ceil(std::max(minRingSize, 2 * inflight)));
    ringMask_ = readyRing_.size() - 1;
}

int
PipelineSim::renameLimit(RegFile rf) const
{
    // 32 architected registers are always allocated; the rest rename.
    switch (rf) {
      case RegFile::GPR: return std::max(1, cfg_.gprPhys - 32);
      case RegFile::FPR: return std::max(1, cfg_.fprPhys - 32);
      case RegFile::VPR: return std::max(1, cfg_.vprPhys - 32);
      default: return 1 << 30;
    }
}

int *
PipelineSim::renameCounter(RegFile rf)
{
    switch (rf) {
      case RegFile::GPR: return &gprInflight_;
      case RegFile::FPR: return &fprInflight_;
      case RegFile::VPR: return &vprInflight_;
      default: return nullptr;
    }
}

int
PipelineSim::classLatency(InstrClass cls) const
{
    switch (cls) {
      case InstrClass::IntAlu:     return cfg_.lat.intAlu;
      case InstrClass::IntMul:     return cfg_.lat.intMul;
      case InstrClass::FpAlu:      return cfg_.lat.fpAlu;
      case InstrClass::Branch:     return cfg_.lat.branchResolve;
      case InstrClass::VecSimple:  return cfg_.lat.vecSimple;
      case InstrClass::VecComplex: return cfg_.lat.vecComplex;
      case InstrClass::VecPerm:    return cfg_.lat.vecPerm;
      default:                     return 1;
    }
}

void
PipelineSim::feed(const InstrRecord &rec)
{
    assert(!finalized_);
    pending_.push_back(rec);
    // Apply backpressure: keep the staging buffer near the front-end
    // size so feed() advances the machine instead of buffering the
    // whole trace.
    while (pending_.size() >
           static_cast<std::size_t>(2 * cfg_.ibuffer)) {
        cycle();
    }
}

SimResult
PipelineSim::finalize()
{
    if (finalized_)
        return res_;
    // Guard against pathological deadlock with a generous bound.
    std::uint64_t limit = now_ + 1000000 +
        1000 * (pending_.size() + fetchBuf_.size() + rob_.size());
    while (!pending_.empty() || !fetchBuf_.empty() || !rob_.empty()) {
        cycle();
        if (now_ > limit)
            break;  // report what we have rather than hang
    }
    res_.cycles = now_;
    const auto &l1d = mem_.l1d().stats();
    res_.l1dAccesses = l1d.accesses;
    res_.l1dMisses = l1d.misses;
    res_.l2Misses = mem_.l2().stats().misses;
    res_.l1iMisses = mem_.l1i().stats().misses;
    finalized_ = true;
    return res_;
}

void
PipelineSim::cycle()
{
    ++now_;
    for (int u = 0; u < numUnits; ++u)
        unitTokens_[u] = 0;
    unitTokens_[int(Unit::FX)] = cfg_.units.fx;
    unitTokens_[int(Unit::FP)] = cfg_.units.fp;
    unitTokens_[int(Unit::LS)] = cfg_.units.ls;
    unitTokens_[int(Unit::BR)] = cfg_.units.br;
    unitTokens_[int(Unit::VI)] = cfg_.units.vi;
    unitTokens_[int(Unit::VPERM)] = cfg_.units.vperm;
    unitTokens_[int(Unit::VCMPLX)] = cfg_.units.vcmplx;
    readPorts_ = cfg_.dReadPorts;
    writePorts_ = cfg_.dWritePorts;
    issueTokens_ = cfg_.fetchWidth;

    // Release completed misses.
    std::erase_if(mshr_, [this](std::uint64_t c) { return c <= now_; });

    retireStage();
    issueStage();
    dispatchStage();
    fetchStage();
}

void
PipelineSim::retireStage()
{
    int retired = 0;
    while (!rob_.empty() && retired < cfg_.retireWidth) {
        Slot &head = rob_.front();
        if (head.state != State::Issued || head.readyCycle > now_)
            break;

        if (head.rec.isStore()) {
            // Drain the store: needs a write port and, on a miss, an
            // MSHR. The store buffer hides the fill latency.
            if (writePorts_ <= 0)
                break;
            // Find the SQ entry (always the oldest).
            assert(!storeQ_.empty() && storeQ_.front().id == head.rec.id);
            if (storeQ_.front().fwdReady > now_)
                break;  // store pipeline (realignment) still busy
            bool would_miss =
                !mem_.l1d().probe(mem_.l1d().lineAddr(head.rec.addr));
            if (would_miss &&
                mshr_.size() >= static_cast<std::size_t>(cfg_.missMax)) {
                break;
            }
            auto acc = mem_.dataAccess(head.rec.addr, head.rec.size,
                                       true, now_);
            if (acc.l1Miss)
                mshr_.push_back(now_ + acc.extraLatency);
            if (acc.crossedLine) {
                ++res_.lineCrossings;
                if (!cfg_.mem.parallelBanks && writePorts_ >= 2)
                    --writePorts_;
            }
            --writePorts_;
            storeQ_.erase(storeQ_.begin());
        }

        if (auto *ctr = renameCounter(destRegFile(head.rec.cls)))
            --*ctr;
        ++res_.instrs;
        rob_.pop_front();
        ++retired;
    }
}

bool
PipelineSim::tryIssue(Slot &slot)
{
    const InstrRecord &rec = slot.rec;
    int unit = int(unitFor(rec.cls));
    if (unitTokens_[unit] <= 0)
        return false;
    if (!depsReady(rec))
        return false;

    if (rec.isLoad()) {
        if (readPorts_ <= 0)
            return false;
        // Store-to-load aliasing against older, undrained stores.
        const StoreEntry *blocker = nullptr;
        const StoreEntry *forwarder = nullptr;
        for (const auto &se : storeQ_) {
            if (se.id >= rec.id)
                break;
            std::uint64_t s_end = se.addr + se.size;
            std::uint64_t l_end = rec.addr + rec.size;
            bool overlap = se.addr < l_end && rec.addr < s_end;
            if (!overlap)
                continue;
            bool contains = se.addr <= rec.addr && l_end <= s_end;
            if (contains && se.issued && se.fwdReady <= now_) {
                forwarder = &se;     // youngest containing store wins
                blocker = nullptr;
            } else {
                blocker = &se;
                forwarder = nullptr;
            }
        }
        if (blocker)
            return false;  // retry when the store drains or issues

        bool runtime_unaligned = (rec.addr & 15) != 0 &&
            trace::isUnalignedVecMem(rec.cls);
        int extra = 0;
        if (forwarder) {
            ++res_.storeForwards;
        } else {
            // The shared line-crossing rule (the PR 5 deadlock fix,
            // hoisted to CoreConfig so every backend applies it
            // identically): under serialized banks a crossing load
            // occupies a second read port only on a machine that has
            // one; a single-ported core serializes the second bank
            // access in the load pipe instead. The check runs before
            // the cache access so a port-starved retry cannot touch
            // cache state or counters.
            bool crosses =
                mem_.l1d().lineAddr(rec.addr) !=
                mem_.l1d().lineAddr(rec.addr + rec.size - 1);
            if (crosses && cfg_.crossingLoadNeedsSecondPort() &&
                readPorts_ < 2) {
                return false;
            }
            bool would_miss =
                !mem_.l1d().probe(mem_.l1d().lineAddr(rec.addr)) ||
                (crosses &&
                 !mem_.l1d().probe(
                     mem_.l1d().lineAddr(rec.addr + rec.size - 1)));
            if (would_miss &&
                mshr_.size() >= static_cast<std::size_t>(cfg_.missMax)) {
                return false;
            }
            auto acc = mem_.dataAccess(rec.addr, rec.size, false, now_);
            extra = acc.extraLatency;
            if (acc.crossedLine) {
                ++res_.lineCrossings;
                if (cfg_.crossingLoadNeedsSecondPort())
                    --readPorts_;
            }
            if (acc.l1Miss)
                mshr_.push_back(now_ + cfg_.lat.load + extra);
        }
        if (runtime_unaligned) {
            ++res_.unalignedVecOps;
            extra += cfg_.lat.unalignedLoadExtra;
        }
        --readPorts_;
        slot.readyCycle = now_ + cfg_.lat.load + extra;
    } else if (rec.isStore()) {
        // Address generation / data hand-off to the store queue.
        bool runtime_unaligned = (rec.addr & 15) != 0 &&
            trace::isUnalignedVecMem(rec.cls);
        int extra = 0;
        if (runtime_unaligned) {
            ++res_.unalignedVecOps;
            extra = cfg_.lat.unalignedStoreExtra;
        }
        slot.readyCycle = now_ + 1;
        for (auto &se : storeQ_) {
            if (se.id == rec.id) {
                se.issued = true;
                se.fwdReady = now_ + 1 + extra;
                break;
            }
        }
    } else if (rec.cls == InstrClass::Branch) {
        std::uint64_t resolve = now_ + cfg_.lat.branchResolve;
        slot.readyCycle = resolve;
        ++res_.branches;
        if (slot.mispredict) {
            ++res_.mispredicts;
            fetchStallUntil_ = std::max(
                fetchStallUntil_,
                resolve + cfg_.lat.mispredictPenalty);
            if (haltBranchId_ == rec.id)
                haltBranchId_ = 0;
        }
    } else {
        slot.readyCycle = now_ + classLatency(rec.cls);
    }

    --unitTokens_[unit];
    --issueTokens_;
    slot.state = State::Issued;
    setReady(rec.id, slot.readyCycle);
    if (rec.cls == InstrClass::Branch)
        --waitingBranch_;
    else
        --waitingNonBranch_;
    return true;
}

bool
PipelineSim::depsReady(const InstrRecord &rec) const
{
    for (auto d : rec.deps) {
        if (d && readyCycleOf(d) > now_)
            return false;
    }
    return true;
}

void
PipelineSim::issueStage()
{
    if (cfg_.outOfOrder) {
        for (auto &slot : rob_) {
            if (issueTokens_ <= 0)
                break;
            if (slot.state == State::Waiting)
                tryIssue(slot);
        }
    } else {
        // Near-program-order issue with a bounded static-scheduling
        // window (see CoreConfig::inorderLookahead). Memory ordering
        // is still protected by the store-queue alias checks.
        int seen = 0;
        for (auto &slot : rob_) {
            if (issueTokens_ <= 0)
                break;
            if (slot.state != State::Waiting)
                continue;
            tryIssue(slot);
            if (++seen >= cfg_.inorderLookahead)
                break;
        }
    }
}

void
PipelineSim::dispatchStage()
{
    int dispatched = 0;
    while (!fetchBuf_.empty() && dispatched < cfg_.fetchWidth) {
        Slot &slot = fetchBuf_.front();
        if (rob_.size() >= static_cast<std::size_t>(cfg_.inflight))
            break;
        bool is_branch = slot.rec.cls == InstrClass::Branch;
        if (is_branch && waitingBranch_ >= cfg_.branchQ)
            break;
        if (!is_branch && waitingNonBranch_ >= cfg_.issueQ)
            break;
        RegFile rf = destRegFile(slot.rec.cls);
        int *ctr = renameCounter(rf);
        if (ctr && *ctr >= renameLimit(rf))
            break;
        if (slot.rec.isStore()) {
            if (storeQ_.size() >= static_cast<std::size_t>(cfg_.storeQ))
                break;
            StoreEntry se;
            se.id = slot.rec.id;
            se.addr = slot.rec.addr;
            se.size = slot.rec.size;
            storeQ_.push_back(se);
        }
        if (ctr)
            ++*ctr;
        if (is_branch)
            ++waitingBranch_;
        else
            ++waitingNonBranch_;
        setReady(slot.rec.id, notReady);
        rob_.push_back(slot);
        fetchBuf_.pop_front();
        ++dispatched;
    }
}

void
PipelineSim::fetchStage()
{
    if (now_ < fetchStallUntil_ || haltBranchId_) {
        ++res_.fetchStallCycles;
        return;
    }
    int fetched = 0;
    while (!pending_.empty() && fetched < cfg_.fetchWidth &&
           fetchBuf_.size() < static_cast<std::size_t>(cfg_.ibuffer)) {
        InstrRecord rec = pending_.front();

        // Instruction-cache access per new line.
        std::uint64_t line = mem_.l1i().lineAddr(rec.pc);
        if (line != lastFetchLine_) {
            auto acc = mem_.fetchAccess(rec.pc, now_);
            lastFetchLine_ = line;
            if (acc.extraLatency > 0) {
                fetchStallUntil_ = now_ + acc.extraLatency;
                return;
            }
        }

        Slot slot;
        slot.rec = rec;
        pending_.pop_front();

        if (rec.cls == InstrClass::Branch) {
            bool pred = bpred_.predict(rec.pc);
            bpred_.update(rec.pc, rec.taken);
            if (pred != rec.taken) {
                slot.mispredict = true;
                haltBranchId_ = rec.id;
                fetchBuf_.push_back(slot);
                return;  // fetch halts behind the mispredict
            }
        }
        fetchBuf_.push_back(slot);
        ++fetched;
    }
}

} // namespace uasim::timing
