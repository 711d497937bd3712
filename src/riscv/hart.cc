#include "riscv/hart.h"

#include <algorithm>
#include <iterator>

#include "riscv/semantics.h"
#include "util/logging.h"

namespace fs {
namespace riscv {

namespace {

/** Little-endian load from a direct window's host memory. */
std::uint32_t
loadDirect(const std::uint8_t *p, unsigned bytes)
{
    std::uint32_t v = std::uint32_t(p[0]);
    if (bytes > 1)
        v |= std::uint32_t(p[1]) << 8;
    if (bytes > 2) {
        v |= std::uint32_t(p[2]) << 16;
        v |= std::uint32_t(p[3]) << 24;
    }
    return v;
}

} // namespace

std::uint64_t
Hart::CycleCosts::worstCase(const Decoded &d) const
{
    switch (d.op) {
#define FS_RV_COST_ALU(name, cost_field, result)                       \
      case Mnemonic::k##name:                                          \
        return cost_field;
      FS_RV_ALU_OPS(FS_RV_COST_ALU)
#undef FS_RV_COST_ALU
      case Mnemonic::kIllegal:
        return 0;
      case Mnemonic::kFsMark:
        return alu;
      default:
        break;
    }
    switch (d.cls) {
      case InstrClass::kLoad:
      case InstrClass::kStore: return loadStore;
      case InstrClass::kBranch:
      case InstrClass::kJal:
      case InstrClass::kJalr: return branchTaken;
      case InstrClass::kCsr:
      case InstrClass::kCustom: return csr;
      case InstrClass::kSystem: return trap;
      default: return alu; // lui, auipc, immediate ops, fence
    }
}

FsCoprocessor::~FsCoprocessor() = default;

Hart::Hart(MemoryDevice &bus)
    : bus_(bus), dbt_on_(DbtCache::enabledByEnv())
{
}

void
Hart::setReg(Word index, std::uint32_t value)
{
    FS_ASSERT(index < 32, "register index out of range");
    if (index != 0)
        regs_[index] = value;
}

std::uint32_t &
Hart::csrRef(Word addr)
{
    // Dense index table over the machine-mode CSR block [0x300, 0x345)
    // -- one bounds check and one byte load instead of a switch on the
    // raw 12-bit address.
    static constexpr auto kTable = [] {
        std::array<std::int8_t, 0x45> t{};
        for (auto &e : t)
            e = -1;
        t[kCsrMstatus - kCsrMstatus] = std::int8_t(kIdxMstatus);
        t[kCsrMie - kCsrMstatus] = std::int8_t(kIdxMie);
        t[kCsrMip - kCsrMstatus] = std::int8_t(kIdxMip);
        t[kCsrMtvec - kCsrMstatus] = std::int8_t(kIdxMtvec);
        t[kCsrMscratch - kCsrMstatus] = std::int8_t(kIdxMscratch);
        t[kCsrMepc - kCsrMstatus] = std::int8_t(kIdxMepc);
        t[kCsrMcause - kCsrMstatus] = std::int8_t(kIdxMcause);
        return t;
    }();
    const Word rel = addr - kCsrMstatus; // wraps large for addr < base
    if (rel < kTable.size()) {
        const std::int8_t idx = kTable[rel];
        if (idx >= 0)
            return csrs_[std::size_t(idx)];
    }
    fatal("unimplemented CSR 0x", std::hex, addr);
}

std::uint32_t
Hart::csr(Word addr) const
{
    if (addr == kCsrMcycle)
        return std::uint32_t(cycles_);
    if (addr == kCsrMinstret)
        return std::uint32_t(instret_);
    return const_cast<Hart *>(this)->csrRef(addr);
}

void
Hart::setCsr(Word addr, std::uint32_t value)
{
    csrRef(addr) = value;
}

void
Hart::setExternalInterrupt(bool asserted)
{
    if (asserted)
        csrs_[kIdxMip] |= kMipMeip;
    else
        csrs_[kIdxMip] &= ~kMipMeip;
}

bool
Hart::interruptPending() const
{
    return (csrs_[kIdxMstatus] & kMstatusMie) &&
           (csrs_[kIdxMie] & csrs_[kIdxMip] & kMipMeip);
}

void
Hart::takeInterrupt()
{
    csrs_[kIdxMepc] = pc_;
    csrs_[kIdxMcause] = kCauseMachineExternal;
    // MPIE <- MIE; MIE <- 0.
    if (csrs_[kIdxMstatus] & kMstatusMie)
        csrs_[kIdxMstatus] |= kMstatusMpie;
    else
        csrs_[kIdxMstatus] &= ~kMstatusMpie;
    csrs_[kIdxMstatus] &= ~kMstatusMie;
    pc_ = csrs_[kIdxMtvec] & ~3u;
    wfi_ = false;
    cycles_ += costs_.trap;
}

void
Hart::syncSlowAccess()
{
    slow_event_ = true;
    if (slow_sync_)
        slow_sync_();
}

const DirectWindow *
Hart::findWindow(std::uint32_t addr, unsigned bytes)
{
    if (!windows_init_) {
        windows_ = bus_.directWindows();
        windows_init_ = true;
    }
    if (mru_window_ < windows_.size() &&
        windows_[mru_window_].contains(addr, bytes))
        return &windows_[mru_window_];
    for (std::size_t i = 0; i < windows_.size(); ++i) {
        if (windows_[i].contains(addr, bytes)) {
            mru_window_ = i;
            return &windows_[i];
        }
    }
    return nullptr;
}

Word
Hart::fetch()
{
    if (const DirectWindow *w = findWindow(pc_, 4))
        return loadDirect(w->data + (pc_ - w->base), 4);
    return bus_.read(pc_, 4);
}

std::uint32_t
Hart::load(std::uint32_t addr, unsigned bytes)
{
    if (const DirectWindow *w = findWindow(addr, bytes))
        return loadDirect(w->data + (addr - w->base), bytes);
    syncSlowAccess();
    return bus_.read(addr, bytes);
}

void
Hart::store(std::uint32_t addr, std::uint32_t value, unsigned bytes)
{
    // Self-modifying store into translated code: drop the cache before
    // anything can re-enter a stale block.
    if (dbt_.overlapsCode(addr, bytes))
        dbt_.flush();
    if (const DirectWindow *w = findWindow(addr, bytes)) {
        // Stores keep the virtual dispatch (NVM write filters, tear
        // bookkeeping, write counters must all see them) but skip the
        // bus's region decode.
        w->device->write(addr - w->deviceBase, value, bytes);
        return;
    }
    syncSlowAccess();
    bus_.write(addr, value, bytes);
}

std::uint64_t
Hart::step()
{
    if (halted_)
        return 0;
    if (interruptPending()) {
        takeInterrupt();
        return costs_.trap;
    }
    if (wfi_) {
        // Idle; wake only via interrupt (checked above). With
        // interrupts globally disabled, WFI still wakes on a pending
        // enabled interrupt per the spec.
        if (csrs_[kIdxMie] & csrs_[kIdxMip] & kMipMeip) {
            wfi_ = false;
        } else {
            ++cycles_;
            return 1;
        }
    }
    const Word inst = fetch();
    const std::uint64_t spent = executeDecoded(decode(inst));
    cycles_ += spent;
    ++instret_;
    return spent;
}

std::uint64_t
Hart::run(std::uint64_t max_cycles)
{
    std::uint64_t spent = 0;
    while (!halted_ && spent < max_cycles) {
        spent += runTranslated(max_cycles - spent);
        if (halted_ || spent >= max_cycles)
            break;
        spent += step();
    }
    return spent;
}

void
Hart::setDbtEnabled(bool on)
{
    if (dbt_on_ != on)
        dbt_.flush();
    dbt_on_ = on;
}

std::uint64_t
Hart::runTranslated(std::uint64_t budget)
{
    if (!dbt_on_ || halted_ || wfi_ || cycles_ < tail_end_ ||
        interruptPending())
        return 0;
    std::uint64_t spent = 0;
    slow_event_ = false;
    for (;;) {
        DbtBlock *block = dbt_.lookup(pc_);
        if (block == nullptr)
            block = translate();
        if (block == nullptr)
            break; // strict op or MMIO-resident code: step() runs it
        if (spent + block->worstTotal >= budget) {
            // The superblock could cross the event horizon: step()
            // runs the tail, so kills, sample latches and interrupts
            // land on the exact interpreter cycle.
            tail_end_ = cycles_ + (budget - spent);
            break;
        }
        spent += runDbt(block, budget - spent);
        if (halted_ || wfi_ || slow_event_ || interruptPending())
            break;
    }
    return spent;
}

// Dispatch strategy: computed goto (direct threading) under GCC/Clang,
// a switch over DbtOpcode elsewhere. CMake probes for the extension
// and defines FS_DBT_COMPUTED_GOTO to 0/1 (FS_FORCE_SWITCH_DISPATCH
// pins the fallback for CI); standalone builds fall back to the
// compiler check below. Both dispatchers share the same handler
// bodies via FS_DBT_OP/FS_DBT_NEXT, so they are bit-identical by
// construction.
#ifndef FS_DBT_COMPUTED_GOTO
#if defined(__GNUC__) || defined(__clang__)
#define FS_DBT_COMPUTED_GOTO 1
#else
#define FS_DBT_COMPUTED_GOTO 0
#endif
#endif

DbtBlock *
Hart::translate()
{
    const DirectWindow *w = findWindow(pc_, 4);
    if (w == nullptr)
        return nullptr; // MMIO-resident code: interpreter only
#if FS_DBT_COMPUTED_GOTO
    if (dbt_labels_ == nullptr)
        runDbt(nullptr, 0); // publish the label table
#endif
    DbtBlock blk;
    blk.base = pc_;
    const std::uint64_t window_end = std::uint64_t(w->base) + w->span;
    std::uint32_t pc = pc_;
    bool terminal = false;
    while (!terminal && blk.ops.size() < DbtCache::kMaxBlockOps &&
           std::uint64_t(pc) + 4 <= window_end) {
        const Decoded d = decode(loadDirect(w->data + (pc - w->base), 4));
        DbtOp op;
        op.rd = std::uint8_t(d.rd);
        op.rs1 = std::uint8_t(d.rs1);
        op.rs2 = std::uint8_t(d.rs2);
        op.imm = d.imm;
        op.cost = std::uint32_t(costs_.worstCase(d));
        // Pure ALU writes to x0 are architectural no-ops: lower them
        // to kNop (cost preserved) so every other ALU handler may
        // write regs[rd] unguarded.
        const auto alu = [&op, &d](DbtOpcode code) {
            op.opcode = d.rd == 0 ? DbtOpcode::kNop : code;
        };
        switch (d.op) {
          case Mnemonic::kLui:
            alu(DbtOpcode::kConst);
            break;
          case Mnemonic::kAuipc:
            // Blocks are keyed by physical pc and die on any code
            // change, so the auipc result is a translation-time
            // constant.
            alu(DbtOpcode::kConst);
            op.imm = std::int32_t(pc + std::uint32_t(d.imm));
            break;
#define FS_DBT_XLATE_ALU(name, ...)                                    \
          case Mnemonic::k##name:                                      \
            alu(DbtOpcode::k##name);                                   \
            break;
          FS_RV_ALU_OPS(FS_DBT_XLATE_ALU)
          FS_RV_ALU_IMM_OPS(FS_DBT_XLATE_ALU)
#undef FS_DBT_XLATE_ALU
          case Mnemonic::kFence:
            op.opcode = DbtOpcode::kNop;
            break;
          // Loads keep rd == x0 (the access itself must happen: MMIO
          // reads can have side effects); the handler guards the
          // register write.
#define FS_DBT_XLATE_LOAD(name, bytes, result)                         \
          case Mnemonic::k##name:                                      \
            op.opcode = DbtOpcode::k##name;                            \
            break;
          FS_RV_LOAD_OPS(FS_DBT_XLATE_LOAD)
#undef FS_DBT_XLATE_LOAD
#define FS_DBT_XLATE_STORE(name, bytes)                                \
          case Mnemonic::k##name:                                      \
            op.opcode = DbtOpcode::k##name;                            \
            op.aux = pc + 4; /* exit pc if the store forces a bail-out */ \
            break;
          FS_RV_STORE_OPS(FS_DBT_XLATE_STORE)
#undef FS_DBT_XLATE_STORE
#define FS_DBT_XLATE_BRANCH(name, cond)                                \
          case Mnemonic::k##name:                                      \
            op.opcode = DbtOpcode::k##name;                            \
            op.imm = std::int32_t(pc + std::uint32_t(d.imm));          \
            op.cost2 = op.cost; /* taken */                            \
            op.cost = std::uint32_t(costs_.alu); /* not taken */       \
            break;
          FS_RV_BRANCH_OPS(FS_DBT_XLATE_BRANCH)
#undef FS_DBT_XLATE_BRANCH
          case Mnemonic::kJal:
            op.opcode = DbtOpcode::kJal;
            op.imm = std::int32_t(pc + std::uint32_t(d.imm)); // abs target
            op.aux = pc + 4; // link value
            terminal = true;
            break;
          case Mnemonic::kJalr:
            op.opcode = DbtOpcode::kJalr;
            op.aux = pc + 4; // link value
            terminal = true;
            break;
          default:
            // System/CSR/custom/illegal: cut the superblock here. The
            // translated prefix exits to this pc and the interpreter
            // runs the op with per-instruction counter commits, so
            // mcycle/minstret probes stay exact (and an illegal op is
            // reported at its own pc).
            goto cut;
        }
        if (op.opcode == DbtOpcode::kAddi && d.rs1 == 0)
            op.opcode = DbtOpcode::kConst; // li: x0 + imm
        blk.ops.push_back(op);
        blk.worstTotal += std::max(op.cost, op.cost2);
        pc += 4;
    }
cut:
    if (blk.ops.empty())
        return nullptr; // first op already strict: nothing to run here
    if (!terminal) {
        // The block ended on the op cap, the window end, or a
        // strict-op cutoff: chain to the next pc (no guest cost, no
        // retirement).
        DbtOp op;
        op.opcode = DbtOpcode::kFallthrough;
        op.imm = std::int32_t(pc);
        blk.ops.push_back(op);
    }
#if FS_DBT_COMPUTED_GOTO
    for (DbtOp &op : blk.ops)
        op.handler = dbt_labels_[std::size_t(op.opcode)];
#endif
    return dbt_.insert(std::move(blk));
}

// Shared handler bodies for both dispatchers: FS_DBT_OP opens a
// handler (goto label vs. switch case), FS_DBT_NEXT retires the op
// and dispatches its successor, FS_DBT_ENTER dispatches the current
// op without retiring (block entry, chain transfer, post-store
// continue).
#if FS_DBT_COMPUTED_GOTO
#define FS_DBT_OP(name) h_##name:
#define FS_DBT_ENTER() goto *op->handler
#else
#define FS_DBT_OP(name) case DbtOpcode::name:
#define FS_DBT_ENTER() goto dispatch
#endif
#define FS_DBT_NEXT()                                                  \
    do {                                                               \
        ++retired;                                                     \
        ++op;                                                          \
        FS_DBT_ENTER();                                                \
    } while (0)

__attribute__((flatten)) std::uint64_t
Hart::runDbt(DbtBlock *block, std::uint64_t budget)
{
#if FS_DBT_COMPUTED_GOTO
    // Same tables, same order as the DbtOpcode enum.
#define FS_DBT_LABEL(name, ...) &&h_k##name,
    static const void *const kLabels[] = {
        &&h_kNop, &&h_kConst,
        FS_RV_ALU_OPS(FS_DBT_LABEL) FS_RV_ALU_IMM_OPS(FS_DBT_LABEL)
        FS_RV_LOAD_OPS(FS_DBT_LABEL) FS_RV_STORE_OPS(FS_DBT_LABEL)
        FS_RV_BRANCH_OPS(FS_DBT_LABEL)
        &&h_kJal, &&h_kJalr, &&h_kFallthrough};
#undef FS_DBT_LABEL
    static_assert(std::size(kLabels) == std::size_t(DbtOpcode::kCount));
    if (block == nullptr) {
        dbt_labels_ = kLabels;
        return 0;
    }
#else
    if (block == nullptr)
        return 0;
#endif
    const std::uint64_t cycles0 = cycles_;
    std::uint64_t pending = 0; // cycles not yet committed to cycles_
    std::uint64_t retired = 0; // instret not yet committed
    std::uint64_t chained = 0;
    std::uint32_t *const r = regs_.data();
    DbtOp *op = block->ops.data();
    FS_DBT_ENTER();

#if !FS_DBT_COMPUTED_GOTO
dispatch:
    switch (op->opcode) {
#endif

    FS_DBT_OP(kNop)
    {
        pending += op->cost;
        FS_DBT_NEXT();
    }
    FS_DBT_OP(kConst)
    {
        r[op->rd] = std::uint32_t(op->imm);
        pending += op->cost;
        FS_DBT_NEXT();
    }
#define FS_DBT_ALU(name, cost_field, result)                           \
    FS_DBT_OP(k##name)                                                 \
    {                                                                  \
        r[op->rd] = alu##name(r[op->rs1], r[op->rs2]);                 \
        pending += op->cost;                                           \
        FS_DBT_NEXT();                                                 \
    }
    FS_RV_ALU_OPS(FS_DBT_ALU)
#undef FS_DBT_ALU
#define FS_DBT_ALU_IMM(name, reg_form)                                 \
    FS_DBT_OP(k##name)                                                 \
    {                                                                  \
        r[op->rd] = alu##reg_form(r[op->rs1], std::uint32_t(op->imm)); \
        pending += op->cost;                                           \
        FS_DBT_NEXT();                                                 \
    }
    FS_RV_ALU_IMM_OPS(FS_DBT_ALU_IMM)
#undef FS_DBT_ALU_IMM

    // Loads serve the direct-window fast path inline; the slow (MMIO)
    // path commits the pending cycles first so the peripheral's
    // time-sync hook sees exactly the interpreter's cycle count, then
    // flags the dispatch exit via slow_event_ (checked at the next
    // chain point -- MMIO *reads* never move an event horizon or
    // raise an interrupt, so finishing the block is exact).
#define FS_DBT_LOAD(name, width, result)                               \
    FS_DBT_OP(k##name)                                                 \
    {                                                                  \
        const std::uint32_t addr = r[op->rs1] + std::uint32_t(op->imm); \
        std::uint32_t v;                                               \
        if (const DirectWindow *w = findWindow(addr, width)) {         \
            v = loadDirect(w->data + (addr - w->base), width);         \
        } else {                                                       \
            cycles_ += pending;                                        \
            pending = 0;                                               \
            syncSlowAccess();                                          \
            v = bus_.read(addr, width);                                \
        }                                                              \
        if (op->rd)                                                    \
            r[op->rd] = extend##name(v);                               \
        pending += op->cost;                                           \
        FS_DBT_NEXT();                                                 \
    }
    FS_RV_LOAD_OPS(FS_DBT_LOAD)
#undef FS_DBT_LOAD

    // Stores mirror Hart::store (flush checks first, virtual device
    // write so NVM filters/tear bookkeeping always run), then re-check
    // the DBT generation: a store into translated code freed this very
    // op array, so the exit pc is stashed in locals beforehand. MMIO
    // stores (slow_event_) can move an event horizon and exit too.
#define FS_DBT_STORE(name, width)                                      \
    FS_DBT_OP(k##name)                                                 \
    {                                                                  \
        const std::uint32_t addr = r[op->rs1] + std::uint32_t(op->imm); \
        const std::uint32_t value = r[op->rs2];                        \
        const std::uint32_t next = op->aux;                            \
        const std::uint32_t cost = op->cost;                           \
        const std::uint64_t gen = dbt_.generation();                   \
        if (dbt_.overlapsCode(addr, width))                            \
            dbt_.flush();                                              \
        if (const DirectWindow *w = findWindow(addr, width)) {         \
            w->device->write(addr - w->deviceBase, value, width);      \
        } else {                                                       \
            cycles_ += pending;                                        \
            pending = 0;                                               \
            syncSlowAccess();                                          \
            bus_.write(addr, value, width);                            \
        }                                                              \
        pending += cost;                                               \
        ++retired;                                                     \
        if (dbt_.generation() != gen || slow_event_) {                 \
            pc_ = next;                                                \
            goto done;                                                 \
        }                                                              \
        ++op;                                                          \
        FS_DBT_ENTER();                                                \
    }
    FS_RV_STORE_OPS(FS_DBT_STORE)
#undef FS_DBT_STORE

#define FS_DBT_BRANCH(name, cond)                                      \
    FS_DBT_OP(k##name)                                                 \
    {                                                                  \
        if (taken##name(r[op->rs1], r[op->rs2]))                       \
            goto branch_taken;                                         \
        pending += op->cost;                                           \
        FS_DBT_NEXT();                                                 \
    }
    FS_RV_BRANCH_OPS(FS_DBT_BRANCH)
#undef FS_DBT_BRANCH

    FS_DBT_OP(kJal)
    {
        if (op->rd)
            r[op->rd] = op->aux;
        pending += op->cost;
        ++retired;
        goto chain_follow;
    }
    FS_DBT_OP(kJalr)
    {
        // Dynamic target: exit to the outer dispatch loop (which
        // re-enters translated code immediately on a hit). rs1 is
        // read before the link write, as the interpreter does.
        const std::uint32_t target =
            jalrTarget(r[op->rs1], std::uint32_t(op->imm));
        if (op->rd)
            r[op->rd] = op->aux;
        pending += op->cost;
        ++retired;
        pc_ = target;
        goto done;
    }
    FS_DBT_OP(kFallthrough)
    {
        // Pseudo-op: no guest cost, no retirement.
        goto chain_follow;
    }

#if !FS_DBT_COMPUTED_GOTO
      case DbtOpcode::kCount:
        break;
    }
    fatal("corrupt DBT opcode at pc 0x", std::hex, pc_);
#endif

branch_taken:
    pending += op->cost2;
    ++retired;
    // fall through to the chain follow (target in op->imm)

chain_follow: {
    // Direct block->block transfer. The guard set matches
    // runTranslated's block boundary exactly: bail to the outer loop
    // on a slow event or pending interrupt, and never enter a
    // successor whose worst case could cross the event horizon. Links
    // are patched lazily on first use and unlinked on eviction/flush.
    const std::uint32_t target = std::uint32_t(op->imm);
    DbtBlock *next = op->chain;
    if (next == nullptr) {
        next = dbt_.lookup(target);
        if (next == nullptr) {
            pc_ = target;
            goto done;
        }
        dbt_.link(op, next);
    }
    if (slow_event_ || interruptPending() ||
        (cycles_ - cycles0) + pending + next->worstTotal >= budget) {
        pc_ = target;
        goto done;
    }
    ++chained;
    op = next->ops.data();
    FS_DBT_ENTER();
}

done: {
    cycles_ += pending;
    instret_ += retired;
    DbtStats &st = dbt_.stats();
    st.chainTransfers += chained;
    ++st.dispatchExits;
    return cycles_ - cycles0;
}
}

#undef FS_DBT_OP
#undef FS_DBT_ENTER
#undef FS_DBT_NEXT

void
Hart::powerFail()
{
    regs_.fill(0);
    pc_ = 0;
    csrs_.fill(0);
    wfi_ = false;
    halted_ = true;
    // Translated blocks may have been decoded from volatile (SRAM)
    // code that just decayed.
    dbt_.flush();
}

void
Hart::reset(std::uint32_t pc)
{
    regs_.fill(0);
    csrs_.fill(0);
    pc_ = pc;
    wfi_ = false;
    halted_ = false;
    // Reset commonly follows reloading code memory (tests load a new
    // image and reset): translated blocks must not outlive the image.
    dbt_.flush();
}

Hart::ArchState
Hart::saveArch() const
{
    ArchState s;
    s.regs = regs_;
    s.pc = pc_;
    s.csrs = csrs_;
    s.cycles = cycles_;
    s.instret = instret_;
    s.wfi = wfi_;
    s.halted = halted_;
    return s;
}

void
Hart::restoreArch(const ArchState &s)
{
    regs_ = s.regs;
    pc_ = s.pc;
    csrs_ = s.csrs;
    cycles_ = s.cycles;
    instret_ = s.instret;
    wfi_ = s.wfi;
    halted_ = s.halted;
    tail_end_ = 0; // cycles_ may have moved back past a pending tail
}

std::uint64_t
Hart::executeDecoded(const Decoded &d)
{
    const std::uint32_t a = regs_[d.rs1];
    const std::uint32_t b = regs_[d.rs2];
    const std::uint32_t imm = std::uint32_t(d.imm);
    std::uint32_t next_pc = pc_ + 4;
    std::uint64_t cost = costs_.alu;

    switch (d.op) {
      case Mnemonic::kLui:
        setReg(d.rd, imm);
        break;
      case Mnemonic::kAuipc:
        setReg(d.rd, pc_ + imm);
        break;
      case Mnemonic::kJal:
        setReg(d.rd, pc_ + 4);
        next_pc = pc_ + imm;
        cost = costs_.branchTaken;
        break;
      case Mnemonic::kJalr:
        setReg(d.rd, pc_ + 4);
        next_pc = jalrTarget(a, imm);
        cost = costs_.branchTaken;
        break;
#define FS_RV_EXEC_BRANCH(name, cond)                                  \
      case Mnemonic::k##name:                                          \
        if (taken##name(a, b)) {                                       \
            next_pc = pc_ + imm;                                       \
            cost = costs_.branchTaken;                                 \
        }                                                              \
        break;
      FS_RV_BRANCH_OPS(FS_RV_EXEC_BRANCH)
#undef FS_RV_EXEC_BRANCH
#define FS_RV_EXEC_LOAD(name, bytes, result)                           \
      case Mnemonic::k##name:                                          \
        setReg(d.rd, extend##name(load(a + imm, bytes)));              \
        cost = costs_.loadStore;                                       \
        break;
      FS_RV_LOAD_OPS(FS_RV_EXEC_LOAD)
#undef FS_RV_EXEC_LOAD
#define FS_RV_EXEC_STORE(name, bytes)                                  \
      case Mnemonic::k##name:                                          \
        store(a + imm, b, bytes);                                      \
        cost = costs_.loadStore;                                       \
        break;
      FS_RV_STORE_OPS(FS_RV_EXEC_STORE)
#undef FS_RV_EXEC_STORE
#define FS_RV_EXEC_ALU(name, cost_field, result)                       \
      case Mnemonic::k##name:                                          \
        setReg(d.rd, alu##name(a, b));                                 \
        cost = costs_.cost_field;                                      \
        break;
      FS_RV_ALU_OPS(FS_RV_EXEC_ALU)
#undef FS_RV_EXEC_ALU
#define FS_RV_EXEC_ALU_IMM(name, reg_form)                             \
      case Mnemonic::k##name:                                          \
        setReg(d.rd, alu##reg_form(a, imm));                           \
        break;
      FS_RV_ALU_IMM_OPS(FS_RV_EXEC_ALU_IMM)
#undef FS_RV_EXEC_ALU_IMM
      case Mnemonic::kFence:
        break; // no-op in a single-hart system
      case Mnemonic::kFsMark:
        // Checkpoint-boundary marker. Architecturally a no-op; it only
        // exists so the static analyzer can locate commit points in
        // the binary. Works without a coprocessor.
        break;
      case Mnemonic::kFsRead:
        if (!cop_)
            fatal("custom-0 instruction with no coprocessor attached");
        syncSlowAccess();
        setReg(d.rd, cop_->fsRead());
        cost = costs_.csr;
        break;
      case Mnemonic::kFsCfg:
        if (!cop_)
            fatal("custom-0 instruction with no coprocessor attached");
        syncSlowAccess();
        cop_->fsConfigure(a, b);
        cost = costs_.csr;
        break;
      case Mnemonic::kEcall:
        pc_ += 4;
        if (ecall_ && ecall_(*this))
            halted_ = true;
        return costs_.trap;
      case Mnemonic::kEbreak:
        halted_ = true;
        pc_ += 4;
        return costs_.trap;
      case Mnemonic::kMret:
        pc_ = csrs_[kIdxMepc];
        // MIE <- MPIE; MPIE <- 1.
        if (csrs_[kIdxMstatus] & kMstatusMpie)
            csrs_[kIdxMstatus] |= kMstatusMie;
        else
            csrs_[kIdxMstatus] &= ~kMstatusMie;
        csrs_[kIdxMstatus] |= kMstatusMpie;
        return costs_.trap;
      case Mnemonic::kWfi:
        wfi_ = true;
        pc_ += 4;
        return 1;
      case Mnemonic::kCsrrw:
      case Mnemonic::kCsrrs:
      case Mnemonic::kCsrrc:
      case Mnemonic::kCsrrwi:
      case Mnemonic::kCsrrsi:
      case Mnemonic::kCsrrci:
        return executeCsr(d);
      case Mnemonic::kIllegal:
        fatal("illegal instruction 0x", std::hex, d.raw, " at pc 0x",
              pc_);
    }
    pc_ = next_pc;
    return cost;
}

std::uint64_t
Hart::executeCsr(const Decoded &d)
{
    const std::uint32_t old =
        (d.csr == kCsrMcycle || d.csr == kCsrMinstret) ? csr(d.csr)
                                                       : csrRef(d.csr);
    // Immediate forms carry the zimm in imm (the decoder zeroes rs1).
    const bool imm_form = d.op == Mnemonic::kCsrrwi ||
                          d.op == Mnemonic::kCsrrsi ||
                          d.op == Mnemonic::kCsrrci;
    const std::uint32_t src =
        imm_form ? std::uint32_t(d.imm) : regs_[d.rs1];
    switch (d.op) {
      case Mnemonic::kCsrrw:
      case Mnemonic::kCsrrwi:
        csrRef(d.csr) = src;
        break;
      case Mnemonic::kCsrrs:
      case Mnemonic::kCsrrsi:
        if (src)
            csrRef(d.csr) = old | src;
        break;
      default: // kCsrrc / kCsrrci
        if (src)
            csrRef(d.csr) = old & ~src;
        break;
    }
    setReg(d.rd, old);
    pc_ += 4;
    return costs_.csr;
}

} // namespace riscv
} // namespace fs
