#include "analysis/firmware_linter.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <sstream>

#include "core/fs_config.h"
#include "riscv/semantics.h"
#include "runtime/energy_model.h"
#include "util/bench_report.h"
#include "util/json.h"
#include "util/logging.h"

namespace fs {
namespace analysis {

using riscv::Decoded;
using riscv::InstrClass;
using riscv::Mnemonic;
using riscv::Word;

namespace {

// ---------------------------------------------------------------------
// Value-set abstract domain
// ---------------------------------------------------------------------

/** Max constants tracked exactly before widening to a base pointer. */
constexpr std::size_t kMaxConsts = 4;
/** Joins into one block before changing registers widen to Top. */
constexpr std::size_t kMaxJoins = 64;

/**
 * Abstract register value: bottom, a small set of exact constants, a
 * provenance-tagged pointer ("some value derived from base, >= base"),
 * or top. Widening keeps loop-walked pointers classifiable while
 * constant data (loop bounds, fixed addresses) stays exact.
 */
struct AbsVal {
    enum Kind { kBottom, kConsts, kPtr, kTop };
    Kind kind = kBottom;
    std::vector<std::uint32_t> consts; ///< sorted unique (kConsts)
    std::uint32_t base = 0;            ///< kPtr

    static AbsVal top()
    {
        AbsVal v;
        v.kind = kTop;
        return v;
    }
    static AbsVal constant(std::uint32_t c)
    {
        AbsVal v;
        v.kind = kConsts;
        v.consts = {c};
        return v;
    }
    static AbsVal ptr(std::uint32_t b)
    {
        AbsVal v;
        v.kind = kPtr;
        v.base = b;
        return v;
    }
    static AbsVal fromSet(std::vector<std::uint32_t> values)
    {
        std::sort(values.begin(), values.end());
        values.erase(std::unique(values.begin(), values.end()),
                     values.end());
        if (values.empty())
            return {};
        if (values.size() <= kMaxConsts) {
            AbsVal v;
            v.kind = kConsts;
            v.consts = std::move(values);
            return v;
        }
        return ptr(values.front());
    }

    bool operator==(const AbsVal &o) const
    {
        return kind == o.kind && consts == o.consts && base == o.base;
    }
    bool operator!=(const AbsVal &o) const { return !(*this == o); }
};

AbsVal
join(const AbsVal &a, const AbsVal &b)
{
    if (a.kind == AbsVal::kBottom)
        return b;
    if (b.kind == AbsVal::kBottom)
        return a;
    if (a.kind == AbsVal::kTop || b.kind == AbsVal::kTop)
        return AbsVal::top();
    if (a.kind == AbsVal::kConsts && b.kind == AbsVal::kConsts) {
        std::vector<std::uint32_t> merged = a.consts;
        merged.insert(merged.end(), b.consts.begin(), b.consts.end());
        return AbsVal::fromSet(std::move(merged));
    }
    // At least one pointer: keep the lowest base as the provenance
    // anchor (loop preheaders keep pulling the base back down, which
    // makes widened induction pointers stable).
    const std::uint32_t ba =
        a.kind == AbsVal::kPtr ? a.base : a.consts.front();
    const std::uint32_t bb =
        b.kind == AbsVal::kPtr ? b.base : b.consts.front();
    return AbsVal::ptr(std::min(ba, bb));
}

/** Fold a pure binary op over every pair of constants; Top otherwise. */
template <typename Fn>
AbsVal
foldConsts(const AbsVal &a, const AbsVal &b, Fn fn)
{
    if (a.kind != AbsVal::kConsts || b.kind != AbsVal::kConsts)
        return AbsVal::top();
    std::vector<std::uint32_t> out;
    out.reserve(a.consts.size() * b.consts.size());
    for (std::uint32_t x : a.consts)
        for (std::uint32_t y : b.consts)
            out.push_back(fn(x, y));
    return AbsVal::fromSet(std::move(out));
}

/** a + b, preserving pointer provenance (pointer plus constant). */
AbsVal
addVals(const AbsVal &a, const AbsVal &b)
{
    if (a.kind == AbsVal::kPtr && b.kind == AbsVal::kConsts)
        return AbsVal::ptr(a.base + b.consts.front());
    if (b.kind == AbsVal::kPtr && a.kind == AbsVal::kConsts)
        return AbsVal::ptr(b.base + a.consts.front());
    return foldConsts(a, b, riscv::aluAdd);
}

/** An ALU/M op's result function from semantics.h, and whether its
 *  second operand is the immediate (nullptr for lui/auipc/fence). */
struct AluOp {
    std::uint32_t (*fn)(std::uint32_t, std::uint32_t) = nullptr;
    bool immForm = false;
};

AluOp
aluOp(Mnemonic op)
{
    switch (op) {
#define FS_LINT_ALU(name, cost, result)                                \
      case Mnemonic::k##name:                                          \
        return {riscv::alu##name, false};
      FS_RV_ALU_OPS(FS_LINT_ALU)
#undef FS_LINT_ALU
#define FS_LINT_ALU_IMM(name, reg_form)                                \
      case Mnemonic::k##name:                                          \
        return {riscv::alu##reg_form, true};
      FS_RV_ALU_IMM_OPS(FS_LINT_ALU_IMM)
#undef FS_LINT_ALU_IMM
      default:
        return {};
    }
}

// ---------------------------------------------------------------------
// Machine state: registers plus the interrupt-enable bits
// ---------------------------------------------------------------------

enum class Tri { kOff, kOn, kUnknown };

Tri
joinTri(Tri a, Tri b)
{
    return a == b ? a : Tri::kUnknown;
}

struct MachineState {
    std::array<AbsVal, 32> regs;
    Tri mie = Tri::kUnknown;  ///< mstatus.MIE
    Tri meie = Tri::kUnknown; ///< mie.MEIE
    bool reachable = false;

    const AbsVal &reg(Word r) const
    {
        static const AbsVal zero = AbsVal::constant(0);
        return r == 0 ? zero : regs[r];
    }
    void setReg(Word r, AbsVal v)
    {
        if (r != 0)
            regs[r] = std::move(v);
    }

    /** Join @p other in; returns true when anything changed. */
    bool joinFrom(const MachineState &other)
    {
        if (!other.reachable)
            return false;
        if (!reachable) {
            *this = other;
            return true;
        }
        bool changed = false;
        for (std::size_t r = 1; r < 32; ++r) {
            AbsVal merged = join(regs[r], other.regs[r]);
            if (merged != regs[r]) {
                regs[r] = std::move(merged);
                changed = true;
            }
        }
        const Tri m = joinTri(mie, other.mie);
        const Tri e = joinTri(meie, other.meie);
        if (m != mie || e != meie) {
            mie = m;
            meie = e;
            changed = true;
        }
        return changed;
    }

    /** Force every changed-prone register to Top (widening bail-out
     *  for abnormal images, e.g. decrementing pointers). */
    void widenAll()
    {
        for (std::size_t r = 1; r < 32; ++r)
            if (regs[r].kind != AbsVal::kTop)
                regs[r] = AbsVal::top();
    }
};

Tri
irqEnabled(const MachineState &s)
{
    if (s.mie == Tri::kOff || s.meie == Tri::kOff)
        return Tri::kOff;
    if (s.mie == Tri::kOn && s.meie == Tri::kOn)
        return Tri::kOn;
    return Tri::kUnknown;
}

/** Registers a callee may clobber (RISC-V caller-saved set). */
bool
isCallerSaved(Word r)
{
    return r == riscv::kRa || (r >= riscv::kT0 && r <= riscv::kT2) ||
           (r >= riscv::kA0 && r <= riscv::kA7) ||
           (r >= riscv::kT3 && r <= riscv::kT6);
}

std::uint32_t
callerSavedMask()
{
    std::uint32_t mask = 0;
    for (Word r = 1; r < 32; ++r)
        if (isCallerSaved(r))
            mask |= 1u << r;
    return mask;
}

/** Update one interrupt-enable tri-state for a CSR write. */
void
applyCsrBit(Tri &state, Mnemonic op, const AbsVal &value, Word bit)
{
    const auto bitState = [&](bool &all, bool &none) {
        all = none = true;
        if (value.kind != AbsVal::kConsts) {
            all = none = false;
            return;
        }
        for (std::uint32_t c : value.consts) {
            if (c & bit)
                none = false;
            else
                all = false;
        }
    };
    bool all = false, none = false;
    bitState(all, none);
    switch (op) {
      case Mnemonic::kCsrrs:
      case Mnemonic::kCsrrsi:
        if (all)
            state = Tri::kOn;
        else if (!none)
            state = Tri::kUnknown;
        break; // setting no bits leaves the state alone
      case Mnemonic::kCsrrc:
      case Mnemonic::kCsrrci:
        if (all)
            state = Tri::kOff;
        else if (!none)
            state = Tri::kUnknown;
        break;
      case Mnemonic::kCsrrw:
      case Mnemonic::kCsrrwi:
        state = all ? Tri::kOn : none ? Tri::kOff : Tri::kUnknown;
        break;
      default:
        break;
    }
}

/** Abstract transfer for one instruction; returns the address value
 *  for loads/stores (bottom otherwise). */
AbsVal
transfer(MachineState &s, const Instr &in)
{
    const Decoded &d = in.d;
    AbsVal addr;
    const AbsVal imm = AbsVal::constant(std::uint32_t(d.imm));
    switch (d.cls) {
      case InstrClass::kAlu:
      case InstrClass::kMul:
      case InstrClass::kDiv: {
        // Results come from semantics.h, exact on constant sets; only
        // add/addi also carry pointer provenance.
        const AluOp alu = aluOp(d.op);
        const AbsVal &b = alu.immForm ? imm : s.reg(d.rs2);
        if (d.op == Mnemonic::kLui)
            s.setReg(d.rd, imm);
        else if (d.op == Mnemonic::kAuipc)
            s.setReg(d.rd, AbsVal::constant(in.addr + std::uint32_t(d.imm)));
        else if (d.op == Mnemonic::kAdd || d.op == Mnemonic::kAddi)
            s.setReg(d.rd, addVals(s.reg(d.rs1), b));
        else if (alu.fn != nullptr)
            s.setReg(d.rd, foldConsts(s.reg(d.rs1), b, alu.fn));
        break; // fence
      }
      case InstrClass::kLoad:
        addr = addVals(s.reg(d.rs1), imm);
        s.setReg(d.rd, AbsVal::top());
        break;
      case InstrClass::kStore:
        addr = addVals(s.reg(d.rs1), imm);
        break;
      case InstrClass::kJal:
      case InstrClass::kJalr:
        s.setReg(d.rd, AbsVal::constant(in.addr + 4));
        break;
      case InstrClass::kCsr: {
        const AbsVal &written = (d.op == Mnemonic::kCsrrwi ||
                                 d.op == Mnemonic::kCsrrsi ||
                                 d.op == Mnemonic::kCsrrci)
                                    ? imm
                                    : s.reg(d.rs1);
        if (d.csr == riscv::kCsrMstatus)
            applyCsrBit(s.mie, d.op, written, riscv::kMstatusMie);
        else if (d.csr == riscv::kCsrMie)
            applyCsrBit(s.meie, d.op, written, riscv::kMieMeie);
        s.setReg(d.rd, AbsVal::top());
        break;
      }
      case InstrClass::kCustom:
        if (d.op == Mnemonic::kFsRead)
            s.setReg(d.rd, AbsVal::top());
        break;
      case InstrClass::kBranch:
      case InstrClass::kSystem:
      case InstrClass::kIllegal:
        break;
    }
    return addr;
}

// ---------------------------------------------------------------------
// Address classification and aliasing
// ---------------------------------------------------------------------

bool
touchesKind(const soc::MemoryMap &map, const AbsVal &v,
            soc::MemKind kind)
{
    if (v.kind == AbsVal::kConsts) {
        for (std::uint32_t c : v.consts)
            if (map.classify(c) == kind)
                return true;
        return false;
    }
    if (v.kind == AbsVal::kPtr)
        return map.classify(v.base) == kind;
    return false;
}

bool
addressKnown(const AbsVal &v)
{
    return v.kind == AbsVal::kConsts || v.kind == AbsVal::kPtr;
}

/**
 * May the two abstract addresses refer to the same location? This is
 * a deliberate under-approximation: conflicts require a shared
 * concrete constant or an identical provenance base, so unrelated
 * regions never cross-fire (see the header comment).
 */
bool
mayAlias(const AbsVal &a, const AbsVal &b)
{
    if (a.kind == AbsVal::kConsts && b.kind == AbsVal::kConsts) {
        for (std::uint32_t x : a.consts)
            for (std::uint32_t y : b.consts)
                if (x == y)
                    return true;
        return false;
    }
    if (a.kind == AbsVal::kPtr && b.kind == AbsVal::kPtr)
        return a.base == b.base;
    return false;
}

std::string
hex(std::uint32_t v)
{
    std::ostringstream os;
    os << "0x" << std::hex << v;
    return os.str();
}

std::string
describe(const AbsVal &v)
{
    if (v.kind == AbsVal::kConsts) {
        std::string out = v.consts.size() > 1 ? "{" : "";
        for (std::size_t i = 0; i < v.consts.size(); ++i)
            out += (i ? ", " : "") + hex(v.consts[i]);
        return out + (v.consts.size() > 1 ? "}" : "");
    }
    if (v.kind == AbsVal::kPtr)
        return "ptr(" + hex(v.base) + ")";
    return "unknown";
}

/**
 * True when an SCC's internal edges, minus those @p cut(from, to)
 * removes, form no cycle (Kahn's algorithm: every member drains).
 */
template <typename Cut>
bool
acyclicWithout(const Cfg &cfg, const std::vector<std::size_t> &members,
               Cut cut)
{
    const auto &blocks = cfg.blocks();
    std::map<std::size_t, std::size_t> indeg;
    for (std::size_t m : members)
        indeg.emplace(m, 0);
    for (std::size_t m : members)
        for (std::size_t s : blocks[m].succs) {
            const auto it = indeg.find(s);
            if (it != indeg.end() && !cut(m, s))
                ++it->second;
        }
    std::vector<std::size_t> ready;
    for (const auto &[m, deg] : indeg)
        if (deg == 0)
            ready.push_back(m);
    std::size_t drained = 0;
    while (!ready.empty()) {
        const std::size_t m = ready.back();
        ready.pop_back();
        ++drained;
        for (std::size_t s : blocks[m].succs) {
            const auto it = indeg.find(s);
            if (it != indeg.end() && !cut(m, s) && --it->second == 0)
                ready.push_back(s);
        }
    }
    return drained == members.size();
}

// ---------------------------------------------------------------------
// Linter
// ---------------------------------------------------------------------

/** Interprocedural facts about one direct-call target (internal
 *  superset of the exported CalleeSummary). */
struct FuncInfo {
    std::size_t entry = kNoBlock;
    std::vector<std::size_t> blocks;  ///< reachable via succs edges
    std::vector<std::size_t> callees; ///< direct-callee entry blocks
    bool callsIndirect = false;
    bool recursive = false; ///< on a call-graph cycle
    std::uint32_t clobberMask = 0;
    bool mayWriteNvm = false; ///< own or transitive NVM store
    std::size_t nvmStores = 0;
    std::uint32_t ownFrameBytes = 0;
    std::optional<std::uint64_t> cycles; ///< entry-to-return bound
    double energy = 0.0;                 ///< paired with cycles
    std::optional<std::uint32_t> stackBytes;
    /** Unbounded-loop addresses inside this callee, surfaced when a
     *  commit path crosses the call. */
    std::vector<std::uint32_t> unboundedAddrs;
};

class Analysis
{
  public:
    Analysis(const LintOptions &options, const Cfg &cfg)
        : opt_(options), cfg_(cfg),
          energyOn_(options.capacitanceFarads > 0.0)
    {
    }

    void run(LintReport &report);

  private:
    /** Joint worst-case bound along one path query: energy rides the
     *  same propagation as cycles but is maximized independently. */
    struct PathBound {
        std::optional<std::uint64_t> cycles;
        double energy = 0.0;
    };

    void discoverFunctions();
    void computeSummaries();
    void fixpoint();
    void warPass(LintReport &report);
    void cyclePass(LintReport &report);
    void budgetPass(LintReport &report);
    void accessPass(LintReport &report);
    void pruningPass(LintReport &report);
    void exportSummaries(LintReport &report);

    MachineState entryState() const;
    std::uint64_t blockCost(std::size_t b) const;
    double instrEnergy(std::size_t idx) const;
    double blockEnergy(std::size_t b) const;
    std::optional<std::uint64_t> sccBound(std::size_t scc,
                                          std::uint32_t *headerAddr);
    std::optional<std::uint64_t> cachedSccBound(std::size_t scc,
                                                bool stopAtMark);
    bool marksCutCycles(std::size_t scc);
    PathBound pathCost(std::size_t entry, bool toMark,
                       bool stopAtMark);

    const LintOptions &opt_;
    const Cfg &cfg_;
    bool energyOn_ = false;
    std::vector<MachineState> blockIn_;
    std::vector<MachineState> blockOut_;
    std::vector<AbsVal> instrAddr_; ///< joined address per instruction
    std::map<std::size_t, FuncInfo> funcs_; ///< by entry block
    std::map<std::size_t, std::optional<std::uint64_t>> sccBoundMemo_;
    std::map<std::size_t, bool> marksCutMemo_;
    std::set<std::size_t> loopBoundRecorded_; ///< sccs in loopBounds_
    std::vector<LoopBound> loopBounds_;
    std::set<std::uint32_t> markFallbackAddrs_;
    std::vector<std::uint32_t> unboundedSccAddrs_;
    std::set<std::size_t> warInstrs_; ///< instr indices in WAR pairs
};

MachineState
Analysis::entryState() const
{
    MachineState s;
    s.reachable = true;
    for (std::size_t r = 1; r < 32; ++r)
        s.regs[r] = AbsVal::top();
    if (opt_.profile == LintProfile::kApp) {
        // The runtime only enters the app with the FS irq armed.
        s.mie = Tri::kOn;
        s.meie = Tri::kOn;
    } else {
        // Reset and trap entry both run with MIE hardware-cleared.
        s.mie = Tri::kOff;
        s.meie = Tri::kUnknown;
    }
    return s;
}

void
Analysis::discoverFunctions()
{
    const auto &blocks = cfg_.blocks();

    // Function entries are the direct-call targets. Bodies are the
    // blocks reachable from the entry over succs edges (call edges
    // are not succs edges, so bodies stay within the callee).
    for (const BasicBlock &block : blocks)
        if (block.callTarget != kNoBlock)
            funcs_[block.callTarget];

    for (auto &[entry, f] : funcs_) {
        f.entry = entry;
        std::vector<bool> seen(blocks.size(), false);
        std::vector<std::size_t> work{entry};
        seen[entry] = true;
        while (!work.empty()) {
            const std::size_t b = work.back();
            work.pop_back();
            f.blocks.push_back(b);
            const BasicBlock &block = blocks[b];
            if (block.callsIndirect)
                f.callsIndirect = true;
            if (block.callTarget != kNoBlock)
                f.callees.push_back(block.callTarget);
            const Instr &last =
                cfg_.instrs()[block.firstInstr + block.numInstrs - 1];
            // A block ending in an indirect jump (jalr x0 via a
            // non-ra register) hides its continuation from the CFG:
            // fall back to the fully conservative summary.
            if (last.d.cls == InstrClass::kJalr &&
                last.d.rd == riscv::kZero && !last.d.isReturn())
                f.callsIndirect = true;
            for (std::size_t s : block.succs)
                if (!seen[s]) {
                    seen[s] = true;
                    work.push_back(s);
                }
        }
        std::sort(f.blocks.begin(), f.blocks.end());
        std::sort(f.callees.begin(), f.callees.end());
        f.callees.erase(
            std::unique(f.callees.begin(), f.callees.end()),
            f.callees.end());

        // Syntactic per-function facts: registers written and the
        // prologue stack frame (largest addi sp, sp, -N).
        for (std::size_t b : f.blocks) {
            const BasicBlock &block = blocks[b];
            for (std::size_t i = 0; i < block.numInstrs; ++i) {
                const Decoded &d =
                    cfg_.instrs()[block.firstInstr + i].d;
                if (d.writesRd() && d.rd != 0)
                    f.clobberMask |= 1u << d.rd;
                if (d.op == Mnemonic::kAddi && d.rd == riscv::kSp &&
                    d.rs1 == riscv::kSp && d.imm < 0)
                    f.ownFrameBytes = std::max(
                        f.ownFrameBytes, std::uint32_t(-d.imm));
            }
        }
    }

    // Clobber masks close over the call graph: a monotone bit-set
    // worklist fixpoint (no recursion; cycles just converge).
    bool changed = true;
    while (changed) {
        changed = false;
        for (auto &[entry, f] : funcs_) {
            std::uint32_t mask = f.clobberMask;
            if (f.callsIndirect)
                mask |= callerSavedMask();
            for (std::size_t callee : f.callees)
                mask |= funcs_[callee].clobberMask;
            if (mask != f.clobberMask) {
                f.clobberMask = mask;
                changed = true;
            }
        }
    }

    // Call-graph SCCs mark recursion: any multi-function cycle or
    // self-call makes every member's cycle/stack summary unbounded.
    std::map<std::size_t, std::size_t> denseOf;
    for (const auto &[entry, f] : funcs_) {
        const std::size_t next = denseOf.size();
        denseOf[entry] = next;
    }
    std::vector<std::vector<std::size_t>> calls;
    for (const auto &[entry, f] : funcs_) {
        calls.emplace_back();
        for (std::size_t callee : f.callees)
            calls.back().push_back(denseOf.at(callee));
    }
    const std::vector<std::size_t> scc = tarjanSccs(calls);
    std::vector<std::size_t> sccSize(scc.size(), 0);
    for (std::size_t id : scc)
        ++sccSize[id];
    for (auto &[entry, f] : funcs_) {
        const auto &cs = f.callees;
        f.recursive = sccSize[scc[denseOf.at(entry)]] > 1 ||
                      std::find(cs.begin(), cs.end(), entry) != cs.end();
    }
}

void
Analysis::computeSummaries()
{
    // Bottom-up over the call graph, iteratively: resolve every
    // function whose direct callees are resolved, until the acyclic
    // part drains. Recursive functions resolve immediately (to
    // "unbounded"), so the loop always terminates.
    const auto &blocks = cfg_.blocks();
    std::set<std::size_t> done;
    for (auto &[entry, f] : funcs_) {
        f.nvmStores = 0;
        for (std::size_t b : f.blocks) {
            const BasicBlock &block = blocks[b];
            for (std::size_t i = 0; i < block.numInstrs; ++i) {
                const std::size_t idx = block.firstInstr + i;
                const Decoded &d = cfg_.instrs()[idx].d;
                if (d.isStore() &&
                    (!addressKnown(instrAddr_[idx]) ||
                     touchesKind(opt_.map, instrAddr_[idx],
                                 soc::MemKind::kNvm)))
                    ++f.nvmStores;
            }
        }
        if (f.recursive) {
            f.cycles = std::nullopt;
            f.stackBytes = std::nullopt;
            done.insert(entry);
        }
    }
    bool progressed = true;
    while (progressed) {
        progressed = false;
        for (auto &[entry, f] : funcs_) {
            if (done.count(entry))
                continue;
            bool ready = true;
            for (std::size_t callee : f.callees)
                if (!done.count(callee)) {
                    ready = false;
                    break;
                }
            if (!ready)
                continue;
            unboundedSccAddrs_.clear();
            const PathBound pb =
                pathCost(entry, /*toMark=*/false,
                         /*stopAtMark=*/false);
            f.cycles = pb.cycles;
            f.energy = pb.energy;
            f.unboundedAddrs = unboundedSccAddrs_;
            std::optional<std::uint32_t> stack = f.ownFrameBytes;
            for (std::size_t callee : f.callees) {
                const FuncInfo &c = funcs_[callee];
                if (!c.stackBytes) {
                    stack = std::nullopt;
                    break;
                }
                stack = std::max(*stack,
                                 f.ownFrameBytes + *c.stackBytes);
            }
            f.stackBytes = f.callsIndirect ? std::nullopt : stack;
            done.insert(entry);
            progressed = true;
        }
    }
    unboundedSccAddrs_.clear();

    // Transitive NVM-write closure (monotone boolean fixpoint).
    bool changed = true;
    while (changed) {
        changed = false;
        for (auto &[entry, f] : funcs_) {
            bool writes =
                f.nvmStores > 0 || f.callsIndirect || f.mayWriteNvm;
            for (std::size_t callee : f.callees)
                writes = writes || funcs_[callee].mayWriteNvm;
            if (writes != f.mayWriteNvm) {
                f.mayWriteNvm = writes;
                changed = true;
            }
        }
    }
}

void
Analysis::fixpoint()
{
    const auto &blocks = cfg_.blocks();
    blockIn_.assign(blocks.size(), {});
    blockOut_.assign(blocks.size(), {});
    instrAddr_.assign(cfg_.instrs().size(), {});
    std::vector<std::size_t> joinCount(blocks.size(), 0);

    std::deque<std::size_t> work;
    std::vector<bool> queued(blocks.size(), false);
    for (std::size_t entry : cfg_.entryBlocks()) {
        if (entry == kNoBlock)
            continue;
        blockIn_[entry].joinFrom(entryState());
        if (!queued[entry]) {
            work.push_back(entry);
            queued[entry] = true;
        }
    }

    const auto enqueue = [&](std::size_t b) {
        if (!queued[b]) {
            work.push_back(b);
            queued[b] = true;
        }
    };

    while (!work.empty()) {
        const std::size_t b = work.front();
        work.pop_front();
        queued[b] = false;
        const BasicBlock &block = blocks[b];
        MachineState s = blockIn_[b];
        if (!s.reachable)
            continue;
        for (std::size_t i = 0; i < block.numInstrs; ++i) {
            const std::size_t idx = block.firstInstr + i;
            const AbsVal addr = transfer(s, cfg_.instrs()[idx]);
            if (addr.kind != AbsVal::kBottom) {
                AbsVal merged = join(instrAddr_[idx], addr);
                instrAddr_[idx] = std::move(merged);
            }
        }
        if (blockOut_[b].joinFrom(s) || block.numInstrs == 0) {
            // Interprocedural: the callee entry sees the caller's
            // state; the fallthrough sees the callee's clobber-summary
            // registers (capped at the caller-saved set) forced to
            // Top. Indirect calls fall back to the full caller-saved
            // set.
            MachineState succState = blockOut_[b];
            if (block.callTarget != kNoBlock || block.callsIndirect) {
                if (block.callTarget != kNoBlock &&
                    blockIn_[block.callTarget].joinFrom(blockOut_[b]))
                    enqueue(block.callTarget);
                std::uint32_t clobbers = callerSavedMask();
                if (!block.callsIndirect) {
                    const auto f = funcs_.find(block.callTarget);
                    if (f != funcs_.end())
                        clobbers &= f->second.clobberMask;
                }
                for (Word r = 1; r < 32; ++r)
                    if (clobbers & (1u << r))
                        succState.regs[r] = AbsVal::top();
            }
            for (std::size_t succ : block.succs) {
                bool changed = blockIn_[succ].joinFrom(succState);
                if (changed && ++joinCount[succ] > kMaxJoins) {
                    // Widening bail-out: force convergence.
                    blockIn_[succ].widenAll();
                    joinCount[succ] = 0;
                }
                if (changed)
                    enqueue(succ);
            }
        }
    }
}

void
Analysis::accessPass(LintReport &report)
{
    // Loads/stores whose address never resolved: the under-approx
    // aliasing cannot see them, so surface each one as a note.
    for (std::size_t idx = 0; idx < cfg_.instrs().size(); ++idx) {
        const Instr &in = cfg_.instrs()[idx];
        if (!in.d.isLoad() && !in.d.isStore())
            continue;
        const AbsVal &addr = instrAddr_[idx];
        if (addr.kind == AbsVal::kBottom || addressKnown(addr))
            continue;
        Finding f;
        f.kind = FindingKind::kUnknownAccess;
        f.severity = Severity::kInfo;
        f.addr = in.addr;
        f.message = std::string(in.d.isStore() ? "store" : "load") +
                    " at " + hex(in.addr) +
                    " has an unresolvable address; excluded from WAR "
                    "analysis";
        report.findings.push_back(std::move(f));
    }
    for (const BasicBlock &block : cfg_.blocks()) {
        if (!block.endsIllegal)
            continue;
        const Instr &last =
            cfg_.instrs()[block.firstInstr + block.numInstrs - 1];
        Finding f;
        f.kind = FindingKind::kIllegalInstruction;
        f.severity = Severity::kWarning;
        f.addr = last.addr;
        f.message = "reachable word at " + hex(last.addr) +
                    " does not decode (" + hex(last.d.raw) + ")";
        report.findings.push_back(std::move(f));
    }
}

void
Analysis::warPass(LintReport &report)
{
    // Region dataflow: the set of NVM loads whose read still matters
    // (no checkpoint boundary since). fs.mark kills the whole set; an
    // aliasing NVM store while a read is live is a replay hazard.
    const auto &blocks = cfg_.blocks();
    const auto &instrs = cfg_.instrs();

    const auto isNvmLoad = [&](std::size_t idx) {
        return instrs[idx].d.isLoad() &&
               addressKnown(instrAddr_[idx]) &&
               touchesKind(opt_.map, instrAddr_[idx],
                           soc::MemKind::kNvm);
    };
    const auto isNvmStore = [&](std::size_t idx) {
        return instrs[idx].d.isStore() &&
               addressKnown(instrAddr_[idx]) &&
               touchesKind(opt_.map, instrAddr_[idx],
                           soc::MemKind::kNvm);
    };

    std::vector<std::set<std::size_t>> in(blocks.size());
    std::vector<std::set<std::size_t>> out(blocks.size());
    std::deque<std::size_t> work;
    std::vector<bool> queued(blocks.size(), true);
    for (std::size_t b = 0; b < blocks.size(); ++b)
        work.push_back(b);

    const auto applyBlock = [&](std::size_t b,
                                std::set<std::size_t> &live,
                                std::set<std::pair<std::size_t,
                                                   std::size_t>>
                                    *hazards) {
        const BasicBlock &block = blocks[b];
        for (std::size_t i = 0; i < block.numInstrs; ++i) {
            const std::size_t idx = block.firstInstr + i;
            const Decoded &d = instrs[idx].d;
            if (d.op == Mnemonic::kFsMark) {
                live.clear();
                continue;
            }
            if (isNvmStore(idx) && hazards) {
                for (std::size_t readIdx : live)
                    if (mayAlias(instrAddr_[readIdx],
                                 instrAddr_[idx]))
                        hazards->insert({readIdx, idx});
            }
            if (isNvmLoad(idx))
                live.insert(idx);
        }
    };

    while (!work.empty()) {
        const std::size_t b = work.front();
        work.pop_front();
        queued[b] = false;
        std::set<std::size_t> live = in[b];
        applyBlock(b, live, nullptr);
        if (live != out[b]) {
            out[b] = live;
            for (std::size_t succ : blocks[b].succs) {
                const std::size_t before = in[succ].size();
                in[succ].insert(out[b].begin(), out[b].end());
                if (in[succ].size() != before && !queued[succ]) {
                    work.push_back(succ);
                    queued[succ] = true;
                }
            }
        }
    }

    std::set<std::pair<std::size_t, std::size_t>> hazards;
    for (std::size_t b = 0; b < blocks.size(); ++b) {
        std::set<std::size_t> live = in[b];
        applyBlock(b, live, &hazards);
    }

    for (const auto &[readIdx, writeIdx] : hazards) {
        const Instr &read = instrs[readIdx];
        const Instr &write = instrs[writeIdx];
        warInstrs_.insert(readIdx);
        warInstrs_.insert(writeIdx);
        Finding f;
        f.kind = FindingKind::kWarHazard;
        f.severity = Severity::kError;
        f.addr = write.addr;
        f.relatedAddr = read.addr;
        f.message = "NVM store at " + hex(write.addr) + " (addr " +
                    describe(instrAddr_[writeIdx]) +
                    ") overwrites a location read at " +
                    hex(read.addr) +
                    " with no checkpoint in between: replay after a "
                    "restore diverges";
        report.findings.push_back(std::move(f));
    }
}

void
Analysis::cyclePass(LintReport &report)
{
    // A cycle that runs entirely with interrupts masked and contains
    // no fs.mark can never be interrupted by the checkpoint irq:
    // under intermittent power it restarts from the last checkpoint
    // forever.
    const auto &blocks = cfg_.blocks();
    std::set<std::size_t> reported;
    for (std::size_t b = 0; b < blocks.size(); ++b) {
        if (!cfg_.inCycle(b))
            continue;
        const std::size_t scc = cfg_.sccOf()[b];
        if (reported.count(scc))
            continue;
        const std::vector<std::size_t> members = cfg_.sccMembers(scc);
        bool allOff = true;
        bool hasMark = false;
        for (std::size_t m : members) {
            if (!blockIn_[m].reachable ||
                irqEnabled(blockIn_[m]) != Tri::kOff)
                allOff = false;
            for (std::size_t i = 0; i < blocks[m].numInstrs; ++i)
                if (cfg_.instrs()[blocks[m].firstInstr + i].d.op ==
                    Mnemonic::kFsMark)
                    hasMark = true;
        }
        if (!allOff || hasMark)
            continue;
        reported.insert(scc);
        std::uint32_t lo = 0xffffffffu, hi = 0;
        for (std::size_t m : members) {
            lo = std::min(lo, blocks[m].begin);
            hi = std::max(hi, blocks[m].end);
        }
        Finding f;
        f.kind = FindingKind::kCheckpointFreeCycle;
        f.severity = Severity::kWarning;
        f.addr = lo;
        f.relatedAddr = hi;
        f.message = "cycle " + hex(lo) + "-" + hex(hi) +
                    " executes with interrupts masked and has no "
                    "checkpoint marker: no checkpoint can interrupt "
                    "it (unbounded re-execution under intermittent "
                    "power)";
        report.findings.push_back(std::move(f));
    }
}

std::uint64_t
Analysis::blockCost(std::size_t b) const
{
    const BasicBlock &block = cfg_.blocks()[b];
    std::uint64_t cost = 0;
    for (std::size_t i = 0; i < block.numInstrs; ++i)
        cost += opt_.costs.worstCase(
            cfg_.instrs()[block.firstInstr + i].d);
    return cost;
}

double
Analysis::instrEnergy(std::size_t idx) const
{
    if (!energyOn_)
        return 0.0;
    const Decoded &d = cfg_.instrs()[idx].d;
    // Worst-case draw: the instruction's cycle count at the active
    // current, charged at V_ckpt (the budget's starting voltage, an
    // upper bound on the declining rail).
    double e = double(opt_.costs.worstCase(d)) / opt_.clockHz *
               opt_.activeCurrentAmps * opt_.checkpointVolts;
    if (d.isStore()) {
        const AbsVal &addr = instrAddr_[idx];
        if (!addressKnown(addr) ||
            touchesKind(opt_.map, addr, soc::MemKind::kNvm))
            e += double(d.accessBytes()) * opt_.nvmWriteJoulesPerByte;
    }
    return e;
}

double
Analysis::blockEnergy(std::size_t b) const
{
    if (!energyOn_)
        return 0.0;
    const BasicBlock &block = cfg_.blocks()[b];
    double e = 0.0;
    for (std::size_t i = 0; i < block.numInstrs; ++i)
        e += instrEnergy(block.firstInstr + i);
    return e;
}

/**
 * Upper-bound the trip count of a non-trivial SCC via induction
 * variables: an exit branch executed every iteration comparing a
 * single-increment register against a loop-invariant bound, both with
 * known constants at loop entry.
 */
std::optional<std::uint64_t>
Analysis::sccBound(std::size_t scc, std::uint32_t *headerAddr)
{
    const auto &blocks = cfg_.blocks();
    const std::vector<std::size_t> &members = cfg_.sccMembers(scc);
    std::set<std::size_t> inScc(members.begin(), members.end());

    // The loop header: the unique member with predecessors outside.
    std::size_t header = kNoBlock;
    for (std::size_t m : members)
        for (std::size_t p : blocks[m].preds)
            if (!inScc.count(p)) {
                if (header != kNoBlock && header != m)
                    return std::nullopt; // irreducible
                header = m;
            }
    if (header == kNoBlock)
        return std::nullopt;
    if (headerAddr != nullptr)
        *headerAddr = blocks[header].begin;
    // The loop-entry state: join of out-states on entering edges.
    MachineState preheader;
    for (std::size_t p : blocks[header].preds)
        if (!inScc.count(p))
            preheader.joinFrom(blockOut_[p]);
    if (!preheader.reachable)
        return std::nullopt;
    // The body cost is charged once per trip, so every cycle must pass
    // through the header (no inner loop), and through the blocks that
    // hold the exit test and the induction step.
    const auto onEveryCycle = [&](std::size_t b) {
        return acyclicWithout(cfg_, members,
                              [b](std::size_t from, std::size_t) {
                                  return from == b;
                              });
    };
    if (!onEveryCycle(header))
        return std::nullopt;

    // Register -> unique in-loop self-increment, if any, run on every
    // trip.
    const auto stepOf = [&](Word r) -> std::optional<std::int32_t> {
        std::optional<std::int32_t> step;
        std::size_t stepBlock = header;
        for (std::size_t m : members) {
            const BasicBlock &block = blocks[m];
            if ((block.callTarget != kNoBlock || block.callsIndirect) &&
                isCallerSaved(r))
                return std::nullopt;
            for (std::size_t i = 0; i < block.numInstrs; ++i) {
                const Decoded &d =
                    cfg_.instrs()[block.firstInstr + i].d;
                if (!d.writesRd() || d.rd != r)
                    continue;
                if (d.op == Mnemonic::kAddi && d.rs1 == r &&
                    d.imm != 0 && !step) {
                    step = d.imm;
                    stepBlock = m;
                    continue;
                }
                return std::nullopt; // a second def: not an IV
            }
        }
        return onEveryCycle(stepBlock) ? step : std::nullopt;
    };
    const auto invariant = [&](Word r) {
        if (r == 0)
            return true;
        for (std::size_t m : members) {
            const BasicBlock &block = blocks[m];
            if ((block.callTarget != kNoBlock || block.callsIndirect) &&
                isCallerSaved(r))
                return false;
            for (std::size_t i = 0; i < block.numInstrs; ++i) {
                const Decoded &d =
                    cfg_.instrs()[block.firstInstr + i].d;
                if (d.writesRd() && d.rd == r)
                    return false;
            }
        }
        return true;
    };

    std::optional<std::uint64_t> best;
    for (std::size_t m : members) {
        const BasicBlock &block = blocks[m];
        const Instr &last =
            cfg_.instrs()[block.firstInstr + block.numInstrs - 1];
        if (last.d.cls != InstrClass::kBranch || !onEveryCycle(m))
            continue;
        std::size_t outside = kNoBlock;
        for (std::size_t s : block.succs)
            if (!inScc.count(s))
                outside = s;
        if (outside == kNoBlock)
            continue;

        // Which operand is the induction variable?
        Word iv = 0, bnd = 0;
        std::optional<std::int32_t> step;
        bool ivIsRs1 = false;
        if ((step = stepOf(last.d.rs1)) && invariant(last.d.rs2)) {
            iv = last.d.rs1;
            bnd = last.d.rs2;
            ivIsRs1 = true;
        } else if ((step = stepOf(last.d.rs2)) &&
                   invariant(last.d.rs1)) {
            iv = last.d.rs2;
            bnd = last.d.rs1;
        } else {
            continue;
        }
        const AbsVal &init = preheader.reg(iv);
        const AbsVal &bound = preheader.reg(bnd);
        if (init.kind != AbsVal::kConsts ||
            bound.kind != AbsVal::kConsts)
            continue;

        // Normalize the branch to a continue-predicate "iv REL bound".
        // Start from the taken-condition over (rs1, rs2), mirror when
        // the iv is rs2, and negate when the taken edge exits.
        const std::uint32_t takenAddr =
            last.addr + std::uint32_t(last.d.imm);
        const bool takenExits = cfg_.blockAt(takenAddr) == outside;
        enum class Rel { kEq, kNe, kLt, kLe, kGt, kGe };
        Rel rel;
        bool isSigned = false;
        switch (last.d.op) {
          case Mnemonic::kBeq: rel = Rel::kEq; break;
          case Mnemonic::kBne: rel = Rel::kNe; break;
          case Mnemonic::kBlt: rel = Rel::kLt; isSigned = true; break;
          case Mnemonic::kBltu: rel = Rel::kLt; break;
          case Mnemonic::kBge: rel = Rel::kGe; isSigned = true; break;
          case Mnemonic::kBgeu: rel = Rel::kGe; break;
          default: continue;
        }
        if (!ivIsRs1) {
            switch (rel) { // mirror operands
              case Rel::kLt: rel = Rel::kGt; break;
              case Rel::kLe: rel = Rel::kGe; break;
              case Rel::kGt: rel = Rel::kLt; break;
              case Rel::kGe: rel = Rel::kLe; break;
              default: break;
            }
        }
        if (takenExits) {
            switch (rel) { // continue = !taken
              case Rel::kEq: rel = Rel::kNe; break;
              case Rel::kNe: rel = Rel::kEq; break;
              case Rel::kLt: rel = Rel::kGe; break;
              case Rel::kLe: rel = Rel::kGt; break;
              case Rel::kGt: rel = Rel::kLe; break;
              case Rel::kGe: rel = Rel::kLt; break;
            }
        }
        const auto minMax = [](const std::vector<std::uint32_t> &vals,
                               bool asSigned) {
            std::int64_t lo = 0, hi = 0;
            bool first = true;
            for (std::uint32_t v : vals) {
                const std::int64_t x =
                    asSigned ? std::int64_t(std::int32_t(v))
                             : std::int64_t(v);
                if (first || x < lo)
                    lo = x;
                if (first || x > hi)
                    hi = x;
                first = false;
            }
            return std::pair<std::int64_t, std::int64_t>(lo, hi);
        };
        const auto [initLo, initHi] = minMax(init.consts, isSigned);
        const auto [boundLo, boundHi] = minMax(bound.consts, isSigned);
        const std::int64_t s = *step;
        const std::int64_t domLo = isSigned ? INT32_MIN : 0;
        const std::int64_t domHi =
            isSigned ? std::int64_t(INT32_MAX) : std::int64_t(UINT32_MAX);
        // The step must walk the iv towards violating the continue
        // predicate; the +2 trip slack below absorbs the <= / >=
        // off-by-one and the final bottom-test execution. It must also
        // never carry the iv out of the compare domain -- not from its
        // entry value, nor from the last value that passes the test --
        // or the iv wraps around and the loop runs on.
        std::int64_t span = 0;
        if (rel == Rel::kNe) {
            // != walks the 32-bit ring: every start must sit a nonzero
            // multiple of the step short of every bound, or the iv
            // steps over it (or, starting on it, wraps all the way).
            const std::uint32_t stride = std::uint32_t(s > 0 ? s : -s);
            bool lands = true;
            for (std::uint32_t i : init.consts)
                for (std::uint32_t b : bound.consts) {
                    const std::uint32_t d = s > 0 ? b - i : i - b;
                    lands = lands && d != 0 && d % stride == 0;
                    span = std::max<std::int64_t>(span, d);
                }
            if (!lands)
                continue;
        } else if (s > 0 && (rel == Rel::kLt || rel == Rel::kLe)) {
            const std::int64_t top =
                std::max(initHi, rel == Rel::kLt ? boundHi - 1 : boundHi);
            if (top + s > domHi)
                continue;
            span = boundHi - initLo;
        } else if (s < 0 && (rel == Rel::kGt || rel == Rel::kGe)) {
            const std::int64_t bottom =
                std::min(initLo, rel == Rel::kGt ? boundLo + 1 : boundLo);
            if (bottom + s < domLo)
                continue;
            span = initHi - boundLo;
        } else {
            continue; // step runs away from the bound
        }
        if (span < 0)
            span = 0;
        const std::uint64_t trips =
            std::uint64_t(span) / std::uint64_t(s > 0 ? s : -s) + 2;
        if (!best || trips < *best)
            best = trips;
    }
    return best;
}

std::optional<std::uint64_t>
Analysis::cachedSccBound(std::size_t scc, bool stopAtMark)
{
    const auto memo = sccBoundMemo_.find(scc);
    std::optional<std::uint64_t> bound;
    std::uint32_t headerAddr = 0;
    if (memo != sccBoundMemo_.end()) {
        bound = memo->second;
    } else {
        bound = sccBound(scc, &headerAddr);
        sccBoundMemo_[scc] = bound;
        if (bound && loopBoundRecorded_.insert(scc).second)
            loopBounds_.push_back({headerAddr, *bound, false});
    }
    if (bound)
        return bound;
    // fs.mark fallback, valid only on checkpoint-delimited path
    // queries: when every cycle of the SCC crosses a mark block, the
    // walk to the first boundary traverses at most one body pass.
    if (stopAtMark && marksCutCycles(scc)) {
        const std::vector<std::size_t> &members = cfg_.sccMembers(scc);
        std::uint32_t lo = 0xffffffffu;
        for (std::size_t m : members)
            lo = std::min(lo, cfg_.blocks()[m].begin);
        if (loopBoundRecorded_.insert(scc).second)
            loopBounds_.push_back({lo, 1, true});
        markFallbackAddrs_.insert(lo);
        return 1;
    }
    return std::nullopt;
}

bool
Analysis::marksCutCycles(std::size_t scc)
{
    const auto memo = marksCutMemo_.find(scc);
    if (memo != marksCutMemo_.end())
        return memo->second;
    // The cut breaks every cycle iff the SCC minus mark-block
    // out-edges is acyclic.
    const auto &blocks = cfg_.blocks();
    const std::vector<std::size_t> &members = cfg_.sccMembers(scc);
    const bool result =
        std::any_of(members.begin(), members.end(),
                    [&](std::size_t m) { return blocks[m].endsInMark; }) &&
        acyclicWithout(cfg_, members,
                       [&](std::size_t from, std::size_t) {
                           return blocks[from].endsInMark;
                       });
    marksCutMemo_[scc] = result;
    return result;
}

/**
 * Worst-case cycles (and energy, when the model is on) from @p entry
 * to a sink (fs.mark blocks when @p toMark, return blocks otherwise)
 * over the SCC condensation. Callee costs come from the bottom-up
 * summaries, never from re-analysis. Cycles nullopt when no sink is
 * reachable or an unbounded loop sits on every path; the energy bound
 * is maximized independently along the same propagation.
 */
Analysis::PathBound
Analysis::pathCost(std::size_t entry, bool toMark, bool stopAtMark)
{
    const auto &blocks = cfg_.blocks();
    const std::size_t nScc = cfg_.sccCount();
    std::vector<bool> reached(nScc, false);
    std::vector<std::uint64_t> dist(nScc, 0);
    std::vector<double> distE(nScc, 0.0);
    const std::size_t entryScc = cfg_.sccOf()[entry];
    reached[entryScc] = true;

    struct Cost {
        std::uint64_t cycles = 0;
        double energy = 0.0;
    };
    // Per-SCC total cost: bounded loops contribute bound * body.
    const auto sccTotal =
        [&](std::size_t scc) -> std::optional<Cost> {
        const std::vector<std::size_t> &members = cfg_.sccMembers(scc);
        Cost body;
        for (std::size_t m : members) {
            std::uint64_t c = blockCost(m);
            double e = blockEnergy(m);
            if (blocks[m].callTarget != kNoBlock) {
                const FuncInfo &callee =
                    funcs_.at(blocks[m].callTarget);
                if (!callee.cycles) {
                    unboundedSccAddrs_.insert(
                        unboundedSccAddrs_.end(),
                        callee.unboundedAddrs.begin(),
                        callee.unboundedAddrs.end());
                    return std::nullopt;
                }
                c += *callee.cycles;
                e += callee.energy;
            }
            body.cycles += c;
            body.energy += e;
        }
        const bool cyclic =
            members.size() > 1 || cfg_.inCycle(members[0]);
        if (!cyclic)
            return body;
        const auto bound = cachedSccBound(scc, stopAtMark);
        if (!bound)
            return std::nullopt;
        return Cost{body.cycles * *bound,
                    body.energy * double(*bound)};
    };

    PathBound best;
    bool haveBest = false;
    // SCC ids are reverse-topological; descending order is a
    // topological sweep.
    for (std::size_t scc = nScc; scc-- > 0;) {
        if (!reached[scc])
            continue;
        const auto total = sccTotal(scc);
        if (!total) {
            // Unbounded loop on this path: report once, stop here.
            const std::vector<std::size_t> &members =
                cfg_.sccMembers(scc);
            unboundedSccAddrs_.push_back(blocks[members[0]].begin);
            continue;
        }
        const std::uint64_t exitCost = dist[scc] + total->cycles;
        const double exitEnergy = distE[scc] + total->energy;
        for (std::size_t m : cfg_.sccMembers(scc)) {
            const bool isSink = toMark ? blocks[m].endsInMark
                                       : blocks[m].isReturn;
            if (isSink) {
                if (!haveBest || exitCost > *best.cycles)
                    best.cycles = exitCost;
                if (!haveBest || exitEnergy > best.energy)
                    best.energy = exitEnergy;
                haveBest = true;
            }
            if (stopAtMark && blocks[m].endsInMark)
                continue; // the commit path ends at the marker
            for (std::size_t s : blocks[m].succs) {
                const std::size_t succScc = cfg_.sccOf()[s];
                if (succScc == scc)
                    continue;
                if (!reached[succScc]) {
                    reached[succScc] = true;
                    dist[succScc] = exitCost;
                    distE[succScc] = exitEnergy;
                } else {
                    dist[succScc] = std::max(dist[succScc], exitCost);
                    distE[succScc] =
                        std::max(distE[succScc], exitEnergy);
                }
            }
        }
    }
    return best;
}

void
Analysis::budgetPass(LintReport &report)
{
    std::uint32_t commitEntry = opt_.commitEntry;
    if (commitEntry == 0 && !opt_.entries.empty())
        commitEntry = opt_.entries.front();
    const std::size_t entry = cfg_.blockAt(commitEntry);
    if (entry == kNoBlock)
        return;

    if (energyOn_) {
        const runtime::EnergyModel model(opt_.capacitanceFarads,
                                         opt_.coreVminVolts);
        report.energyBudgetJoules =
            model.usableEnergy(opt_.checkpointVolts);
    }
    // Trap entry: the hart's interrupt cost in cycles and joules,
    // charged to the commit region only.
    const double trapEnergy =
        energyOn_ ? double(opt_.costs.trap) / opt_.clockHz *
                        opt_.activeCurrentAmps * opt_.checkpointVolts
                  : 0.0;

    unboundedSccAddrs_.clear();
    const PathBound worst =
        pathCost(entry, /*toMark=*/true, /*stopAtMark=*/true);
    std::set<std::uint32_t> unbounded(unboundedSccAddrs_.begin(),
                                      unboundedSccAddrs_.end());
    for (std::uint32_t addr : unbounded) {
        Finding f;
        f.kind = FindingKind::kUnboundedPath;
        f.severity = Severity::kWarning;
        f.addr = addr;
        f.message = "loop at " + hex(addr) +
                    " on the commit path has no inferable bound; "
                    "worst-case cost excludes it";
        report.findings.push_back(std::move(f));
    }
    if (!worst.cycles) {
        Finding f;
        f.kind = FindingKind::kUnboundedPath;
        f.severity = Severity::kWarning;
        f.addr = commitEntry;
        f.message = "no checkpoint marker (fs.mark) reachable from "
                    "the commit entry " +
                    hex(commitEntry) +
                    ": commit cost cannot be bounded";
        report.findings.push_back(std::move(f));
        return;
    }
    // Plus the hart's trap-entry cost for taking the interrupt.
    report.worstCaseCommitCycles = *worst.cycles + opt_.costs.trap;
    report.staticEnergyBound =
        energyOn_ ? worst.energy + trapEnergy : 0.0;

    if (opt_.budgetSeconds > 0.0) {
        report.budgetCycles =
            std::uint64_t(opt_.budgetSeconds * opt_.clockHz);
        if (report.worstCaseCommitCycles > report.budgetCycles) {
            Finding f;
            f.kind = FindingKind::kBudgetExceeded;
            f.severity = Severity::kError;
            f.addr = commitEntry;
            f.message =
                "worst-case commit path is " +
                std::to_string(report.worstCaseCommitCycles) +
                " cycles but the monitor's warning window allows "
                "only " +
                std::to_string(report.budgetCycles) +
                ": a checkpoint may not finish before power dies";
            report.findings.push_back(std::move(f));
        }
    }
    if (energyOn_ &&
        report.staticEnergyBound > report.energyBudgetJoules) {
        Finding f;
        f.kind = FindingKind::kEnergyExceeded;
        f.severity = Severity::kError;
        f.addr = commitEntry;
        f.message =
            "worst-case commit path draws " +
            std::to_string(report.staticEnergyBound) +
            " J but only " +
            std::to_string(report.energyBudgetJoules) +
            " J are stored below V_ckpt: the checkpoint cannot be "
            "energy-certified";
        report.findings.push_back(std::move(f));
    }

    // Checkpoint regions: the commit entry plus every block resuming
    // after a boundary, each certified against both budgets.
    std::vector<std::size_t> regionEntries{entry};
    for (const BasicBlock &block : cfg_.blocks())
        if (block.endsInMark)
            for (std::size_t s : block.succs)
                regionEntries.push_back(s);
    std::sort(regionEntries.begin(), regionEntries.end());
    regionEntries.erase(
        std::unique(regionEntries.begin(), regionEntries.end()),
        regionEntries.end());
    for (std::size_t re : regionEntries) {
        unboundedSccAddrs_.clear();
        const PathBound pb =
            pathCost(re, /*toMark=*/true, /*stopAtMark=*/true);
        CheckpointRegion region;
        region.entryAddr = cfg_.blocks()[re].begin;
        region.bounded = pb.cycles.has_value();
        if (region.bounded) {
            const bool isCommit = re == entry;
            region.worstCaseCycles =
                *pb.cycles + (isCommit ? opt_.costs.trap : 0);
            region.staticEnergyBound =
                energyOn_ ? pb.energy + (isCommit ? trapEnergy : 0.0)
                          : 0.0;
            region.certified =
                (report.budgetCycles == 0 ||
                 region.worstCaseCycles <= report.budgetCycles) &&
                (!energyOn_ || region.staticEnergyBound <=
                                   report.energyBudgetJoules);
        }
        report.regions.push_back(region);
    }
    std::sort(report.regions.begin(), report.regions.end(),
              [](const CheckpointRegion &a, const CheckpointRegion &b) {
                  return a.entryAddr < b.entryAddr;
              });

    for (std::uint32_t addr : markFallbackAddrs_) {
        Finding f;
        f.kind = FindingKind::kMarkBoundedLoop;
        f.severity = Severity::kInfo;
        f.addr = addr;
        f.message = "loop at " + hex(addr) +
                    " is bounded only by its checkpoint markers: "
                    "commit paths cross at most one body pass";
        report.findings.push_back(std::move(f));
    }
}

void
Analysis::pruningPass(LintReport &report)
{
    // Classify every reachable instruction for the fault-space
    // pruning map. Anything that may mutate NVM is vulnerable; NVM
    // reads with no WAR hazard are recovery-equivalent; the volatile
    // rest is shadowed by the checkpoint slots.
    fault::InjectionPointMap &map = report.pruningMap;
    map.image = report.image;
    const auto &blocks = cfg_.blocks();
    std::vector<fault::PointClass> cls(
        cfg_.instrs().size(), fault::PointClass::kCheckpointShadowed);
    for (std::size_t idx = 0; idx < cfg_.instrs().size(); ++idx) {
        const Decoded &d = cfg_.instrs()[idx].d;
        const AbsVal &addr = instrAddr_[idx];
        const bool nvmOrUnknown =
            !addressKnown(addr) ||
            touchesKind(opt_.map, addr, soc::MemKind::kNvm);
        if (d.isStore() && nvmOrUnknown)
            cls[idx] = fault::PointClass::kVulnerable;
        else if (d.isLoad() && nvmOrUnknown)
            cls[idx] = fault::PointClass::kRecoveryEquivalent;
    }
    for (std::size_t idx : warInstrs_)
        cls[idx] = fault::PointClass::kVulnerable;
    for (const BasicBlock &block : blocks) {
        if (block.callTarget == kNoBlock && !block.callsIndirect)
            continue;
        bool calleeWritesNvm = block.callsIndirect;
        if (block.callTarget != kNoBlock)
            calleeWritesNvm = calleeWritesNvm ||
                              funcs_.at(block.callTarget).mayWriteNvm;
        if (calleeWritesNvm)
            cls[block.firstInstr + block.numInstrs - 1] =
                fault::PointClass::kVulnerable;
    }
    map.points.reserve(cls.size());
    for (std::size_t idx = 0; idx < cls.size(); ++idx)
        map.points.push_back(
            {cfg_.instrs()[idx].addr, cls[idx], 0});
    map.sortAndRank();
}

void
Analysis::exportSummaries(LintReport &report)
{
    std::sort(loopBounds_.begin(), loopBounds_.end(),
              [](const LoopBound &a, const LoopBound &b) {
                  return a.headerAddr < b.headerAddr;
              });
    report.loopBounds = loopBounds_;
    for (const auto &[entry, f] : funcs_) {
        CalleeSummary s;
        s.entryAddr = cfg_.blocks()[entry].begin;
        s.recursive = f.recursive;
        s.bounded = f.cycles.has_value();
        s.worstCaseCycles = f.cycles.value_or(0);
        s.worstCaseEnergyJoules = s.bounded ? f.energy : 0.0;
        s.clobberMask = f.clobberMask;
        s.nvmStores = f.nvmStores;
        s.stackBounded = f.stackBytes.has_value();
        s.maxStackBytes = f.stackBytes.value_or(0);
        report.callees.push_back(s);
    }
    std::sort(report.callees.begin(), report.callees.end(),
              [](const CalleeSummary &a, const CalleeSummary &b) {
                  return a.entryAddr < b.entryAddr;
              });
}

void
Analysis::run(LintReport &report)
{
    discoverFunctions();
    fixpoint();
    computeSummaries();
    accessPass(report);
    if (opt_.profile == LintProfile::kApp) {
        warPass(report);
        cyclePass(report);
        pruningPass(report);
    } else {
        budgetPass(report);
    }
    exportSummaries(report);
    // Deterministic order: severity (errors first), then address.
    std::stable_sort(report.findings.begin(), report.findings.end(),
                     [](const Finding &a, const Finding &b) {
                         if (a.severity != b.severity)
                             return int(a.severity) > int(b.severity);
                         return a.addr < b.addr;
                     });
}

} // namespace

// ---------------------------------------------------------------------
// Public interface
// ---------------------------------------------------------------------

std::string
severityName(Severity severity)
{
    switch (severity) {
      case Severity::kInfo: return "note";
      case Severity::kWarning: return "warning";
      case Severity::kError: return "error";
    }
    return "note";
}

std::string
findingKindName(FindingKind kind)
{
    switch (kind) {
      case FindingKind::kWarHazard: return "war-hazard";
      case FindingKind::kCheckpointFreeCycle:
        return "checkpoint-free-cycle";
      case FindingKind::kBudgetExceeded: return "budget-exceeded";
      case FindingKind::kEnergyExceeded: return "energy-exceeded";
      case FindingKind::kUnboundedPath: return "unbounded-path";
      case FindingKind::kMarkBoundedLoop: return "mark-bounded-loop";
      case FindingKind::kUnknownAccess: return "unknown-access";
      case FindingKind::kIllegalInstruction:
        return "illegal-instruction";
    }
    return "unknown";
}

std::size_t
LintReport::count(Severity severity) const
{
    std::size_t n = 0;
    for (const Finding &f : findings)
        if (f.severity == severity)
            ++n;
    return n;
}

std::string
LintReport::text() const
{
    std::ostringstream os;
    os << "fs-lint: " << image << ": " << blocks << " blocks, "
       << instructions << " instructions\n";
    for (const Finding &f : findings) {
        os << "  [" << severityName(f.severity) << "] "
           << findingKindName(f.kind) << " @" << hex(f.addr) << ": "
           << f.message << "\n";
    }
    if (worstCaseCommitCycles > 0) {
        os << "  commit path: " << worstCaseCommitCycles
           << " cycles worst case";
        if (budgetCycles > 0)
            os << " (budget " << budgetCycles << ")";
        os << "\n";
    }
    if (energyBudgetJoules > 0.0) {
        os << "  commit energy: " << staticEnergyBound
           << " J worst case (budget " << energyBudgetJoules
           << " J)\n";
    }
    for (const CheckpointRegion &r : regions) {
        os << "  region @" << hex(r.entryAddr) << ": ";
        if (!r.bounded)
            os << "unbounded";
        else
            os << r.worstCaseCycles << " cycles, "
               << (r.certified ? "certified" : "rejected");
        os << "\n";
    }
    if (!pruningMap.empty()) {
        os << "  fault space: "
           << pruningMap.countOf(fault::PointClass::kVulnerable)
           << " vulnerable, "
           << pruningMap.countOf(
                  fault::PointClass::kRecoveryEquivalent)
           << " recovery-equivalent, "
           << pruningMap.countOf(
                  fault::PointClass::kCheckpointShadowed)
           << " checkpoint-shadowed points\n";
    }
    os << "  summary: " << count(Severity::kError) << " errors, "
       << count(Severity::kWarning) << " warnings, "
       << count(Severity::kInfo) << " notes\n";
    return os.str();
}

std::string
LintReport::json() const
{
    util::json::Writer w;
    w.beginObject();
    w.key("image").value(image);
    w.key("blocks").value(blocks);
    w.key("instructions").value(instructions);
    w.key("errors").value(count(Severity::kError));
    w.key("warnings").value(count(Severity::kWarning));
    w.key("notes").value(count(Severity::kInfo));
    w.key("worst_case_commit_cycles").value(worstCaseCommitCycles);
    w.key("budget_cycles").value(budgetCycles);
    w.key("analysis_seconds").value(analysisSeconds);
    w.key("static_energy_bound").value(staticEnergyBound);
    w.key("energy_budget_joules").value(energyBudgetJoules);
    w.key("findings").beginArray();
    for (const Finding &f : findings) {
        w.beginObject();
        w.key("kind").value(findingKindName(f.kind));
        w.key("severity").value(severityName(f.severity));
        w.key("addr").value(hex(f.addr));
        w.key("related_addr").value(hex(f.relatedAddr));
        w.key("message").value(f.message);
        w.endObject();
    }
    w.endArray();
    w.key("loop_bounds").beginArray();
    for (const LoopBound &b : loopBounds) {
        w.beginObject();
        w.key("header").value(hex(b.headerAddr));
        w.key("trips").value(b.trips);
        w.key("mark_delimited").value(b.markDelimited);
        w.endObject();
    }
    w.endArray();
    w.key("callees").beginArray();
    for (const CalleeSummary &c : callees) {
        w.beginObject();
        w.key("entry").value(hex(c.entryAddr));
        w.key("recursive").value(c.recursive);
        w.key("bounded").value(c.bounded);
        w.key("worst_case_cycles").value(c.worstCaseCycles);
        w.key("worst_case_energy_joules")
            .value(c.worstCaseEnergyJoules);
        w.key("clobber_mask").value(c.clobberMask);
        w.key("nvm_stores").value(c.nvmStores);
        w.key("stack_bounded").value(c.stackBounded);
        w.key("max_stack_bytes").value(c.maxStackBytes);
        w.endObject();
    }
    w.endArray();
    w.key("regions").beginArray();
    for (const CheckpointRegion &r : regions) {
        w.beginObject();
        w.key("entry").value(hex(r.entryAddr));
        w.key("bounded").value(r.bounded);
        w.key("certified").value(r.certified);
        w.key("worst_case_cycles").value(r.worstCaseCycles);
        w.key("static_energy_bound").value(r.staticEnergyBound);
        w.endObject();
    }
    w.endArray();
    w.key("points_vulnerable")
        .value(pruningMap.countOf(fault::PointClass::kVulnerable));
    w.key("points_recovery_equivalent")
        .value(pruningMap.countOf(
            fault::PointClass::kRecoveryEquivalent));
    w.key("points_checkpoint_shadowed")
        .value(pruningMap.countOf(
            fault::PointClass::kCheckpointShadowed));
    w.endObject();
    return w.str();
}

std::string
sarifReport(const std::vector<LintReport> &reports)
{
    const auto sarifLevel = [](Severity s) {
        switch (s) {
          case Severity::kError: return "error";
          case Severity::kWarning: return "warning";
          case Severity::kInfo: return "note";
        }
        return "note";
    };
    util::json::Writer w;
    w.beginObject();
    w.key("version").value("2.1.0");
    w.key("$schema")
        .value("https://json.schemastore.org/sarif-2.1.0.json");
    w.key("runs").beginArray().beginObject();
    w.key("tool").beginObject().key("driver").beginObject();
    w.key("name").value("fs-lint");
    w.key("informationUri")
        .value("https://github.com/failure-sentinels");
    w.key("rules").beginArray();
    for (int k = 0; k <= int(FindingKind::kIllegalInstruction); ++k) {
        w.beginObject();
        w.key("id").value(findingKindName(FindingKind(k)));
        w.endObject();
    }
    w.endArray();
    w.endObject().endObject(); // driver, tool
    w.key("results").beginArray();
    for (const LintReport &report : reports) {
        for (const Finding &f : report.findings) {
            w.beginObject();
            w.key("ruleId").value(findingKindName(f.kind));
            w.key("level").value(sarifLevel(f.severity));
            w.key("message").beginObject();
            w.key("text").value(report.image + ": " + f.message);
            w.endObject();
            w.key("locations").beginArray().beginObject();
            w.key("physicalLocation").beginObject();
            w.key("artifactLocation").beginObject();
            w.key("uri").value(report.image);
            w.endObject();
            // SARIF regions are line-based; instruction addresses
            // map to 1-based "lines" so annotations stay stable.
            w.key("region").beginObject();
            w.key("startLine").value(f.addr / 4 + 1);
            w.endObject();
            w.endObject(); // physicalLocation
            w.endObject().endArray(); // location, locations
            w.endObject();
        }
    }
    w.endArray();
    w.endObject().endArray(); // run, runs
    w.endObject();
    return w.str();
}

FirmwareLinter::FirmwareLinter(LintOptions options)
    : options_(std::move(options))
{
}

LintReport
FirmwareLinter::lint(const std::string &name,
                     const std::vector<Word> &code,
                     std::uint32_t base) const
{
    util::Timer timer;
    LintOptions opts = options_;
    if (opts.entries.empty())
        opts.entries = {base};

    LintReport report;
    report.image = name;
    const Cfg cfg = Cfg::build(code, base, opts.entries);
    report.blocks = cfg.blocks().size();
    report.instructions = cfg.instrs().size();

    Analysis analysis(opts, cfg);
    analysis.run(report);
    report.analysisSeconds = timer.seconds();
    return report;
}

LintReport
lintGuestProgram(const soc::GuestProgram &program,
                 const soc::CheckpointLayout &layout)
{
    LintOptions opts;
    opts.profile = LintProfile::kApp;
    opts.map = soc::MemoryMap::standard(layout.sramSize);
    opts.entries = {layout.appBase};
    return FirmwareLinter(opts).lint(program.name, program.code,
                                     layout.appBase);
}

LintReport
lintCheckpointRuntime(const soc::CheckpointLayout &layout,
                      std::uint32_t thresholdCount,
                      double budgetSeconds, double clockHz)
{
    LintOptions opts;
    opts.profile = LintProfile::kRuntime;
    opts.map = soc::MemoryMap::standard(layout.sramSize);
    opts.entries = {layout.framBase, layout.handlerAddr()};
    opts.commitEntry = layout.handlerAddr();
    opts.budgetSeconds = budgetSeconds;
    opts.clockHz = clockHz;
    const std::vector<Word> image =
        soc::buildCheckpointRuntime(layout, thresholdCount);
    return FirmwareLinter(opts).lint("checkpoint-runtime", image,
                                     layout.framBase);
}

double
commitBudgetSeconds(const core::FsConfig &config,
                    double headroomSeconds)
{
    const double latency = 1.0 / config.sampleRate + config.enableTime;
    return std::max(0.0, headroomSeconds - latency);
}

} // namespace analysis
} // namespace fs
