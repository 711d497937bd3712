#include "analysis/cfg.h"

#include <algorithm>
#include <set>

#include "util/logging.h"

namespace fs {
namespace analysis {

using riscv::Decoded;
using riscv::InstrClass;
using riscv::Mnemonic;

namespace {

/** True for instructions that always end a basic block. */
bool
endsBlock(const Decoded &d)
{
    switch (d.cls) {
      case InstrClass::kBranch:
      case InstrClass::kJal:
      case InstrClass::kJalr:
      case InstrClass::kIllegal:
        return true;
      case InstrClass::kSystem:
        return d.op == Mnemonic::kMret;
      case InstrClass::kCustom:
        // fs.mark is a checkpoint boundary: end the block so boundary
        // state is always a block-edge property.
        return d.op == Mnemonic::kFsMark;
      default:
        return false;
    }
}

bool
isReturnInstr(const Decoded &d)
{
    return d.op == Mnemonic::kJalr && d.rd == riscv::kZero &&
           d.rs1 == riscv::kRa && d.imm == 0;
}

} // namespace

Cfg
Cfg::build(const std::vector<riscv::Word> &code, std::uint32_t base,
           const std::vector<std::uint32_t> &entries)
{
    Cfg cfg;
    cfg.base_ = base;
    const std::uint32_t limit =
        base + std::uint32_t(code.size()) * 4;
    const auto inImage = [&](std::uint32_t addr) {
        return addr >= base && addr < limit && (addr - base) % 4 == 0;
    };

    // --- pass 1: recursive descent marks reachable instructions ---
    std::vector<bool> visited(code.size(), false);
    std::set<std::uint32_t> leaders;
    std::vector<std::uint32_t> work;
    for (std::uint32_t entry : entries) {
        FS_ASSERT(inImage(entry), "entry point outside the image");
        leaders.insert(entry);
        work.push_back(entry);
    }
    while (!work.empty()) {
        std::uint32_t addr = work.back();
        work.pop_back();
        while (inImage(addr)) {
            const std::size_t idx = (addr - base) / 4;
            if (visited[idx])
                break;
            visited[idx] = true;
            const Decoded d = riscv::decode(code[idx]);
            const std::uint32_t next = addr + 4;
            bool fallthrough = true;
            switch (d.cls) {
              case InstrClass::kBranch: {
                const std::uint32_t target =
                    addr + std::uint32_t(d.imm);
                if (inImage(target)) {
                    leaders.insert(target);
                    work.push_back(target);
                }
                leaders.insert(next);
                break;
              }
              case InstrClass::kJal: {
                const std::uint32_t target =
                    addr + std::uint32_t(d.imm);
                if (inImage(target)) {
                    leaders.insert(target);
                    work.push_back(target);
                }
                if (d.rd == riscv::kZero)
                    fallthrough = false; // plain jump
                else
                    leaders.insert(next); // call resumes here
                break;
              }
              case InstrClass::kJalr:
                if (d.rd == riscv::kZero)
                    fallthrough = false; // return or indirect jump
                else
                    leaders.insert(next); // indirect call resumes
                break;
              case InstrClass::kSystem:
                if (d.op == Mnemonic::kMret)
                    fallthrough = false;
                break;
              case InstrClass::kCustom:
                if (d.op == Mnemonic::kFsMark)
                    leaders.insert(next);
                break;
              case InstrClass::kIllegal:
                fallthrough = false;
                break;
              default:
                break;
            }
            if (!fallthrough)
                break;
            addr = next;
        }
    }

    // --- pass 2: form blocks over the visited instructions ---
    bool open = false;
    for (std::size_t idx = 0; idx < code.size(); ++idx) {
        if (!visited[idx]) {
            open = false;
            continue;
        }
        const std::uint32_t addr = base + std::uint32_t(idx) * 4;
        const Decoded d = riscv::decode(code[idx]);
        if (!open || leaders.count(addr)) {
            BasicBlock block;
            block.begin = addr;
            block.firstInstr = cfg.instrs_.size();
            cfg.blocks_.push_back(block);
            open = true;
        }
        cfg.instrs_.push_back({addr, d});
        BasicBlock &block = cfg.blocks_.back();
        ++block.numInstrs;
        block.end = addr + 4;
        if (endsBlock(d))
            open = false;
    }

    // --- pass 3: edges ---
    for (std::size_t b = 0; b < cfg.blocks_.size(); ++b) {
        BasicBlock &block = cfg.blocks_[b];
        const Instr &last =
            cfg.instrs_[block.firstInstr + block.numInstrs - 1];
        const Decoded &d = last.d;
        const std::uint32_t next = last.addr + 4;
        const auto addSucc = [&](std::uint32_t addr) {
            const std::size_t to = cfg.blockAt(addr);
            if (to == kNoBlock)
                return;
            if (std::find(block.succs.begin(), block.succs.end(), to) ==
                block.succs.end())
                block.succs.push_back(to);
        };
        switch (d.cls) {
          case InstrClass::kBranch:
            addSucc(last.addr + std::uint32_t(d.imm));
            addSucc(next);
            break;
          case InstrClass::kJal:
            if (d.rd == riscv::kZero) {
                addSucc(last.addr + std::uint32_t(d.imm));
            } else {
                block.callTarget =
                    cfg.blockAt(last.addr + std::uint32_t(d.imm));
                if (block.callTarget == kNoBlock)
                    block.callsIndirect = true;
                addSucc(next);
            }
            break;
          case InstrClass::kJalr:
            if (isReturnInstr(d)) {
                block.isReturn = true;
            } else if (d.rd != riscv::kZero) {
                block.callsIndirect = true;
                addSucc(next);
            }
            // jalr x0 to a non-ra register: indirect jump, no static
            // successors.
            break;
          case InstrClass::kSystem:
            if (d.op != Mnemonic::kMret)
                addSucc(next);
            break;
          case InstrClass::kCustom:
            if (d.op == Mnemonic::kFsMark)
                block.endsInMark = true;
            addSucc(next);
            break;
          case InstrClass::kIllegal:
            block.endsIllegal = true;
            break;
          default:
            addSucc(next); // block fell into the next leader
            break;
        }
    }
    for (std::size_t b = 0; b < cfg.blocks_.size(); ++b)
        for (std::size_t s : cfg.blocks_[b].succs)
            cfg.blocks_[s].preds.push_back(b);

    for (std::uint32_t entry : entries)
        cfg.entry_blocks_.push_back(cfg.blockAt(entry));

    cfg.computeSccs();
    return cfg;
}

std::size_t
Cfg::blockAt(std::uint32_t addr) const
{
    // Blocks are created in ascending address order.
    std::size_t lo = 0, hi = blocks_.size();
    while (lo < hi) {
        const std::size_t mid = (lo + hi) / 2;
        if (blocks_[mid].end <= addr)
            lo = mid + 1;
        else
            hi = mid;
    }
    if (lo < blocks_.size() && blocks_[lo].begin <= addr &&
        addr < blocks_[lo].end)
        return lo;
    return kNoBlock;
}

std::vector<std::size_t>
tarjanSccs(const std::vector<std::vector<std::size_t>> &succs)
{
    const std::size_t n = succs.size();
    std::vector<std::size_t> sccOf(n, kNoBlock);
    std::size_t sccCount = 0;
    std::vector<std::size_t> index(n, kNoBlock), low(n, 0);
    std::vector<bool> onStack(n, false);
    std::vector<std::size_t> stack;
    std::size_t counter = 0;

    struct Frame {
        std::size_t v;
        std::size_t child = 0;
    };
    for (std::size_t root = 0; root < n; ++root) {
        if (index[root] != kNoBlock)
            continue;
        std::vector<Frame> frames{{root, 0}};
        index[root] = low[root] = counter++;
        stack.push_back(root);
        onStack[root] = true;
        while (!frames.empty()) {
            Frame &f = frames.back();
            const std::size_t v = f.v;
            if (f.child < succs[v].size()) {
                const std::size_t w = succs[v][f.child++];
                if (index[w] == kNoBlock) {
                    index[w] = low[w] = counter++;
                    stack.push_back(w);
                    onStack[w] = true;
                    frames.push_back({w, 0});
                } else if (onStack[w]) {
                    low[v] = std::min(low[v], index[w]);
                }
                continue;
            }
            if (low[v] == index[v]) {
                while (true) {
                    const std::size_t w = stack.back();
                    stack.pop_back();
                    onStack[w] = false;
                    sccOf[w] = sccCount;
                    if (w == v)
                        break;
                }
                ++sccCount;
            }
            frames.pop_back();
            if (!frames.empty()) {
                const std::size_t parent = frames.back().v;
                low[parent] = std::min(low[parent], low[v]);
            }
        }
    }
    return sccOf;
}

void
Cfg::computeSccs()
{
    std::vector<std::vector<std::size_t>> succs;
    succs.reserve(blocks_.size());
    for (const BasicBlock &block : blocks_)
        succs.push_back(block.succs);
    scc_of_ = tarjanSccs(succs);
    scc_count_ = scc_of_.empty()
                     ? 0
                     : *std::max_element(scc_of_.begin(), scc_of_.end()) + 1;

    // Member lists, ascending per SCC: interprocedural path costing
    // walks SCC members once per reachable SCC, so these must not be
    // O(blocks) scans.
    scc_members_.assign(scc_count_, {});
    for (std::size_t b = 0; b < blocks_.size(); ++b)
        scc_members_[scc_of_[b]].push_back(b);
}

bool
Cfg::inCycle(std::size_t block) const
{
    if (scc_members_[scc_of_[block]].size() > 1)
        return true;
    const auto &succs = blocks_[block].succs;
    return std::find(succs.begin(), succs.end(), block) != succs.end();
}

} // namespace analysis
} // namespace fs
