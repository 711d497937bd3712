/**
 * @file
 * Control-flow graph recovery for assembled RV32IM firmware.
 *
 * The linter works on finished images (vectors of instruction words at
 * a load address), so the CFG is rebuilt by recursive descent from the
 * entry points: decode, follow branch/jump targets, split blocks at
 * every leader. Direct calls (jal with a link register) become
 * fallthrough edges plus a recorded call target so interprocedural
 * passes can handle callee effects explicitly; returns (jalr x0, ra)
 * terminate a block with no successors.
 */

#ifndef FS_ANALYSIS_CFG_H_
#define FS_ANALYSIS_CFG_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "riscv/decoder.h"

namespace fs {
namespace analysis {

/** Sentinel for "no block". */
constexpr std::size_t kNoBlock = std::numeric_limits<std::size_t>::max();

/** One reachable instruction. */
struct Instr {
    std::uint32_t addr = 0;
    riscv::Decoded d;
};

/** One basic block: a maximal straight-line run of instructions. */
struct BasicBlock {
    std::uint32_t begin = 0;       ///< address of the first instruction
    std::uint32_t end = 0;         ///< one past the last instruction
    std::size_t firstInstr = 0;    ///< index into Cfg::instrs
    std::size_t numInstrs = 0;
    std::vector<std::size_t> succs; ///< block indices
    std::vector<std::size_t> preds;
    /** Direct call target block (jal ra, f), or kNoBlock. */
    std::size_t callTarget = kNoBlock;
    bool callsIndirect = false; ///< ends in jalr call to unknown code
    bool isReturn = false;      ///< ends in jalr x0, 0(ra)
    bool endsInMark = false;    ///< last instruction is fs.mark
    bool endsIllegal = false;   ///< decoding stopped on a bad word
};

/**
 * Strongly connected components of the graph whose node v has the
 * successor list @p succs[v] (iterative Tarjan: deep graphs need no
 * native recursion). Returns the SCC id of every node. Ids are in
 * completion order, which is reverse topological: a cross-SCC edge
 * u->v has id[u] > id[v].
 */
std::vector<std::size_t>
tarjanSccs(const std::vector<std::vector<std::size_t>> &succs);

/** Recovered control-flow graph. */
class Cfg
{
  public:
    /**
     * Build a CFG by recursive descent.
     *
     * @param code    instruction words loaded at @p base
     * @param base    load address of code[0]
     * @param entries absolute entry-point addresses (must be inside
     *                the image)
     */
    static Cfg build(const std::vector<riscv::Word> &code,
                     std::uint32_t base,
                     const std::vector<std::uint32_t> &entries);

    const std::vector<Instr> &instrs() const { return instrs_; }
    const std::vector<BasicBlock> &blocks() const { return blocks_; }
    /** Entry blocks, in the order the entry addresses were given. */
    const std::vector<std::size_t> &entryBlocks() const
    {
        return entry_blocks_;
    }

    /** Block whose range covers @p addr, or kNoBlock. */
    std::size_t blockAt(std::uint32_t addr) const;

    /** SCC id per block (Tarjan); ids are in reverse topological
     *  order: an edge u->v across SCCs has sccOf[u] > sccOf[v]. */
    const std::vector<std::size_t> &sccOf() const { return scc_of_; }
    std::size_t sccCount() const { return scc_count_; }
    /** True when the block's SCC has more than one node or a
     *  self-loop: the block sits on a cycle. */
    bool inCycle(std::size_t block) const;
    /** Blocks of one SCC, ascending (cached; O(1) per call). */
    const std::vector<std::size_t> &sccMembers(std::size_t scc) const
    {
        return scc_members_[scc];
    }

  private:
    void computeSccs();

    std::uint32_t base_ = 0;
    std::vector<Instr> instrs_;
    std::vector<BasicBlock> blocks_;
    std::vector<std::size_t> entry_blocks_;
    std::vector<std::size_t> scc_of_;
    std::vector<std::vector<std::size_t>> scc_members_;
    std::size_t scc_count_ = 0;
};

} // namespace analysis
} // namespace fs

#endif // FS_ANALYSIS_CFG_H_
