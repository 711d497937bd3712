/**
 * @file
 * DBT-tier mechanics: translation-cache bookkeeping (insert, lookup,
 * byte-budget eviction, chain link/unlink hygiene), superblock
 * chaining on a live hart, eviction under a tiny cache budget with
 * results still bit-identical to the interpreter, self-modifying-code
 * flushes of translated code, and the FS_NO_DBT /
 * FS_DBT_CACHE_BYTES environment knobs. Tier *equivalence* (interp
 * vs. DBT over random programs, full SoC scenarios, torture
 * campaigns) lives in test_tiers.cc.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "riscv/assembler.h"
#include "riscv/dbt.h"
#include "riscv/hart.h"
#include "riscv/memory.h"

namespace fs {
namespace {

using riscv::DbtBlock;
using riscv::DbtCache;
using riscv::DbtOp;
using riscv::DbtOpcode;

// ---------------------------------------------------------------------
// DbtCache bookkeeping (no hart)
// ---------------------------------------------------------------------

DbtBlock
makeBlock(std::uint32_t base, std::size_t ops)
{
    DbtBlock block;
    block.base = base;
    block.worstTotal = ops;
    for (std::size_t i = 0; i < ops; ++i) {
        DbtOp op;
        op.opcode = DbtOpcode::kAddi;
        block.ops.push_back(op);
    }
    DbtOp tail;
    tail.opcode = DbtOpcode::kFallthrough;
    tail.imm = std::int32_t(base + std::uint32_t(ops) * 4u);
    block.ops.push_back(tail);
    return block;
}

TEST(DbtCache, InsertLookupFlushAndCodeExtent)
{
    DbtCache cache;
    EXPECT_EQ(cache.lookup(0x100), nullptr);
    DbtBlock *a = cache.insert(makeBlock(0x100, 4));
    DbtBlock *b = cache.insert(makeBlock(0x200, 2));
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(cache.blockCount(), 2u);
    EXPECT_GT(cache.cacheBytes(), 0u);

    EXPECT_EQ(cache.lookup(0x100), a);
    EXPECT_EQ(cache.lookup(0x100), a); // direct-slot hit second time
    EXPECT_EQ(cache.stats().hits, 2u);
    EXPECT_EQ(cache.stats().translations, 2u);

    // The conservative code extent spans both blocks; the tail
    // kFallthrough pseudo-op is not guest code, so each block covers
    // ops*4 bytes.
    EXPECT_TRUE(cache.overlapsCode(0x100, 4));
    EXPECT_TRUE(cache.overlapsCode(0x204, 4));
    EXPECT_FALSE(cache.overlapsCode(0x0fc, 4));
    EXPECT_FALSE(cache.overlapsCode(0x20c, 4));

    const std::uint64_t gen = cache.generation();
    cache.flush();
    EXPECT_EQ(cache.blockCount(), 0u);
    EXPECT_EQ(cache.cacheBytes(), 0u);
    EXPECT_GT(cache.generation(), gen);
    EXPECT_EQ(cache.lookup(0x100), nullptr); // slots cleared too
    EXPECT_FALSE(cache.overlapsCode(0x100, 4));
    EXPECT_EQ(cache.stats().flushes, 1u);
}

TEST(DbtCache, FlushOfAnEmptyCacheOnlyBumpsTheGeneration)
{
    DbtCache cache;
    DbtBlock *a = cache.insert(makeBlock(0x100, 4));
    EXPECT_EQ(cache.lookup(0x100), a); // populate a direct slot
    cache.flush();
    ASSERT_EQ(cache.stats().flushes, 1u);

    // A second flush finds nothing to drop: it still bumps the
    // generation (the executor's stale-block guard) but is not counted
    // as an invalidation, and the cache behaves exactly as after one.
    const std::uint64_t gen = cache.generation();
    cache.flush();
    EXPECT_EQ(cache.generation(), gen + 1);
    EXPECT_EQ(cache.stats().flushes, 1u);
    EXPECT_EQ(cache.blockCount(), 0u);
    EXPECT_EQ(cache.cacheBytes(), 0u);
    EXPECT_EQ(cache.lookup(0x100), nullptr);
    EXPECT_FALSE(cache.overlapsCode(0x100, 4));

    // The slot the first block used is reusable by a new translation
    // at the same pc and by one that maps to the same direct slot.
    DbtBlock *b = cache.insert(makeBlock(0x100, 2));
    EXPECT_EQ(cache.lookup(0x100), b);
    const std::uint32_t alias =
        0x100 + std::uint32_t(DbtCache::kDirectSlots) * 4u;
    EXPECT_EQ(cache.lookup(alias), nullptr);
    DbtBlock *c = cache.insert(makeBlock(alias, 2));
    EXPECT_EQ(cache.lookup(alias), c);
    EXPECT_EQ(cache.lookup(0x100), b);
    EXPECT_TRUE(cache.overlapsCode(0x100, 4));
    EXPECT_FALSE(cache.overlapsCode(0x0fc, 4));

    // A fresh cache is empty too: flushing it counts nothing.
    DbtCache fresh;
    fresh.flush();
    EXPECT_EQ(fresh.stats().flushes, 0u);
    EXPECT_EQ(fresh.generation(), 1u);
}

TEST(DbtCache, ReplacingABlockUnlinksItsChains)
{
    DbtCache cache;
    DbtBlock *a = cache.insert(makeBlock(0x100, 4));
    DbtBlock *b = cache.insert(makeBlock(0x200, 4));
    // a's tail chains to b, b's tail chains back to a.
    cache.link(&a->ops.back(), b);
    cache.link(&b->ops.back(), a);
    EXPECT_EQ(cache.stats().chainLinks, 2u);

    // Re-inserting at 0x200 (a fresh translation of the same pc) must
    // null a's chain slot -- it points into the freed block -- and
    // must not leak the old block's byte accounting.
    DbtBlock *b2 = cache.insert(makeBlock(0x200, 4));
    ASSERT_NE(b2, nullptr);
    EXPECT_EQ(cache.blockCount(), 2u);
    EXPECT_EQ(a->ops.back().chain, nullptr);
    EXPECT_GE(cache.stats().unlinks, 1u);
    EXPECT_EQ(cache.lookup(0x200), b2);

    // Replace-and-relink repeatedly: the byte accounting must reach a
    // fixed point (any per-cycle leak -- in either direction -- would
    // show up as monotone drift here).
    cache.link(&a->ops.back(), b2);
    const std::size_t steady = cache.cacheBytes();
    for (int i = 0; i < 10; ++i) {
        DbtBlock *fresh = cache.insert(makeBlock(0x200, 4));
        cache.link(&a->ops.back(), fresh);
        EXPECT_EQ(cache.cacheBytes(), steady) << "cycle " << i;
    }
}

TEST(DbtCache, ByteBudgetEvictsLruAndUnlinksBothDirections)
{
    DbtCache cache;
    DbtBlock *a = cache.insert(makeBlock(0x100, 8));
    const std::size_t one_block = cache.cacheBytes();
    DbtBlock *b = cache.insert(makeBlock(0x200, 8));
    DbtBlock *c = cache.insert(makeBlock(0x300, 8));
    cache.link(&a->ops.back(), b); // a -> b
    cache.link(&b->ops.back(), c); // b -> c

    // Touch a and c so b is the LRU, then shrink the budget to three
    // blocks' worth (plus slack for the chain back-refs) and trigger
    // eviction with a fourth insert.
    cache.lookup(0x100);
    cache.lookup(0x300);
    cache.setBudgetBytes(3 * one_block + 64);
    DbtBlock *d = cache.insert(makeBlock(0x400, 8));
    ASSERT_NE(d, nullptr);

    EXPECT_GE(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.lookup(0x200), nullptr) << "LRU block evicted";
    // The chain INTO the victim is nulled (a would otherwise jump
    // into freed memory)...
    EXPECT_EQ(a->ops.back().chain, nullptr);
    EXPECT_GE(cache.stats().unlinks, 1u);
    // ...and the victim's own outgoing back-ref was dropped from c,
    // so evicting c later must not touch freed memory. The insert
    // below replaces 0x300's entry, which walks c's incoming list.
    DbtBlock *c2 = cache.insert(makeBlock(0x300, 8));
    ASSERT_NE(c2, nullptr);
    EXPECT_EQ(cache.lookup(0x100), a);
}

TEST(DbtCache, SelfLoopUnlinkedOnEviction)
{
    DbtCache cache;
    DbtBlock *a = cache.insert(makeBlock(0x100, 8));
    cache.link(&a->ops.back(), a); // hot single-block loop
    EXPECT_EQ(a->ops.back().chain, a);
    cache.setBudgetBytes(1); // nothing fits...
    // ...but insert never evicts the block it just inserted, so the
    // new block displaces only the self-looped one.
    DbtBlock *b = cache.insert(makeBlock(0x200, 8));
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(cache.blockCount(), 1u);
    EXPECT_EQ(cache.lookup(0x100), nullptr);
    EXPECT_GE(cache.stats().unlinks, 1u);
}

// ---------------------------------------------------------------------
// Environment knobs
// ---------------------------------------------------------------------

TEST(DbtCache, EnvKillSwitchDisablesTier)
{
    riscv::Ram ram(256);
    setenv("FS_NO_DBT", "1", 1);
    EXPECT_FALSE(DbtCache::enabledByEnv());
    riscv::Hart off(ram);
    EXPECT_FALSE(off.dbtEnabled());
    unsetenv("FS_NO_DBT");
    EXPECT_TRUE(DbtCache::enabledByEnv());
    riscv::Hart on(ram);
    EXPECT_TRUE(on.dbtEnabled());
}

TEST(DbtCache, EnvBudget)
{
    setenv("FS_DBT_CACHE_BYTES", "65536", 1);
    DbtCache tuned;
    EXPECT_EQ(tuned.budgetBytes(), 65536u);
    unsetenv("FS_DBT_CACHE_BYTES");
    DbtCache defaults;
    EXPECT_EQ(defaults.budgetBytes(), DbtCache::kDefaultBudgetBytes);
}

// ---------------------------------------------------------------------
// Live-hart chaining and eviction
// ---------------------------------------------------------------------

/**
 * Nested-loop workload: an outer loop over an inner accumulate loop,
 * producing several distinct hot blocks with taken-branch backedges
 * and fall-through edges between them.
 */
std::vector<riscv::Word>
nestedLoopProgram(std::int32_t outer, std::int32_t inner)
{
    using namespace riscv;
    Assembler as(0);
    as.li(kA0, 0);     // acc
    as.li(kT0, 0);     // i
    as.li(kT1, outer); // outer limit
    as.li(kT4, inner); // inner limit
    const auto outer_loop = as.newLabel();
    const auto inner_loop = as.newLabel();
    as.bind(outer_loop);
    as.li(kT2, 0); // j
    as.bind(inner_loop);
    as.emit(mul(kT3, kT2, kT0));
    as.emit(add(kA0, kA0, kT3));
    as.emit(addi(kA0, kA0, 7));
    as.emit(addi(kT2, kT2, 1));
    as.bltTo(kT2, kT4, inner_loop);
    as.emit(addi(kT0, kT0, 1));
    as.bltTo(kT0, kT1, outer_loop);
    as.emit(ebreak());
    return as.finalize();
}

struct HartRun {
    std::uint32_t a0 = 0;
    std::uint64_t cycles = 0;
    std::uint64_t instret = 0;
    riscv::DbtStats stats;
};

HartRun
runNestedLoops(bool dbt, std::size_t budget_bytes, std::uint64_t chunk)
{
    riscv::Ram ram(4096);
    ram.loadWords(0, nestedLoopProgram(40, 25));
    riscv::Hart hart(ram);
    hart.setDbtEnabled(dbt);
    if (budget_bytes != 0)
        hart.dbtCache().setBudgetBytes(budget_bytes);
    hart.reset(0);
    while (!hart.halted() && hart.cycles() < 2'000'000)
        hart.run(chunk);
    EXPECT_TRUE(hart.halted());
    HartRun res;
    res.a0 = hart.reg(riscv::kA0);
    res.cycles = hart.cycles();
    res.instret = hart.instructionsRetired();
    res.stats = hart.dbtCache().stats();
    return res;
}

TEST(DbtHart, HotLoopsChainWithoutDispatchExits)
{
    const HartRun interp = runNestedLoops(false, 0, 1u << 20);
    const HartRun dbt = runNestedLoops(true, 0, 1u << 20);
    EXPECT_EQ(interp.a0, dbt.a0);
    EXPECT_EQ(interp.cycles, dbt.cycles);
    EXPECT_EQ(interp.instret, dbt.instret);

    EXPECT_GE(dbt.stats.translations, 2u) << "inner + outer blocks";
    EXPECT_GE(dbt.stats.chainLinks, 1u);
    // The inner loop runs ~1000 iterations: essentially all of them
    // must be direct block->block transfers, not dispatch-loop trips.
    EXPECT_GT(dbt.stats.chainTransfers, 500u);
    EXPECT_LT(dbt.stats.dispatchExits, dbt.stats.chainTransfers / 4);
}

TEST(DbtHart, TinyCacheBudgetEvictsAndStaysExact)
{
    const HartRun interp = runNestedLoops(false, 0, 1u << 20);
    // A budget of one DbtBlock's worth of bytes forces the inner and
    // outer blocks to keep evicting each other, exercising unlink +
    // retranslate on the hot path.
    const HartRun tiny = runNestedLoops(true, 600, 1u << 20);
    EXPECT_EQ(interp.a0, tiny.a0);
    EXPECT_EQ(interp.cycles, tiny.cycles);
    EXPECT_EQ(interp.instret, tiny.instret);
    EXPECT_GE(tiny.stats.evictions, 1u);
    EXPECT_GT(tiny.stats.translations, 2u) << "retranslation churn";

    // Choppy budgets on top of the tiny cache: entry guards, chain
    // guards, and eviction all interleave; the result must not move.
    const HartRun choppy = runNestedLoops(true, 600, 13);
    EXPECT_EQ(interp.a0, choppy.a0);
    EXPECT_EQ(interp.cycles, choppy.cycles);
    EXPECT_EQ(interp.instret, choppy.instret);
}

} // namespace
} // namespace fs
