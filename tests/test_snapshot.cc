/**
 * @file
 * Snapshot-fork fault grading tests: PagedImage copy-on-write
 * semantics and page digests, full-SoC snapshot save/restore
 * bit-identity across the interpreter and DBT tiers, delta restores
 * against full ones, snapshot interaction with power failures, forked
 * torture campaigns against the replay-from-boot reference (with and
 * without convergence memoization, at 1, 4 and 8 threads, in two kill
 * orders) and their full-restore fallbacks, the v2 wire format's
 * exhaustive point-range shards and coverage maps, and shard-merge
 * byte-identity through the engine.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <string>
#include <vector>

#include "analysis/firmware_linter.h"
#include "fault/fault_plan.h"
#include "fault/torture_rig.h"
#include "harvest/intermittent_sim.h"
#include "harvest/system_comparison.h"
#include "serve/engine.h"
#include "serve/wire.h"
#include "soc/guest_programs.h"
#include "soc/snapshot.h"
#include "soc/soc.h"
#include "util/hash.h"
#include "util/parallel.h"
#include "util/random.h"

namespace fs {
namespace {

/** Scoped environment override (nullptr value = unset). */
class EnvGuard
{
  public:
    EnvGuard(const char *name, const char *value) : name_(name)
    {
        if (const char *old = std::getenv(name)) {
            had_ = true;
            old_ = old;
        }
        if (value)
            ::setenv(name, value, 1);
        else
            ::unsetenv(name);
    }
    ~EnvGuard()
    {
        if (had_)
            ::setenv(name_.c_str(), old_.c_str(), 1);
        else
            ::unsetenv(name_.c_str());
    }

  private:
    std::string name_;
    bool had_ = false;
    std::string old_;
};

// ---------------------------------------------------------------------
// PagedImage
// ---------------------------------------------------------------------

/** True when @p image holds exactly the bytes of @p mem. */
bool
holds(const soc::PagedImage &image, const std::vector<std::uint8_t> &mem)
{
    std::vector<std::uint32_t> dirty;
    image.dirtyPages(mem, dirty);
    return dirty.empty();
}

TEST(PagedImage, RoundTripSharingAndDistinctBytes)
{
    std::vector<std::uint8_t> mem(4096);
    for (std::size_t i = 0; i < mem.size(); ++i)
        mem[i] = std::uint8_t(i * 7 + 3);

    soc::PagedImage a;
    a.capture(mem, nullptr);
    EXPECT_EQ(a.size(), mem.size());
    EXPECT_TRUE(holds(a, mem));
    std::vector<std::uint8_t> out(mem.size());
    a.restore(out);
    EXPECT_EQ(out, mem);

    // Dirty one byte: the successor owns exactly that one page and
    // shares the rest with its predecessor.
    mem[300] ^= 0xff;
    soc::PagedImage b;
    b.capture(mem, &a);
    EXPECT_EQ(b.pagesOwnedVs(a), 1u);
    EXPECT_FALSE(holds(a, mem));
    EXPECT_TRUE(holds(b, mem));
    EXPECT_NE(a.hash(), b.hash());

    // Shared pages are counted once in the memory high-water.
    EXPECT_EQ(soc::distinctPageBytes({&a, &b}),
              mem.size() + soc::PagedImage::kPageBytes);

    // An unchanged re-capture shares everything.
    soc::PagedImage c;
    c.capture(mem, &b);
    EXPECT_EQ(c.pagesOwnedVs(b), 0u);
    EXPECT_EQ(c.hash(), b.hash());
}

TEST(PagedImage, PageDigestsAreComputedOnceAndSharedWithThePage)
{
    // A ragged tail page (not a multiple of kPageBytes) included.
    std::vector<std::uint8_t> mem(4 * soc::PagedImage::kPageBytes + 100);
    for (std::size_t i = 0; i < mem.size(); ++i)
        mem[i] = std::uint8_t(i * 13 + 5);

    soc::PagedImage a;
    a.capture(mem, nullptr);
    ASSERT_EQ(a.pages().size(), 5u);
    EXPECT_EQ(a.pages().back()->size(), 100u);
    for (const auto &page : a.pages())
        EXPECT_EQ(page->digest(),
                  util::hashImage64(page->data(), page->size()));

    // Dirty one byte on page 1 and one on the tail page.
    mem[soc::PagedImage::kPageBytes + 17] ^= 0x40;
    mem[mem.size() - 1] ^= 0x01;
    soc::PagedImage b;
    b.capture(mem, &a);
    for (std::size_t p = 0; p < b.pages().size(); ++p) {
        const auto &page = b.pages()[p];
        EXPECT_EQ(page->digest(),
                  util::hashImage64(page->data(), page->size()));
        // A shared page is the same node, so it carries one digest.
        const bool owned = p == 1 || p == 4;
        EXPECT_EQ(page.get() == a.pages()[p].get(), !owned) << p;
    }

    // The compare pass finds exactly the dirty pages, and everything
    // derived from (a, dirty) agrees with a full capture of mem.
    std::vector<std::uint32_t> dirty;
    a.dirtyPages(mem, dirty);
    EXPECT_EQ(dirty, (std::vector<std::uint32_t>{1, 4}));
    EXPECT_EQ(a.hash(mem, dirty), b.hash());
    EXPECT_NE(a.hash(), b.hash());
    EXPECT_TRUE(b.equals(mem, a, dirty));
    EXPECT_FALSE(a.equals(mem, a, dirty));
    b.dirtyPages(mem, dirty);
    EXPECT_TRUE(dirty.empty());

    // The hash depends on content only: an unshared capture of the
    // same bytes hashes the same, and compares equal page by page.
    soc::PagedImage fresh;
    fresh.capture(mem, nullptr);
    EXPECT_EQ(fresh.pagesOwnedVs(b), fresh.pages().size());
    EXPECT_EQ(fresh.hash(), b.hash());
    EXPECT_TRUE(fresh.equals(mem, b, dirty));

    // Only pages shared with the base are skipped: an image that
    // differs from mem on a clean page (as a colliding memo entry
    // captured against another snapshot would) compares unequal.
    std::vector<std::uint8_t> other_bytes = mem;
    other_bytes[2 * soc::PagedImage::kPageBytes + 9] ^= 0x10;
    soc::PagedImage other;
    other.capture(other_bytes, &b);
    EXPECT_FALSE(other.equals(mem, b, dirty));

    // Delta restore: a memory holding a's image plus one scribbled
    // page becomes b's image by copying that page and the pages a
    // and b store differently.
    std::vector<std::uint8_t> live(mem.size());
    a.restore(live);
    live[3 * soc::PagedImage::kPageBytes] ^= 0xff;
    a.dirtyPages(live, dirty);
    EXPECT_EQ(dirty, (std::vector<std::uint32_t>{3}));
    b.restore(live, a, dirty);
    EXPECT_EQ(live, mem);
}

// ---------------------------------------------------------------------
// Full-SoC snapshot save/restore across execution tiers
// ---------------------------------------------------------------------

struct SocBench {
    std::unique_ptr<core::FailureSentinels> monitor;
    std::shared_ptr<harvest::VoltageCell> cell;
    std::unique_ptr<soc::Soc> soc;
};

SocBench
makeBench()
{
    SocBench b;
    b.monitor = harvest::makeFsLowPower();
    b.cell = std::make_shared<harvest::VoltageCell>();
    b.cell->volts = 3.3;
    soc::CheckpointLayout layout;
    layout.sramSize = 1024;
    b.soc = std::make_unique<soc::Soc>(
        *b.monitor, [cell = b.cell](double) { return cell->volts; },
        layout);
    harvest::SystemLoad load;
    const double v_ckpt = load.coreVmin() +
                          load.activeCurrentWith(*b.monitor) * 0.025 /
                              47e-6 +
                          b.monitor->resolution();
    b.soc->loadRuntime(b.monitor->countThresholdFor(v_ckpt));
    return b;
}

/** Everything a run leaves behind, folded into one hash. */
std::uint64_t
fingerprint(soc::Soc &sys)
{
    std::uint64_t h = util::fnv1a64(sys.fram().data().data(),
                                    sys.fram().data().size());
    h = util::fnv1a64(sys.sram().data().data(),
                      sys.sram().data().size(), h);
    const std::uint64_t cyc = sys.totalCycles();
    h = util::fnv1a64(&cyc, sizeof cyc, h);
    const std::uint32_t pc = sys.hart().pc();
    h = util::fnv1a64(&pc, sizeof pc, h);
    return h;
}

struct Tier {
    const char *name;
    const char *noDbt; ///< FS_NO_DBT value (null = unset)
};

constexpr Tier kTiers[] = {
    {"dbt", nullptr},
    {"interp", "1"},
};

TEST(SocSnapshot, RestoreResumesBitIdenticallyOnEveryTier)
{
    const soc::GuestProgram prog = soc::makeCrc32Program(1024, 7);
    for (const Tier &tier : kTiers) {
        SCOPED_TRACE(tier.name);
        EnvGuard dbt("FS_NO_DBT", tier.noDbt);

        SocBench original = makeBench();
        original.soc->loadGuest(prog);
        original.soc->powerOn();
        while (original.soc->totalCycles() < 20'000 &&
               !original.soc->appFinished())
            original.soc->step();
        ASSERT_FALSE(original.soc->appFinished());

        const soc::Snapshot snap = original.soc->saveSnapshot();
        EXPECT_EQ(snap.totalCycles, original.soc->totalCycles());

        original.soc->run(60'000'000);
        ASSERT_TRUE(original.soc->appFinished());
        EXPECT_EQ(original.soc->guestResult(prog), prog.expected);
        const std::uint64_t want = fingerprint(*original.soc);

        // Restore into the same (now finished, thoroughly mutated)
        // SoC: the resumed run must be indistinguishable.
        original.soc->restoreSnapshot(snap);
        EXPECT_EQ(original.soc->totalCycles(), snap.totalCycles);
        EXPECT_FALSE(original.soc->appFinished());
        original.soc->run(60'000'000);
        EXPECT_EQ(fingerprint(*original.soc), want);

        // Restore into a fresh SoC that never saw the guest program:
        // the snapshot carries the full FRAM image.
        SocBench fresh = makeBench();
        fresh.soc->restoreSnapshot(snap);
        fresh.soc->run(60'000'000);
        EXPECT_EQ(fingerprint(*fresh.soc), want);
    }
}

TEST(SocSnapshot, RestoredSocSurvivesPowerFailLikeTheOriginal)
{
    const soc::GuestProgram prog = soc::makeCrc32Program(1024, 7);
    SocBench a = makeBench();
    a.soc->loadGuest(prog);
    a.soc->powerOn();
    while (a.soc->totalCycles() < 15'000 && !a.soc->appFinished())
        a.soc->step();
    const soc::Snapshot snap = a.soc->saveSnapshot();

    // Original: power-fail right here, reboot, recover to the end.
    a.soc->powerFail();
    a.soc->powerOn();
    a.soc->run(60'000'000);
    ASSERT_TRUE(a.soc->appFinished());
    const std::uint64_t want = fingerprint(*a.soc);

    // Forked copy: restore, then the identical power-fail sequence.
    SocBench b = makeBench();
    b.soc->restoreSnapshot(snap);
    b.soc->powerFail();
    b.soc->powerOn();
    b.soc->run(60'000'000);
    EXPECT_EQ(fingerprint(*b.soc), want);
    EXPECT_EQ(b.soc->guestResult(prog), a.soc->guestResult(prog));
}

/** Every byte of state a restore writes, compared field by field. */
void
expectSameSocState(soc::Soc &a, soc::Soc &b)
{
    EXPECT_EQ(a.fram().data(), b.fram().data());
    EXPECT_EQ(a.sram().data(), b.sram().data());
    const soc::Snapshot x = a.saveSnapshot();
    const soc::Snapshot y = b.saveSnapshot();
    EXPECT_EQ(x.hart.regs, y.hart.regs);
    EXPECT_EQ(x.hart.pc, y.hart.pc);
    EXPECT_EQ(x.hart.csrs, y.hart.csrs);
    EXPECT_EQ(x.hart.cycles, y.hart.cycles);
    EXPECT_EQ(x.hart.instret, y.hart.instret);
    EXPECT_EQ(x.hart.wfi, y.hart.wfi);
    EXPECT_EQ(x.hart.halted, y.hart.halted);
    EXPECT_EQ(x.peripheral.time, y.peripheral.time);
    EXPECT_EQ(x.peripheral.nextSample, y.peripheral.nextSample);
    EXPECT_EQ(x.peripheral.count, y.peripheral.count);
    EXPECT_EQ(x.peripheral.threshold, y.peripheral.threshold);
    EXPECT_EQ(x.peripheral.ctrl, y.peripheral.ctrl);
    EXPECT_EQ(x.peripheral.irqPending, y.peripheral.irqPending);
    EXPECT_EQ(x.peripheral.freshCount, y.peripheral.freshCount);
    EXPECT_EQ(x.peripheral.samples, y.peripheral.samples);
    EXPECT_EQ(x.framWrites, y.framWrites);
    EXPECT_EQ(x.framBytesWritten, y.framBytesWritten);
    EXPECT_EQ(x.sramWrites, y.sramWrites);
    EXPECT_EQ(x.totalCycles, y.totalCycles);
    EXPECT_EQ(x.powerCycles, y.powerCycles);
    EXPECT_EQ(x.appFinished, y.appFinished);
    EXPECT_EQ(x.faultKilled, y.faultKilled);
}

TEST(SocSnapshot, DeltaRestoreAfterAForkChainMatchesAFullRestore)
{
    const soc::GuestProgram prog = soc::makeCrc32Program(1024, 7);
    SocBench golden = makeBench();
    golden.soc->loadGuest(prog);
    golden.soc->powerOn();

    // A copy-on-write golden chain, one snapshot every 2500 cycles;
    // the guest's stores change FRAM pages between them.
    std::vector<soc::Snapshot> chain;
    chain.push_back(golden.soc->saveSnapshot());
    while (chain.size() < 12 && !golden.soc->appFinished()) {
        golden.soc->run(2500);
        chain.push_back(golden.soc->saveSnapshot(&chain.back()));
    }
    ASSERT_EQ(chain.size(), 12u);

    // One bench forks over and over, always restoring from what its
    // previous fork left behind; a second bench restores in full.
    SocBench forked = makeBench();
    SocBench full = makeBench();
    forked.soc->restoreSnapshot(chain[0]);
    const soc::Snapshot *held = &chain[0];
    std::vector<std::uint32_t> dirty;
    const std::size_t order[] = {5, 2, 9, 9, 0, 11, 3, 7, 1, 10, 4, 6, 8};
    for (std::size_t step = 0; step < std::size(order); ++step) {
        SCOPED_TRACE(step);
        // Dirty the fork the ways a kill run does: execution (FRAM
        // stores and write counters), a direct data() scribble like a
        // torn store, and a power failure.
        forked.soc->run(700 + 300 * step);
        auto &fram = forked.soc->fram().data();
        fram[(step * 7919 * 16) % fram.size()] ^= std::uint8_t(step + 1);
        forked.soc->powerFail();
        held->fram.dirtyPages(fram, dirty);

        const soc::Snapshot &next = chain[order[step]];
        forked.soc->restoreSnapshot(next, *held, dirty);
        full.soc->restoreSnapshot(next);
        expectSameSocState(*forked.soc, *full.soc);
        held = &next;
    }

    // Both resume to the same end state.
    forked.soc->run(60'000'000);
    full.soc->run(60'000'000);
    ASSERT_TRUE(full.soc->appFinished());
    EXPECT_EQ(fingerprint(*forked.soc), fingerprint(*full.soc));
    expectSameSocState(*forked.soc, *full.soc);
}

// ---------------------------------------------------------------------
// Forked torture campaigns vs. the replay-from-boot reference
// ---------------------------------------------------------------------

void
expectSameOutcome(const fault::TortureOutcome &a,
                  const fault::TortureOutcome &b, std::size_t i)
{
    EXPECT_EQ(a.killed, b.killed) << "kill " << i;
    EXPECT_EQ(a.killTore, b.killTore) << "kill " << i;
    EXPECT_EQ(a.validSlots, b.validSlots) << "kill " << i;
    EXPECT_EQ(a.tornSlots, b.tornSlots) << "kill " << i;
    EXPECT_EQ(a.newestSeq, b.newestSeq) << "kill " << i;
    EXPECT_EQ(a.coldRestart, b.coldRestart) << "kill " << i;
    EXPECT_EQ(a.finished, b.finished) << "kill " << i;
    EXPECT_EQ(a.resultCorrect, b.resultCorrect) << "kill " << i;
    EXPECT_EQ(a.result, b.result) << "kill " << i;
}

class SnapshotFork : public ::testing::Test
{
  protected:
    static fault::TortureRig &rig()
    {
        static fault::TortureRig *rig = [] {
            fault::TortureConfig config;
            config.stableCycles = 60'000;
            config.lowCycles = 30'000;
            return new fault::TortureRig(soc::makeCrc32Program(2048, 11),
                                         config);
        }();
        return *rig;
    }

    static std::vector<fault::PowerKill> kills()
    {
        std::vector<fault::PowerKill> out;
        const std::uint64_t clean = rig().cleanRunCycles();
        const std::uint64_t stride = clean / 36;
        for (std::uint64_t c = stride; c < clean + 2 * stride;
             c += stride)
            out.push_back(fault::PowerKill{
                c, unsigned(out.size() % 4),
                (out.size() % 3 == 0) ? 0xA5A5A5A5u : 0u});
        // Commit-window kills exercise the tear path specifically.
        if (rig().checkpointCount() > 0) {
            const fault::CommitWindow w = rig().commitWindow(0);
            for (std::uint64_t c = w.begin; c < w.end;
                 c += std::max<std::uint64_t>(1, w.length() / 6))
                out.push_back(fault::PowerKill{c, 2, 0x5A5A5A5Au});
        }
        return out;
    }

    static const std::vector<fault::TortureOutcome> &reference()
    {
        static const std::vector<fault::TortureOutcome> *ref = [] {
            auto *out = new std::vector<fault::TortureOutcome>();
            // runKill() is the replay-from-boot reference path,
            // untouched by snapshot forking.
            for (const fault::PowerKill &kill : kills())
                out->push_back(rig().runKill(kill));
            return out;
        }();
        return *ref;
    }
};

TEST_F(SnapshotFork, ForkedVerdictsMatchFromBootAtOneAndEightThreads)
{
    ASSERT_TRUE(rig().snapshotsActive())
        << "FS_NO_SNAPSHOT leaked into the test environment";
    const std::vector<fault::PowerKill> batch = kills();
    const std::vector<fault::TortureOutcome> &ref = reference();

    util::ThreadPool one(1);
    const auto forked1 = rig().runKills(batch, &one);
    ASSERT_EQ(forked1.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i)
        expectSameOutcome(ref[i], forked1[i], i);

    util::ThreadPool eight(8);
    const auto forked8 = rig().runKills(batch, &eight);
    ASSERT_EQ(forked8.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i)
        expectSameOutcome(ref[i], forked8[i], i);

    const fault::ConvergeStats stats = rig().convergeStats();
    EXPECT_GT(stats.goldenSnapshots, 1u);
    EXPECT_GT(stats.memoEntries, 0u);
    EXPECT_GT(stats.memoHits, 0u)
        << "the second campaign should replay recoveries from the memo";
    EXPECT_GT(rig().snapshotMemoryBytes(), 0u);
}

TEST_F(SnapshotFork, ConvergenceOffStillMatchesTheReference)
{
    const std::vector<fault::PowerKill> batch = kills();
    const std::vector<fault::TortureOutcome> &ref = reference();

    rig().setConvergenceEnabled(false);
    util::ThreadPool pool(4);
    const auto forked = rig().runKills(batch, &pool);
    rig().setConvergenceEnabled(true);

    ASSERT_EQ(forked.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i)
        expectSameOutcome(ref[i], forked[i], i);
}

TEST_F(SnapshotFork, NoSnapshotEnvForcesTheLegacyPathWithSameVerdicts)
{
    EnvGuard guard("FS_NO_SNAPSHOT", "1");
    EXPECT_FALSE(rig().snapshotsActive());
    const std::vector<fault::PowerKill> batch = kills();
    const std::vector<fault::TortureOutcome> &ref = reference();

    util::ThreadPool pool(4);
    const auto legacy = rig().runKills(batch, &pool);
    ASSERT_EQ(legacy.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i)
        expectSameOutcome(ref[i], legacy[i], i);
}

TEST_F(SnapshotFork, StrideZeroDisablesForking)
{
    EnvGuard guard("FS_SNAPSHOT_STRIDE", "0");
    EXPECT_FALSE(rig().snapshotsActive());
}

// ---------------------------------------------------------------------
// Page-delta forks: verdicts and full-restore fallbacks
// ---------------------------------------------------------------------

fault::TortureRig
makeDeltaRig()
{
    fault::TortureConfig config;
    config.stableCycles = 60'000;
    config.lowCycles = 30'000;
    return fault::TortureRig(soc::makeCrc32Program(2048, 11), config);
}

/** Uniform kills over the clean run plus a stride through (and just
 *  past) every commit window, all with non-zero tear masks, in cycle
 *  order. */
std::vector<fault::PowerKill>
deltaKills(fault::TortureRig &rig)
{
    Rng rng(0xde17a);
    const auto kill = [&](std::uint64_t cycle) {
        return fault::PowerKill{
            cycle, unsigned(rng.uniformInt(0, 3)),
            std::uint32_t(rng.uniformInt(1, 0xffffffffLL))};
    };
    std::vector<fault::PowerKill> out;
    const std::uint64_t clean = rig.cleanRunCycles();
    for (std::uint64_t i = 0; i < 64; ++i)
        out.push_back(kill(i * clean / 64));
    for (std::size_t w = 0; w < rig.checkpointCount(); ++w) {
        const fault::CommitWindow win = rig.commitWindow(w);
        const std::uint64_t stride =
            std::max<std::uint64_t>(1, win.length() / 12);
        for (std::uint64_t c = win.begin; c < win.end; c += stride)
            out.push_back(kill(c));
        // Just after the commit: the slot turned valid since the last
        // snapshot, so its cached verdict must not be reused.
        out.push_back(kill(win.end));
        out.push_back(kill(win.end + 1));
    }
    std::sort(out.begin(), out.end(),
              [](const fault::PowerKill &a, const fault::PowerKill &b) {
                  return a.cycle < b.cycle;
              });
    return out;
}

TEST(DeltaFork, VerdictsMatchFromBootInTwoKillOrdersAtOneFourAndEightThreads)
{
    fault::TortureRig reference_rig = makeDeltaRig();
    const std::vector<fault::PowerKill> ascending =
        deltaKills(reference_rig);
    ASSERT_GT(reference_rig.checkpointCount(), 1u);
    util::ThreadPool four(4);
    const std::vector<fault::TortureOutcome> ref =
        four.parallelMap(ascending.size(), [&](std::size_t i) {
            return reference_rig.runKill(ascending[i]);
        });

    std::vector<std::size_t> shuffled(ascending.size());
    for (std::size_t i = 0; i < shuffled.size(); ++i)
        shuffled[i] = i;
    Rng(0x5eed).shuffle(shuffled);
    std::vector<std::size_t> in_order(shuffled.size());
    for (std::size_t i = 0; i < in_order.size(); ++i)
        in_order[i] = i;

    for (const auto *order : {&in_order, &shuffled}) {
        std::vector<fault::PowerKill> batch;
        for (const std::size_t i : *order)
            batch.push_back(ascending[i]);
        for (const std::size_t threads : {1u, 4u, 8u}) {
            SCOPED_TRACE(std::string(order == &in_order ? "ascending"
                                                        : "shuffled") +
                         " at " + std::to_string(threads) + " threads");
            // A fresh rig per campaign: cold memo, fresh benches.
            fault::TortureRig rig = makeDeltaRig();
            util::ThreadPool pool(threads);
            const auto got = rig.runKills(batch, &pool);
            ASSERT_EQ(got.size(), batch.size());
            for (std::size_t i = 0; i < got.size(); ++i)
                expectSameOutcome(ref[(*order)[i]], got[i], i);
            const fault::ConvergeStats cs = rig.convergeStats();
            EXPECT_EQ(cs.fullRestores + cs.deltaRestores, batch.size());
            EXPECT_GT(cs.deltaRestores, 0u);
            EXPECT_GT(cs.memoHits, 0u);
        }
    }
}

TEST(DeltaFork, NeverFiredKillsAndMemoMissesFallBackToAFullRestore)
{
    fault::TortureRig rig = makeDeltaRig();
    util::ThreadPool one(1); // one bench, reused by every fork
    const std::uint64_t clean = rig.cleanRunCycles();
    const fault::PowerKill mid{clean / 2, 1, 0x0F0F0F0Fu};
    const fault::PowerKill never{clean + 1000, 2, 0xF0F0F0F0u};

    struct Step {
        const char *what; ///< what the previous fork left behind
        fault::PowerKill kill;
        bool converge;
        bool fullRestore; ///< expected restore for this fork
    };
    const Step steps[] = {
        {"a fresh bench", mid, true, true},         // memo miss
        {"a memo miss", mid, true, true},           // memo hit
        {"a memo hit", mid, true, false},           // memo hit
        {"a memo hit", never, true, false},         // never fires
        {"a kill that never fired", mid, true, true},
        {"a memo hit", mid, false, false},          // recovery ran
        {"a recovery without the memo", mid, true, true},
        {"a memo hit", never, true, false},
        {"a kill that never fired", never, true, true},
    };
    std::size_t full = 0, delta = 0;
    for (const Step &st : steps) {
        SCOPED_TRACE(std::string("fork after ") + st.what);
        rig.setConvergenceEnabled(st.converge);
        const auto got = rig.runKills({st.kill}, &one);
        rig.setConvergenceEnabled(true);
        ASSERT_EQ(got.size(), 1u);
        expectSameOutcome(rig.runKill(st.kill), got[0], 0);
        EXPECT_EQ(got[0].killed, st.kill.cycle == mid.cycle);
        ++(st.fullRestore ? full : delta);
        const fault::ConvergeStats cs = rig.convergeStats();
        EXPECT_EQ(cs.fullRestores, full);
        EXPECT_EQ(cs.deltaRestores, delta);
    }
    const fault::ConvergeStats cs = rig.convergeStats();
    EXPECT_EQ(cs.memoEntries, 1u);
    EXPECT_EQ(cs.memoHits, 4u);
}

// ---------------------------------------------------------------------
// Wire v2: exhaustive point-range shards and coverage maps
// ---------------------------------------------------------------------

TEST(WireV2, TortureJobExhaustiveFieldsRoundTrip)
{
    serve::TortureJob job;
    job.workload.kind = serve::WorkloadSpec::Kind::kCrc32;
    job.workload.a = 1024;
    job.seed = 0xfeedface;
    job.exhaustivePoints = 1'000'000;
    job.pointOffset = 123'456;
    job.pointCount = 10'000;
    job.coverageMap = 1;

    const std::vector<std::uint8_t> bytes =
        serve::encodeRequestPayload(serve::Request{job});
    serve::Request decoded;
    std::string err;
    ASSERT_TRUE(serve::decodeRequestPayload(
        serve::MsgKind::kTorture, bytes.data(), bytes.size(), decoded,
        err))
        << err;
    const auto *t = std::get_if<serve::TortureJob>(&decoded);
    ASSERT_NE(t, nullptr);
    EXPECT_EQ(t->exhaustivePoints, job.exhaustivePoints);
    EXPECT_EQ(t->pointOffset, job.pointOffset);
    EXPECT_EQ(t->pointCount, job.pointCount);
    EXPECT_EQ(t->coverageMap, job.coverageMap);
}

TEST(WireV2, TortureResultCoverageRoundTrip)
{
    serve::TortureResult res;
    res.cleanCycles = 777;
    res.points = 2;
    res.outcomeFlags = {0x1f, 0x00};
    res.results = {0xdeadbeef, 0};
    serve::TortureCoverageWire c;
    c.addr = 0x8000'0010;
    c.cls = 2;
    c.rank = 5;
    c.points = 2;
    c.killed = 1;
    c.correct = 1;
    c.incorrect = 1;
    c.coldRestarts = 1;
    c.killTears = 1;
    res.coverage.push_back(c);

    const std::vector<std::uint8_t> bytes =
        serve::encodeResponsePayload(serve::Response{res});
    serve::Response decoded;
    std::string err;
    ASSERT_TRUE(serve::decodeResponsePayload(
        serve::MsgKind::kTortureReply, bytes.data(), bytes.size(),
        decoded, err))
        << err;
    const auto *t = std::get_if<serve::TortureResult>(&decoded);
    ASSERT_NE(t, nullptr);
    ASSERT_EQ(t->coverage.size(), 1u);
    EXPECT_EQ(t->coverage[0].addr, c.addr);
    EXPECT_EQ(t->coverage[0].cls, c.cls);
    EXPECT_EQ(t->coverage[0].rank, c.rank);
    EXPECT_EQ(t->coverage[0].points, c.points);
    EXPECT_EQ(t->coverage[0].killed, c.killed);
    EXPECT_EQ(t->coverage[0].killTears, c.killTears);
}

TEST(WireV2, MergeRejectsGoldenRunMismatchUntouched)
{
    serve::TortureResult a, b;
    a.cleanCycles = 100;
    a.points = 1;
    a.outcomeFlags = {1};
    a.results = {2};
    b = a;
    b.cleanCycles = 101;
    const serve::TortureResult before = a;
    std::string err;
    EXPECT_FALSE(serve::mergeTortureResult(a, b, err));
    EXPECT_FALSE(err.empty());
    EXPECT_EQ(a.points, before.points);
    EXPECT_EQ(a.outcomeFlags, before.outcomeFlags);
}

TEST(WireV2, MergeRejectsClassRankMismatchUntouched)
{
    serve::TortureResult a, b;
    a.points = 1;
    a.outcomeFlags = {1};
    a.results = {2};
    serve::TortureCoverageWire c;
    c.addr = 0x100;
    c.cls = 2;
    c.rank = 1;
    c.points = 1;
    a.coverage.push_back(c);
    b = a;
    b.coverage[0].cls = 0;
    std::string err;
    EXPECT_FALSE(serve::mergeTortureResult(a, b, err));
    EXPECT_FALSE(err.empty());
    EXPECT_EQ(a.points, 1u);
    EXPECT_EQ(a.coverage[0].cls, 2u);
}

TEST(WireV2, MergeSumsCountersAndKeepsCoverageSorted)
{
    serve::TortureResult a;
    a.points = 2;
    a.killed = 1;
    a.outcomeFlags = {1, 0};
    a.results = {10, 20};
    serve::TortureCoverageWire c1;
    c1.addr = 0x200;
    c1.cls = 2;
    c1.points = 2;
    c1.killed = 1;
    a.coverage.push_back(c1);

    serve::TortureResult b;
    b.points = 1;
    b.killed = 1;
    b.outcomeFlags = {3};
    b.results = {30};
    serve::TortureCoverageWire c2;
    c2.addr = 0x100;
    c2.cls = 0;
    c2.points = 1;
    c2.killed = 1;
    b.coverage.push_back(c2);
    serve::TortureCoverageWire c3 = c1;
    c3.points = 1;
    c3.killed = 1;
    b.coverage.push_back(c3);

    std::string err;
    ASSERT_TRUE(serve::mergeTortureResult(a, b, err)) << err;
    EXPECT_EQ(a.points, 3u);
    EXPECT_EQ(a.killed, 2u);
    EXPECT_EQ(a.outcomeFlags,
              (std::vector<std::uint8_t>{1, 0, 3}));
    EXPECT_EQ(a.results, (std::vector<std::uint32_t>{10, 20, 30}));
    ASSERT_EQ(a.coverage.size(), 2u);
    EXPECT_EQ(a.coverage[0].addr, 0x100u);
    EXPECT_EQ(a.coverage[1].addr, 0x200u);
    EXPECT_EQ(a.coverage[1].points, 3u);
    EXPECT_EQ(a.coverage[1].killed, 2u);
}

// ---------------------------------------------------------------------
// Engine: sharded exhaustive campaigns merge to the unsharded bytes
// ---------------------------------------------------------------------

serve::TortureJob
campaignJob()
{
    serve::TortureJob job;
    job.workload.kind = serve::WorkloadSpec::Kind::kCrc32;
    job.workload.a = 1024;
    job.workload.seed = 7;
    job.seed = 0x5eed;
    job.exhaustivePoints = 160;
    job.coverageMap = 1;
    return job;
}

TEST(EngineExhaustive, ShardedCampaignMergesToTheUnshardedBytes)
{
    serve::Engine engine(serve::Engine::Options{2, 16u << 20, ""});

    const serve::Response full =
        engine.execute(serve::Request{campaignJob()});
    const auto *whole = std::get_if<serve::TortureResult>(&full);
    ASSERT_NE(whole, nullptr);
    ASSERT_EQ(whole->points, 160u);
    ASSERT_FALSE(whole->coverage.empty());

    serve::TortureResult merged;
    for (int s = 0; s < 4; ++s) {
        serve::TortureJob shard = campaignJob();
        shard.pointOffset = std::uint64_t(s) * 40;
        shard.pointCount = 40;
        const serve::Response resp =
            engine.execute(serve::Request{shard});
        const auto *part = std::get_if<serve::TortureResult>(&resp);
        ASSERT_NE(part, nullptr) << "shard " << s;
        if (s == 0) {
            merged = *part;
            continue;
        }
        std::string err;
        ASSERT_TRUE(serve::mergeTortureResult(merged, *part, err))
            << err;
    }
    EXPECT_EQ(serve::encodeResponsePayload(serve::Response{merged}),
              serve::encodeResponsePayload(full));
}

TEST(EngineExhaustive, NoSnapshotEnvProducesTheSameBytes)
{
    const serve::Response forked = [] {
        serve::Engine engine(serve::Engine::Options{2, 16u << 20, ""});
        return engine.execute(serve::Request{campaignJob()});
    }();
    const serve::Response legacy = [] {
        EnvGuard guard("FS_NO_SNAPSHOT", "1");
        serve::Engine engine(serve::Engine::Options{2, 16u << 20, ""});
        return engine.execute(serve::Request{campaignJob()});
    }();
    EXPECT_EQ(serve::encodeResponsePayload(legacy),
              serve::encodeResponsePayload(forked));
}

TEST(EngineExhaustive, RejectsMalformedShardRanges)
{
    serve::Engine engine(serve::Engine::Options{1, 16u << 20, ""});

    serve::TortureJob job = campaignJob();
    job.pointOffset = 160; // at the end: nothing to grade
    const serve::Response r1 = engine.execute(serve::Request{job});
    EXPECT_NE(std::get_if<serve::ErrorResult>(&r1), nullptr);

    job = campaignJob();
    job.pointOffset = 100;
    job.pointCount = 100; // runs past the campaign
    const serve::Response r2 = engine.execute(serve::Request{job});
    EXPECT_NE(std::get_if<serve::ErrorResult>(&r2), nullptr);

    job = campaignJob();
    job.exhaustivePoints = 200'000'000; // over the 1e8 cap
    const serve::Response r3 = engine.execute(serve::Request{job});
    EXPECT_NE(std::get_if<serve::ErrorResult>(&r3), nullptr);

    job = campaignJob();
    job.exhaustivePoints = 1'000'000; // whole-campaign shard > 1e5
    const serve::Response r4 = engine.execute(serve::Request{job});
    EXPECT_NE(std::get_if<serve::ErrorResult>(&r4), nullptr);
}

} // namespace
} // namespace fs
