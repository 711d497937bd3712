/**
 * @file
 * fs-lint analyzer tests: CFG recovery, the value-set/WAR/irq/budget
 * passes on hand-built firmware, certification of every shipping
 * image, and the analyzer-vs-torture agreement suite -- firmware the
 * linter certifies hazard-free must survive the seeded kill campaign
 * bit-identically at any thread count, and the deliberately seeded
 * WAR bug must be flagged statically AND diverge dynamically. The
 * soundness oracle runs the shipping images, the runtime's commit
 * path and generated counted loops on the interpreter and checks
 * every observed loop pass count, callee and region cycle count
 * against its static bound.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/cfg.h"
#include "analysis/firmware_linter.h"
#include "analysis/lint_images.h"
#include "core/fs_config.h"
#include "fault/torture_rig.h"
#include "harvest/system_comparison.h"
#include "riscv/assembler.h"
#include "soc/conversion_firmware.h"
#include "soc/soc.h"
#include "util/parallel.h"
#include "util/random.h"

namespace fs {
namespace analysis {
namespace {

using riscv::Assembler;
using namespace riscv; // register names, encoders

bool
hasFinding(const LintReport &report, FindingKind kind)
{
    for (const Finding &f : report.findings)
        if (f.kind == kind)
            return true;
    return false;
}

// ---------------------------------------------------------------------
// CFG recovery
// ---------------------------------------------------------------------

TEST(Cfg, RecoversBlocksCallsAndReturns)
{
    Assembler as(0x1000);
    const auto sub = as.newLabel();
    const auto over = as.newLabel();
    as.li(kA0, 1);             // entry block
    as.jalTo(kRa, sub);        // call: fallthrough edge + callTarget
    as.jTo(over);              // jump over the callee body
    as.bind(sub);
    as.emit(addi(kA0, kA0, 1));
    as.emit(jalr(kZero, kRa, 0)); // return
    as.bind(over);
    as.emit(jalr(kZero, kRa, 0));

    const Cfg cfg = Cfg::build(as.finalize(), 0x1000, {0x1000});
    ASSERT_GE(cfg.blocks().size(), 4u);

    const std::size_t callBlock = cfg.blockAt(0x1004);
    ASSERT_NE(callBlock, kNoBlock);
    const std::size_t subBlock =
        cfg.blockAt(as.labelAddress(sub));
    EXPECT_EQ(cfg.blocks()[callBlock].callTarget, subBlock);
    EXPECT_TRUE(cfg.blocks()[subBlock].isReturn);
    // The call's static successor is the fallthrough, not the callee.
    ASSERT_EQ(cfg.blocks()[callBlock].succs.size(), 1u);
}

TEST(Cfg, LoopsFormSccsAndMarkEndsBlocks)
{
    Assembler as(0);
    const auto loop = as.newLabel();
    as.li(kT0, 8);
    as.bind(loop);
    as.emit(fsMark());
    as.emit(addi(kT0, kT0, -1));
    as.bneTo(kT0, kZero, loop);
    as.emit(jalr(kZero, kRa, 0));

    const Cfg cfg = Cfg::build(as.finalize(), 0, {0});
    const std::size_t markBlock =
        cfg.blockAt(as.labelAddress(loop));
    ASSERT_NE(markBlock, kNoBlock);
    EXPECT_TRUE(cfg.blocks()[markBlock].endsInMark);
    EXPECT_TRUE(cfg.inCycle(markBlock));
    // The entry block is not on the cycle.
    EXPECT_FALSE(cfg.inCycle(cfg.blockAt(0)));
}

TEST(Cfg, IndirectJumpThroughTableHasNoStaticSuccessor)
{
    // A jump through a table: the target is loaded from memory, so
    // `jalr x0, t0, 0` has no statically known successor. The block
    // must end there (no invented edges) and the linter must stay
    // conservative instead of crashing.
    Assembler as(0x1000);
    as.li(kT0, std::int32_t(soc::kFramBase + 0x200));
    as.emit(lw(kT0, kT0, 0));
    as.emit(jalr(kZero, kT0, 0)); // indirect jump, not a return
    as.emit(addi(kA0, kA0, 1));   // only reachable via the table
    as.emit(jalr(kZero, kRa, 0));

    const std::vector<Word> code = as.finalize();
    const Cfg cfg = Cfg::build(code, 0x1000, {0x1000});
    const std::size_t jump = cfg.blockAt(0x1000);
    ASSERT_NE(jump, kNoBlock);
    EXPECT_FALSE(cfg.blocks()[jump].isReturn);
    EXPECT_TRUE(cfg.blocks()[jump].succs.empty());
    EXPECT_EQ(cfg.blocks()[jump].callTarget, kNoBlock);

    const FirmwareLinter linter;
    const LintReport report = linter.lint("jalr-table", code, 0x1000);
    EXPECT_TRUE(report.clean()) << report.text();
}

TEST(Cfg, CallToImageEndIsHandled)
{
    // A `jal` whose target is one past the last instruction: the
    // callee body is empty, which discovery and the interprocedural
    // summaries must survive without inventing blocks.
    Assembler as(0x1000);
    const auto end = as.newLabel();
    as.jalTo(kRa, end);
    as.emit(jalr(kZero, kRa, 0));
    as.bind(end);

    const std::vector<Word> code = as.finalize();
    const FirmwareLinter linter;
    const LintReport report = linter.lint("call-to-end", code, 0x1000);
    EXPECT_EQ(report.instructions, code.size());
    EXPECT_TRUE(report.clean()) << report.text();
}

TEST(Cfg, DeepChainsNeedNoNativeRecursion)
{
    // Regression for the iterative CFG discovery / Tarjan SCC / bottom-
    // up summary resolution: a 2000-block branch ladder inside the
    // entry function plus a 2000-deep call chain. Either structure
    // would overflow the native stack under a recursive formulation.
    constexpr std::size_t kDepth = 2000;
    Assembler as(0x1000);
    for (std::size_t i = 0; i < kDepth; ++i) {
        const auto next = as.newLabel();
        as.beqTo(kT0, kZero, next); // target == fallthrough: one block
        as.bind(next);              // per rung, chained kDepth deep
    }
    std::vector<Assembler::Label> fns;
    for (std::size_t i = 0; i < kDepth; ++i)
        fns.push_back(as.newLabel());
    as.jalTo(kRa, fns[0]);
    as.emit(jalr(kZero, kRa, 0));
    for (std::size_t i = 0; i < kDepth; ++i) {
        as.bind(fns[i]);
        if (i + 1 < kDepth)
            as.jalTo(kRa, fns[i + 1]);
        as.emit(jalr(kZero, kRa, 0));
    }

    const std::vector<Word> code = as.finalize();
    const Cfg cfg = Cfg::build(code, 0x1000, {0x1000});
    EXPECT_GE(cfg.blocks().size(), 2 * kDepth);

    const FirmwareLinter linter;
    const LintReport report = linter.lint("deep-chain", code, 0x1000);
    EXPECT_TRUE(report.clean()) << report.text();
    // Every function in the chain got a bounded summary, and the
    // summary at the head of the chain accounts for the whole depth.
    ASSERT_EQ(report.callees.size(), kDepth);
    EXPECT_EQ(report.callees.front().entryAddr, as.labelAddress(fns[0]));
    EXPECT_FALSE(report.callees.front().recursive);
    ASSERT_TRUE(report.callees.front().bounded);
    EXPECT_GE(report.callees.front().worstCaseCycles, kDepth);
    // ra is clobbered somewhere down the chain.
    EXPECT_NE(report.callees.front().clobberMask & (1u << 1), 0u);
}

// ---------------------------------------------------------------------
// WAR pass on hand-built firmware
// ---------------------------------------------------------------------

std::vector<Word>
rmwProgram(std::uint32_t addr, bool withMark)
{
    Assembler as(0x1000);
    as.li(kT0, std::int32_t(addr));
    as.emit(lw(kT1, kT0, 0));
    as.emit(addi(kT1, kT1, 1));
    if (withMark)
        as.emit(fsMark());
    as.emit(sw(kT1, kT0, 0));
    as.emit(jalr(kZero, kRa, 0));
    return as.finalize();
}

TEST(Linter, NvmReadModifyWriteIsAnError)
{
    const FirmwareLinter linter;
    const LintReport report =
        linter.lint("rmw", rmwProgram(soc::kFramBase + 0x8000, false),
                    0x1000);
    EXPECT_FALSE(report.clean());
    EXPECT_TRUE(hasFinding(report, FindingKind::kWarHazard));
}

TEST(Linter, CheckpointMarkerKillsTheHazard)
{
    const FirmwareLinter linter;
    const LintReport report =
        linter.lint("rmw-marked",
                    rmwProgram(soc::kFramBase + 0x8000, true), 0x1000);
    EXPECT_TRUE(report.clean());
    EXPECT_FALSE(hasFinding(report, FindingKind::kWarHazard));
}

TEST(Linter, SramReadModifyWriteIsNotAHazard)
{
    // Volatile state is captured by the checkpoint itself; only NVM
    // read-modify-write breaks replay.
    const FirmwareLinter linter;
    const LintReport report = linter.lint(
        "sram-rmw", rmwProgram(soc::kSramBase + 16, false), 0x1000);
    EXPECT_TRUE(report.clean());
    EXPECT_FALSE(hasFinding(report, FindingKind::kWarHazard));
}

TEST(Linter, UnresolvableAddressesAreNotesNotErrors)
{
    // A pointer loaded from memory is Top: the access is surfaced as
    // a note and excluded from WAR analysis rather than assumed to
    // alias everything.
    Assembler as(0x1000);
    as.li(kT0, std::int32_t(soc::kFramBase + 0x8000));
    as.emit(lw(kT1, kT0, 0));  // t1 = unknown pointer
    as.emit(lw(kT2, kT1, 0));
    as.emit(sw(kT2, kT1, 4));
    as.emit(jalr(kZero, kRa, 0));
    const FirmwareLinter linter;
    const LintReport report =
        linter.lint("top-ptr", as.finalize(), 0x1000);
    EXPECT_TRUE(report.clean());
    EXPECT_TRUE(hasFinding(report, FindingKind::kUnknownAccess));
}

// ---------------------------------------------------------------------
// Certification of the shipping images and the seeded demos
// ---------------------------------------------------------------------

TEST(Linter, EveryShippingImageCertifiesClean)
{
    for (const soc::GuestProgram &program : soc::standardWorkloads()) {
        const LintReport report = lintGuestProgram(program);
        EXPECT_TRUE(report.clean()) << program.name << "\n"
                                    << report.text();
        EXPECT_FALSE(
            hasFinding(report, FindingKind::kCheckpointFreeCycle))
            << program.name;
    }
    soc::GuestProgram conv;
    conv.name = "conversion";
    conv.code = soc::buildConversionProgram(soc::kCalibrationTableAddr,
                                            soc::kGuestResultAddr);
    EXPECT_TRUE(lintGuestProgram(conv).clean());
}

TEST(Linter, SeededWarAccumulatorIsFlagged)
{
    const LintReport report =
        lintGuestProgram(soc::makeNvmAccumulateProgram(16));
    EXPECT_FALSE(report.clean());
    EXPECT_TRUE(hasFinding(report, FindingKind::kWarHazard));
    EXPECT_EQ(report.count(Severity::kError), 1u);
}

TEST(Linter, IrqMaskedSpinLoopIsFlagged)
{
    const LintReport report =
        lintGuestProgram(soc::makeIrqOffSpinProgram());
    EXPECT_TRUE(report.clean()); // a warning, not an error
    EXPECT_TRUE(
        hasFinding(report, FindingKind::kCheckpointFreeCycle));
    EXPECT_EQ(report.count(Severity::kWarning), 1u);
}

// ---------------------------------------------------------------------
// Interprocedural summaries and loop bounds
// ---------------------------------------------------------------------

TEST(Linter, CountedLoopBoundIsInferredExactly)
{
    // t0 counts 0 -> 10 by 1 inside a called function: span/|step|
    // iterations plus the two trips of slack that absorb the <= / >=
    // predicate ambiguity.
    Assembler as(0x1000);
    const auto fn = as.newLabel();
    const auto head = as.newLabel();
    as.jalTo(kRa, fn);
    as.emit(jalr(kZero, kRa, 0));
    as.bind(fn);
    as.li(kT0, 0);
    as.li(kT1, 10);
    as.bind(head);
    as.emit(addi(kT0, kT0, 1));
    as.bltTo(kT0, kT1, head);
    as.emit(jalr(kZero, kRa, 0));

    const FirmwareLinter linter;
    const LintReport report =
        linter.lint("counted-loop", as.finalize(), 0x1000);
    EXPECT_TRUE(report.clean()) << report.text();
    ASSERT_EQ(report.loopBounds.size(), 1u);
    EXPECT_EQ(report.loopBounds[0].headerAddr,
              as.labelAddress(head));
    EXPECT_EQ(report.loopBounds[0].trips, 12u); // 10/1 + 2 slack
    EXPECT_FALSE(report.loopBounds[0].markDelimited);
    // The callee summary prices the bounded loop, not infinity.
    ASSERT_EQ(report.callees.size(), 1u);
    ASSERT_TRUE(report.callees[0].bounded);
    EXPECT_GE(report.callees[0].worstCaseCycles, 12u);
}

TEST(Linter, SelfRecursiveFunctionSummaryIsUnbounded)
{
    Assembler as(0x1000);
    const auto f = as.newLabel();
    as.jalTo(kRa, f);
    as.emit(jalr(kZero, kRa, 0));
    as.bind(f);
    as.jalTo(kRa, f); // self call: a call-graph cycle of one
    as.emit(jalr(kZero, kRa, 0));

    const FirmwareLinter linter;
    const LintReport report =
        linter.lint("self-rec", as.finalize(), 0x1000);
    ASSERT_EQ(report.callees.size(), 1u);
    EXPECT_EQ(report.callees[0].entryAddr, as.labelAddress(f));
    EXPECT_TRUE(report.callees[0].recursive);
    EXPECT_FALSE(report.callees[0].bounded);
    EXPECT_FALSE(report.callees[0].stackBounded);
}

// ---------------------------------------------------------------------
// Runtime budget pass
// ---------------------------------------------------------------------

TEST(Linter, RuntimeCommitPathIsBoundedAndFitsItsWindow)
{
    soc::CheckpointLayout layout;
    layout.sramSize = 1024;
    const double budget =
        commitBudgetSeconds(core::FsConfig{}, 0.04);
    const LintReport report =
        lintCheckpointRuntime(layout, 100, budget);
    EXPECT_TRUE(report.clean()) << report.text();
    EXPECT_FALSE(hasFinding(report, FindingKind::kUnboundedPath))
        << report.text();
    // regs + 1 KiB SRAM copy + CRC sweep: thousands of cycles at
    // least, and within the provisioned window.
    EXPECT_GT(report.worstCaseCommitCycles, 5'000u);
    EXPECT_LE(report.worstCaseCommitCycles, report.budgetCycles);
}

TEST(Linter, TooSmallWarningWindowIsAnError)
{
    soc::CheckpointLayout layout;
    layout.sramSize = 1024;
    const LintReport report =
        lintCheckpointRuntime(layout, 100, 0.005);
    EXPECT_FALSE(report.clean());
    EXPECT_TRUE(hasFinding(report, FindingKind::kBudgetExceeded));
}

TEST(Linter, CommitBudgetFollowsTheMonitorConfig)
{
    core::FsConfig config; // sampleRate 1 kHz, enableTime 10 us
    EXPECT_NEAR(commitBudgetSeconds(config, 0.025),
                0.025 - 1e-3 - 10e-6, 1e-12);
    // Headroom smaller than the detection latency clamps to zero.
    EXPECT_EQ(commitBudgetSeconds(config, 1e-4), 0.0);
}

// ---------------------------------------------------------------------
// Report rendering
// ---------------------------------------------------------------------

TEST(Linter, TextAndJsonRenderFindings)
{
    const FirmwareLinter linter;
    const LintReport report =
        linter.lint("rmw", rmwProgram(soc::kFramBase + 0x8000, false),
                    0x1000);
    const std::string text = report.text();
    EXPECT_NE(text.find("[error] war-hazard"), std::string::npos);
    EXPECT_NE(text.find("rmw"), std::string::npos);
    const std::string json = report.json();
    EXPECT_NE(json.find("\"image\":\"rmw\""), std::string::npos);
    EXPECT_NE(json.find("\"errors\":1"), std::string::npos);
    EXPECT_NE(json.find("\"kind\":\"war-hazard\""),
              std::string::npos);
}

// ---------------------------------------------------------------------
// Analyzer vs. dynamics agreement
// ---------------------------------------------------------------------

TEST(Agreement, IrqSpinDemoIsCorrectUnderStablePower)
{
    // The irq-masked loop is a liveness hazard, not a correctness
    // bug: under stable power it must still produce its oracle.
    const soc::GuestProgram prog = soc::makeIrqOffSpinProgram(512);
    auto monitor = harvest::makeFsLowPower();
    soc::CheckpointLayout layout;
    layout.sramSize = 1024;
    soc::Soc soc(*monitor, [](double) { return 3.3; }, layout);
    soc.loadRuntime(monitor->countThresholdFor(1.87));
    soc.loadGuest(prog);
    soc.powerOn();
    soc.run(2'000'000);
    ASSERT_TRUE(soc.appFinished());
    EXPECT_EQ(soc.guestResult(prog), prog.expected);
}

TEST(Agreement, CertifiedFirmwareSurvivesKillsIdenticallyAtAnyThreads)
{
    // A workload the linter certifies hazard-free must come through
    // the seeded kill campaign with the right answer every time, and
    // the campaign itself must be bit-identical at 1 and 8 threads.
    const soc::GuestProgram prog = soc::makeCrc32Program(2048, 11);
    ASSERT_TRUE(lintGuestProgram(prog).clean());

    fault::TortureRig rig(prog);
    const std::uint64_t clean = rig.cleanRunCycles();
    ASSERT_GE(rig.checkpointCount(), 1u);

    std::vector<fault::PowerKill> kills;
    for (std::uint64_t c = clean / 9; c < clean; c += clean / 9)
        kills.push_back(fault::PowerKill{c, unsigned(kills.size() % 4),
                                         0xA5A5A5A5u});

    util::ThreadPool one(1), eight(8);
    const auto serial = rig.runKills(kills, &one);
    const auto parallel = rig.runKills(kills, &eight);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        const fault::TortureOutcome &a = serial[i];
        const fault::TortureOutcome &b = parallel[i];
        // Certified firmware: every recovery converges on the oracle
        // and no slot is ever torn.
        EXPECT_EQ(a.tornSlots, 0) << "kill " << i;
        EXPECT_TRUE(a.finished) << "kill " << i;
        EXPECT_TRUE(a.resultCorrect) << "kill " << i;
        // Bit-identical campaign at any thread count.
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
}

TEST(Agreement, SeededWarBugIsFlaggedStaticallyAndDivergesDynamically)
{
    // 512 words x 40 passes keeps the app alive across several power
    // cycles, so kills can land after a committed checkpoint while
    // the app has made NVM-visible progress -- the exact replay the
    // WAR hazard breaks.
    const soc::GuestProgram prog =
        soc::makeNvmAccumulateProgram(512, 40);
    const LintReport report = lintGuestProgram(prog);
    ASSERT_FALSE(report.clean());
    ASSERT_TRUE(hasFinding(report, FindingKind::kWarHazard));

    fault::TortureRig rig(prog);
    ASSERT_GE(rig.checkpointCount(), 1u);
    const std::uint64_t start = rig.commitWindow(0).end;
    const std::uint64_t clean = rig.cleanRunCycles();
    ASSERT_GT(clean, start);

    bool diverged = false;
    const std::uint64_t stride = (clean - start) / 12;
    for (std::uint64_t c = start + stride; c < clean; c += stride) {
        const fault::TortureOutcome out =
            rig.runKill(fault::PowerKill{c, 0, 0});
        if (!out.killed)
            continue;
        // The checkpoint protocol itself stays intact -- the bug is
        // in the app's idempotency, not in the runtime.
        EXPECT_EQ(out.tornSlots, 0) << "kill at " << c;
        if (out.finished && !out.resultCorrect)
            diverged = true;
    }
    EXPECT_TRUE(diverged)
        << "no kill produced the divergence the linter predicted";
}

TEST(Agreement, PrunedTortureCampaignMatchesTheFullCampaign)
{
    // The fault-space pruning contract: running the kill campaign
    // through the static injection-point map -- replaying one
    // representative per statically-equivalent group -- must produce
    // outcomes bit-identical to replaying every kill, while actually
    // skipping work.
    const soc::GuestProgram prog = soc::makeCrc32Program(2048, 11);
    const LintReport report = lintGuestProgram(prog);
    ASSERT_TRUE(report.clean());
    ASSERT_FALSE(report.pruningMap.empty());
    EXPECT_GT(report.pruningMap.countOf(
                  fault::PointClass::kCheckpointShadowed),
              0u);

    fault::TortureRig rig(prog);
    const std::uint64_t clean = rig.cleanRunCycles();
    std::vector<fault::PowerKill> kills;
    const std::uint64_t stride = clean / 40;
    for (std::uint64_t c = stride; c < clean; c += stride)
        kills.push_back(fault::PowerKill{
            c, unsigned(kills.size() % 4),
            (kills.size() % 3 == 0) ? 0xA5A5A5A5u : 0u});
    ASSERT_GE(kills.size(), 30u);

    util::ThreadPool pool(4);
    const auto full = rig.runKills(kills, &pool);
    fault::PruneStats stats;
    const auto pruned =
        rig.runKillsPruned(kills, report.pruningMap, &pool, &stats);

    ASSERT_EQ(pruned.size(), full.size());
    for (std::size_t i = 0; i < full.size(); ++i) {
        const fault::TortureOutcome &a = full[i];
        const fault::TortureOutcome &b = pruned[i];
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
    EXPECT_EQ(stats.totalKills, kills.size());
    EXPECT_EQ(stats.executedKills + stats.skippedKills, kills.size());
    EXPECT_GT(stats.skippedKills, 0u)
        << "pruning skipped nothing; the map bought no work";
}

// ---------------------------------------------------------------------
// Soundness oracle: every static bound against interpreted execution
// ---------------------------------------------------------------------

/** Largest value seen at one bound site, and the instruction that
 *  drove it: the root cause a violation names. */
struct Worst {
    std::uint64_t value = 0;
    std::uint32_t rootAddr = 0;
};

/** One image as fs-lint saw it: the words, the CFG and the report. */
struct Linted {
    std::vector<Word> code;
    Cfg cfg;
    LintReport report;
};

Linted
lintWith(const LintOptions &options, const std::string &name,
         std::vector<Word> code, std::uint32_t base)
{
    Linted out;
    out.cfg = Cfg::build(code, base,
                         options.entries.empty()
                             ? std::vector<std::uint32_t>{base}
                             : options.entries);
    out.report = FirmwareLinter(options).lint(name, code, base);
    out.code = std::move(code);
    return out;
}

/**
 * A registered app image with a two-word harness appended
 * (`jal ra, <image base>; ebreak`) as its only entry. fs-lint prices
 * code only on the paths it queries, and an app is queried once
 * something calls it: through the harness the report carries the
 * app's entry-to-return cycles and the trip bound of every loop on
 * the way.
 */
Linted
lintAsCallee(const LintImage &image)
{
    std::vector<Word> code = image.code;
    const std::uint32_t harness =
        image.base + 4 * std::uint32_t(code.size());
    code.push_back(jal(kRa, -std::int32_t(4 * image.code.size())));
    code.push_back(ebreak());
    LintOptions options = image.options;
    options.entries = {harness};
    return lintWith(options, image.name, std::move(code), image.base);
}

/**
 * Watches an interpreted run against one Linted image.
 *
 * - Loops: for every entry into a bounded loop's SCC, the passes
 *   through each member block. The bound multiplies the whole body,
 *   so every member, not just the header, must stay within it.
 * - Callees: the cycles from each call to its matching return.
 * - Checkpoint regions: the cycles from the region entry (the trap
 *   entry, for the commit path) through the fs.mark that ends it.
 *
 * A call/return shadow stack gives loops and callee windows their
 * frame; a power failure drops every open window.
 */
class BoundTracer
{
  public:
    explicit BoundTracer(const Linted &image) : image_(image)
    {
        for (const LoopBound &b : image.report.loopBounds)
            if (!b.markDelimited) // bounds commit paths, not entries
                loops_[b.headerAddr].scc =
                    image.cfg.sccOf()[image.cfg.blockAt(b.headerAddr)];
        for (const CheckpointRegion &r : image.report.regions)
            regionEntries_.insert(r.entryAddr);
    }

    /** One retired instruction at @p pc that charged @p cycles and
     *  left the hart at @p next. */
    void instruction(std::uint32_t pc, const riscv::Decoded &d,
                     std::uint64_t cycles, std::uint32_t next)
    {
        if (regionEntries_.count(pc) && !region_)
            region_ = open(pc);
        advance(pc, cycles);
        countLoops(pc);
        if (d.op == Mnemonic::kFsMark && region_) {
            close(*region_, regions_);
            region_.reset();
        }
        if (d.isCall()) {
            frames_.push_back(open(next));
        } else if (d.isReturn() && !frames_.empty()) {
            close(frames_.back(), callees_);
            frames_.pop_back();
        }
    }

    /** An interrupt taken into @p handler, charging @p cycles. */
    void trapEntry(std::uint32_t handler, std::uint64_t cycles)
    {
        if (regionEntries_.count(handler) && !region_)
            region_ = open(handler);
        advance(handler, cycles);
    }

    /** A wfi idle cycle. */
    void idle(std::uint64_t cycles) { cycles_ += cycles; }

    /** Volatile state is gone: no open window survives. */
    void powerFail()
    {
        frames_.clear();
        region_.reset();
        for (auto &[header, loop] : loops_)
            loop.active = false;
    }

    const std::map<std::uint32_t, Worst> &loopPasses() const
    {
        return loopPasses_;
    }
    const std::map<std::uint32_t, Worst> &calleeCycles() const
    {
        return callees_;
    }
    const std::map<std::uint32_t, Worst> &regionCycles() const
    {
        return regions_;
    }

    /** Every observation above its static bound, one line each,
     *  naming the responsible instruction. */
    std::vector<std::string> violations() const
    {
        std::vector<std::string> out;
        const std::string &name = image_.report.image;
        for (const LoopBound &b : image_.report.loopBounds) {
            const auto it = loopPasses_.find(b.headerAddr);
            if (b.markDelimited || it == loopPasses_.end() ||
                it->second.value <= b.trips)
                continue;
            out.push_back(name + ": loop @" + hexAddr(b.headerAddr) +
                          " ran block " + at(it->second.rootAddr) +
                          " " + std::to_string(it->second.value) +
                          " times in one entry, static bound " +
                          std::to_string(b.trips) + " trips");
        }
        for (const CalleeSummary &c : image_.report.callees)
            check(out, "callee", c.entryAddr, c.bounded,
                  c.worstCaseCycles, callees_);
        for (const CheckpointRegion &r : image_.report.regions)
            check(out, "region", r.entryAddr, r.bounded,
                  r.worstCaseCycles, regions_);
        return out;
    }

  private:
    struct Window {
        std::uint32_t entry = 0;
        std::uint64_t start = 0;
        std::map<std::uint32_t, std::uint64_t> spentBefore;
    };
    struct Loop {
        std::size_t scc = 0;
        bool active = false;
        std::size_t depth = 0;
        std::map<std::size_t, std::uint64_t> passes; ///< this entry
    };

    static std::string hexAddr(std::uint32_t addr)
    {
        std::ostringstream os;
        os << "0x" << std::hex << addr;
        return os.str();
    }

    /** "@0x.. (disassembly)" for an address of this image. */
    std::string at(std::uint32_t addr) const
    {
        std::string s = "@" + hexAddr(addr);
        const std::size_t b = image_.cfg.blockAt(addr);
        if (b == kNoBlock)
            return s;
        const BasicBlock &block = image_.cfg.blocks()[b];
        const Instr &in = image_.cfg.instrs()[block.firstInstr +
                                              (addr - block.begin) / 4];
        return s + " (" + riscv::disassemble(in.d) + ")";
    }

    void check(std::vector<std::string> &out, const char *what,
               std::uint32_t entry, bool bounded, std::uint64_t bound,
               const std::map<std::uint32_t, Worst> &seen) const
    {
        const auto it = seen.find(entry);
        if (!bounded || it == seen.end() || it->second.value <= bound)
            return;
        out.push_back(image_.report.image + ": " + what + " @" +
                      hexAddr(entry) + " ran " +
                      std::to_string(it->second.value) +
                      " cycles, static bound " + std::to_string(bound) +
                      "; most cycles went to " + at(it->second.rootAddr));
    }

    void advance(std::uint32_t pc, std::uint64_t cycles)
    {
        cycles_ += cycles;
        spent_[pc] += cycles;
    }

    Window open(std::uint32_t entry) const
    {
        return {entry, cycles_, spent_};
    }

    void close(const Window &w, std::map<std::uint32_t, Worst> &worst)
    {
        const std::uint64_t value = cycles_ - w.start;
        Worst &slot = worst[w.entry];
        if (value <= slot.value && slot.value != 0)
            return;
        std::uint64_t hottest = 0;
        std::uint32_t root = w.entry;
        for (const auto &[pc, total] : spent_) {
            const auto before = w.spentBefore.find(pc);
            const std::uint64_t inside =
                total -
                (before == w.spentBefore.end() ? 0 : before->second);
            if (inside > hottest) {
                hottest = inside;
                root = pc;
            }
        }
        slot = {value, root};
    }

    void countLoops(std::uint32_t pc)
    {
        const Cfg &cfg = image_.cfg;
        const std::size_t b = cfg.blockAt(pc);
        const bool blockStart =
            b != kNoBlock && cfg.blocks()[b].begin == pc;
        const std::size_t depth = frames_.size();
        for (auto &[header, loop] : loops_) {
            const bool member = b != kNoBlock && cfg.sccOf()[b] == loop.scc;
            if (loop.active &&
                (depth < loop.depth || (depth == loop.depth && !member)))
                loop.active = false; // left the loop in its own frame
            if (!member || !blockStart ||
                (loop.active && depth != loop.depth))
                continue;
            if (!loop.active) {
                loop.active = true;
                loop.depth = depth;
                loop.passes.clear();
            }
            const std::uint64_t n = ++loop.passes[b];
            Worst &w = loopPasses_[header];
            if (n > w.value)
                w = {n, pc};
        }
    }

    const Linted &image_;
    std::set<std::uint32_t> regionEntries_;
    std::map<std::uint32_t, Loop> loops_; ///< by header address
    std::uint64_t cycles_ = 0;
    std::map<std::uint32_t, std::uint64_t> spent_; ///< cycles per pc
    std::vector<Window> frames_;
    std::optional<Window> region_;
    std::map<std::uint32_t, Worst> loopPasses_;
    std::map<std::uint32_t, Worst> callees_;
    std::map<std::uint32_t, Worst> regions_;
};

/**
 * Step @p hart through @p step (one interpreted instruction, trap
 * entry or wfi idle cycle per call, returning the cycles charged)
 * until @p done, feeding every step to every tracer. @p fetch reads
 * the instruction word at a pc without side effects.
 */
template <typename Step, typename Fetch, typename Done>
void
traceRun(riscv::Hart &hart, const std::vector<BoundTracer *> &tracers,
         Step step, Fetch fetch, Done done,
         std::uint64_t maxSteps = 20'000'000)
{
    for (std::uint64_t n = 0; n < maxSteps && !done(); ++n) {
        const std::uint32_t pc = hart.pc();
        const std::uint64_t retired = hart.instructionsRetired();
        const riscv::Decoded d = riscv::decode(fetch(pc));
        const std::uint64_t cycles = step();
        for (BoundTracer *t : tracers) {
            if (hart.instructionsRetired() != retired)
                t->instruction(pc, d, cycles, hart.pc());
            else if (hart.pc() != pc)
                t->trapEntry(hart.pc(), cycles);
            else
                t->idle(cycles);
        }
    }
}

/** Interpreted SoC in the lint configuration (1 KiB SRAM, 1 MHz). */
struct OracleSoc {
    std::unique_ptr<core::FailureSentinels> monitor =
        harvest::makeFsLowPower();
    double supply = 3.3;
    soc::CheckpointLayout layout = [] {
        soc::CheckpointLayout l;
        l.sramSize = kLintSramSize;
        return l;
    }();
    std::uint32_t threshold = monitor->countThresholdFor(1.87);
    soc::Soc soc{*monitor, [this](double) { return supply; }, layout};

    OracleSoc()
    {
        soc.hart().setDbtEnabled(false);
        soc.loadRuntime(threshold);
    }

    /** Trace until @p done (or @p maxCycles more cycles). */
    template <typename Done>
    void run(const std::vector<BoundTracer *> &tracers, Done done,
             std::uint64_t maxCycles = 50'000'000)
    {
        const std::uint64_t limit = soc.totalCycles() + maxCycles;
        traceRun(
            soc.hart(), tracers,
            [this] {
                const std::uint64_t before = soc.totalCycles();
                soc.step();
                return soc.totalCycles() - before;
            },
            [this](std::uint32_t pc) {
                return soc.fram().read(pc - layout.framBase, 4);
            },
            [&] { return done() || soc.totalCycles() >= limit; });
    }
};

/** The registered runtime, rebuilt with the oracle SoC's threshold:
 *  identical report, so the oracle checks the shipping bounds. */
Linted
lintOracleRuntime(const OracleSoc &rig)
{
    const std::vector<LintImage> images = lintImages();
    const LintImage *registered =
        findLintImage(images, "checkpoint-runtime");
    Linted out = lintWith(
        registered->options, registered->name,
        soc::buildCheckpointRuntime(rig.layout, rig.threshold),
        rig.layout.framBase);
    EXPECT_EQ(out.report.text(), lintImage(*registered).text());
    return out;
}

void
expectSound(const BoundTracer &tracer)
{
    for (const std::string &v : tracer.violations())
        ADD_FAILURE() << v;
}

/** One "static vs observed" line per bound site that ran. */
void
printBounds(const Linted &image, const BoundTracer &tracer)
{
    const auto line = [&](const char *what, std::uint32_t addr,
                          std::uint64_t bound,
                          const std::map<std::uint32_t, Worst> &seen) {
        const auto it = seen.find(addr);
        if (it == seen.end())
            return;
        std::printf("[oracle] %-18s %-6s @0x%-5x static %8llu  "
                    "observed %8llu\n",
                    image.report.image.c_str(), what, addr,
                    static_cast<unsigned long long>(bound),
                    static_cast<unsigned long long>(it->second.value));
    };
    for (const LoopBound &b : image.report.loopBounds)
        if (!b.markDelimited)
            line("loop", b.headerAddr, b.trips, tracer.loopPasses());
    for (const CalleeSummary &c : image.report.callees)
        if (c.bounded)
            line("callee", c.entryAddr, c.worstCaseCycles,
                 tracer.calleeCycles());
    for (const CheckpointRegion &r : image.report.regions)
        if (r.bounded)
            line("region", r.entryAddr, r.worstCaseCycles,
                 tracer.regionCycles());
}

TEST(Oracle, ShippingAppBoundsHoldOnTheInterpreter)
{
    // Every shipping app, run to completion from a cold boot under
    // steady power; the runtime's boot path is traced alongside.
    for (const LintImage &image : lintImages()) {
        if (!image.shipping || image.options.profile != LintProfile::kApp)
            continue;
        OracleSoc rig;
        const Linted app = lintAsCallee(image);
        const Linted runtime = lintOracleRuntime(rig);
        if (image.name == "conversion") {
            const auto table =
                soc::packCalibrationTable(rig.monitor->enrollment());
            for (std::size_t i = 0; i < table.size(); ++i)
                rig.soc.fram().write(soc::kCalibrationTableAddr -
                                         rig.layout.framBase +
                                         std::uint32_t(i),
                                     table[i], 1);
            rig.soc.loadApp(image.code);
        } else {
            bool found = false;
            for (const soc::GuestProgram &p : soc::standardWorkloads())
                if (p.name == image.name) {
                    rig.soc.loadGuest(p);
                    found = true;
                }
            ASSERT_TRUE(found) << image.name;
        }
        BoundTracer appTrace(app), runtimeTrace(runtime);
        rig.soc.powerOn();
        rig.run({&appTrace, &runtimeTrace},
                [&] { return rig.soc.appFinished(); });
        ASSERT_TRUE(rig.soc.appFinished()) << image.name;
        expectSound(appTrace);
        expectSound(runtimeTrace);
        printBounds(app, appTrace);
        // Non-vacuous wherever fs-lint bounds something: each bounded
        // loop and the app's own run (a callee of the harness) ran.
        for (const LoopBound &b : app.report.loopBounds)
            EXPECT_TRUE(appTrace.loopPasses().count(b.headerAddr))
                << image.name << " loop @" << b.headerAddr;
        for (const CalleeSummary &c : app.report.callees) {
            if (c.bounded) {
                EXPECT_TRUE(appTrace.calleeCycles().count(c.entryAddr))
                    << image.name << " callee @" << c.entryAddr;
            }
        }
    }
}

TEST(Oracle, CommitPathBoundsHoldOnTheInterpreter)
{
    // A supply dip under a running app forces one real commit (trap
    // entry -> fs.mark), then power fails and the next boot validates
    // both slots and restores: every runtime loop, the CRC callee and
    // the commit region run.
    OracleSoc rig;
    const Linted runtime = lintOracleRuntime(rig);
    const soc::GuestProgram prog = soc::makeCrc32Program(4096, 11);
    rig.soc.loadGuest(prog);
    BoundTracer trace(runtime);
    rig.soc.powerOn();
    rig.run({&trace}, [&] { return rig.soc.totalCycles() >= 20'000; });
    ASSERT_FALSE(rig.soc.appFinished());
    rig.supply = 1.85; // below the checkpoint threshold
    rig.run({&trace}, [&] {
        return rig.soc.checkpointCommitted() &&
               rig.soc.hart().waitingForInterrupt();
    }, 200'000);
    ASSERT_TRUE(rig.soc.checkpointCommitted());
    rig.soc.powerFail();
    trace.powerFail();
    rig.supply = 3.3;
    rig.soc.powerOn();
    rig.run({&trace}, [&] { return rig.soc.appFinished(); });
    ASSERT_TRUE(rig.soc.appFinished());
    EXPECT_EQ(rig.soc.guestResult(prog), prog.expected);

    expectSound(trace);
    printBounds(runtime, trace);
    // Non-vacuous: every bounded site of the runtime was observed.
    for (const LoopBound &b : runtime.report.loopBounds)
        EXPECT_TRUE(trace.loopPasses().count(b.headerAddr))
            << "loop @" << b.headerAddr << " never ran";
    for (const CalleeSummary &c : runtime.report.callees)
        EXPECT_TRUE(trace.calleeCycles().count(c.entryAddr))
            << "callee @" << c.entryAddr << " never ran";
    const std::uint32_t commit = rig.layout.handlerAddr();
    ASSERT_TRUE(trace.regionCycles().count(commit));
    EXPECT_LE(trace.regionCycles().at(commit).value,
              runtime.report.worstCaseCommitCycles);
}

/** One generated counted loop: see loopProgram(). */
struct LoopCase {
    int relation = 0;      ///< 0..5: beq bne blt bge bltu bgeu
    bool ivFirst = true;   ///< iv is rs1 (else rs2)
    int shape = 0;         ///< see loopProgram()
    std::int32_t init = 0;
    std::int32_t bound = 0;
    std::int32_t step = 1;
};

/**
 * A called function whose loop counts t0 from `init` by `step` against
 * t1 = `bound`. Shapes: 0 tests at the top and exits when the branch
 * is taken; 1 tests at the top and continues when taken; 2 tests at
 * the bottom and continues when taken. Shapes 3 and 4 are shape 2
 * with a three-pass inner loop in the body, and with the step run on
 * every other trip only: loops whose body runs more often than the
 * induction variable counts.
 */
std::vector<Word>
loopProgram(const LoopCase &c)
{
    using Branch = void (Assembler::*)(Word, Word, Assembler::Label);
    static constexpr Branch kBranch[] = {
        &Assembler::beqTo, &Assembler::bneTo,  &Assembler::bltTo,
        &Assembler::bgeTo, &Assembler::bltuTo, &Assembler::bgeuTo};
    Assembler as(0x1000);
    const auto fn = as.newLabel();
    const auto head = as.newLabel();
    const auto body = as.newLabel();
    const auto exit = as.newLabel();
    const auto branch = [&](Assembler::Label target) {
        (as.*kBranch[c.relation])(c.ivFirst ? kT0 : kT1,
                                  c.ivFirst ? kT1 : kT0, target);
    };
    as.jalTo(kRa, fn);
    as.emit(ebreak());
    as.bind(fn);
    as.li(kT0, c.init);
    as.li(kT1, c.bound);
    as.li(kT3, 0);
    as.li(kT5, 3);
    as.bind(head);
    if (c.shape == 0) {
        branch(exit);
    } else if (c.shape == 1) {
        branch(body);
        as.jTo(exit);
        as.bind(body);
    }
    as.emit(addi(kT2, kT2, 1));
    if (c.shape == 3) {
        const auto inner = as.newLabel();
        as.li(kT4, 0);
        as.bind(inner);
        as.emit(addi(kT4, kT4, 1));
        as.bltTo(kT4, kT5, inner);
    }
    const auto skip = as.newLabel();
    if (c.shape == 4) {
        as.emit(xori(kT3, kT3, 1));
        as.beqTo(kT3, kZero, skip);
    }
    as.emit(addi(kT0, kT0, c.step));
    if (c.shape == 4)
        as.bind(skip);
    if (c.shape >= 2)
        branch(head);
    else
        as.jTo(head);
    as.bind(exit);
    as.emit(jalr(kZero, kRa, 0));
    return as.finalize();
}

/**
 * Run a loopProgram() image on the interpreter under `trace` for at
 * most 20,000 steps; returns whether it halted.
 */
bool
runLoop(const Linted &image, BoundTracer &trace)
{
    riscv::Ram ram(0x2000);
    ram.loadWords(0x1000, image.code);
    riscv::Hart hart(ram);
    hart.setDbtEnabled(false);
    hart.reset(0x1000);
    traceRun(
        hart, {&trace}, [&] { return hart.step(); },
        [&](std::uint32_t pc) { return ram.read(pc, 4); },
        [&] { return hart.halted(); }, 20'000);
    return hart.halted();
}

TEST(Oracle, GeneratedLoopBoundsHoldForEveryBranchRelation)
{
    // Every branch relation in both operand orders and every shape,
    // so the continue predicate takes every form (<, <=, >, >=, !=)
    // the trip inference normalizes to; seeded starts, bounds and
    // steps of either sign. Loops that do not terminate are not
    // programs the bound speaks about and are skipped.
    Rng rng(0x0AC1E);
    std::size_t bounded = 0, tight = 0;
    for (int relation = 0; relation < 6; ++relation)
        for (const bool ivFirst : {true, false})
            for (int shape = 0; shape < 5; ++shape)
                for (int draw = 0; draw < 6; ++draw) {
                    LoopCase c;
                    c.relation = relation;
                    c.ivFirst = ivFirst;
                    c.shape = shape;
                    const bool isUnsigned = relation >= 4;
                    const std::int64_t lo = isUnsigned ? 0 : -12;
                    c.init = std::int32_t(rng.uniformInt(lo, lo + 24));
                    c.bound = std::int32_t(rng.uniformInt(lo, lo + 24));
                    c.step = std::int32_t(rng.uniformInt(1, 3)) *
                             (rng.bernoulli(0.5) ? 1 : -1);

                    const Linted image = lintWith(
                        LintOptions{}, "loop", loopProgram(c), 0x1000);
                    BoundTracer trace(image);
                    if (!runLoop(image, trace))
                        continue; // the loop never ends
                    std::ostringstream label;
                    label << "relation " << relation << " ivFirst "
                          << ivFirst << " shape " << shape << " init "
                          << c.init << " bound " << c.bound << " step "
                          << c.step;
                    for (const std::string &v : trace.violations())
                        ADD_FAILURE() << label.str() << ": " << v;
                    if (image.report.loopBounds.empty())
                        continue;
                    ++bounded;
                    const LoopBound &b = image.report.loopBounds[0];
                    if (trace.loopPasses().at(b.headerAddr).value ==
                        b.trips)
                        ++tight;
                }
    std::printf("[oracle] %zu generated loops bounded, %zu exactly\n",
                bounded, tight);
    // Enough bounded loops to mean something, and some the inference
    // bounds exactly: the oracle sees a single lost trip.
    EXPECT_GE(bounded, 60u);
    EXPECT_GT(tight, 0u);
}

TEST(Oracle, LoopsThatWrapTheCompareDomainGetNoBound)
{
    // Bottom-tested loops whose iv steps out of the signed or
    // unsigned compare domain and wraps around: from the last value
    // that passes the test (these never exit), or from the entry
    // value (these run ~2^31 trips before the test fails). The
    // generated-loop oracle cannot observe either, so the linter must
    // refuse a bound on its own.
    const std::int32_t kMax = std::numeric_limits<std::int32_t>::max();
    const std::int32_t kMin = std::numeric_limits<std::int32_t>::min();
    const LoopCase wraps[] = {
        // relation, ivFirst, shape, init, bound, step
        {3, false, 2, 0, kMax, 1},    // t0 <= INT32_MAX
        {5, false, 2, 0, -1, 1},      // t0 <=u UINT32_MAX
        {3, true, 2, 0, kMin, -1},    // t0 >= INT32_MIN
        {5, true, 2, 5, 0, -1},       // t0 >=u 0
        {3, false, 2, kMax, 5, 1},    // t0 = INT32_MAX; t0 <= 5
        {5, false, 2, -1, 5, 1},      // t0 = UINT32_MAX; t0 <=u 5
        {3, true, 2, kMin, -5, -1},   // t0 = INT32_MIN; t0 >= -5
        {5, true, 2, 0, 5, -1},       // t0 = 0; t0 >=u 5
    };
    for (const LoopCase &c : wraps) {
        const LintReport report =
            lintWith(LintOptions{}, "wrap", loopProgram(c), 0x1000).report;
        EXPECT_TRUE(report.loopBounds.empty())
            << "relation " << c.relation << " init " << c.init
            << " bound " << c.bound << " step " << c.step << ": bounded at "
            << report.loopBounds[0].trips << " trips";
    }

    // Stepping exactly onto the domain edge does not wrap: t0 < INT32_MAX
    // from INT32_MAX - 10 stops at INT32_MAX, bounded and sound.
    const LoopCase edge{2, true, 2, kMax - 10, kMax, 1};
    const Linted image = lintWith(LintOptions{}, "edge", loopProgram(edge),
                                  0x1000);
    ASSERT_EQ(image.report.loopBounds.size(), 1u);
    BoundTracer trace(image);
    ASSERT_TRUE(runLoop(image, trace));
    expectSound(trace);
    EXPECT_EQ(trace.loopPasses().at(image.report.loopBounds[0].headerAddr)
                  .value,
              10u);
}

} // namespace
} // namespace analysis
} // namespace fs
