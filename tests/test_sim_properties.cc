/**
 * @file
 * Property tests of the simulator over *real study configurations*:
 * directional sensitivities the architecture must exhibit for the
 * studies to carry signal, checked per benchmark on the actual
 * Table 4.1/4.2 mappings.
 */

#include <gtest/gtest.h>

#include "study/harness.hh"

namespace dse {
namespace study {
namespace {

/** Mid-level configuration of a space as a level vector. */
std::vector<int>
midLevels(const ml::DesignSpace &space)
{
    std::vector<int> lv(space.numParams());
    for (size_t p = 0; p < space.numParams(); ++p)
        lv[p] = space.param(p).numLevels() / 2;
    return lv;
}

double
ipcAt(StudyContext &ctx, std::vector<int> lv, const std::string &param,
      int level)
{
    lv[ctx.space().paramIndex(param)] = level;
    return ctx.simulateBatch({ctx.space().index(lv)})[0];
}

class MemoryStudyProperties : public ::testing::TestWithParam<std::string>
{
  protected:
    void
    SetUp() override
    {
        // Short traces keep each property test fast; sensitivities
        // survive the truncation.
        ctx_ = std::make_unique<StudyContext>(StudyKind::MemorySystem,
                                              GetParam(), 16384);
    }
    std::unique_ptr<StudyContext> ctx_;
};

TEST_P(MemoryStudyProperties, LargerL1HelpsOrIsNeutral)
{
    const auto mid = midLevels(ctx_->space());
    const double small = ipcAt(*ctx_, mid, "L1DSizeKB", 0);   // 8 KB
    const double large = ipcAt(*ctx_, mid, "L1DSizeKB", 3);   // 64 KB
    EXPECT_GE(large, small * 0.98) << GetParam();
}

TEST_P(MemoryStudyProperties, DirectMappedL2IsWorstL2Assoc)
{
    const auto mid = midLevels(ctx_->space());
    const double direct = ipcAt(*ctx_, mid, "L2Assoc", 0);
    double best_other = 0.0;
    for (int l = 1; l < 5; ++l)
        best_other = std::max(best_other,
                              ipcAt(*ctx_, mid, "L2Assoc", l));
    EXPECT_GE(best_other, direct) << GetParam();
}

TEST_P(MemoryStudyProperties, FasterFsbNeverHurtsMuch)
{
    const auto mid = midLevels(ctx_->space());
    const double slow = ipcAt(*ctx_, mid, "FSBGHz", 0);   // 0.533
    const double fast = ipcAt(*ctx_, mid, "FSBGHz", 2);   // 1.4
    EXPECT_GE(fast, slow * 0.99) << GetParam();
}

TEST_P(MemoryStudyProperties, WiderL2BusNeverHurtsMuch)
{
    const auto mid = midLevels(ctx_->space());
    const double narrow = ipcAt(*ctx_, mid, "L2BusB", 0);  // 8 B
    const double wide = ipcAt(*ctx_, mid, "L2BusB", 2);    // 32 B
    EXPECT_GE(wide, narrow * 0.99) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Apps, MemoryStudyProperties,
                         ::testing::Values("gzip", "mcf", "crafty",
                                           "mgrid"));

class ProcessorStudyProperties
    : public ::testing::TestWithParam<std::string>
{
  protected:
    void
    SetUp() override
    {
        ctx_ = std::make_unique<StudyContext>(StudyKind::Processor,
                                              GetParam(), 16384);
    }
    std::unique_ptr<StudyContext> ctx_;
};

TEST_P(ProcessorStudyProperties, LowerFrequencyRaisesIpc)
{
    // IPC (not performance!) improves at lower clock: memory
    // latencies shrink in cycles. The paper's models learn exactly
    // this inversion.
    const auto mid = midLevels(ctx_->space());
    const double at2 = ipcAt(*ctx_, mid, "FreqGHz", 0);
    const double at4 = ipcAt(*ctx_, mid, "FreqGHz", 1);
    EXPECT_GT(at2, at4) << GetParam();
}

TEST_P(ProcessorStudyProperties, WiderMachineNeverSlower)
{
    const auto mid = midLevels(ctx_->space());
    const double narrow = ipcAt(*ctx_, mid, "Width", 0);  // 4-wide
    const double wide = ipcAt(*ctx_, mid, "Width", 2);    // 8-wide
    EXPECT_GE(wide, narrow * 0.99) << GetParam();
}

TEST_P(ProcessorStudyProperties, BiggerL1DNeverSlower)
{
    const auto mid = midLevels(ctx_->space());
    const double small = ipcAt(*ctx_, mid, "L1DSizeKB", 0);
    const double large = ipcAt(*ctx_, mid, "L1DSizeKB", 1);
    EXPECT_GE(large, small * 0.99) << GetParam();
}

TEST_P(ProcessorStudyProperties, BiggerRobNeverSlowerMuch)
{
    const auto mid = midLevels(ctx_->space());
    const double small = ipcAt(*ctx_, mid, "ROBSize", 0);
    const double large = ipcAt(*ctx_, mid, "ROBSize", 2);
    EXPECT_GE(large, small * 0.98) << GetParam();
}

TEST_P(ProcessorStudyProperties, ContextsAreDeterministic)
{
    StudyContext other(StudyKind::Processor, GetParam(), 16384);
    const uint64_t idx = other.space().size() / 7;
    EXPECT_DOUBLE_EQ(ctx_->simulateBatch({idx})[0],
                     other.simulateBatch({idx})[0]);
}

INSTANTIATE_TEST_SUITE_P(Apps, ProcessorStudyProperties,
                         ::testing::Values("gzip", "crafty", "mesa",
                                           "twolf"));

TEST(StudySignal, McfPrefersLargeL2)
{
    // The design rationale (DESIGN.md): mcf's cyclic working set
    // straddles the L2 sweep, so L2 capacity must carry signal.
    StudyContext ctx(StudyKind::MemorySystem, "mcf");
    const auto mid = midLevels(ctx.space());
    const double small = ipcAt(ctx, mid, "L2SizeKB", 0);  // 256 KB
    const double large = ipcAt(ctx, mid, "L2SizeKB", 3);  // 2 MB
    EXPECT_GT(large, small * 1.10);
}

TEST(StudySignal, CraftyIndifferentToL2Size)
{
    // crafty fits in the L1/small L2: capacity above 256 KB is
    // nearly free (matching real crafty's behaviour).
    StudyContext ctx(StudyKind::MemorySystem, "crafty", 16384);
    const auto mid = midLevels(ctx.space());
    const double small = ipcAt(ctx, mid, "L2SizeKB", 0);
    const double large = ipcAt(ctx, mid, "L2SizeKB", 3);
    EXPECT_NEAR(large / small, 1.0, 0.15);
}

} // namespace
} // namespace study
} // namespace dse
