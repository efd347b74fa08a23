/**
 * @file
 * Tests for the synthetic workload suite: determinism, instruction mix,
 * branch-path consistency, region layout, registry.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "trace/kernel_dsl.hh"
#include "trace/kernels.hh"
#include "trace/suite.hh"
#include "trace/trace_stats.hh"

namespace ltp {
namespace {

TEST(Region, ElementAddressingWraps)
{
    Region r{0x1000, 64};
    EXPECT_EQ(r.elem(0, 8), 0x1000u);
    EXPECT_EQ(r.elem(7, 8), 0x1038u);
    EXPECT_EQ(r.elem(8, 8), 0x1000u); // wrap
}

TEST(Region, RandElemInsideRegion)
{
    Region r{0x4000, 4096};
    Rng rng(3);
    for (int i = 0; i < 1000; ++i) {
        Addr a = r.randElem(rng, 8);
        EXPECT_GE(a, r.base);
        EXPECT_LT(a, r.base + r.bytes);
    }
}

TEST(Suite, RegistryComplete)
{
    EXPECT_EQ(kernelSuite().size(), 15u); // paper_loop + 7 + 7
    EXPECT_EQ(kernelNames(MlpIntent::Sensitive).size(), 7u);
    EXPECT_EQ(kernelNames(MlpIntent::Insensitive).size(), 7u);
    EXPECT_EQ(allKernelNames().size(), 14u);
}

TEST(Suite, MakeKernelByName)
{
    for (const auto &e : kernelSuite()) {
        WorkloadPtr w = makeKernel(e.name);
        ASSERT_NE(w, nullptr);
        EXPECT_EQ(w->name(), e.name);
    }
}

class KernelParam : public ::testing::TestWithParam<std::string>
{
};

TEST_P(KernelParam, DeterministicStream)
{
    WorkloadPtr a = makeKernel(GetParam());
    WorkloadPtr b = makeKernel(GetParam());
    a->reset(17);
    b->reset(17);
    for (int i = 0; i < 5000; ++i) {
        MicroOp oa = a->next();
        MicroOp ob = b->next();
        ASSERT_EQ(oa.pc, ob.pc) << "at inst " << i;
        ASSERT_EQ(oa.opc, ob.opc);
        ASSERT_EQ(oa.effAddr, ob.effAddr);
        ASSERT_EQ(oa.taken, ob.taken);
    }
}

TEST_P(KernelParam, ResetRestartsStream)
{
    WorkloadPtr w = makeKernel(GetParam());
    w->reset(5);
    std::vector<Addr> first;
    for (int i = 0; i < 200; ++i)
        first.push_back(w->next().pc);
    w->reset(5);
    for (int i = 0; i < 200; ++i)
        EXPECT_EQ(w->next().pc, first[i]) << "at inst " << i;
}

TEST_P(KernelParam, SeedChangesAddresses)
{
    WorkloadPtr w = makeKernel(GetParam());
    auto addr_sum = [&](std::uint64_t seed) {
        w->reset(seed);
        Addr sum = 0;
        for (int i = 0; i < 2000; ++i) {
            MicroOp op = w->next();
            if (op.isMem())
                sum += op.effAddr;
        }
        return sum;
    };
    // Kernels with any randomized addressing must differ across seeds;
    // purely sequential kernels may legitimately be identical.
    Addr s1 = addr_sum(1), s2 = addr_sum(2);
    if (GetParam() != "dense_compute" && GetParam() != "reduction" &&
        GetParam() != "cache_stream" && GetParam() != "fp_kernel" &&
        GetParam() != "div_heavy") {
        EXPECT_NE(s1, s2);
    }
}

TEST_P(KernelParam, WellFormedMicroOps)
{
    WorkloadPtr w = makeKernel(GetParam());
    w->reset(7);
    for (int i = 0; i < 5000; ++i) {
        MicroOp op = w->next();
        if (op.isMem()) {
            EXPECT_GT(op.memSize, 0) << op.toString();
            EXPECT_GE(op.effAddr, 0x10000000u) << op.toString();
        }
        if (op.isLoad()) {
            EXPECT_TRUE(op.hasDst()) << op.toString();
        }
        if (op.isStore()) {
            EXPECT_FALSE(op.hasDst()) << op.toString();
        }
        if (op.isBranch()) {
            EXPECT_FALSE(op.hasDst()) << op.toString();
            EXPECT_NE(op.target, 0u) << op.toString();
        }
        for (const auto &s : op.srcs)
            if (s.valid()) {
                EXPECT_LT(s.idx, kArchRegsPerClass);
            }
    }
}

TEST_P(KernelParam, PcStreamConsistentWithBranches)
{
    // Between a non-taken branch (or non-branch) and the next op, the
    // PC must not go backwards within an iteration; after a taken
    // branch the next PC must equal the target.
    WorkloadPtr w = makeKernel(GetParam());
    w->reset(11);
    MicroOp prev = w->next();
    for (int i = 0; i < 5000; ++i) {
        MicroOp cur = w->next();
        if (prev.isBranch() && prev.taken) {
            EXPECT_EQ(cur.pc, prev.target)
                << "taken branch target mismatch at inst " << i;
        }
        prev = cur;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, KernelParam,
    ::testing::ValuesIn([] {
        std::vector<std::string> names = allKernelNames();
        names.push_back("paper_loop");
        return names;
    }()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

TEST(PaperLoop, MatchesFigure2Shape)
{
    WorkloadPtr w = makePaperLoop();
    w->reset(1);
    // One iteration: A..K = 11 micro-ops.
    std::vector<MicroOp> iter;
    for (int i = 0; i < 11; ++i)
        iter.push_back(w->next());

    EXPECT_EQ(iter[0].opc, OpClass::IntAlu);  // A addr calc
    EXPECT_EQ(iter[1].opc, OpClass::Load);    // B A[j]
    EXPECT_EQ(iter[2].opc, OpClass::IntAlu);  // C addr calc
    EXPECT_EQ(iter[3].opc, OpClass::Load);    // D B[t1]
    EXPECT_EQ(iter[4].opc, OpClass::IntAlu);  // E j--
    EXPECT_EQ(iter[5].opc, OpClass::IntAlu);  // F d+5
    EXPECT_EQ(iter[6].opc, OpClass::IntAlu);  // G addr calc
    EXPECT_EQ(iter[7].opc, OpClass::Store);   // H store
    EXPECT_EQ(iter[8].opc, OpClass::IntAlu);  // I i++
    EXPECT_EQ(iter[9].opc, OpClass::IntAlu);  // J t2
    EXPECT_EQ(iter[10].opc, OpClass::Branch); // K loop
    EXPECT_TRUE(iter[10].taken);
    EXPECT_EQ(iter[10].target, iter[0].pc);

    // Dependence topology: D's address register comes from C's dest,
    // which comes from B's dest, which comes from A's dest.
    EXPECT_EQ(iter[3].srcs[0], iter[2].dst);
    EXPECT_EQ(iter[2].srcs[0], iter[1].dst);
    EXPECT_EQ(iter[1].srcs[0], iter[0].dst);
}

TEST(PaperLoop, BMissesAndAHitsFootprints)
{
    // The B[] region (random) must be far larger than the LLC; the A[]
    // walk must be sequential (descending) so the prefetcher covers it.
    WorkloadPtr w = makePaperLoop();
    w->reset(1);
    std::vector<Addr> a_addrs, b_addrs;
    for (int i = 0; i < 11 * 50; ++i) {
        MicroOp op = w->next();
        if (!op.isLoad())
            continue;
        // Loads alternate A (slot B) then B (slot D) per iteration.
        if (a_addrs.size() == b_addrs.size())
            a_addrs.push_back(op.effAddr);
        else
            b_addrs.push_back(op.effAddr);
    }
    // A walks descending with stride 8.
    for (std::size_t i = 1; i < a_addrs.size(); ++i)
        EXPECT_EQ(a_addrs[i - 1] - a_addrs[i], 8u);
    // B spans far more than the 1MB L3.
    Addr lo = *std::min_element(b_addrs.begin(), b_addrs.end());
    Addr hi = *std::max_element(b_addrs.begin(), b_addrs.end());
    EXPECT_GT(hi - lo, 8u << 20);
}

TEST(TraceMix, MeasuresPaperLoop)
{
    WorkloadPtr w = makePaperLoop();
    TraceMix mix = measureMix(*w, 1100, 1);
    EXPECT_EQ(mix.insts, 1100u);
    EXPECT_NEAR(mix.frac(mix.loads), 2.0 / 11, 0.01);
    EXPECT_NEAR(mix.frac(mix.stores), 1.0 / 11, 0.01);
    EXPECT_NEAR(mix.frac(mix.branches), 1.0 / 11, 0.01);
    EXPECT_EQ(mix.uniquePcs, 11u);
}

TEST(TraceMix, KernelsHaveReasonableMixes)
{
    for (const std::string &name : allKernelNames()) {
        WorkloadPtr w = makeKernel(name);
        TraceMix mix = measureMix(*w, 5000, 1);
        EXPECT_GT(mix.frac(mix.loads), 0.02) << name;
        EXPECT_LT(mix.frac(mix.loads), 0.6) << name;
        EXPECT_GT(mix.frac(mix.branches), 0.02) << name;
        EXPECT_GT(mix.uniquePcs, 3u) << name;
        EXPECT_LT(mix.uniquePcs, 64u) << name;
    }
}

TEST(KernelDsl, RegionsDoNotOverlap)
{
    // Two regions carved by the same kernel must be disjoint, padded
    // to distinct cache blocks.
    class Probe : public Kernel<Probe>
    {
      public:
        Probe() : Kernel("probe") {}
        Region a, b;

      protected:
        void
        init() override
        {
            a = region(1000);
            b = region(1000);
        }
        void
        emitIteration() override
        {
            emitOp(0, OpClass::Nop, RegId());
        }
    };
    Probe p;
    p.reset(1);
    EXPECT_GE(p.b.base, p.a.base + p.a.bytes);
    EXPECT_NE(blockAlign(p.a.base + p.a.bytes - 1), blockAlign(p.b.base));
}

TEST(KernelDsl, HashNameStable)
{
    EXPECT_EQ(hashName("abc"), hashName("abc"));
    EXPECT_NE(hashName("abc"), hashName("abd"));
}

} // namespace
} // namespace ltp
