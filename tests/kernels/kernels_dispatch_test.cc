// Dispatch-selection tests. The pure ResolveDispatchMode logic is tested
// directly; the process-wide override is tested by setting
// DEEPEVEREST_KERNELS=scalar from a static initialiser, which runs before
// any code can touch Active() — so this binary observes the forced mode no
// matter what hardware it runs on.

#include "kernels/kernels.h"

#include <cstdlib>

#include <gtest/gtest.h>

namespace deepeverest {
namespace kernels {
namespace {

// Runs before main(), hence before the one-time resolution in
// ActiveDispatchMode() can possibly have happened.
const bool kEnvForced = [] {
  setenv("DEEPEVEREST_KERNELS", "scalar", /*overwrite=*/1);
  return true;
}();

TEST(KernelDispatchTest, ResolveAutodetects) {
  EXPECT_EQ(ResolveDispatchMode(nullptr, /*avx2_supported=*/true),
            DispatchMode::kAvx2);
  EXPECT_EQ(ResolveDispatchMode(nullptr, /*avx2_supported=*/false),
            DispatchMode::kScalar);
  EXPECT_EQ(ResolveDispatchMode("", /*avx2_supported=*/true),
            DispatchMode::kAvx2);
}

TEST(KernelDispatchTest, ResolveHonoursExplicitModes) {
  EXPECT_EQ(ResolveDispatchMode("scalar", /*avx2_supported=*/true),
            DispatchMode::kScalar);
  EXPECT_EQ(ResolveDispatchMode("scalar", /*avx2_supported=*/false),
            DispatchMode::kScalar);
  EXPECT_EQ(ResolveDispatchMode("avx2", /*avx2_supported=*/true),
            DispatchMode::kAvx2);
}

TEST(KernelDispatchTest, ResolveFallsBackWhenAvx2Unavailable) {
  EXPECT_EQ(ResolveDispatchMode("avx2", /*avx2_supported=*/false),
            DispatchMode::kScalar);
}

TEST(KernelDispatchTest, ResolveRejectsUnknownValues) {
  EXPECT_EQ(ResolveDispatchMode("sse9", /*avx2_supported=*/true),
            DispatchMode::kAvx2);  // warns, then autodetects
  EXPECT_EQ(ResolveDispatchMode("sse9", /*avx2_supported=*/false),
            DispatchMode::kScalar);
}

TEST(KernelDispatchTest, ModeNames) {
  EXPECT_STREQ(DispatchModeName(DispatchMode::kScalar), "scalar");
  EXPECT_STREQ(DispatchModeName(DispatchMode::kAvx2), "avx2");
}

TEST(KernelDispatchTest, ForcedScalarOverrideWins) {
  ASSERT_TRUE(kEnvForced);
  // Even on AVX2 hardware, the env override must pin the process to the
  // scalar table — this is what the CI scalar test-matrix leg relies on.
  EXPECT_EQ(ActiveDispatchMode(), DispatchMode::kScalar);
  EXPECT_STREQ(Active().name, "scalar");
}

TEST(KernelDispatchTest, ScalarTableAlwaysAvailable) {
  const KernelTable& table = GetKernelTable(DispatchMode::kScalar);
  EXPECT_STREQ(table.name, "scalar");
  for (int k = 0; k < kNumAggKinds; ++k) {
    EXPECT_NE(table.abs_diff_agg[k], nullptr);
    EXPECT_NE(table.value_agg[k], nullptr);
  }
  EXPECT_NE(table.unpack, nullptr);
  EXPECT_NE(table.select_eq, nullptr);
  EXPECT_NE(table.nonzero_mask, nullptr);
  EXPECT_NE(table.compact, nullptr);
}

}  // namespace
}  // namespace kernels
}  // namespace deepeverest
