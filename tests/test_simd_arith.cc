/**
 * @file
 * Unit and property tests for the arithmetic/logic/compare families of
 * the Neon emulation layer, across element types and register widths.
 */

#include <gtest/gtest.h>

#include "simd/simd.hh"
#include "trace/recorder.hh"

using namespace swan;
using namespace swan::simd;

namespace
{

template <typename T, int B>
Vec<T, B>
iota(T start, T step = T(1))
{
    Vec<T, B> v;
    T x = start;
    for (int i = 0; i < Vec<T, B>::kLanes; ++i) {
        v.lane[size_t(i)] = x;
        x = simd::detail::wrapAdd(x, step);
    }
    return v;
}

} // namespace

TEST(SimdArith, AddSubLanewise)
{
    auto a = iota<int32_t, 128>(1);
    auto b = iota<int32_t, 128>(10, 10);
    auto sum = vadd(a, b);
    auto diff = vsub(b, a);
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(sum[i], (i + 1) + 10 * (i + 1));
        EXPECT_EQ(diff[i], 10 * (i + 1) - (i + 1));
    }
}

TEST(SimdArith, AddWrapsU8)
{
    auto a = vdup<uint8_t, 128>(uint8_t(200));
    auto b = vdup<uint8_t, 128>(uint8_t(100));
    auto s = vadd(a, b);
    EXPECT_EQ(s[0], uint8_t(44)); // 300 mod 256
}

TEST(SimdArith, MulAndMla)
{
    auto a = iota<int16_t, 128>(1);
    auto b = vdup<int16_t, 128>(int16_t(3));
    auto acc = vdup<int16_t, 128>(int16_t(100));
    auto r = vmla(acc, a, b);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(r[i], int16_t(100 + 3 * (i + 1)));
}

TEST(SimdArith, MinMaxAbsNeg)
{
    auto a = iota<int32_t, 128>(-2); // -2,-1,0,1
    auto z = vdup<int32_t, 128>(0);
    auto mn = vmin(a, z);
    auto mx = vmax(a, z);
    auto ab = vabs(a);
    auto ng = vneg(a);
    for (int i = 0; i < 4; ++i) {
        const int32_t x = -2 + i;
        EXPECT_EQ(mn[i], std::min(x, 0));
        EXPECT_EQ(mx[i], std::max(x, 0));
        EXPECT_EQ(ab[i], std::abs(x));
        EXPECT_EQ(ng[i], -x);
    }
}

TEST(SimdArith, AbdAndAba)
{
    auto a = vdup<uint8_t, 128>(uint8_t(10));
    auto b = vdup<uint8_t, 128>(uint8_t(14));
    EXPECT_EQ(vabd(a, b)[0], 4);
    EXPECT_EQ(vabd(b, a)[0], 4);
    auto acc = vdup<uint8_t, 128>(uint8_t(1));
    EXPECT_EQ(vaba(acc, a, b)[0], 5);
}

TEST(SimdArith, HalvingAdds)
{
    auto a = vdup<uint8_t, 128>(uint8_t(255));
    auto b = vdup<uint8_t, 128>(uint8_t(254));
    EXPECT_EQ(vhadd(a, b)[0], uint8_t((255 + 254) >> 1));
    EXPECT_EQ(vrhadd(a, b)[0], uint8_t((255 + 254 + 1) >> 1));
}

TEST(SimdArith, SaturatingAddSub)
{
    auto big = vdup<int16_t, 128>(int16_t(32000));
    auto r = vqadd(big, big);
    EXPECT_EQ(r[0], 32767);
    auto small = vdup<int16_t, 128>(int16_t(-32000));
    EXPECT_EQ(vqsub(small, big)[0], -32768);
    auto u = vdup<uint8_t, 128>(uint8_t(3));
    auto v = vdup<uint8_t, 128>(uint8_t(5));
    EXPECT_EQ(vqsub(u, v)[0], 0); // unsigned floor
}

TEST(SimdArith, QdmulhMatchesReference)
{
    auto a = vdup<int16_t, 128>(int16_t(12345));
    auto b = vdup<int16_t, 128>(int16_t(-23456));
    const int64_t p = int64_t(12345) * -23456 * 2;
    EXPECT_EQ(vqdmulh(a, b)[0], int16_t(p >> 16));
    const int64_t pr = p + (1 << 15);
    EXPECT_EQ(vqrdmulh(a, b)[0], int16_t(pr >> 16));
}

TEST(SimdArith, LogicOps)
{
    auto a = vdup<uint32_t, 128>(0xf0f0f0f0u);
    auto b = vdup<uint32_t, 128>(0x0ff00ff0u);
    EXPECT_EQ(vand(a, b)[0], 0xf0f0f0f0u & 0x0ff00ff0u);
    EXPECT_EQ(vorr(a, b)[0], 0xf0f0f0f0u | 0x0ff00ff0u);
    EXPECT_EQ(veor(a, b)[0], 0xf0f0f0f0u ^ 0x0ff00ff0u);
    EXPECT_EQ(vbic(a, b)[0], 0xf0f0f0f0u & ~0x0ff00ff0u);
    EXPECT_EQ(vmvn(a)[0], ~0xf0f0f0f0u);
}

TEST(SimdArith, Shifts)
{
    auto a = vdup<int32_t, 128>(-256);
    EXPECT_EQ(vshl(a, 2)[0], -1024);
    EXPECT_EQ(vshr(a, 4)[0], -16); // arithmetic
    EXPECT_EQ(vrshr(a, 3)[0], (-256 + 4) >> 3);
    auto acc = vdup<int32_t, 128>(100);
    EXPECT_EQ(vsra(acc, a, 4)[0], 100 - 16);
}

TEST(SimdArith, CompareProducesAllOnesMask)
{
    auto a = iota<int32_t, 128>(0); // 0,1,2,3
    auto b = vdup<int32_t, 128>(2);
    auto gt = vcgt(a, b);
    EXPECT_EQ(gt[0], 0u);
    EXPECT_EQ(gt[3], 0xffffffffu);
    auto le = vcle(a, b);
    EXPECT_EQ(le[0], 0xffffffffu);
    EXPECT_EQ(le[3], 0u);
}

TEST(SimdArith, BslSelectsBitwise)
{
    auto m = vdup<uint32_t, 128>(0x00ff00ffu);
    auto a = vdup<uint32_t, 128>(0xaaaaaaaau);
    auto b = vdup<uint32_t, 128>(0x55555555u);
    EXPECT_EQ(vbsl(m, a, b)[0],
              (0xaaaaaaaau & 0x00ff00ffu) | (0x55555555u & ~0x00ff00ffu));
}

TEST(SimdArith, FloatCompareAndBsl)
{
    auto a = vdup<float, 128>(1.5f);
    auto b = vdup<float, 128>(2.5f);
    auto m = vclt(a, b);
    EXPECT_EQ(m[0], 0xffffffffu);
    auto sel = vbsl(m, a, b);
    EXPECT_FLOAT_EQ(sel[0], 1.5f);
}

TEST(SimdArith, FmaFloat)
{
    auto acc = vdup<float, 128>(1.0f);
    auto a = vdup<float, 128>(2.0f);
    auto b = vdup<float, 128>(3.0f);
    EXPECT_FLOAT_EQ(vmla(acc, a, b)[0], 7.0f);
    EXPECT_FLOAT_EQ(vmls(acc, a, b)[0], -5.0f);
    EXPECT_FLOAT_EQ(vdiv(a, b)[0], 2.0f / 3.0f);
}

// --- Property-style sweeps over widths -------------------------------

template <typename P>
class SimdWidthTest : public ::testing::Test
{
};

struct W128 { static constexpr int kBits = 128; };
struct W256 { static constexpr int kBits = 256; };
struct W512 { static constexpr int kBits = 512; };
struct W1024 { static constexpr int kBits = 1024; };
using Widths = ::testing::Types<W128, W256, W512, W1024>;
TYPED_TEST_SUITE(SimdWidthTest, Widths);

TYPED_TEST(SimdWidthTest, LaneCountsScaleWithWidth)
{
    constexpr int b = TypeParam::kBits;
    EXPECT_EQ((Vec<uint8_t, b>::kLanes), b / 8);
    EXPECT_EQ((Vec<int16_t, b>::kLanes), b / 16);
    EXPECT_EQ((Vec<float, b>::kLanes), b / 32);
    EXPECT_EQ((Vec<Half, b>::kLanes), b / 16);
}

TYPED_TEST(SimdWidthTest, AddIsLanewiseAtEveryWidth)
{
    constexpr int b = TypeParam::kBits;
    auto a = iota<uint16_t, b>(uint16_t(1));
    auto s = vadd(a, a);
    for (int i = 0; i < Vec<uint16_t, b>::kLanes; ++i)
        EXPECT_EQ(s[i], uint16_t(2 * (i + 1)));
}

TYPED_TEST(SimdWidthTest, DupFillsAllLanes)
{
    constexpr int b = TypeParam::kBits;
    auto v = vdup<int32_t, b>(42);
    for (int i = 0; i < Vec<int32_t, b>::kLanes; ++i)
        EXPECT_EQ(v[i], 42);
}

TEST(SimdArith, TracingAssignsMonotonicIds)
{
    trace::Recorder rec;
    trace::ScopedRecorder scoped(&rec);
    auto a = vdup<int32_t, 128>(1);
    auto b = vdup<int32_t, 128>(2);
    auto c = vadd(a, b);
    EXPECT_GT(a.src, 0u);
    EXPECT_GT(b.src, a.src);
    EXPECT_GT(c.src, b.src);
    const auto &instr = rec.instrs().back();
    EXPECT_EQ(instr.dep0, a.src);
    EXPECT_EQ(instr.dep1, b.src);
    EXPECT_EQ(instr.cls, trace::InstrClass::VInt);
}

TEST(SimdArith, NoTracingMeansNoIds)
{
    auto a = vdup<int32_t, 128>(1);
    EXPECT_EQ(a.src, 0u);
}
